"""The JSON layout of the result records: key names and order, round trips,
and decoding of partial input."""

import json
import math

import numpy as np
import pytest

from domsplit import cli, words
from domsplit import example4d as ex
from domsplit.grassmann import ConeSample, Plane
from domsplit.multicone import Multicone
from domsplit.words import FamilySource, GapReport, MatrixFamily, Verdict


def key_paths(value, prefix=""):
    """Every key of a JSON value in document order, as dotted paths; list
    elements are read from the first element and marked ``[]``."""
    if isinstance(value, dict):
        out = []
        for key, item in value.items():
            out.append(prefix + key)
            out += key_paths(item, prefix + key + ".")
        return out
    if isinstance(value, list) and value:
        return key_paths(value[0], prefix[:-1] + "[].")
    return []


@pytest.fixture()
def diag_spec(tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"dim": 2, "matrices": [{"label": "A", "entries": [2, 0, 0, 1]}]}))
    return path


def _cli_json(tmp_path, argv, name):
    out = tmp_path / "out"
    cli.main([*argv, "--out", str(out)])
    return json.loads((out / name).read_text())


def test_gap_report_key_layout(tmp_path):
    c, s = math.cos(1.0), math.sin(1.0)
    spec = tmp_path / "rot.json"
    spec.write_text(json.dumps({"dim": 2, "matrices": [{"label": "R", "entries": [c, -s, s, c]}]}))
    data = _cli_json(
        tmp_path, ["check", str(spec), "--index", "1", "--max-len", "4", "--budget", "16"], "gap_report.json"
    )
    assert data["verdict"]["witness_labels"] == ["R"]
    assert key_paths(data) == [
        "index",
        "family",
        "family.dim",
        "family.labels",
        "family.source",
        "family.source.kind",
        "family.source.description",
        "family.source.sample_count",
        "per_length",
        "per_length[].length",
        "per_length[].max_log_ratio",
        "per_length[].words_examined",
        "per_length[].exact",
        "per_length[].witness",
        "fit",
        "fit.log_C",
        "fit.log_tau",
        "fit.residual",
        "verdict",
        "verdict.kind",
        "verdict.witness",
        "verdict.reason",
        "verdict.witness_labels",
    ]


@pytest.mark.parametrize(
    "spec,index",
    [
        ({"dim": 2, "matrices": [{"label": "A", "entries": [2, 0, 0, 1]}]}, 1),
        ({"dim": 4, "matrices": [{"label": "A", "entries": np.diag([4, 3, 1, 0.5]).ravel().tolist()}]}, 2),
    ],
    ids=["2d", "4d"],
)
def test_multicone_key_layout(spec, index, tmp_path):
    # multicone.json is the record alone, in every dimension
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    data = _cli_json(tmp_path, ["multicone", str(path), "--index", str(index)], "multicone.json")
    assert data["component_gap"] is None
    assert key_paths(data) == [
        "cone",
        "cone.grass_index",
        "cone.radius",
        "cone.frames",
        "components",
        "invariance_margin",
        "component_gap",
    ]


def test_splitting_key_layout(tmp_path, diag_spec):
    data = _cli_json(tmp_path, ["splitting", str(diag_spec), "--index", "1"], "splitting.json")
    assert key_paths(data) == [
        "expanding_frame",
        "contracting_frame",
        "window_past",
        "window_future",
        "angle",
        "convergence_indicator",
        "verification",
        "verification.passes",
        "verification.fitted_slope",
        "verification.residual",
    ]


def _strict_json(text: str):
    """``json.loads`` that rejects the non-JSON tokens NaN, Infinity and
    -Infinity."""

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("window", ["--past-len", "--future-len"])
def test_length_one_window_writes_null_indicator(tmp_path, diag_spec, window):
    # a length-1 window has no shortened window to compare against: the NaN
    # indicator is written as null and read back as NaN
    from domsplit.splitting import SplittingEstimate

    out = tmp_path / "out"
    assert cli.main(["splitting", str(diag_spec), "--index", "1", window, "1", "--out", str(out)]) == 0
    data = _strict_json((out / "splitting.json").read_text())
    assert data["convergence_indicator"] is None
    est = SplittingEstimate.from_json_dict(data)
    assert math.isnan(est.convergence_indicator)
    assert est.to_json_dict() == {k: data[k] for k in est.to_json_dict()}


def test_json_writer_refuses_nan(tmp_path):
    with pytest.raises(ValueError):
        cli._write_json(tmp_path / "x.json", {"value": math.nan})
    assert not (tmp_path / "x.json").exists()


@pytest.fixture()
def full_example_report():
    """A hand-built report with every nested record present."""
    summary = ex.MulticoneSummary(3, 0.01, 0.2, 0.05, True, 0.3, True, True)
    trace = ex.TraceSummary(
        2,
        ((0.1, 0.5), (2.0, 3.5)),
        (("a", 0.0, True), ("b", 1.0, False)),
        ("a", "c"),
        True,
        True,
    )
    side = ex.SideResult("dominated", -1.5, 0.01, summary, trace, True, None)
    failed = ex.SideResult("inconclusive", -0.001, 0.2, None, None, False, "domination")
    return ex.ExampleReport(
        grid_n=8,
        lam=32.0,
        scan=(ex.LambdaScanEntry(16.0, -0.1, 0.2, False), ex.LambdaScanEntry(32.0, 0.01, 0.02, True)),
        skew_min_distance=0.4,
        skew_min_parallelism_defect=0.3,
        unstable=side,
        stable=failed,
        perturbed_unstable=None,
        perturbed_stable=None,
        passed=False,
        failing_stage="stable: domination",
    )


def test_example_report_key_layout(full_example_report):
    data = json.loads(json.dumps(full_example_report.to_json_dict()))
    side = [
        "verdict",
        "fitted_log_tau",
        "fit_residual",
        "multicone",
        "multicone.component_count",
        "multicone.invariance_margin",
        "multicone.component_gap",
        "multicone.contained_max_distance",
        "multicone.contained_all",
        "multicone.excluded_min_distance",
        "multicone.excluded_all",
        "multicone.single_relevant_component",
        "trace",
        "trace.arc_count",
        "trace.arcs",
        "trace.axis_points",
        "trace.expected_occupied",
        "trace.occupancy_ok",
        "trace.interleaving_ok",
        "passed",
        "failing_stage",
    ]
    assert key_paths(data) == [
        "grid_n",
        "lambda",
        "scan",
        "scan[].lambda",
        "scan[].unstable_margin",
        "scan[].stable_margin",
        "scan[].passed",
        "skew_min_distance",
        "skew_min_parallelism_defect",
        "unstable",
        *["unstable." + k for k in side],
        "stable",
        *["stable." + k for k in side if "." not in k],
        "perturbed_unstable",
        "perturbed_stable",
        "passed",
        "failing_stage",
    ]
    assert data["unstable"]["trace"]["axis_points"] == [["a", 0.0, True], ["b", 1.0, False]]
    assert ex.ExampleReport.from_json_dict(data) == full_example_report


def direction(theta):
    return Plane.span(np.array([math.cos(theta), math.sin(theta)]))


def test_multicone_round_trip_two_components():
    cone = ConeSample(1, (direction(0.0), direction(0.05), direction(1.0)), 0.1)
    mc = Multicone(cone=cone, components=((0, 1), (2,)), invariance_margin=0.01, component_gap=0.75)
    data = json.loads(json.dumps(mc.to_json_dict()))
    assert data["components"] == [[0, 1], [2]]
    assert data["component_gap"] == 0.75
    back = Multicone.from_json_dict(data)
    assert back.components == mc.components
    assert back.invariance_margin == mc.invariance_margin
    assert back.component_gap == 0.75
    assert back.cone.radius == cone.radius
    for p, q in zip(back.cone.points, cone.points):
        assert np.array_equal(p.frame, q.frame)


def test_multicone_summary_single_component_gap_round_trip():
    # one component: the gap is +inf in memory and null in JSON
    summary = ex.MulticoneSummary(
        component_count=1,
        invariance_margin=0.01,
        component_gap=math.inf,
        contained_max_distance=0.1,
        contained_all=True,
        excluded_min_distance=0.5,
        excluded_all=True,
        single_relevant_component=True,
    )
    data = json.loads(json.dumps(summary.to_json_dict()))
    assert data["component_gap"] is None
    assert ex.MulticoneSummary.from_json_dict(data) == summary


def test_gap_report_decodes_without_fit_and_verdict():
    fam = MatrixFamily.from_matrices([np.diag([2.0, 1.0])], ["A"])
    report = words.enumerate_gaps(fam, 1, words.SearchConfig(max_len=4, budget=10))
    data = json.loads(json.dumps(report.to_json_dict()))
    del data["fit"], data["verdict"]
    assert GapReport.from_json_dict(data) == report


def test_verdict_ignores_witness_labels():
    data = {"kind": "not_dominated", "witness": [0, 1], "reason": None, "witness_labels": ["A", "B"]}
    assert Verdict.from_json_dict(data) == Verdict(kind="not_dominated", witness=(0, 1))


def test_family_source_missing_keys_take_defaults():
    assert FamilySource.from_json_dict({}) == FamilySource()
    assert FamilySource.from_json_dict({"kind": "sampled_curve", "sample_count": 12}) == FamilySource(
        kind="sampled_curve", sample_count=12
    )
