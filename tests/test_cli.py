"""Exit codes, file outputs, determinism, and spec-file validation."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import interleaved_family
from domsplit import cli, example4d, multicone, splitting, words
from domsplit.words import GapReport, SearchConfig


@pytest.fixture()
def diag_spec(tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"dim": 2, "matrices": [{"label": "A", "entries": [2, 0, 0, 1]}]}))
    return path


@pytest.fixture()
def rotation_spec(tmp_path):
    c, s = math.cos(1.0), math.sin(1.0)
    path = tmp_path / "rot.json"
    path.write_text(json.dumps({"dim": 2, "matrices": [{"label": "R", "entries": [c, -s, s, c]}]}))
    return path


def test_check_dominated_exit_zero(diag_spec, tmp_path):
    out = tmp_path / "out"
    code = cli.main(["check", str(diag_spec), "--index", "1", "--out", str(out)])
    assert code == 0
    report = GapReport.from_json_dict(json.loads((out / "gap_report.json").read_text()))
    assert report.verdict.kind == "dominated"
    header = (out / "gap_report.csv").read_text().splitlines()[0]
    assert header == "N,max_log_ratio,words_examined,exact"


def test_check_not_dominated_exit_two(rotation_spec, tmp_path):
    code = cli.main(["check", str(rotation_spec), "--index", "1", "--out", str(tmp_path / "o")])
    assert code == 2


def test_check_malformed_json_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "matrices": [')
    code = cli.main(["check", str(bad), "--index", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err
    assert not (tmp_path / "o" / "gap_report.json").exists()  # no partial outputs


def test_check_singular_member_exit_one(tmp_path, capsys):
    spec = tmp_path / "singular.json"
    spec.write_text(
        json.dumps(
            {
                "dim": 2,
                "matrices": [
                    {"label": "A", "entries": [2, 0, 0, 1]},
                    {"label": "S", "entries": [1, 2, 2, 4]},
                ],
            }
        )
    )
    code = cli.main(["check", str(spec), "--index", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "numerically singular" in err and "[S]" in err
    assert not (tmp_path / "o").exists()


def test_check_missing_file_exit_one(tmp_path):
    code = cli.main(["check", str(tmp_path / "nope.json"), "--index", "1", "--out", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("max_len", ["1", "3"])
def test_check_short_max_len_refused_before_search(diag_spec, tmp_path, capsys, monkeypatch, max_len):
    def no_search(*args, **kwargs):
        raise AssertionError("the gap search ran")

    monkeypatch.setattr(words, "enumerate_gaps", no_search)
    code = cli.main(["check", str(diag_spec), "--index", "1", "--max-len", max_len, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "max_len must be at least 4" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("check", "--beam", "0", "beam_width must be at least 1, got 0"),
        ("check", "--beam", "-3", "beam_width must be at least 1, got -3"),
        ("multicone", "--words", "0", f"attractor_words must be from 1 to {multicone.MAX_ATTRACTOR_WORDS}, got 0"),
        ("multicone", "--seed", "-1", "attractor_rng_seed must be at least 0, got -1"),
        ("splitting", "--past-len", "0", "--past-len must be at least 1, got 0"),
        ("splitting", "--past-len", "-3", "--past-len must be at least 1, got -3"),
        ("splitting", "--future-len", "0", "--future-len must be at least 1, got 0"),
        ("splitting", "--word-seed", "-1", "--word-seed must be at least 0, got -1"),
    ],
)
def test_size_flags_below_one_exit_one(diag_spec, tmp_path, capsys, command, flag, value, message):
    # a bad flag is a usage error, not a verdict or a failed stage
    code = cli.main([command, str(diag_spec), "--index", "1", flag, value, "--out", str(tmp_path / "o")])
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--words", "--word-len"])
def test_multicone_size_below_one_refused_before_gate(diag_spec, tmp_path, capsys, monkeypatch, flag):
    calls = []
    real = multicone.attractor

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(multicone, "attractor", spy)
    code = cli.main(["multicone", str(diag_spec), "--index", "1", flag, "0", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "must be from 1 to" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize(
    "command, index, flags",
    [
        ("multicone", "2", []),
        ("splitting", "2", ["--past-len", "5"]),
        ("splitting", "0", ["--past-len", "5"]),
    ],
)
def test_index_outside_range_exits_one(diag_spec, tmp_path, capsys, command, index, flags):
    # a 2-d family splits only at index 1
    code = cli.main([command, str(diag_spec), "--index", index, *flags, "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"error: index must be in 1..1, got {index}" in capsys.readouterr().err


def test_splitting_window_lengths(diag_spec, tmp_path):
    # an explicit length is used as given; the future window defaults to the
    # past one's length
    out = tmp_path / "o"
    assert cli.main(["splitting", str(diag_spec), "--index", "1", "--past-len", "3", "--out", str(out)]) == 0
    payload = json.loads((out / "splitting.json").read_text())
    assert len(payload["window_past"]) == len(payload["window_future"]) == 3
    argv = ["splitting", str(diag_spec), "--index", "1", "--past-len", "3", "--future-len", "4"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    payload = json.loads((out / "splitting.json").read_text())
    assert (len(payload["window_past"]), len(payload["window_future"])) == (3, 4)


def test_spec_requires_exactly_one_source(tmp_path):
    both = tmp_path / "both.json"
    both.write_text(json.dumps({"dim": 2, "matrices": [], "generator": {"kind": "example4d"}}))
    code = cli.main(["check", str(both), "--index", "1", "--out", str(tmp_path)])
    assert code == 1


def test_generator_specs(tmp_path):
    spec = tmp_path / "gen.json"
    spec.write_text(
        json.dumps(
            {"generator": {"kind": "conjugated_diagonal", "entries": [3.0, 1.0], "rotation_seed": 4}}
        )
    )
    fam = cli.load_family_spec(spec)
    assert fam.size == 1 and fam.dim == 2
    svals = np.linalg.svd(fam.stack[0], compute_uv=False)
    assert np.allclose(svals, [3.0, 1.0])

    spec.write_text(
        json.dumps(
            {
                "generator": {
                    "kind": "random_perturbation",
                    "base": {"generator": {"kind": "conjugated_diagonal", "entries": [3.0, 1.0], "rotation_seed": 4}},
                    "noise": 0.01,
                    "seed": 2,
                    "copies": 3,
                }
            }
        )
    )
    fam = cli.load_family_spec(spec)
    assert fam.size == 3

    spec.write_text(json.dumps({"generator": {"kind": "example4d", "lambda": 8.0, "samples": 6}}))
    fam = cli.load_family_spec(spec)
    assert fam.dim == 4 and fam.size == 6
    assert fam.source.kind == "sampled_curve"


_PERTURBED_DIAG = {"kind": "random_perturbation", "base": {"dim": 2, "matrices": [{"entries": [2, 0, 0, 1]}]}}


@pytest.mark.parametrize(
    "spec,message",
    [
        ({"matrices": [{"entries": [2, 0, 0, 1]}]}, "family spec is missing the key 'dim'"),
        ({"dim": 2, "matrices": [{"label": "A"}]}, "matrix 'A' is missing the key 'entries'"),
        ({"generator": {"kind": "conjugated_diagonal"}}, "generator 'conjugated_diagonal' is missing the key 'entries'"),
        (5, "family spec must be a JSON object, got int"),
        ({"dim": 2, "matrices": [[2, 0, 0, 1]]}, "matrix 0 must be a JSON object, got list"),
        ({"dim": 2, "matrices": 5}, "'matrices' must be a JSON array, got int"),
        ({"dim": 2, "matrices": [{"entries": 7}]}, "the entries of matrix 'M0' must be a JSON array, got int"),
        ({"dim": 2, "matrices": [{"entries": [None, 0, 0, 1]}]}, "the entries of matrix 'M0' must hold only numbers"),
        ({"generator": [1]}, "'generator' must be a JSON object, got list"),
        ({"generator": {"kind": "random_perturbation"}}, "generator 'random_perturbation' is missing the key 'base'"),
        ({"generator": {**_PERTURBED_DIAG, "copies": -1}}, "copies must be at least 1, got -1"),
        ({"generator": {**_PERTURBED_DIAG, "copies": 0}}, "copies must be at least 1, got 0"),
        # one bad scalar per field: a null, an array, a bool or a fraction
        # where an integer or a number belongs
        ({"dim": 2.5, "matrices": [{"entries": [2, 0, 0, 1]}]}, "'dim' of family spec must be a JSON integer, got float"),
        ({"generator": {"kind": "example4d", "lambda": None}}, "'lambda' of generator 'example4d' must be a JSON number, got NoneType"),
        ({"generator": {"kind": "example4d", "samples": [64]}}, "'samples' of generator 'example4d' must be a JSON integer, got list"),
        (
            {"generator": {"kind": "conjugated_diagonal", "entries": [2, 1], "rotation_seed": True}},
            "'rotation_seed' of generator 'conjugated_diagonal' must be a JSON integer, got bool",
        ),
        ({"generator": {**_PERTURBED_DIAG, "noise": None}}, "'noise' of generator 'random_perturbation' must be a JSON number, got NoneType"),
        ({"generator": {**_PERTURBED_DIAG, "seed": 1.5}}, "'seed' of generator 'random_perturbation' must be a JSON integer, got float"),
        ({"generator": {**_PERTURBED_DIAG, "copies": [2]}}, "'copies' of generator 'random_perturbation' must be a JSON integer, got list"),
        # a bool is not a number in an entries array either
        ({"dim": 2, "matrices": [{"entries": [True, 0, 0, 1]}]}, "the entries of matrix 'M0' must hold only numbers, got bool"),
        (
            {"generator": {"kind": "conjugated_diagonal", "entries": [2, False]}},
            "the entries of generator 'conjugated_diagonal' must hold only numbers, got bool",
        ),
        # numpy's reshape would take a negative dim whose square fits
        ({"dim": -2, "matrices": [{"entries": [2, 0, 0, 1]}]}, "'dim' of family spec must be at least 1, got -2"),
        ({"dim": 0, "matrices": [{"entries": []}]}, "'dim' of family spec must be at least 1, got 0"),
        # numpy's generators refuse a negative seed without naming it
        (
            {"generator": {"kind": "conjugated_diagonal", "entries": [2, 1], "rotation_seed": -4}},
            "'rotation_seed' of generator 'conjugated_diagonal' must be at least 0, got -4",
        ),
        ({"generator": {**_PERTURBED_DIAG, "seed": -7}}, "'seed' of generator 'random_perturbation' must be at least 0, got -7"),
    ],
)
def test_malformed_spec_exits_one_with_error(spec, message, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = cli.main(["check", str(path), "--index", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert message in err


_HUGE = 10**400  # a JSON integer beyond the float range


@pytest.mark.parametrize(
    "spec,message",
    [
        ({"generator": {"kind": "example4d", "lambda": _HUGE}}, "'lambda' of generator 'example4d' must fit a float"),
        ({"generator": {**_PERTURBED_DIAG, "noise": -_HUGE}}, "'noise' of generator 'random_perturbation' must fit a float"),
        ({"dim": 2, "matrices": [{"entries": [_HUGE, 0, 0, 1]}]}, "the entries of matrix 'M0' must fit a float"),
        (
            {"generator": {"kind": "conjugated_diagonal", "entries": [2, _HUGE]}},
            "the entries of generator 'conjugated_diagonal' must fit a float",
        ),
    ],
    ids=["scalar-lambda", "scalar-noise", "numbers-matrix", "numbers-conjugated-diagonal"],
)
def test_integer_too_large_for_a_float_exits_one(spec, message, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = cli.main(["check", str(path), "--index", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("samples", [0, -3, cli.MAX_CURVE_SAMPLES + 1, _HUGE], ids=["zero", "negative", "over-cap", "huge"])
def test_example4d_samples_out_of_range_exit_one_before_building(samples, monkeypatch, tmp_path, capsys):
    # the bound is checked before any curve sample is allocated
    def never(*args):
        raise AssertionError("curve_family called")

    monkeypatch.setattr(example4d, "curve_family", never)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"generator": {"kind": "example4d", "samples": samples}}))
    code = cli.main(["check", str(path), "--index", "2", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 'samples' of generator 'example4d' must be from 1 to 100000, got ")
    assert "Traceback" not in err


_WORDS_CAP, _WORD_LEN_CAP = multicone.MAX_ATTRACTOR_WORDS, multicone.MAX_ATTRACTOR_WORD_LEN


@pytest.mark.parametrize(
    "command, target, flag, value, name, cap",
    [
        ("multicone", "build_multicone", "--words", _WORDS_CAP + 1, "attractor_words", _WORDS_CAP),
        ("multicone", "build_multicone", "--words", 10**12, "attractor_words", _WORDS_CAP),
        ("multicone", "build_multicone", "--word-len", _WORD_LEN_CAP + 1, "attractor_word_len", _WORD_LEN_CAP),
        ("multicone", "build_multicone", "--word-len", 10**12, "attractor_word_len", _WORD_LEN_CAP),
        ("splitting", "splitting_from_window", "--past-len", cli.MAX_WINDOW_LEN + 1, "--past-len", cli.MAX_WINDOW_LEN),
        ("splitting", "splitting_from_window", "--past-len", 10**12, "--past-len", cli.MAX_WINDOW_LEN),
        ("splitting", "splitting_from_window", "--future-len", 10**12, "--future-len", cli.MAX_WINDOW_LEN),
    ],
    ids=["words-over-cap", "words-huge", "word-len-over-cap", "word-len-huge", "past-over-cap", "past-huge", "future-huge"],
)
def test_size_flags_over_cap_exit_one_before_building(
    command, target, flag, value, name, cap, diag_spec, monkeypatch, tmp_path, capsys
):
    # the bound is checked before the command allocates anything of that size
    def never(*args, **kwargs):
        raise AssertionError(f"{target} called")

    monkeypatch.setattr(multicone if command == "multicone" else splitting, target, never)
    monkeypatch.setattr(splitting, "default_window_length", never)
    code = cli.main([command, str(diag_spec), "--index", "1", flag, str(value), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {name} must be from 1 to {cap}, got {value}\n"


@pytest.mark.parametrize("copies", [cli.MAX_CURVE_SAMPLES + 1, 10**12, _HUGE], ids=["over-cap", "trillion", "huge"])
def test_perturbation_copies_over_cap_exit_one_before_building(copies, monkeypatch, tmp_path, capsys):
    # the two-member base may make MAX_CURVE_SAMPLES // 2 copies
    def never(*args, **kwargs):
        raise AssertionError("perturb_family called")

    monkeypatch.setattr(words, "perturb_family", never)
    base = {"dim": 2, "matrices": [{"entries": [2, 0, 0, 1]}, {"entries": [3, 0, 0, 1]}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"generator": {"kind": "random_perturbation", "base": base, "copies": copies}}))
    code = cli.main(["check", str(path), "--index", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    limit = cli.MAX_CURVE_SAMPLES // 2
    assert capsys.readouterr().err == f"error: 'copies' of generator 'random_perturbation' must be from 1 to {limit}, got {copies}\n"


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"generator": {"kind": "example4d", "lambda": 1e400}}', "'lambda' of generator 'example4d' must be finite, got inf"),
        ('{"generator": {"kind": "random_perturbation", "base": {"dim": 2, "matrices": [{"entries": [2, 0, 0, 1]}]},'
         ' "noise": 1e400}}', "'noise' of generator 'random_perturbation' must be finite, got inf"),
        ('{"dim": 2, "matrices": [{"entries": [NaN, 0, 0, 1]}]}', "the entries of matrix 'M0' must be finite, got nan"),
    ],
    ids=["lambda-1e400", "noise-1e400", "entries-NaN"],
)
def test_non_finite_spec_number_exits_one(text, message, tmp_path, capsys):
    # a JSON number beyond the float range parses to inf, and Python's
    # parser also takes NaN and Infinity
    path = tmp_path / "spec.json"
    path.write_text(text)
    code = cli.main(["check", str(path), "--index", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert message in err


def test_scalar_spec_fields_take_json_numbers():
    # a real field takes a JSON integer; integer fields take integers
    fam = cli.load_family_dict({"generator": {**_PERTURBED_DIAG, "noise": 0, "seed": 3, "copies": 2}})
    assert fam.size == 2 and np.array_equal(fam.stack[0], fam.stack[1])
    fam = cli.load_family_dict({"generator": {"kind": "example4d", "lambda": 8, "samples": 3}})
    assert fam.size == 3


# every command runs on numpy alone: scipy is blocked at import, and none
# of its modules may be loaded.  Nor may numpy.ma, which numpy loads only on
# demand (np.unique, for one, imports it) and which adds about 0.6 MB of RSS
_NO_SCIPY_PROBE = """
import importlib.abc, json, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, BlockScipy())
from domsplit import cli

spec, out = sys.argv[1], sys.argv[2]
codes = [
    cli.main([command, spec, "--index", "1", "--out", f"{out}/{command}"])
    for command in ("check", "splitting", "multicone")
]
example = ["example4d", "--grid", "8", "--lambda", "1.01", "--skip-perturbed", "--out", f"{out}/example4d"]
codes.append(cli.main(example))
print(json.dumps({
    "codes": codes,
    "scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
    "numpy.ma": sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]),
}))
"""


def test_no_command_loads_scipy(diag_spec, tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_PROBE, str(diag_spec), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    # the example at lambda 1.01 fails its invariance scan, as with scipy
    assert result["codes"] == [0, 0, 0, 2]
    assert result["scipy"] == []
    assert result["numpy.ma"] == []


def test_multicone_command(diag_spec, rotation_spec, tmp_path):
    out = tmp_path / "mc"
    code = cli.main(["multicone", str(diag_spec), "--index", "1", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "multicone.json").read_text())
    assert len(payload["components"]) == 1
    assert (out / "component_0.csv").exists()
    # a rotation has no attractor sample: no certificate
    code = cli.main(["multicone", str(rotation_spec), "--index", "1", "--out", str(out)])
    assert code == 3


def test_multicone_attractor_warning_reaches_stderr(tmp_path):
    # the CLI sets up no logging, so the warning goes through logging's
    # last-resort handler; a fresh process, since pytest installs handlers
    # of its own in this one
    spec = tmp_path / "rot.json"
    spec.write_text(json.dumps({"dim": 2, "matrices": [{"label": "R", "entries": [0, -1, 1, 0]}]}))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from domsplit import cli; sys.exit(cli.main(sys.argv[1:]))",
         "multicone", str(spec), "--index", "1", "--out", str(tmp_path / "mc")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 3
    assert "attractor: 256 sampled products had ill-defined top frames" in done.stderr


def test_check_and_multicone_agree_on_slow_domination(tmp_path, monkeypatch):
    # diag(1.05, 1) is dominated: the multicone at the best radius carries a
    # positive closed-form bound and builds with no gap search (exit 0), and
    # `check` finds no eigenvalue witness and fits the decay (exit 0).  At
    # diag(1.001, 1) the fitted slope is not below -DOMINATED_MARGIN, so
    # `check` is inconclusive (exit 3), never not_dominated
    spec = tmp_path / "slow.json"
    spec.write_text(json.dumps({"dim": 2, "matrices": [{"label": "A", "entries": [1.05, 0, 0, 1]}]}))
    searches = []
    real = words.is_dominated
    monkeypatch.setattr(words, "is_dominated", lambda *a: searches.append(a) or real(*a))
    out = tmp_path / "mc"
    assert cli.main(["multicone", str(spec), "--index", "1", "--out", str(out)]) == 0
    assert searches == []
    assert json.loads((out / "multicone.json").read_text())["invariance_margin"] > 0.0
    assert cli.main(["check", str(spec), "--index", "1", "--out", str(tmp_path / "ck")]) == 0
    report = json.loads((tmp_path / "ck" / "gap_report.json").read_text())
    assert report["verdict"]["kind"] == words.DOMINATED
    spec.write_text(json.dumps({"dim": 2, "matrices": [{"label": "A", "entries": [1.001, 0, 0, 1]}]}))
    assert cli.main(["check", str(spec), "--index", "1", "--out", str(tmp_path / "ck_slow")]) == 3
    report = json.loads((tmp_path / "ck_slow" / "gap_report.json").read_text())
    assert report["verdict"]["kind"] == words.INCONCLUSIVE


def test_multicone_without_a_certificate_exits_inconclusive(tmp_path):
    # two interleaved members at lambda 8 are dominated, and `check` says
    # so, but their clusters sit pi/2 apart and the chart test refuses every
    # radius: the build yields no certificate, which is exit 3, never the
    # not_dominated exit 2
    family = interleaved_family(2, 8.0)
    matrices = [{"label": label, "entries": m.ravel().tolist()} for label, m in zip(family.labels, family.stack)]
    spec = tmp_path / "interleaved.json"
    spec.write_text(json.dumps({"dim": 2, "matrices": matrices}))
    assert cli.main(["check", str(spec), "--index", "1", "--out", str(tmp_path / "ck")]) == 0
    out = tmp_path / "mc"
    assert cli.main(["multicone", str(spec), "--index", "1", "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize(
    "entries, index, seed", [([3, 2, 1], 1, 0)] + [([4, 3, 1, 0.5], 2, seed) for seed in range(4)]
)
def test_multicone_builds_on_a_cloud_of_one_plane(entries, index, seed, tmp_path):
    # a conjugated diagonal family's attractor is one plane up to rounding:
    # its distances lie at or below DISTANCE_RESOLUTION, and it builds one
    # component, as the exactly diagonal family does
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"generator": {"kind": "conjugated_diagonal", "entries": entries, "rotation_seed": seed}})
    )
    out = tmp_path / "mc"
    assert cli.main(["multicone", str(spec), "--index", str(index), "--out", str(out)]) == 0
    assert len(json.loads((out / "multicone.json").read_text())["components"]) == 1


def test_splitting_command(diag_spec, tmp_path):
    out = tmp_path / "sp"
    code = cli.main(["splitting", str(diag_spec), "--index", "1", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "splitting.json").read_text())
    assert payload["verification"]["passes"]
    assert (out / "ratio_curve.csv").read_text().splitlines()[0] == "n,ratio,log_ratio"


def test_splitting_degenerate_gap_exit_one(rotation_spec, tmp_path):
    code = cli.main(["splitting", str(rotation_spec), "--index", "1", "--out", str(tmp_path)])
    assert code == 1


def test_check_determinism_byte_identical(tmp_path):
    spec = tmp_path / "fam.json"
    spec.write_text(
        json.dumps(
            {
                "dim": 2,
                "matrices": [
                    {"label": "A", "entries": [2, 0, 0, 1]},
                    {"label": "R", "entries": [0, -1, 1, 0]},
                ],
            }
        )
    )
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        cli.main(["check", str(spec), "--index", "1", "--max-len", "8", "--budget", "64", "--out", str(out)])
        outs.append(out)
    for fname in ("gap_report.json", "gap_report.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_emitted_json_reloads_to_equal_structures(diag_spec, tmp_path):
    from domsplit.multicone import Multicone
    from domsplit.splitting import SplittingEstimate

    out = tmp_path / "roundtrip"
    assert cli.main(["multicone", str(diag_spec), "--index", "1", "--out", str(out)]) == 0
    payload = json.loads((out / "multicone.json").read_text())
    mc = Multicone.from_json_dict(payload)
    assert [list(c) for c in mc.components] == payload["components"]
    assert mc.invariance_margin == payload["invariance_margin"]

    assert cli.main(["splitting", str(diag_spec), "--index", "1", "--out", str(out)]) == 0
    payload = json.loads((out / "splitting.json").read_text())
    est = SplittingEstimate.from_json_dict(payload)
    assert est.to_json_dict() == {
        k: payload[k] for k in est.to_json_dict()
    }


@pytest.mark.parametrize("grid", [0, -3, example4d.MAX_GRID_N + 1], ids=["zero", "negative", "over-cap"])
def test_example4d_grid_out_of_range_exits_one_before_building(grid, monkeypatch, tmp_path, capsys):
    # the bound is checked before any curve sample is allocated
    def never(*args):
        raise AssertionError("curve_family called")

    monkeypatch.setattr(example4d, "curve_family", never)
    code = cli.main(["example4d", "--grid", str(grid), "--skip-perturbed", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: grid_n must be from 1 to 500, got {grid}\n"


def test_example4d_undersampled_grid_runs_and_names_failing_stage(tmp_path, capsys):
    out = tmp_path / "tiny"
    code = cli.main(["example4d", "--grid", "2", "--skip-perturbed", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert "fail at stage: invariance_scan" in captured.out
    report = json.loads((out / "example4d_report.json").read_text())
    assert report["failing_stage"] == "invariance_scan"


def test_example4d_weak_lambda_fails_with_margins(tmp_path, capsys):
    out = tmp_path / "weak"
    code = cli.main(
        ["example4d", "--grid", "8", "--lambda", "1.01", "--skip-perturbed", "--out", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr().out
    assert "invariance_scan" in captured
    assert "margin" in captured
    report = json.loads((out / "example4d_report.json").read_text())
    assert report["lambda"] is None
    assert not report["scan"][0]["passed"]


def test_example4d_large_lambda_exits_one_as_singular(tmp_path, capsys):
    # the curve family fails its invertibility test, not a plane check
    code = cli.main(["example4d", "--grid", "8", "--lambda", "1e6", "--skip-perturbed", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "numerically singular" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_example4d_non_finite_lambda_exits_one_without_warnings(lam, tmp_path, capsys):
    # refused before any matrix is formed: inf once printed numpy's
    # RuntimeWarnings, and nan passed lam <= 1 and failed later
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["example4d", "--grid", "8", "--lambda", lam, "--skip-perturbed", "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == f"error: lam must exceed 1 and be finite, got {lam}\n"
    assert caught == []


def test_parser_defaults_are_library_defaults():
    # every flag with a library counterpart defaults to that library value,
    # so the CLI and the library cannot drift apart
    parser = cli.build_parser()
    search = SearchConfig()
    attractor = multicone.MulticoneConfig()
    expected = {
        "check": {"max_len": search.max_len, "budget": search.budget, "beam": search.beam_width},
        "multicone": {
            "word_len": attractor.attractor_word_len,
            "words": attractor.attractor_words,
            "seed": attractor.attractor_rng_seed,
        },
        "example4d": {"grid": example4d.ExampleConfig().grid_n},
    }
    for command, flags in expected.items():
        argv = [command] if command == "example4d" else [command, "spec.json", "--index", "1"]
        args = vars(parser.parse_args(argv))
        assert {name: args[name] for name in flags} == flags
