"""Curves, ruled lines, skewness, lifts, the scaled family, and the pipeline."""

import math

import numpy as np
import pytest

from oracles import central_difference, family_matrix_oracle, line_distance

from domsplit import example4d as ex
from domsplit.errors import ConditioningError, MulticoneConstructionError, NumericalError, SingularMatrixError
from domsplit.grassmann import Plane, transverse
from domsplit.linalg import cross_ratio, principal_angles
from domsplit.multicone import MAX_ATTRACTOR_WORDS


def test_curve_endpoints_exact():
    assert np.allclose(ex.gamma("first", 0.0), [0.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(ex.gamma("first", math.pi), [math.pi, 0.0, 0.0], atol=1e-12)
    assert np.allclose(ex.gamma("second", math.pi), [math.pi / 2, 0.0, 0.0], atol=1e-12)
    assert np.allclose(ex.gamma("second", 0.0), [1.5 * math.pi, 0.0, 0.0], atol=1e-12)
    xs = [0.0, math.pi / 2, math.pi, 1.5 * math.pi]
    assert xs == sorted(xs)  # four ordered points on the x-axis


def test_curve_domain_checks():
    ex.gamma("first", -0.05)
    ex.gamma("first", math.pi + 0.05)
    with pytest.raises(ValueError):
        ex.gamma("first", math.pi + 0.2)
    with pytest.raises(ValueError):
        ex.gamma("third", 0.5)


def test_tangent_matches_finite_differences():
    for which in ("first", "second"):
        for t in np.linspace(0.05, math.pi - 0.05, 9):
            fd = central_difference(lambda s: ex.gamma(which, s), float(t))
            assert np.allclose(ex.tangent(which, float(t)), fd, atol=1e-8)
    assert np.allclose(ex.tangent("first", 0.0), [0.0, 0.5, 0.0], atol=1e-12)


def test_line_construction():
    sample = ex.line("first", 0.0)
    assert np.allclose(sample.base, [0.0, 0.0, 0.0])
    expected = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
    assert np.allclose(sample.direction, expected, atol=1e-12)
    for which in ("first", "second"):
        for t in np.linspace(0.0, math.pi, 33):
            assert ex.line(which, float(t)).direction[2] > 0


def test_lines_never_parallel():
    ts = np.linspace(-0.05, math.pi + 0.05, 101)
    d1 = np.stack([ex.line("first", float(t)).direction for t in ts])
    d2 = np.stack([ex.line("second", float(t)).direction for t in ts])
    cross = np.cross(d1[:, None, :], d2[None, :, :])
    assert np.min(np.linalg.norm(cross, axis=-1)) > 0


def test_line_distance_self_is_zero():
    s = ex.line("first", 1.0)
    assert line_distance(s.base, s.direction, s.base, s.direction) == pytest.approx(0.0)
    shifted = s.base + 2.5 * s.direction
    assert line_distance(s.base, s.direction, shifted, s.direction) == pytest.approx(0.0, abs=1e-12)
    parallel_offset = s.base + np.array([0.0, 0.0, 1.0]) * 0.0 + np.cross(s.direction, [1.0, 0, 0])
    d = line_distance(s.base, s.direction, s.base + parallel_offset, s.direction)
    assert d > 0


@pytest.mark.parametrize("grid_n", [2, 5, 9])
def test_skewness_margin_matches_line_distance_oracle(grid_n):
    # the batched minimum equals the pair-by-pair line distance minimum
    ts = np.linspace(-ex.DOMAIN_EXTENSION, math.pi + ex.DOMAIN_EXTENSION, grid_n)
    first = [ex.line("first", float(t)) for t in ts]
    second = [ex.line("second", float(t)) for t in ts]
    want = min(line_distance(a.base, a.direction, b.base, b.direction) for a in first for b in second)
    assert ex.skewness_margin(grid_n).min_distance == pytest.approx(want, abs=1e-12)


def test_skewness_margin_golden():
    margin = ex.skewness_margin(101)
    assert margin.min_distance > 0
    assert margin.min_parallelism_defect > 0
    # frozen regression values from the 101x101 grid over the extended domain
    assert margin.min_distance == pytest.approx(0.34570248, abs=1e-6)
    assert margin.min_parallelism_defect == pytest.approx(0.78368788, abs=1e-6)


def test_skewness_margin_monotone_refinement():
    coarse = ex.skewness_margin(33).min_distance
    finer = ex.skewness_margin(65).min_distance
    finest = ex.skewness_margin(129).min_distance
    # refinement approaches the continuum infimum from above (near-monotone)
    assert finest <= finer + 1e-9
    assert finer <= coarse + 1e-9
    assert finest > 0.9 * coarse


def test_axis_plane_lift():
    P = ex.axis_plane()
    assert np.allclose(P.frame.T @ P.frame, np.eye(2))
    x0 = np.array([2.0, 0.0, 0.0])
    lifted = ex.lift_point(x0)
    # the lifted axis point lies inside the axis plane
    assert np.linalg.norm(lifted - P.frame @ (P.frame.T @ lifted)) < 1e-12


def test_lifted_planes_transverse():
    ts = np.linspace(0.0, math.pi, 21)
    for t in ts:
        for s in ts[::4]:
            ok, margin = transverse(
                Plane(ex.curve_frames("first", float(t))), Plane(ex.curve_frames("second", float(s)))
            )
            assert ok and margin > 1e-3


def test_family_matrix_properties():
    for t in np.linspace(0.0, math.pi, 9):
        A = ex.family_matrices([t], 8.0)[0]
        eig = np.sort(np.abs(np.linalg.eigvals(A)))[::-1]
        assert np.allclose(eig, [8.0, 8.0, 0.125, 0.125], atol=1e-9)
        assert np.linalg.det(A) == pytest.approx(1.0, abs=1e-9)
        D1 = Plane(ex.curve_frames("first", float(t)))
        assert np.allclose(A @ D1.frame, 8.0 * D1.frame, atol=1e-9)
    with pytest.raises(ValueError):
        ex.family_matrices([0.5], 1.0)


@pytest.mark.parametrize("lam, samples", [(2.0, 7), (32.0, 120)])
def test_curve_family_matches_per_parameter_loop(lam, samples):
    # one batched construction gives every member, and the one-parameter
    # call, the bits of building each parameter's planes and map alone
    mats = ex.curve_family(lam, samples).stack
    ts = ex.parameter_grid(samples)
    want = np.stack([family_matrix_oracle(float(t), lam) for t in ts])
    assert np.array_equal(mats, want)
    assert np.array_equal(ex.family_matrices(ts, lam), want)
    for j in (0, samples // 2, samples - 1):
        assert np.array_equal(ex.family_matrices([ts[j]], lam)[0], want[j])
    # the lifted planes and lines, batched and one at a time
    frames = ex.curve_frames("second", ts)
    base, direction = ex.line("second", ts)
    for j in (0, samples - 1):
        assert np.array_equal(frames[j], Plane(ex.curve_frames("second", float(ts[j]))).frame)
        one = ex.line("second", float(ts[j]))
        assert np.array_equal(base[j], one.base) and np.array_equal(direction[j], one.direction)


def test_family_matrices_error_paths(monkeypatch):
    ts = ex.parameter_grid(5)
    for lam in (1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="lam must exceed 1"):
            ex.family_matrices(ts, lam)
    with pytest.raises(ValueError, match="outside"):
        ex.family_matrices([0.5, 4.0], 8.0)
    good = ex.curve_frames

    # the first curve's planes on both sides: a singular basis
    monkeypatch.setattr(ex, "curve_frames", lambda which, t: good(ex.FIRST, t))
    with pytest.raises(ConditioningError, match=r"t=0\.0, lam=8\.0"):
        ex.family_matrices(ts, 8.0)
    monkeypatch.setattr(ex, "curve_frames", good)

    # an inverse that is off on the coordinates of one plane fails that
    # plane's scalar action check, at the first parameter
    inv = np.linalg.inv
    for rows, plane in ((slice(0, 2), "first"), (slice(2, 4), "second")):

        def off_inverse(basis, rows=rows):
            out = inv(basis)
            out[..., rows, :] *= 1.0 + 1e-6
            return out

        monkeypatch.setattr(ex.np.linalg, "inv", off_inverse)
        with pytest.raises(NumericalError, match=f"{plane} plane at t=0.0"):
            ex.family_matrices(ts, 8.0)
        monkeypatch.setattr(ex.np.linalg, "inv", inv)


def test_large_lambda_fails_the_invertibility_test_not_the_plane_check():
    # both planes' scalar action checks allow A's rounding, about lam 2^-52;
    # with an absolute rule the second plane failed from lam = 3e5 on.  Such
    # a lam reaches the family's own test: sigma_min / sigma_max ~ lam^-2
    assert ex.curve_family(1e5, 8).size == 8
    for lam in (3e5, 1e6):
        with pytest.raises(SingularMatrixError, match="numerically singular"):
            ex.curve_family(lam, 8)


def test_cross_ratio_of_axis_points():
    assert cross_ratio(0.0, math.pi / 2, math.pi, 1.5 * math.pi) == pytest.approx(4.0, abs=1e-12)


def test_axis_point_angles_in_cyclic_order():
    angles = [ex._axis_angle(p) for _, p in ex._AXIS_POINTS]
    # strictly monotone around the circle: one consistent cyclic order
    assert all(a > b for a, b in zip(angles, angles[1:])) or all(
        a < b for a, b in zip(angles, angles[1:])
    )


def test_curve_family_metadata():
    fam = ex.curve_family(4.0, 8)
    assert fam.size == 8
    assert fam.dim == 4
    assert fam.source.kind == "sampled_curve"
    assert fam.source.sample_count == 8


def test_invariance_scan_rejects_weak_scaling():
    report = ex.verify_example(
        lam=1.01,
        config=ex.ExampleConfig(grid_n=16, run_perturbed=False),
    )
    assert not report.passed
    assert report.failing_stage == "invariance_scan"
    assert report.lam is None
    assert all(not entry.passed for entry in report.scan)


@pytest.mark.parametrize(
    "error, reported",
    [(MulticoneConstructionError("no radius", parts={}), True), (ValueError("bad plane"), False)],
)
def test_run_side_reports_only_package_failures(monkeypatch, error, reported):
    # a construction failure is a reportable outcome; any other exception
    # is a defect and propagates
    def failing_build(*args, **kwargs):
        raise error

    monkeypatch.setattr(ex, "build_multicone", failing_build)
    monkeypatch.setattr(ex, "SEARCH", ex.SearchConfig(max_len=6, budget=20_000, beam_width=64))
    fam = ex.curve_family(32.0, 8)
    cfg = ex.ExampleConfig()
    if reported:
        side = ex._run_side(fam, fam, [], [], ("a", "c"), cfg)
        assert not side.passed
        assert side.failing_stage == "multicone: no radius"
    else:
        with pytest.raises(ValueError, match="bad plane"):
            ex._run_side(fam, fam, [], [], ("a", "c"), cfg)


@pytest.mark.parametrize(
    "side_passes, skew_ok, stage",
    [
        ((True, True, True, True), True, None),
        ((True, True, True, True), False, "skewness"),
        ((False, True, True, True), True, "unstable: stage0"),
        ((True, False, False, True), True, "stable: stage1"),
        ((True, True, False, False), False, "perturbed_unstable: stage2"),
        ((True, True, True, False), True, "perturbed_stable: stage3"),
    ],
)
def test_failing_stage_names_first_failing_side(monkeypatch, side_passes, skew_ok, stage):
    # the first failing side in report order is named; the skewness check
    # is named only when every side passed
    calls = iter(enumerate(side_passes))

    def fake_side(*args, **kwargs):
        k, passed = next(calls)
        return ex.SideResult("dominated", -1.0, 0.0, None, None, passed, None if passed else f"stage{k}")

    monkeypatch.setattr(ex, "_run_side", fake_side)
    monkeypatch.setattr(ex, "skewness_margin", lambda grid_n: ex.SkewnessMargin(float(skew_ok), 1.0))
    # a grid this coarse fails the invariance scan, which is not under test
    monkeypatch.setattr(ex, "strictly_invariant", lambda family, cone: (True, 1.0))
    report = ex.verify_example(lam=16.0, config=ex.ExampleConfig(grid_n=8))
    assert report.lam == 16.0
    assert next(calls, None) is None  # all four sides ran
    assert report.failing_stage == stage
    assert report.passed == (stage is None)


@pytest.mark.parametrize("words", [0, MAX_ATTRACTOR_WORDS + 1, 5000])
def test_attractor_words_out_of_range_refused_by_the_config(words, monkeypatch):
    # refused when the config is made, before the lambda scan and the gap
    # searches, which may fail first and never reach the build
    def never(*args, **kwargs):
        raise AssertionError("curve_family called")

    monkeypatch.setattr(ex, "curve_family", never)
    with pytest.raises(ValueError, match=f"attractor_words must be from 1 to {MAX_ATTRACTOR_WORDS}, got {words}"):
        ex.ExampleConfig(grid_n=12, attractor_words=words)


def test_report_json_round_trip_small():
    report = ex.verify_example(
        lam=16.0, config=ex.ExampleConfig(grid_n=12, attractor_words=48, run_perturbed=False)
    )
    back = ex.ExampleReport.from_json_dict(report.to_json_dict())
    assert back == report


def test_csv_exports_have_rows():
    rows = ex.curve_csv_rows()
    assert rows[0] == ["which", "t", "x", "y", "z"]
    assert len(rows) == 1 + 2 * ex.CSV_CURVE_POINTS
    rows = ex.ruled_surface_csv_rows(8)
    assert len(rows) == 1 + 2 * 8 * ex.CSV_RULING_HEIGHTS


def test_invariance_margin_monotone_in_lambda():
    # in the contraction-dominated regime the neighborhood margin can only
    # improve as the scaling grows (below it, probe escape paths dominate
    # and the ordering is not meaningful)
    from domsplit.grassmann import ConeSample, frame_stack
    from domsplit.multicone import strictly_invariant

    fine = 48
    ts = ex.parameter_grid(fine)
    first = [Plane(ex.curve_frames("first", float(t))) for t in ts]
    second = [Plane(ex.curve_frames("second", float(t))) for t in ts]
    radius = 0.6 * float(np.min(principal_angles(frame_stack(first)[:, None], frame_stack(second)[None])))
    hood = ConeSample(2, tuple(first), radius)
    margins = []
    for lam in (4.0, 8.0, 16.0, 32.0):
        fam = ex.curve_family(lam, fine)
        _, margin = strictly_invariant(fam, hood)
        margins.append(margin)
    assert all(b >= a - 1e-12 for a, b in zip(margins, margins[1:]))


def test_splitting_recovers_invariant_planes():
    from domsplit.splitting import splitting_from_window

    fam = ex.curve_family(8.0, 16)
    ts = ex.parameter_grid(16)
    for j in (0, 5, 11):
        word = (j,) * 8
        est = splitting_from_window(fam, word, word, 2)
        d1 = Plane(ex.curve_frames("first", float(ts[j])))
        d2 = Plane(ex.curve_frames("second", float(ts[j])))
        from domsplit.grassmann import grass_distance

        assert grass_distance(est.expanding, d1) < 1e-6
        assert grass_distance(est.contracting, d2) < 1e-6


def test_verification_slope_matches_eigenvalue_ratio():
    import numpy as np

    from domsplit.splitting import splitting_from_window, verify_domination

    lam = 8.0
    fam = ex.curve_family(lam, 16)
    rng = np.random.default_rng(3)
    word = tuple(int(x) for x in rng.integers(fam.size, size=50))
    past = tuple(int(x) for x in rng.integers(fam.size, size=10))
    est = splitting_from_window(fam, past, word, 2)
    check = verify_domination(fam, est, word)
    assert check.passes
    # only ~9 steps carry signal before the estimated-plane precision floor,
    # and single-step restricted ratios wobble by O(1) around the rate
    assert check.fitted_slope == pytest.approx(-2.0 * math.log(lam), abs=1.0)


def test_lyapunov_gap_consequence_of_fit():
    import numpy as np

    from domsplit import words as W

    fam = ex.curve_family(16.0, 12)
    cfg = W.SearchConfig(max_len=6, budget=3000, beam_width=64)
    report = W.fit_decay(W.enumerate_gaps(fam, 2, cfg))
    assert report.fit.log_tau < 0
    rng = np.random.default_rng(4)
    slack = 0.5
    for _ in range(5):
        word = tuple(int(x) for x in rng.integers(fam.size, size=12))
        exponents = W._compound_log_walk(fam, word, False)[-1] / len(word)
        gap = exponents[1] - exponents[2]
        assert gap >= -report.fit.log_tau - slack


def test_ruled_family_samples_satisfy_invariants():
    ts = np.linspace(0.0, math.pi, 17)
    for which in ("first", "second"):
        for t in ts:
            base, direction = ex.line(which, t)
            assert np.allclose(base, ex.gamma(which, t), atol=1e-12)
            v = ex.tangent(which, t)
            expected = v / np.linalg.norm(v) + np.array([0.0, 0.0, 1.0])
            expected /= np.linalg.norm(expected)
            assert np.allclose(direction, expected, atol=1e-12)
            assert abs(np.linalg.norm(direction) - 1.0) < 1e-12
