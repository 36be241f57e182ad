"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import math
import time

import numpy as np
import pytest

from oracles import compound_matrix_oracle, random_invertible

from domsplit import cli, linalg, words
from domsplit import example4d as ex
from domsplit.grassmann import Plane, act_frames, frame_stack, grass_distance
from domsplit.multicone import adapted_metric, attractor
from domsplit.splitting import (
    angle_decay_check,
    default_window_length,
    splitting_from_window,
    verify_domination,
)
from domsplit.words import DOMINATED, NOT_DOMINATED, SearchConfig

ACCEPTANCE_SEARCH = SearchConfig(max_len=10, budget=10**6)


def _report(name: str, detail: str = "") -> None:
    print(f"\n[PASS] {name}" + (f": {detail}" if detail else ""))


def test_criterion_1_exterior_identity():
    start = time.time()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        M = random_invertible(d, rng)
        for k in range(1, d + 1):
            oracle = np.linalg.norm(compound_matrix_oracle(M, k), ord=2)
            assert linalg.exterior_norm(M, k) == pytest.approx(oracle, rel=1e-9)
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report("criterion 1 (exterior identity)", f"{checked} checks in {elapsed:.1f}s")


def test_criterion_2_norm_sandwich():
    start = time.time()
    rng = np.random.default_rng(102)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        N = random_invertible(d, rng)
        A = random_invertible(d, rng)
        co, nm = linalg.conorm(N), linalg.operator_norm(N)
        sA = linalg.singular_values(A)
        for prod in (N @ A, A @ N):
            sP = linalg.singular_values(prod)
            for k in range(d):
                ratio = sP[k] / sA[k]
                assert ratio >= co * (1.0 - 1e-10)
                assert ratio <= nm * (1.0 + 1e-10)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report("criterion 2 (norm sandwich)", f"800 products in {elapsed:.1f}s")


def test_criterion_3_cross_validation(cross_validation_suite):
    start = time.time()
    rng = np.random.default_rng(103)
    n_dominated = 0
    for case in cross_validation_suite:
        report = words.is_dominated(case.family, case.index, ACCEPTANCE_SEARCH)
        expected = DOMINATED if case.dominated else NOT_DOMINATED
        assert report.verdict.kind == expected, f"{case.name}: {report.verdict}"
        if not case.dominated:
            continue
        n_dominated += 1
        fam, i = case.family, case.index
        n = min(default_window_length(fam, i, seed=1), 40)
        for _ in range(50):
            word = tuple(int(x) for x in rng.integers(fam.size, size=24))
            past = tuple(int(x) for x in rng.integers(fam.size, size=n))
            extra = tuple(int(x) for x in rng.integers(fam.size, size=max(n - 24, 0)))
            est = splitting_from_window(fam, past, extra + word, i)
            check = verify_domination(fam, est, word)
            assert check.passes, f"{case.name}: slope {check.fitted_slope:.4f}"
    elapsed = time.time() - start
    assert elapsed < 300.0
    assert n_dominated == 10 and len(cross_validation_suite) == 20
    _report(
        "criterion 3 (cross-validation)",
        f"20 verdicts + {n_dominated * 50} verifications in {elapsed:.1f}s",
    )


def test_criterion_4_angle_bound(cross_validation_suite):
    rng = np.random.default_rng(104)
    words_checked = 0
    steps_checked = 0
    while words_checked < 100:
        case = cross_validation_suite[words_checked % len(cross_validation_suite)]
        fam, i = case.family, case.index
        word = tuple(int(x) for x in rng.integers(fam.size, size=12))
        for sample in angle_decay_check(fam, word, i):
            if sample.degenerate:
                continue
            assert sample.lhs <= sample.rhs + 1e-9
            steps_checked += 1
        words_checked += 1
    assert steps_checked > 500
    _report("criterion 4 (angle bound)", f"{steps_checked} steps over 100 words")


def test_criterion_5_adapted_metric_contraction(dominated_suite):
    start = time.time()
    rng = np.random.default_rng(105)
    pairs_checked = 0
    for case in dominated_suite:
        fam, i = case.family, case.index
        d = fam.dim
        stable = attractor(fam.inverse(), d - i, word_len=16, word_count=8)

        def sample_plane():
            word = tuple(int(x) for x in rng.integers(fam.size, size=6))
            P, _ = words.scaled_word_product(fam, word)
            spec = linalg.singular_spectrum(P)
            frame = spec.left[:, :i] + 0.05 * rng.normal(size=(d, i))
            return Plane.from_spanning(frame)

        firsts, seconds = [], []
        for _ in range(100):
            E = sample_plane()
            F = sample_plane()
            if grass_distance(E, F) < 1e-6:
                F = sample_plane()
            firsts.append(E)
            seconds.append(F)
        E, F = frame_stack(firsts), frame_stack(seconds)
        base = adapted_metric(fam, E, F, 30, stable, beam_width=16)
        # row j * 100 + k is pair k moved by member j
        moved = adapted_metric(fam, act_frames(fam.stack, E), act_frames(fam.stack, F), 30, stable, beam_width=16)
        moved = moved.reshape(fam.size, len(base))
        assert np.all(moved < base), f"{case.name}: smallest base - moved is {np.min(base - moved)}"
        pairs_checked += len(base)
    elapsed = time.time() - start
    _report(
        "criterion 5 (adapted-metric contraction)",
        f"{pairs_checked} pairs x all members in {elapsed:.1f}s",
    )


def test_criterion_6_geometry_goldens():
    assert np.allclose(ex.gamma("first", 0.0), [0.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(ex.gamma("second", math.pi), [math.pi / 2, 0.0, 0.0], atol=1e-12)
    assert np.allclose(ex.gamma("first", math.pi), [math.pi, 0.0, 0.0], atol=1e-12)
    assert np.allclose(ex.gamma("second", 0.0), [1.5 * math.pi, 0.0, 0.0], atol=1e-12)
    margin = ex.skewness_margin(101)
    assert margin.min_distance > 0
    assert linalg.cross_ratio(0.0, math.pi / 2, math.pi, 1.5 * math.pi) == pytest.approx(
        4.0, abs=1e-12
    )
    _report(
        "criterion 6 (geometry goldens)",
        f"skewness min distance {margin.min_distance:.4f}",
    )


@pytest.fixture(scope="module")
def example_report():
    start = time.time()
    report = ex.verify_example()
    elapsed = time.time() - start
    return report, elapsed


def test_criterion_7_example_pipeline(example_report):
    report, elapsed = example_report
    assert elapsed < 600.0
    assert report.passed, report.failing_stage
    assert report.lam is not None

    for side, expected in ((report.unstable, ("a", "c")), (report.stable, ("b", "d"))):
        assert side.verdict == DOMINATED
        assert side.fitted_log_tau < -0.01
        mc = side.multicone
        assert mc.contained_all and mc.excluded_all and mc.single_relevant_component
        assert mc.invariance_margin > 0
        assert side.trace.arc_count == 2
        assert side.trace.expected_occupied == expected
        assert side.trace.occupancy_ok and side.trace.interleaving_ok

    for side in (report.perturbed_unstable, report.perturbed_stable):
        assert side is not None and side.passed
        assert side.verdict == DOMINATED
        assert side.trace.arc_count == 2
    _report(
        "criterion 7 (example pipeline)",
        f"lambda={report.lam}, both sides + perturbation in {elapsed:.0f}s",
    )


def test_criterion_8_future_past_dependence(dominated_suite):
    rng = np.random.default_rng(108)
    for case in dominated_suite:
        fam, i = case.family, case.index
        n = min(default_window_length(fam, i, seed=2), 40)
        past = tuple(int(x) for x in rng.integers(fam.size, size=n))
        future = tuple(int(x) for x in rng.integers(fam.size, size=n))
        est = splitting_from_window(fam, past, future, i)
        past2 = tuple(int(x) for x in rng.integers(fam.size, size=n))
        future2 = tuple(int(x) for x in rng.integers(fam.size, size=n))
        est_p = splitting_from_window(fam, past2, future, i)
        est_f = splitting_from_window(fam, past, future2, i)
        assert grass_distance(est.contracting, est_p.contracting) <= 1e-8
        assert grass_distance(est.expanding, est_f.expanding) <= 1e-8
    _report("criterion 8 (future/past dependence)", f"{len(dominated_suite)} families")


def test_criterion_9_determinism(tmp_path):
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
    check_outputs = []
    for run in ("c1", "c2"):
        out = tmp_path / run
        cli.main(
            ["check", str(spec), "--index", "1", "--max-len", "10", "--budget", "256", "--out", str(out)]
        )
        check_outputs.append(
            {
                name: (out / name).read_bytes()
                for name in ("gap_report.json", "gap_report.csv")
            }
        )
    assert check_outputs[0] == check_outputs[1]

    example_outputs = []
    for run in ("e1", "e2"):
        out = tmp_path / run
        cli.main(
            ["example4d", "--grid", "12", "--lambda", "16", "--skip-perturbed", "--out", str(out)]
        )
        example_outputs.append(
            {
                name: (out / name).read_bytes()
                for name in ("example4d_report.json", "curves.csv", "ruled_surface.csv")
            }
        )
    assert example_outputs[0] == example_outputs[1]
    _report("criterion 9 (determinism)", "byte-identical check and example outputs")
