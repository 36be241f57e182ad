"""Window splittings, the domination inequality, and the angle bound."""

import math

import numpy as np
import pytest

from conftest import conjugated_diagonal_family, rotation2, scaled_rotation_pair
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    angle_decay_oracle,
    random_invertible,
    random_orthogonal,
    suffix_restricted_logs_oracle,
    window_length_oracle,
)

from domsplit import splitting, words
from domsplit.errors import IllDefinedSplittingError
from domsplit.grassmann import Plane, grass_distance
from domsplit.splitting import (
    angle_decay_check,
    default_window_length,
    splitting_from_window,
    verify_domination,
)
from domsplit.words import MatrixFamily


@pytest.fixture(scope="module")
def diag21():
    return MatrixFamily.from_matrices([np.diag([2.0, 1.0])], ["A"])


def e(i, d=2):
    v = np.zeros(d)
    v[i] = 1.0
    return v


def test_splitting_single_diagonal(diag21):
    est = splitting_from_window(diag21, (0,) * 5, (0,) * 5, 1)
    assert grass_distance(est.expanding, Plane.span(e(0))) < 1e-12
    assert grass_distance(est.contracting, Plane.span(e(1))) < 1e-12
    assert est.angle == pytest.approx(math.pi / 2)
    assert est.convergence_indicator < 1e-12


def test_splitting_conjugated_singleton():
    R = rotation2(0.8)
    fam = MatrixFamily.from_matrices([R @ np.diag([2.0, 1.0]) @ R.T], ["M"])
    est = splitting_from_window(fam, (0,) * 8, (0,) * 8, 1)
    assert grass_distance(est.expanding, Plane.span(R @ e(0))) < 1e-10
    assert grass_distance(est.contracting, Plane.span(R @ e(1))) < 1e-10


def test_splitting_degenerate_gap_rejected():
    fam = MatrixFamily.from_matrices([rotation2(1.0)], ["R"])
    with pytest.raises(IllDefinedSplittingError):
        splitting_from_window(fam, (0,) * 4, (0,) * 4, 1)


def test_default_window_length(diag21):
    n = default_window_length(diag21, 1)
    # gap ratio 2^-n crosses 1e-8 at n = 27
    assert n == math.ceil(8 / math.log10(2.0))


def test_default_window_length_matches_per_prefix_loop(cross_validation_suite, monkeypatch):
    # the walks over a short prefix and then the capped word find the
    # prefix the letter-by-letter loop finds: dominated families of 2 and 3
    # members in d = 2..4, which cross within the short prefix; diag(1.5, 1)
    # and a 3-member family of gap 1.5, which cross after it; and a planar
    # isometry pair, which never drops below the target and so reaches the
    # cap.  Only a family that does not cross within the prefix walks the
    # capped word
    suite = [cross_validation_suite[j] for j in (0, 3, 5, 9)]
    fast = [(c.family, c.index, seed) for c in suite for seed in (0, 4)]
    slow = [
        (MatrixFamily.from_matrices([np.diag([1.5, 1.0])], ["A"]), 1, 0),
        (conjugated_diagonal_family(3, 2, 3, seed=1, gap=1.5, noise=0.3), 2, 0),
    ]
    isometry = cross_validation_suite[12]
    capped = [(isometry.family, isometry.index, 0)]
    walked = []
    walk = words._compound_log_walk

    def recording_walk(family, word, *args, **kwargs):
        walked.append(len(word))
        return walk(family, word, *args, **kwargs)

    monkeypatch.setattr(words, "_compound_log_walk", recording_walk)
    prefix, cap = splitting.WINDOW_PREFIX, splitting.WINDOW_CAP
    for cases, low, high in ((fast, 1, prefix), (slow, prefix + 1, cap - 1), (capped, cap, cap)):
        for fam, index, seed in cases:
            want = window_length_oracle(fam, index, seed, splitting.WINDOW_GAP_TARGET, cap)
            assert low <= want <= high
            walked.clear()
            assert default_window_length(fam, index, seed) == want
            assert walked == ([prefix] if want <= prefix else [prefix, cap])


def test_default_window_length_checks_index(diag21):
    for index in (0, 2):
        with pytest.raises(ValueError, match="index"):
            default_window_length(diag21, index)


def test_verify_domination_diagonal(diag21):
    est = splitting_from_window(diag21, (0,) * 5, (0,) * 5, 1)
    check = verify_domination(diag21, est, (0,) * 12)
    assert check.passes
    for n, r in enumerate(check.ratio_curve):
        assert r == pytest.approx(2.0 ** (-n), rel=1e-10)
    assert check.fitted_slope == pytest.approx(-math.log(2.0), abs=1e-9)


def test_verify_domination_swapped_fails(diag21):
    est = splitting_from_window(diag21, (0,) * 5, (0,) * 5, 1)
    swapped = splitting.SplittingEstimate(
        expanding=est.contracting,
        contracting=est.expanding,
        window_past=est.window_past,
        window_future=est.window_future,
        angle=est.angle,
        convergence_indicator=est.convergence_indicator,
    )
    check = verify_domination(diag21, swapped, (0,) * 12)
    assert not check.passes
    for n, r in enumerate(check.ratio_curve):
        assert r == pytest.approx(2.0**n, rel=1e-10)


def test_verify_domination_long_word_no_rounding_floor(diag21):
    # the restricted-norm chains must keep decaying: no eps * |P| floor
    est = splitting_from_window(diag21, (0,) * 5, (0,) * 5, 1)
    check = verify_domination(diag21, est, (0,) * 120)
    assert check.log_ratio_curve[-1] == pytest.approx(-120 * math.log(2.0), rel=1e-9)


def test_suffix_restricted_logs_match_per_step_svd(cross_validation_suite):
    # one batched SVD after the walk is bit-equal to one SVD per step, for
    # blocks of every shape (d, i) in the suite and words up to length 60
    rng = np.random.default_rng(12)
    shapes = set()
    for case in cross_validation_suite:
        d = case.family.dim
        for i in range(1, d):
            frame = random_orthogonal(d, rng)[:, :i]
            word = tuple(int(j) for j in rng.integers(case.family.size, size=int(rng.integers(1, 61))))
            got = splitting._suffix_restricted_logs(case.family, word, frame)
            assert got == suffix_restricted_logs_oracle(case.family, word, frame)
            shapes.add((d, i))
    assert shapes == {(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)}


def test_future_past_dependence(dominated_suite):
    rng = np.random.default_rng(1)
    for case in dominated_suite[:4]:
        fam, i = case.family, case.index
        n = min(default_window_length(fam, i, seed=3), 40)
        past = tuple(int(x) for x in rng.integers(fam.size, size=n))
        future = tuple(int(x) for x in rng.integers(fam.size, size=n))
        est = splitting_from_window(fam, past, future, i)
        # changing the past must not move the contracting space
        past2 = tuple(int(x) for x in rng.integers(fam.size, size=n))
        est2 = splitting_from_window(fam, past2, future, i)
        assert grass_distance(est.contracting, est2.contracting) <= 1e-8
        # changing the future must not move the expanding space
        future2 = tuple(int(x) for x in rng.integers(fam.size, size=n))
        est3 = splitting_from_window(fam, past, future2, i)
        assert grass_distance(est.expanding, est3.expanding) <= 1e-8


def test_equivariance_under_shift(dominated_suite):
    # pushing the nearest future symbol into the past maps the splitting
    # by the action of that symbol
    rng = np.random.default_rng(2)
    case = dominated_suite[1]
    fam, i = case.family, case.index
    n = min(default_window_length(fam, i, seed=5) + 4, 40)
    past = tuple(int(x) for x in rng.integers(fam.size, size=n))
    future = tuple(int(x) for x in rng.integers(fam.size, size=n))
    est = splitting_from_window(fam, past, future, i)
    sym = future[-1]
    shifted = splitting_from_window(fam, (sym, *past[:-1]), future[:-1], i)
    M = fam.stack[sym]
    tol = max(est.convergence_indicator, 1e-9) * 50
    from domsplit.grassmann import act

    assert grass_distance(act(M, est.expanding), shifted.expanding) <= tol
    assert grass_distance(act(M, est.contracting), shifted.contracting) <= tol


def test_angle_decay_check_constant_family(diag21):
    out = angle_decay_check(diag21, (0,) * 8, 1)
    for sample in out:
        assert not sample.degenerate
        assert sample.lhs == pytest.approx(0.0, abs=1e-12)


def test_angle_decay_check_random_words(cross_validation_suite):
    rng = np.random.default_rng(3)
    checked = 0
    for case in cross_validation_suite:
        fam, i = case.family, case.index
        for _ in range(4):
            word = tuple(int(x) for x in rng.integers(fam.size, size=12))
            for sample in angle_decay_check(fam, word, i):
                if sample.degenerate:
                    continue
                assert sample.lhs <= sample.rhs + 1e-9
                checked += 1
    assert checked > 100


def test_angle_decay_check_unconditional_on_not_dominated():
    fam = scaled_rotation_pair()
    rng = np.random.default_rng(4)
    word = tuple(int(x) for x in rng.integers(2, size=14))
    for sample in angle_decay_check(fam, word, 1):
        if not sample.degenerate:
            assert sample.lhs <= sample.rhs + 1e-9


@st.composite
def decay_cases(draw):
    """A family of random invertible or orthogonal (gap-degenerate) members
    in d = 2..5, a word that may cross the rescale period, and an index."""
    d = draw(st.integers(min_value=2, max_value=5))
    index = draw(st.integers(min_value=1, max_value=d - 1))
    members = draw(st.integers(min_value=1, max_value=3))
    length = draw(st.integers(min_value=2, max_value=40))
    make = draw(st.sampled_from((random_invertible, random_orthogonal)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    fam = MatrixFamily.from_matrices([make(d, rng) for _ in range(members)])
    return fam, tuple(int(x) for x in rng.integers(members, size=length)), index


def _sample_rows(samples):
    return np.array([(s.step, s.lhs, s.rhs, s.degenerate) for s in samples], dtype=float)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(decay_cases())
def test_angle_decay_check_matches_per_step_loop(case):
    fam, word, index = case
    got = _sample_rows(angle_decay_check(fam, word, index))
    want = _sample_rows(angle_decay_oracle(fam, word, index))
    assert np.array_equal(got, want, equal_nan=True)


def test_detector_consistency(cross_validation_suite):
    # gap detector and direct verification agree on the suite
    rng = np.random.default_rng(5)
    cfg = words.SearchConfig(max_len=10, budget=20_000)
    for case in cross_validation_suite[:3] + cross_validation_suite[10:13]:
        fam, i = case.family, case.index
        report = words.is_dominated(fam, i, cfg)
        if report.verdict.kind == words.DOMINATED:
            n = min(default_window_length(fam, i, seed=7), 40)
            for _ in range(5):
                word = tuple(int(x) for x in rng.integers(fam.size, size=24))
                past = tuple(int(x) for x in rng.integers(fam.size, size=n))
                # distant extra future symbols are prepended: same anchor
                extra = tuple(int(x) for x in rng.integers(fam.size, size=max(n - 24, 0)))
                est = splitting_from_window(fam, past, extra + word, i)
                assert verify_domination(fam, est, word).passes
        elif report.verdict.kind == words.NOT_DOMINATED:
            witness = report.verdict.witness
            reps = max(2, 24 // len(witness))
            powered = witness * reps
            try:
                est = splitting_from_window(fam, powered, powered, i)
            except IllDefinedSplittingError:
                continue  # no splitting estimate exists at all
            assert not verify_domination(fam, est, powered).passes
