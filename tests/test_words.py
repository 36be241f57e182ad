"""Gap enumeration, decay fits, verdicts, and product diagnostics."""

import json
import math
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest

from conftest import isometry_family, rotation2, scaled_rotation_pair
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    brute_force_max_log_gap,
    compound_log_walk_oracle,
    family_arrays_oracle,
    gap_search_oracle,
    periodic_witness_oracle,
    random_invertible,
    top_singular_values_oracle,
    word_product,
)

from domsplit import example4d, linalg, words
from domsplit.errors import SingularMatrixError
from domsplit.words import (
    DOMINATED,
    INCONCLUSIVE,
    NOT_DOMINATED,
    GapReport,
    MatrixFamily,
    SearchConfig,
)


@pytest.fixture(scope="module")
def diag21():
    return MatrixFamily.from_matrices([np.diag([2.0, 1.0])], ["A"])


def test_family_validation():
    with pytest.raises(ValueError, match="at least one member"):
        MatrixFamily(labels=(), stack=np.empty((0, 2, 2)))
    with pytest.raises(ValueError, match="at least one member"):
        MatrixFamily.from_matrices([])
    with pytest.raises(ValueError, match="share one dimension"):
        MatrixFamily.from_matrices([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError, match="unique"):
        MatrixFamily.from_matrices([np.eye(2), np.diag([2.0, 1.0])], ["A", "A"])
    with pytest.raises(ValueError, match="one label per member"):
        MatrixFamily(labels=("A",), stack=np.stack([np.eye(2), np.eye(2)]))
    with pytest.raises(ValueError, match="non-finite"):
        MatrixFamily.from_matrices([np.eye(2), np.diag([np.nan, 1.0])])


def test_family_names_its_first_singular_member():
    # the batched check reports the first failing member, by label
    mats = [np.eye(2), np.diag([1.0, 1e-13]), np.zeros((2, 2))]
    with pytest.raises(SingularMatrixError, match=r"= 1\.000e-13\) \[B\]"):
        MatrixFamily.from_matrices(mats, ["A", "B", "C"])


def test_family_copies_the_callers_arrays():
    # the family owns a read-only copy: the caller's arrays stay writeable,
    # and a later write to one of them does not reach the family
    M = np.diag([2.0, 1.0])
    stack = np.stack([np.eye(2), M])
    fam = MatrixFamily.from_matrices([M])
    direct = MatrixFamily(labels=("I", "M"), stack=stack)
    M[0, 0] = 3.0
    stack[1, 0, 0] = 3.0
    assert fam.stack[0, 0, 0] == 2.0 and direct.stack[1, 0, 0] == 2.0
    assert not fam.stack.flags.writeable and not direct.stack.flags.writeable
    assert M.flags.writeable and stack.flags.writeable


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_family_arrays_match_per_member_construction(dim):
    rng = np.random.default_rng(60 + dim)
    mats = [random_invertible(dim, rng) for _ in range(5)]
    fam = MatrixFamily.from_matrices(mats, [f"X{j}" for j in range(5)])
    want = family_arrays_oracle(mats, 1e-3, seed=7, copies=3)
    assert np.array_equal(fam.stack, want["stack"])
    inverse = fam.inverse()
    assert np.array_equal(inverse.stack, want["inverse"])
    assert inverse.labels == tuple(f"X{j}^-1" for j in range(5))
    assert sorted(fam.compound_banks) == sorted(want["banks"])
    for k, bank in fam.compound_banks.items():
        assert np.array_equal(bank, want["banks"][k])
    perturbed = words.perturb_family(fam, 1e-3, seed=7, copies=3)
    assert np.array_equal(perturbed.stack, want["perturbed"])
    assert perturbed.labels[:4] == ("X0~0", "X0~1", "X0~2", "X1~0")
    once = words.perturb_family(fam, 1e-3, seed=7)
    assert np.array_equal(once.stack, family_arrays_oracle(mats, 1e-3, seed=7, copies=1)["perturbed"])
    assert once.labels[0] == "X0~"


def test_compound_matrix_multiplicativity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        A = random_invertible(4, rng)
        B = random_invertible(4, rng)
        for k in (1, 2, 3, 4):
            left = words.compound_matrix(A @ B, k)
            right = words.compound_matrix(A, k) @ words.compound_matrix(B, k)
            assert np.allclose(left, right, rtol=1e-9, atol=1e-12)


def test_compound_banks_built_once_per_family():
    rng = np.random.default_rng(3)
    fam = MatrixFamily.from_matrices([random_invertible(4, rng) for _ in range(3)])
    banks = fam.compound_banks
    assert fam.compound_banks is banks and sorted(banks) == [1, 2, 3, 4]
    for bank in banks.values():
        assert not bank.flags.writeable


@pytest.mark.parametrize("word", [(0.9, 1.7), (0, 1.0), (np.float64(1.0),), (True, 0), (0, np.bool_(True))])
def test_word_letters_must_be_integers(word):
    # a single word refuses a letter that is not an integer, as the batch
    # path refuses an array that is not of integers; numpy ints pass
    fam = scaled_rotation_pair()
    with pytest.raises(ValueError, match="word contains an invalid member index"):
        words.log_gap_ratio(fam, word, 1)
    with pytest.raises(ValueError, match="word contains an invalid member index"):
        words.scaled_word_product(fam, word)
    with pytest.raises(ValueError, match="word contains an invalid member index"):
        words.scaled_word_product(fam, np.array([[0.9, 1.7]]))
    assert words.log_gap_ratio(fam, (np.int64(0), np.int32(1)), 1) == words.log_gap_ratio(fam, (0, 1), 1)


def test_log_singular_values_match_direct_svd():
    rng = np.random.default_rng(4)
    fam = MatrixFamily.from_matrices([random_invertible(3, rng) for _ in range(2)])
    word = tuple(rng.integers(2, size=6))
    expected = np.log(np.linalg.svd(word_product(fam, word), compute_uv=False))
    got = words.log_singular_values(fam, word)
    assert np.allclose(got, expected, atol=1e-9)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_log_singular_value_walks_match_per_step_svd(dim):
    # the batched sigma_1 after the walk against one SVD per step and order,
    # on short and long words, and on an isometry whose compounds are all
    # orthogonal (sigma_1 of every normalized compound is 1/sqrt(rows))
    rng = np.random.default_rng(40 + dim)
    fam = MatrixFamily.from_matrices([random_invertible(dim, rng) for _ in range(3)])
    iso = MatrixFamily.from_matrices([np.linalg.qr(rng.normal(size=(dim, dim)))[0]])
    cases = [(fam, tuple(int(j) for j in rng.integers(3, size=n))) for n in (1, 7, 40, 200)]
    cases.append((iso, (0,) * 30))
    for family, word in cases:
        for walk, suffix in ((words.log_singular_value_prefixes, False), (partial(words._compound_log_walk, suffix=True), True)):
            got = walk(family, word)
            want = compound_log_walk_oracle(family, word, suffix)
            assert got.shape == (len(word) + 1, dim)
            assert np.all(got[0] == 0.0)
            assert np.max(np.abs(got - want)) <= 1e-13


def _walk_with_linalg_norm(family, word, suffix):
    # the compound walk with each step's norm from np.linalg.norm
    d = family.dim
    top = np.zeros((len(word) + 1, d + 1))
    for k in range(1, d + 1):
        acc = np.eye(math.comb(d, k))
        steps, logs, log_acc = [], [], 0.0
        for j in reversed(word) if suffix else word:
            acc = family.compound_banks[k][j] @ acc if suffix else acc @ family.compound_banks[k][j]
            s = float(np.linalg.norm(acc))
            acc /= s
            log_acc += math.log(s)
            steps.append(acc)
            logs.append(log_acc)
        top[1:, k] = np.array(logs) + np.log(linalg.top_singular_values(np.array(steps)))
    return np.diff(top, axis=1)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_log_singular_value_walks_match_linalg_norm_bit_for_bit(dim):
    rng = np.random.default_rng(70 + dim)
    fam = MatrixFamily.from_matrices([random_invertible(dim, rng) for _ in range(3)])
    for n in (1, 7, 40):
        word = tuple(int(j) for j in rng.integers(3, size=n))
        for walk, suffix in ((words.log_singular_value_prefixes, False), (partial(words._compound_log_walk, suffix=True), True)):
            assert np.array_equal(walk(fam, word), _walk_with_linalg_norm(fam, word, suffix))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_gap_order_walks_match_the_full_walk_bit_for_bit(dim):
    # each order's walk is independent of the others, so walking only the
    # orders a gap ratio at `index` reads gives its two columns unchanged
    rng = np.random.default_rng(80 + dim)
    fam = MatrixFamily.from_matrices([random_invertible(dim, rng) for _ in range(3)])
    word = tuple(int(j) for j in rng.integers(3, size=30))
    for suffix in (False, True):
        full = words._compound_log_walk(fam, word, suffix)
        for index in range(1, dim):
            part = words._compound_log_walk(fam, word, suffix, words._gap_orders(index, dim))
            assert part.shape == full.shape
            assert np.array_equal(part[:, index - 1 : index + 1], full[:, index - 1 : index + 1])


def test_log_singular_values_survive_long_words():
    # diag(2, 1) repeated 400 times: the raw product would lose the small
    # singular value at length ~53 and overflow nothing, but the ratio must
    # stay exact
    fam = MatrixFamily.from_matrices([np.diag([2.0, 1.0])], ["A"])
    logs = words.log_singular_values(fam, (0,) * 400)
    assert logs[0] == pytest.approx(400 * math.log(2.0), rel=1e-12)
    assert logs[1] == pytest.approx(0.0, abs=1e-9)


def test_enumerate_gaps_single_diagonal(diag21):
    report = words.enumerate_gaps(diag21, 1, SearchConfig(max_len=10, budget=100))
    for stat in report.per_length:
        assert stat.exact
        assert stat.max_log_ratio == pytest.approx(-stat.length * math.log(2.0), abs=1e-10)


def test_enumerate_gaps_isometry():
    fam = MatrixFamily.from_matrices([rotation2(1.0)], ["R"])
    report = words.enumerate_gaps(fam, 1, SearchConfig(max_len=8, budget=100))
    for stat in report.per_length:
        assert stat.max_log_ratio == pytest.approx(0.0, abs=1e-10)


def test_enumerate_gaps_matches_brute_force():
    fam = scaled_rotation_pair()
    report = words.enumerate_gaps(fam, 1, SearchConfig(max_len=6, budget=1000))
    for stat in report.per_length:
        expected, _ = brute_force_max_log_gap(list(fam.stack), 1, stat.length)
        assert stat.max_log_ratio == pytest.approx(expected, abs=1e-10)
    # the alternating word has gap ratio 1 at length 4: (RA)^2 is scalar
    assert report.per_length[3].max_log_ratio == pytest.approx(0.0, abs=1e-12)


def test_enumerate_gaps_budget_validation():
    fam = scaled_rotation_pair()
    with pytest.raises(ValueError):
        words.enumerate_gaps(fam, 1, SearchConfig(max_len=4, budget=1))
    with pytest.raises(ValueError):
        words.enumerate_gaps(fam, 1, SearchConfig(max_len=1, budget=100))
    with pytest.raises(ValueError):
        words.enumerate_gaps(fam, 2, SearchConfig(max_len=4, budget=100))
    # zero limits are rejected, not read as "use the default"
    with pytest.raises(ValueError):
        words.enumerate_gaps(fam, 1, SearchConfig(max_len=0, budget=100))
    with pytest.raises(ValueError):
        words.enumerate_gaps(fam, 1, SearchConfig(max_len=4, budget=0))
    # a beam must keep at least one word
    for width in (0, -3):
        with pytest.raises(ValueError, match=f"beam_width must be at least 1, got {width}"):
            words.enumerate_gaps(fam, 1, SearchConfig(max_len=4, budget=100, beam_width=width))


def test_beam_marks_inexact_lengths():
    fam = scaled_rotation_pair()
    report = words.enumerate_gaps(fam, 1, SearchConfig(max_len=8, budget=8))
    flags = [(s.length, s.exact) for s in report.per_length]
    assert flags[:3] == [(1, True), (2, True), (3, True)]
    assert all(not e for _, e in flags[3:])


def test_fit_decay_exact_line(diag21):
    report = words.fit_decay(words.enumerate_gaps(diag21, 1, SearchConfig(max_len=10, budget=100)))
    assert report.fit.log_tau == pytest.approx(-math.log(2.0), abs=1e-9)
    assert report.fit.log_C == pytest.approx(0.0, abs=1e-9)
    assert report.fit.residual < 1e-9


def test_fit_decay_isometry_flat():
    fam = MatrixFamily.from_matrices([rotation2(1.0)], ["R"])
    report = words.fit_decay(words.enumerate_gaps(fam, 1, SearchConfig(max_len=8, budget=100)))
    assert report.fit.log_tau == pytest.approx(0.0, abs=1e-9)


def test_fit_decay_needs_points(diag21):
    report = words.enumerate_gaps(diag21, 1, SearchConfig(max_len=3, budget=100))
    with pytest.raises(ValueError):
        words.fit_decay(report)


def test_is_dominated_verdicts(diag21):
    assert words.is_dominated(diag21, 1).verdict.kind == DOMINATED

    rot = MatrixFamily.from_matrices([rotation2(1.0)], ["R"])
    verdict = words.is_dominated(rot, 1).verdict
    assert verdict.kind == NOT_DOMINATED
    assert verdict.witness == (0,)  # the single letter

    mixed = words.is_dominated(scaled_rotation_pair(), 1)
    assert mixed.verdict.kind == NOT_DOMINATED
    # whatever witness is returned must be genuinely flat along its powers
    _assert_flat_witness(scaled_rotation_pair(), mixed.verdict.witness, 1)


def _assert_flat_witness(family, witness, index, max_len=12, floor=0.1):
    assert witness is not None
    reps = max_len // len(witness)
    assert reps >= 2
    for k in range(1, reps + 1):
        ratio = math.exp(words.log_gap_ratio(family, witness * k, index))
        assert ratio >= floor


# two upper-triangular members, dominated at index 2, under one fixed
# orthogonal conjugation: a product's second and third eigenvalues sit
# near 1e-25 of its first, below the rounding of the product itself
_TRIANGULAR_PAIR = [
    np.array([[1000.0, 5, 3], [0, 3, 2], [0, 0, 1]]),
    np.array([[800.0, -4, 6], [0, 2.5, -3], [0, 0, 1.2]]),
]
_TRIANGULAR_BASIS = np.linalg.qr(np.array([[2.0, 1, 0], [1, 3, 1], [0, 1, 4]]))[0]


@pytest.mark.parametrize(
    "mats, index, kind, witness",
    [
        ([np.diag([1.001, 1.0])], 1, INCONCLUSIVE, None),
        ([np.diag([1.01, 1.0])], 1, INCONCLUSIVE, None),
        ([np.diag([1.05, 1.0])], 1, DOMINATED, None),
        ([np.diag([1.21, 1.0])], 1, DOMINATED, None),
        ([np.diag([1.22, 1.0])], 1, DOMINATED, None),
        ([np.array([[1.0, 1.0], [0.0, 1.0]])], 1, NOT_DOMINATED, (0,)),
        ([_TRIANGULAR_BASIS @ T @ _TRIANGULAR_BASIS.T for T in _TRIANGULAR_PAIR], 2, DOMINATED, None),
    ],
    ids=["diag_1.001", "diag_1.01", "diag_1.05", "diag_1.21", "diag_1.22", "parabolic", "triangular_pair"],
)
def test_is_dominated_spectral_witness_verdicts(mats, index, kind, witness):
    # a slow diagonal has distinct eigenvalue moduli, so no witness: the fit
    # decides, and a slope not below -DOMINATED_MARGIN is inconclusive; the
    # parabolic's repeated eigenvalue is the witness.  The triangular pair's
    # small eigenvalues, read off the plain product, come out as a conjugate
    # pair of equal moduli; read off its compound they do not
    verdict = words.is_dominated(MatrixFamily.from_matrices(mats), index).verdict
    assert (verdict.kind, verdict.witness) == (kind, witness)


@pytest.mark.parametrize("theta", np.linspace(0.05, 3.1, 12))
def test_rotated_parabolic_is_never_dominated(theta):
    # rounding splits the conjugated defective pair by about sqrt(eps), far
    # above WITNESS_RTOL: the witness may be lost, and the fit then leaves
    # the family inconclusive, never dominated
    P = rotation2(theta) @ np.array([[1.0, 1.0], [0.0, 1.0]]) @ rotation2(theta).T
    verdict = words.is_dominated(MatrixFamily.from_matrices([P]), 1).verdict
    assert verdict.kind in (NOT_DOMINATED, INCONCLUSIVE)


def test_periodic_witness_matches_spectral_oracle(cross_validation_suite):
    # the spectral test decides as the plain product of the letters'
    # compounds does, on dominated families (no witness), on isometries (a
    # witness), on a slowly dominated diagonal (no witness), and on a pair
    # whose product AB is a multiple of the identity while neither letter is
    cfg = SearchConfig(max_len=8, budget=2_000, beam_width=64)
    last_power = MatrixFamily.from_matrices([np.diag([1.36, 1.0])], ["D"])
    alternating = MatrixFamily.from_matrices([np.diag([20.0, 1.0]), np.diag([1.0, 20.0])], ["A", "B"])
    cases = [(c.family, c.index) for c in cross_validation_suite] + [(last_power, 1), (alternating, 1)]
    found = []
    for fam, index in cases:
        report = words.fit_decay(words.enumerate_gaps(fam, index, cfg))
        got = words._periodic_witness(fam, index, report)
        assert got == periodic_witness_oracle(fam, index, report)
        found.append(got)
    assert found[-2:] == [None, (0, 1)]
    assert 0 < sum(w is not None for w in found[:-2]) < len(cross_validation_suite)


def test_gap_search_with_svd_oracle_kernel(cross_validation_suite, monkeypatch):
    # the sigma_1 kernel moves the gap digits at the rounding level only:
    # swapping in the LAPACK SVD keeps every count, exact flag and verdict,
    # the per-length maxima to 1e-12, and the witnesses of dominated families
    cfg = SearchConfig(max_len=8, budget=2_000, beam_width=64)
    cases = [(c.family, c.index, c.dominated) for c in cross_validation_suite]
    kernel = [words.is_dominated(fam, index, cfg) for fam, index, _ in cases]
    monkeypatch.setattr(
        linalg.TopSingular,
        "values",
        lambda self, rows=None: top_singular_values_oracle(self.stack if rows is None else self.stack[rows]),
    )
    oracle = [words.is_dominated(fam, index, cfg) for fam, index, _ in cases]
    assert any(not s.exact for r in kernel for s in r.per_length)
    for (_, _, dominated), got, want in zip(cases, kernel, oracle):
        assert got.verdict == want.verdict
        for g, w in zip(got.per_length, want.per_length, strict=True):
            assert (g.length, g.words_examined, g.exact) == (w.length, w.words_examined, w.exact)
            assert abs(g.max_log_ratio - w.max_log_ratio) <= 1e-12
            if dominated:
                assert g.witness == w.witness


def test_isometry_gap_search_needs_no_eigen_solver(cross_validation_suite, monkeypatch):
    # every compound of an isometry family has a scalar Gram, so no row of a
    # 4x4 isometry search reaches eigvalsh; a dominated family's rows still
    # do, and its report equals the one with no row pinned (the eigen-solve
    # on every kept row)
    solved = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda G: solved.append(len(G)) or eigvalsh(G))
    cfg = SearchConfig(max_len=8)
    iso = isometry_family(4, 3, seed=17)
    pinned = {index: words.enumerate_gaps(iso, index, cfg) for index in (2, 3)}
    assert solved == []
    dominated_9 = next(c for c in cross_validation_suite if c.name == "dominated_9")
    got = words.enumerate_gaps(dominated_9.family, dominated_9.index, cfg)
    rows = sum(solved)
    assert rows > 0
    monkeypatch.setattr(linalg, "PIN_RTOL", -1.0)
    solved.clear()
    assert words.enumerate_gaps(dominated_9.family, dominated_9.index, cfg) == got
    assert sum(solved) == rows
    for index, report in pinned.items():
        unpinned = words.enumerate_gaps(iso, index, cfg)
        for g, w in zip(report.per_length, unpinned.per_length, strict=True):
            assert (g.length, g.words_examined, g.exact) == (w.length, w.words_examined, w.exact)
            assert abs(g.max_log_ratio) <= 1e-14 and abs(w.max_log_ratio) <= 1e-14


@pytest.mark.parametrize("chunk_size", [None, 2, 40])
@pytest.mark.parametrize(
    "cfg",
    [
        SearchConfig(max_len=8, budget=10_000),
        SearchConfig(max_len=8, budget=2_000, beam_width=64),
        SearchConfig(max_len=8, budget=2_000, beam_width=1),
        # beam_width x m fits the budget right after the cut: those lengths
        # are still not exact
        SearchConfig(max_len=9, budget=50, beam_width=7),
        # every family of two or three members is cut at length 1
        SearchConfig(max_len=6, budget=3, beam_width=1),
    ],
)
def test_pruned_gap_search_matches_unpruned_oracle(cross_validation_suite, monkeypatch, cfg, chunk_size):
    # pruned rows can set neither a maximum nor a beam, so every per-length
    # maximum, witness, count and exact flag is bit-equal to scoring every
    # word; small chunks carry the cut from one chunk to the next, and the
    # beam's survivors, formed again from their parents, carry the same bits
    if chunk_size is not None:
        monkeypatch.setattr(words, "CHUNK_SIZE", chunk_size)
    cases = [(c.family, c.index) for c in cross_validation_suite]
    want = [gap_search_oracle(fam, index, cfg) for fam, index in cases]
    # rows of 3x3 and larger compounds, which alone can reach eigvalsh; each
    # kernel (one Gram per row) is built once per order and chunk, and both
    # its bounds and its exact values are read from it once
    rows = {"bounded": 0, "exact": 0}
    calls = {"built": 0, "bounds": 0, "values": 0}

    class Counted(linalg.TopSingular):
        def __init__(self, stack):
            calls["built"] += 1
            super().__init__(stack)

        def bounds(self):
            calls["bounds"] += 1
            rows["bounded"] += len(self.stack) if self.stack.shape[-1] >= 3 else 0
            return super().bounds()

        def values(self, keep=None):
            calls["values"] += 1
            if self.stack.shape[-1] >= 3:
                rows["exact"] += len(self.stack) if keep is None else int(np.count_nonzero(keep))
            return super().values(keep)

    monkeypatch.setattr(linalg, "TopSingular", Counted)
    got = [list(words.enumerate_gaps(fam, index, cfg).per_length) for fam, index in cases]
    assert got == want
    assert rows["exact"] < rows["bounded"]
    assert calls["built"] == calls["bounds"] == calls["values"] > 0


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 5),
    index_draw=st.integers(0, 3),
    members=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    budget=st.sampled_from([40, 300]),
    beam_width=st.sampled_from([4, 16]),
)
def test_pruned_gap_search_matches_oracle_on_random_families(dim, index_draw, members, seed, budget, beam_width):
    rng = np.random.default_rng(seed)
    fam = MatrixFamily.from_matrices([random_invertible(dim, rng) for _ in range(members)])
    index = 1 + index_draw % (dim - 1)
    cfg = SearchConfig(max_len=6, budget=budget, beam_width=beam_width)
    assert list(words.enumerate_gaps(fam, index, cfg).per_length) == gap_search_oracle(fam, index, cfg)


def test_no_chunk_kernels_outlive_their_scores(monkeypatch):
    # a chunk's kernels (and with them its Gram matrices) are dropped once
    # its scores are taken, so when a kernel is built the only live ones are
    # the earlier orders of its own chunk
    alive = weakref.WeakSet()
    live_at_build = []

    class Tracked(linalg.TopSingular):
        def __init__(self, stack):
            live_at_build.append(len(alive))
            super().__init__(stack)
            alive.add(self)

    monkeypatch.setattr(linalg, "TopSingular", Tracked)
    monkeypatch.setattr(words, "CHUNK_SIZE", 64)
    rng = np.random.default_rng(25)
    fam = MatrixFamily.from_matrices([random_invertible(4, rng) for _ in range(3)])
    report = words.enumerate_gaps(fam, 2, SearchConfig(max_len=6, budget=10_000, beam_width=16))
    # the longer lengths take several chunks of 21 parents each
    assert report.per_length[-1].words_examined > 64
    assert live_at_build and max(live_at_build) <= len(words._gap_orders(2, 4)) - 1


@pytest.mark.parametrize("case", ["last_length", "before_beam", "wide_beam"])
def test_gap_search_holds_no_stack_the_next_length_does_not_read(case, monkeypatch):
    # the last length's rows, and those of a length before a beam, are
    # scored chunk by chunk and never stored whole: one warm search peaks
    # below the bytes of that length's compounds alone (its row count is
    # the largest exhaustive one: the last length here, length 3 of the
    # example's coarse search, whose next length keeps 256 of 64,000 rows)
    rng = np.random.default_rng(0)
    fam = MatrixFamily.from_matrices([random_invertible(4, rng) for _ in range(3)])
    if case == "last_length":
        cfg = SearchConfig(max_len=10, budget=1_000_000)
    elif case == "before_beam":
        fam, cfg = example4d.curve_family(32.0, 40), example4d.SEARCH
    else:
        # a beam of all but one of length 9's 19,683 rows: the survivors are
        # held, and forming them a chunk at a time holds no second stack of
        # their size (gathering their parents and letters whole would hold
        # two more)
        cfg = SearchConfig(max_len=10, budget=30_000, beam_width=3**9 - 1)
        monkeypatch.setattr(words, "CHUNK_SIZE", 1024)
    report = words.enumerate_gaps(fam, 2, cfg)
    row_bytes = sum(fam.compound_banks[k][0].nbytes for k in words._gap_orders(2, fam.dim))
    if case == "wide_beam":
        limit = 2 * cfg.beam_width * row_bytes
    else:
        limit = max(s.words_examined for s in report.per_length if s.exact) * row_bytes
    tracemalloc.start()
    try:
        again = words.enumerate_gaps(fam, 2, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == report
    assert peak < limit


def test_submultiplicative_exterior_norms():
    rng = np.random.default_rng(6)
    fam = MatrixFamily.from_matrices([random_invertible(3, rng) for _ in range(3)])
    for _ in range(200):
        nu = int(rng.integers(1, 5))
        nv = int(rng.integers(1, 5))
        u = tuple(int(x) for x in rng.integers(3, size=nu))
        v = tuple(int(x) for x in rng.integers(3, size=nv))
        for k in (1, 2, 3):
            lu = np.sum(words.log_singular_values(fam, u)[:k])
            lv = np.sum(words.log_singular_values(fam, v)[:k])
            luv = np.sum(words.log_singular_values(fam, u + v)[:k])
            assert luv <= lu + lv + 1e-10


def test_verdict_stable_under_conjugation():
    rng = np.random.default_rng(8)
    N = random_invertible(3, rng, min_conorm=0.3)
    Ninv = np.linalg.inv(N)
    base = MatrixFamily.from_matrices(
        [np.diag([3.0, 1.5, 0.5]), np.diag([2.5, 1.0, 0.4])], ["A", "B"]
    )
    conj = MatrixFamily.from_matrices([N @ M @ Ninv for M in base.stack], ["A", "B"])
    cfg = SearchConfig(max_len=12, budget=10_000)
    r1 = words.is_dominated(base, 1, cfg)
    r2 = words.is_dominated(conj, 1, cfg)
    assert r1.verdict.kind == r2.verdict.kind == DOMINATED
    assert abs(r1.fit.log_tau - r2.fit.log_tau) < 0.02


def test_verdict_inversion_duality(cross_validation_suite):
    cfg = SearchConfig(max_len=8, budget=10_000)
    for case in cross_validation_suite[:4] + cross_validation_suite[10:12]:
        d = case.family.dim
        forward = words.is_dominated(case.family, case.index, cfg)
        backward = words.is_dominated(case.family.inverse(), d - case.index, cfg)
        assert forward.verdict.kind == backward.verdict.kind


def test_reports_are_deterministic():
    fam = scaled_rotation_pair()
    cfg = SearchConfig(max_len=10, budget=64)
    r1 = words.is_dominated(fam, 1, cfg)
    r2 = words.is_dominated(fam, 1, cfg)
    assert r1 == r2
    assert json.dumps(r1.to_json_dict()) == json.dumps(r2.to_json_dict())


def test_report_json_round_trip():
    fam = scaled_rotation_pair()
    report = words.is_dominated(fam, 1, SearchConfig(max_len=6, budget=64))
    data = json.loads(json.dumps(report.to_json_dict()))
    assert GapReport.from_json_dict(data) == report


def test_report_csv_columns(diag21):
    report = words.enumerate_gaps(diag21, 1, SearchConfig(max_len=4, budget=10))
    rows = report.csv_rows()
    assert rows[0] == ["N", "max_log_ratio", "words_examined", "exact"]
    assert len(rows) == 5


def test_perturb_family_deterministic():
    fam = scaled_rotation_pair()
    a = words.perturb_family(fam, 1e-3, seed=5)
    b = words.perturb_family(fam, 1e-3, seed=5)
    assert np.array_equal(a.stack, b.stack)
    c = words.perturb_family(fam, 1e-3, seed=5, copies=3)
    assert c.size == fam.size * 3


@pytest.mark.parametrize("copies", [0, -1])
def test_perturb_family_rejects_copies_below_one(copies):
    with pytest.raises(ValueError, match=f"copies must be at least 1, got {copies}"):
        words.perturb_family(scaled_rotation_pair(), 1e-3, seed=5, copies=copies)


@pytest.mark.parametrize("noise", [-1e-3, math.nan])
def test_perturb_family_rejects_negative_noise(noise):
    with pytest.raises(ValueError, match=f"noise must be at least 0, got {noise}"):
        words.perturb_family(scaled_rotation_pair(), noise, seed=5)
