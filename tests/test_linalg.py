"""Singular-value primitives against oracles and closed forms."""

import math
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import compound_matrix_oracle, random_invertible, random_orthogonal, top_singular_values_oracle

from domsplit import linalg
from domsplit.errors import SingularMatrixError


def test_singular_spectrum_identity():
    spec = linalg.singular_spectrum(np.eye(3))
    assert np.allclose(spec.values, [1.0, 1.0, 1.0])


def test_singular_spectrum_diagonal():
    spec = linalg.singular_spectrum(np.diag([4.0, 2.0, 1.0]))
    assert np.allclose(spec.values, [4.0, 2.0, 1.0])
    assert np.all(np.diff(spec.values) <= 0)


def test_singular_spectrum_signed_permutation():
    spec = linalg.singular_spectrum(np.array([[0.0, 2.0], [1.0, 0.0]]))
    assert np.allclose(spec.values, [2.0, 1.0])


def test_singular_spectrum_reconstruction_and_frames():
    rng = np.random.default_rng(7)
    for _ in range(20):
        M = random_invertible(4, rng)
        spec = linalg.singular_spectrum(M)
        U, s, V = spec.left, spec.values, spec.right
        assert np.max(np.abs((U * s) @ V.T - M)) <= 1e-10 * np.max(np.abs(M))
        for F in (spec.left, spec.right):
            assert np.max(np.abs(F.T @ F - np.eye(4))) < 1e-12


def test_conorm_examples():
    assert linalg.conorm(np.diag([4.0, 2.0, 1.0])) == pytest.approx(1.0)
    assert linalg.conorm(np.eye(5)) == pytest.approx(1.0)


def test_conorm_matches_inverse_norm():
    rng = np.random.default_rng(11)
    for _ in range(50):
        M = random_invertible(4, rng)
        expected = 1.0 / np.linalg.norm(np.linalg.inv(M), ord=2)
        assert linalg.conorm(M) == pytest.approx(expected, rel=1e-10)


def test_conorm_rejects_singular():
    with pytest.raises(SingularMatrixError):
        linalg.conorm(np.diag([1.0, 0.0]))


def test_gap_ratio_examples():
    # sigma_{i+1} / sigma_i, read off the sorted singular values
    s = linalg.singular_values(np.diag([1.0, 4.0, 2.0]))
    assert s.tolist() == [4.0, 2.0, 1.0]
    assert s[1] / s[0] == pytest.approx(0.5) and s[2] / s[1] == pytest.approx(0.5)
    theta = 1.0
    R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    s = linalg.singular_values(R)
    assert s[1] / s[0] == pytest.approx(1.0)


def test_gap_ratio_inversion_duality():
    # the gap ratio of M at index i is that of M^-1 at index d - i
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        M = random_invertible(d, rng)
        s, t = linalg.singular_values(M), linalg.singular_values(np.linalg.inv(M))
        for i in range(1, d):
            assert s[i] / s[i - 1] == pytest.approx(t[d - i] / t[d - i - 1], rel=1e-9)


def test_exterior_norm_examples():
    assert linalg.exterior_norm(np.diag([4.0, 2.0, 1.0]), 2) == pytest.approx(8.0)
    rng = np.random.default_rng(5)
    M = random_invertible(3, rng)
    assert linalg.exterior_norm(M, 1) == pytest.approx(linalg.operator_norm(M))


def test_exterior_norm_matches_compound_oracle():
    rng = np.random.default_rng(13)
    M = random_invertible(4, rng)
    oracle = np.linalg.norm(compound_matrix_oracle(M, 2), ord=2)
    assert linalg.exterior_norm(M, 2) == pytest.approx(oracle, rel=1e-9)


def test_cross_ratio_displayed_formula():
    # direct evaluation of (c-a)/(b-a) * (d-b)/(d-c)
    a, b, c, d = 0.0, math.pi / 2, math.pi, 3 * math.pi / 2
    expected = (c - a) / (b - a) * (d - b) / (d - c)
    assert expected == pytest.approx(4.0)
    assert linalg.cross_ratio(a, b, c, d) == pytest.approx(4.0, abs=1e-12)


def test_cross_ratio_infinity():
    assert linalg.cross_ratio(0.0, 1.0, 3.0, math.inf) == pytest.approx(3.0)


def test_cross_ratio_rejects_repeats():
    with pytest.raises(ValueError):
        linalg.cross_ratio(1.0, 1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        linalg.cross_ratio(math.inf, 1.0, 2.0, math.inf)


def test_cross_ratio_projective_invariance_scalar_charts():
    rng = np.random.default_rng(19)
    for _ in range(100):
        pts = rng.normal(size=4) * 3
        while len(set(np.round(pts, 6))) < 4:
            pts = rng.normal(size=4)
        value = linalg.cross_ratio(*pts)
        C = random_invertible(2, rng, min_conorm=0.3)

        def moebius(x):
            num = C[0, 0] * x + C[0, 1]
            den = C[1, 0] * x + C[1, 1]
            return num / den if den != 0 else math.inf

        moved = [moebius(x) for x in pts]
        assert linalg.cross_ratio(*moved) == pytest.approx(value, rel=1e-9)


def test_principal_angles_examples():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    assert linalg.principal_angles(e1, e1) == pytest.approx([0.0])
    assert linalg.principal_angles(e1, e2) == pytest.approx([math.pi / 2])
    E = np.column_stack([e1, e2])
    F = np.column_stack([e2, e3])
    assert linalg.principal_angles(E, F) == pytest.approx([0.0, math.pi / 2])


def test_invertibility_tolerance_is_scale_free():
    M = np.diag([1e-20, 1e-8 * 1e-20])
    with pytest.raises(SingularMatrixError):
        linalg.check_invertible(np.diag([1.0, 1e-13]))
    # scaled version of an acceptable matrix stays acceptable
    linalg.check_invertible(M * 1e20)
    linalg.check_invertible(np.diag([1.0, 1e-11]))


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        linalg.singular_values(np.array([[1.0, np.nan], [0.0, 1.0]]))


@st.composite
def frame_stack_pairs(draw):
    """Stacks of n frames of shape (d, p) and m frames of shape (d, q), d = 2..5."""
    d = draw(st.integers(min_value=2, max_value=5))
    p = draw(st.integers(min_value=1, max_value=d))
    q = draw(st.integers(min_value=1, max_value=d))
    n = draw(st.integers(min_value=1, max_value=10))
    m = draw(st.integers(min_value=1, max_value=10))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    A = np.linalg.qr(rng.normal(size=(n, d, p)))[0]
    B = np.linalg.qr(rng.normal(size=(m, d, q)))[0]
    return A, B


@settings(derandomize=True, max_examples=200, deadline=None)
@given(frame_stack_pairs())
def test_principal_angles_broadcast_matches_per_pair_calls(stacks):
    A, B = stacks
    got = linalg.principal_angles(A[:, None], B[None])
    want = np.array([[linalg.principal_angles(a, b) for b in B] for a in A])
    assert got.shape == (len(A), len(B), min(A.shape[2], B.shape[2]))
    assert np.array_equal(got, want)


@st.composite
def square_stacks(draw):
    """Stacks of n x n matrices, n = 1..6: random, orthogonal (isotropic
    Gram), near rank 1, sigma_1 and sigma_2 equal to 1e-12, near-conformal
    (products of 1 to 40 random orthogonal matrices, or an orthogonal
    matrix times I + e A with |e| 1e-16 to 1e-12: a scalar Gram perturbed
    by about that much), orthogonal and random rows mixed (pinned and
    unpinned rows of one stack), zero, or empty, each scaled by 10^e for e
    in -50..50; some are a single (n, n) matrix instead of a stack."""
    n = draw(st.integers(1, 6))
    kinds = ["random", "orthogonal", "rank1", "close_top", "orthogonal_product", "near_scalar", "mixed", "zero"]
    kind = draw(st.sampled_from([*kinds, "empty"]))
    count = 0 if kind == "empty" else draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-50, 50))
    mats = []
    for row in range(count):
        if kind == "orthogonal" or (kind == "mixed" and row % 2 == 0):
            M = random_orthogonal(n, rng)
        elif kind == "rank1":
            M = np.outer(rng.normal(size=n), rng.normal(size=n)) + 1e-9 * rng.normal(size=(n, n))
        elif kind == "close_top":
            s = np.concatenate([[1.0, 1.0 - 1e-12], np.sort(rng.uniform(0.0, 1.0, size=n))[::-1]])[:n]
            M = random_orthogonal(n, rng) @ np.diag(s) @ random_orthogonal(n, rng)
        elif kind == "orthogonal_product":
            M = np.eye(n)
            for _ in range(rng.integers(1, 41)):
                M = M @ random_orthogonal(n, rng)
        elif kind == "near_scalar":
            e = 10.0 ** rng.uniform(-16.0, -12.0)
            M = random_orthogonal(n, rng) @ (np.eye(n) + e * rng.normal(size=(n, n)))
        elif kind == "zero":
            M = np.zeros((n, n))
        else:
            M = rng.normal(size=(n, n))
        mats.append(scale * M)
    stack = np.array(mats).reshape(count, n, n)
    return stack[0] if count and draw(st.booleans()) else stack


@settings(derandomize=True, max_examples=400, deadline=None)
@given(square_stacks())
def test_top_singular_values_match_svd(stack):
    got = linalg.top_singular_values(stack)
    want = top_singular_values_oracle(stack)
    assert np.shape(got) == np.shape(want) == stack.shape[:-2]
    if stack.shape[-1] == 1:
        assert np.array_equal(got, want)
    assert np.all(np.abs(got - want) <= 1e-14 * want)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_scalar_grams_take_the_bracket_midpoint(n, monkeypatch):
    # Gram spectra (1 + e, 1, ..., 1) and (1, 1 - e, ..., 1 - e), the two
    # extremes of the trace bracket, under signed permutations so that the
    # Gram is exact.  Just inside the pin limit sigma_1 comes without an
    # eigen-solve and within PIN_RTOL / 4 (plus rounding) of the truth; ten
    # times past it every row is eigen-solved.
    lo, hi = 1.0 / math.sqrt(n * (n - 1)), math.sqrt((n - 1) / n)
    limit = linalg.PIN_RTOL / (hi * (hi - lo))
    rng = np.random.default_rng(n)

    def signed_permutation():
        return np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)

    def stack(e):
        spectra = [np.r_[1.0 + e, np.ones(n - 1)], np.r_[1.0, np.full(n - 1, 1.0 - e)]]
        return np.array([signed_permutation() @ np.diag(np.sqrt(s)) @ signed_permutation() for s in spectra])

    solved = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda G: solved.append(len(G)) or eigvalsh(G))
    for e in (0.1 * limit, 0.5 * limit, 0.9 * limit):
        want = np.sqrt([1.0 + e, 1.0])
        got = linalg.top_singular_values(stack(e))
        assert np.all(np.abs(got - want) <= (linalg.PIN_RTOL / 4 + 4e-16) * want)
    assert solved == []
    got = linalg.top_singular_values(stack(10.0 * limit))
    assert solved == [2]
    assert np.allclose(got, np.sqrt([1.0 + 10.0 * limit, 1.0]), rtol=1e-15, atol=0.0)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(square_stacks())
def test_top_singular_value_bounds_bracket_svd(stack):
    lower, upper = linalg.TopSingular(stack).bounds()
    want = top_singular_values_oracle(stack)
    assert np.shape(lower) == np.shape(upper) == np.shape(want)
    assert np.all(lower <= want * (1.0 + 1e-14))
    assert np.all(upper >= want * (1.0 - 1e-14))
    if stack.shape[-1] <= 2:
        top = linalg.top_singular_values(stack)
        assert np.array_equal(lower, top) and np.array_equal(upper, top)


def test_top_singular_value_bounds_zero_and_shape_checks():
    for n in range(1, 7):
        lower, upper = linalg.TopSingular(np.zeros((2, n, n))).bounds()
        assert np.array_equal(lower, np.zeros(2)) and np.array_equal(upper, np.zeros(2))
    for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((4, 0, 0))):
        with pytest.raises(ValueError):
            linalg.TopSingular(bad).bounds()


def test_top_singular_values_broadcast_and_shape_checks():
    rng = np.random.default_rng(11)
    stack = rng.normal(size=(2, 3, 4, 4))
    assert np.allclose(linalg.top_singular_values(stack), top_singular_values_oracle(stack), rtol=1e-14, atol=0.0)
    assert linalg.top_singular_values(np.diag([3.0, -5.0])) == pytest.approx(5.0, rel=1e-15)
    for n in range(1, 7):
        assert np.array_equal(linalg.top_singular_values(np.zeros((2, n, n))), np.zeros(2))
    for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((4, 0, 0))):
        with pytest.raises(ValueError):
            linalg.top_singular_values(bad)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_gram_matrices_equal_the_unblocked_product(n):
    block = linalg.GRAM_BLOCK
    rng = np.random.default_rng(90 + n)
    for rows in (1, block - 1, block, block + 1, 2 * block + 3):
        X = rng.normal(size=(rows, n, n))
        assert np.array_equal(linalg.gram_matrices(X), X @ np.swapaxes(X, -1, -2))
    X = rng.normal(size=(2, block + 2, n, n))
    G = linalg.gram_matrices(X)
    assert G.shape == X.shape
    assert np.array_equal(G, X @ np.swapaxes(X, -1, -2))
    # a row's Gram does not depend on where the blocks split the stack
    X = rng.normal(size=(2 * block + 3, n, n))
    rows = rng.random(len(X)) < 0.3
    assert np.array_equal(linalg.gram_matrices(X[rows]), linalg.gram_matrices(X)[rows])


def test_gram_matrices_hold_one_block_of_transpose():
    # the peak is the output (X's size) and one block's transpose buffer,
    # not a copy of the whole stack's transpose (the output's size again)
    n, rows = 6, 3 * linalg.GRAM_BLOCK + 5
    X = np.random.default_rng(7).normal(size=(rows, n, n))
    tracemalloc.start()
    try:
        linalg.gram_matrices(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= X.nbytes + linalg.GRAM_BLOCK * n * n * X.itemsize + 4096


@pytest.mark.parametrize("n", [3, 4, 6])
def test_pinned_rows_do_not_depend_on_the_stack(n):
    # orthogonal matrices have scalar Grams, so every row is pinned; the pin
    # works through the stack in blocks, and each row's sigma_1 is its own
    rng = np.random.default_rng(100 + n)
    Q = np.array([random_orthogonal(n, rng) for _ in range(2 * linalg.GRAM_BLOCK + 3)])
    got = linalg.top_singular_values(Q)
    assert np.array_equal(got, [linalg.top_singular_values(M) for M in Q])
    assert np.all(np.abs(got - 1.0) <= 1e-15)


@pytest.mark.parametrize("p, q", [(2, 3), (3, 2), (2, 5), (5, 2), (3, 4), (4, 3)])
def test_operator_norms_match_the_transpose_copy_formula(p, q):
    # the formula before the blocked Gram: one contiguous copy of the whole
    # stack's transpose, multiplied on the narrower side
    rng = np.random.default_rng(10 * p + q)
    X = rng.normal(size=(2, linalg.GRAM_BLOCK + 3, p, q))
    Xt = np.ascontiguousarray(np.swapaxes(X, -1, -2))
    want = np.sqrt(linalg.top_singular_values(np.matmul(X, Xt) if p < q else np.matmul(Xt, X)))
    assert np.array_equal(linalg.operator_norms(X), want)
