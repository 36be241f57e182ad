"""Exact-formula numerical primitives on small dense matrices.

Singular spectra, operator norms and co-norms, exterior-power norms,
cross-ratios on the projective line, and principal angles between
subspaces.  Everything here is a pure function of its arguments (a
``TopSingular`` holds only what it computed from its stack) and is safe to
call concurrently.

``TopSingular`` is the gap search's sigma_1 kernel, batched over
``(..., n, n)`` stacks without LAPACK SVD and within 1e-14 relative of
``svd(...)[..., 0]``.  From one Gram matrix per row it gives eigen-solver
free bounds on sigma_1 (exact for n <= 2; for an equal spectrum the lower
one is exact and the upper one ``n^(1/4) sigma_1``) and sigma_1 of any row
subset.  A row whose Gram is scalar to rounding, as for every compound of
an isometry, takes the midpoint of a trace bracket instead of ``eigvalsh``,
within ``PIN_RTOL / 4`` relative.  ``top_singular_values`` is its
one-call form; ``operator_norms`` extends it to rectangular stacks.

Every Gram matrix here comes from ``gram_matrices``, which forms ``X X^T``
with one GEMM per matrix on a contiguous copy of its transpose, one block of
``GRAM_BLOCK`` matrices at a time.  numpy sends ``X @ swapaxes(X, -1, -2)``
on a stack of small matrices to its per-matrix syrk path, about twice as
slow (and bit-equal at n = 3, 4 and 6); a copy of the whole stack's
transpose would raise the peak memory by its size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SingularMatrixError

# Scale-free invertibility test: a matrix is accepted iff sigma_d > RTOL * sigma_1.
INVERTIBILITY_RTOL = 1e-12


def as_square(matrix) -> np.ndarray:
    """Validate and return a finite square float matrix."""
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] == 0:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return M


def _square_stack(stack) -> np.ndarray:
    C = np.asarray(stack, dtype=float)
    if C.ndim < 2 or C.shape[-1] != C.shape[-2] or C.shape[-1] == 0:
        raise ValueError(f"expected a stack of square matrices, got shape {C.shape}")
    return C


# most matrices per block of ``gram_matrices``: enough to amortize its two
# numpy calls per block, few enough that a block's operands stay in cache
GRAM_BLOCK = 512


def gram_matrices(stack: np.ndarray) -> np.ndarray:
    """``X X^T`` of every matrix of a ``(..., p, q)`` stack, with one GEMM
    call per matrix, so a row's Gram depends on that row alone.

    Each block of ``GRAM_BLOCK`` matrices has its transpose copied into one
    buffer, made once per call and reused, so the call holds the output and
    one block's transpose (not the whole stack's) at its peak.
    """
    p, q = stack.shape[-2:]
    flat = stack.reshape(-1, p, q)
    out = np.empty((len(flat), p, p))
    trans = np.empty((min(len(flat), GRAM_BLOCK), q, p))
    for lo in range(0, len(flat), GRAM_BLOCK):
        block = flat[lo : lo + GRAM_BLOCK]
        buf = trans[: len(block)]
        np.copyto(buf, np.swapaxes(block, -1, -2))
        np.matmul(block, buf, out=out[lo : lo + GRAM_BLOCK])
    return out.reshape(*stack.shape[:-2], p, p)


# A Gram matrix whose trace bracket on lambda_max is at most this wide,
# relative to its mean eigenvalue, takes the bracket's midpoint instead of
# an eigen-solve; sigma_1 is then within PIN_RTOL / 4 relative.
PIN_RTOL = 8e-15


class TopSingular:
    """sigma_1 of every matrix of an ``(..., n, n)`` stack, and bounds on it,
    from one pass over the stack.

    n = 1 is ``|x|`` and n = 2 the closed form
    ``(hypot(a + d, b - c) + hypot(a - d, b + c)) / 2``, whose two terms are
    non-negative so their sum cannot cancel; both bounds are that value.

    For n >= 3 everything reads ``G = C C^T``, from ``gram_matrices``:
    block by block on a contiguous transpose, since numpy's syrk path for
    the strided product is the slower one.  The object keeps no
    Gram: ``values`` forms that of just the rows it eigen-solves again,
    bit-equal to those rows of the first, so a gap search, which solves
    few of its rows, holds no chunk's Gram past its bounds.  From
    ``sum lambda^2 / sum lambda <= lambda_max <= (sum lambda^2)^(1/2)`` over
    its eigenvalues, ``bounds`` are ``[|G|_F / sqrt(tr G), |G|_F^(1/2)]``:
    the lower one is exact for an equal spectrum (where the upper one is
    ``n^(1/4) sigma_1``), the upper one for rank one.  With ``m = tr G / n``
    and ``delta = |G - m I|_F``, taken from the diagonal deviations and the
    off-diagonal squares (``tr G^2 - n m^2`` cancels), ``lambda_max`` lies in
    ``[m + delta / sqrt(n (n - 1)), m + delta sqrt((n - 1) / n)]``
    (Wolkowicz & Styan, Linear Algebra Appl. 29, 1980).  ``values`` takes
    the midpoint of a row whose bracket is at most ``PIN_RTOL * m`` wide,
    within ``PIN_RTOL / 4`` of sigma_1 relative, and the largest eigenvalue
    of the row's Gram (batched ``eigvalsh``; at least ``|C|_F^2 / n``, so well
    conditioned) for every other row.  sigma_1 is within 1e-14 relative of
    ``svd(...)[..., 0]`` for entries whose squares neither overflow nor
    underflow.
    """

    def __init__(self, stack):
        C = _square_stack(stack)
        self.stack = C
        n = C.shape[-1]
        if n == 1:
            self._top = np.abs(C[..., 0, 0])
            return
        if n == 2:
            a, b, c, d = C[..., 0, 0], C[..., 0, 1], C[..., 1, 0], C[..., 1, 1]
            self._top = 0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c))
            return
        self._top = None
        gram = gram_matrices(C)
        self._trace = np.einsum("...ii->...", gram)
        self._gram_sq = np.einsum("...ij,...ij->...", gram, gram)
        mean = self._trace / n
        self._pinned = np.zeros(np.shape(mean), dtype=bool)
        self._mid = mean
        # delta^2 = |G|_F^2 - n m^2 cancels to about 1e-15 |G|_F^2, too coarse
        # for a pin (delta below 2e-14 m), but enough to skip the exact delta
        # when no row is near a scalar Gram, at no cost beyond the bounds
        if np.any(self._gram_sq - n * mean**2 <= 1e-12 * self._gram_sq):
            # the diagonal deviations block by block: a (rows, n) array of
            # them all would set the peak memory of an isometry's gap search
            diag = np.einsum("...ii->...i", gram).reshape(-1, n)
            flat_mean = mean.reshape(-1, 1)
            dev_sq = np.empty(len(diag))
            for start in range(0, len(diag), GRAM_BLOCK):
                rows = slice(start, start + GRAM_BLOCK)
                dev = diag[rows] - flat_mean[rows]
                dev_sq[rows] = np.einsum("...i,...i->...", dev, dev)
            off_sq = np.einsum("...ij,...ij,ij->...", gram, gram, 1.0 - np.eye(n))
            delta = np.sqrt(off_sq + dev_sq.reshape(mean.shape))
            lo, hi = 1.0 / math.sqrt(n * (n - 1)), math.sqrt((n - 1) / n)
            self._pinned = delta * (hi - lo) <= PIN_RTOL * mean
            self._mid = mean + delta * (0.5 * (lo + hi))

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` with ``lower <= sigma_1 <= upper`` up to
        rounding (1e-14 relative), for every matrix of the stack."""
        if self._top is not None:
            return self._top, self._top
        # a zero matrix has trace 0 and gram_sq 0: its lower bound is 0, not nan
        lower = np.sqrt(self._gram_sq / np.where(self._trace > 0.0, self._trace, 1.0))
        return lower, np.sqrt(np.sqrt(self._gram_sq))

    def values(self, rows=None) -> np.ndarray:
        """sigma_1 of every matrix, or of the rows picked by a boolean mask
        over the stack's leading axes; of those, only the rows not pinned
        are eigen-solved."""
        if self._top is not None:
            return self._top if rows is None else self._top[rows]
        solve = ~self._pinned if rows is None else rows & ~self._pinned
        lam = np.array(self._mid)
        if np.any(solve):
            # the Gram of just those rows, formed again: it equals those rows
            # of the Gram above, and a search solves few of its rows
            gram = gram_matrices(self.stack if np.all(solve) else self.stack[solve])
            lam[solve] = np.linalg.eigvalsh(gram)[..., -1].ravel()
        top = np.sqrt(lam)
        return top if rows is None else top[rows]


def top_singular_values(stack) -> np.ndarray:
    """sigma_1 of every matrix in an ``(..., n, n)`` stack (``TopSingular``)."""
    return TopSingular(stack).values()


def operator_norms(stack: np.ndarray) -> np.ndarray:
    """Operator 2-norm of every matrix of a ``(..., p, q)`` stack, without
    LAPACK SVD: ``top_singular_values`` of a square one, the square root of
    the sum of squares of a one-row or one-column one, else the square root
    of ``top_singular_values`` of the Gram matrix of its narrower side."""
    p, q = stack.shape[-2:]
    if p == q:
        return top_singular_values(stack)
    if min(p, q) == 1:
        return np.sqrt(np.einsum("...ij,...ij->...", stack, stack))
    return np.sqrt(top_singular_values(gram_matrices(stack if p < q else np.swapaxes(stack, -1, -2))))


def singular_values(matrix) -> np.ndarray:
    """Singular values of a square matrix, sorted non-increasing."""
    M = as_square(matrix)
    try:
        return np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular value computation failed") from exc


@dataclass(frozen=True, eq=False)
class SingularSpectrum:
    """Full singular decomposition: values sorted non-increasing, orthonormal frames.

    ``left[:, j]`` / ``right[:, j]`` are the left / right singular directions
    for ``values[j]``; assembling them reproduces the matrix.
    """

    values: np.ndarray
    left: np.ndarray
    right: np.ndarray


def singular_spectrum(matrix) -> SingularSpectrum:
    M = as_square(matrix)
    try:
        U, s, Vt = np.linalg.svd(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular value decomposition failed") from exc
    return SingularSpectrum(values=s, left=U, right=Vt.T)


def operator_norm(matrix) -> float:
    """Largest singular value (the supremum of ``|Mv|`` over unit vectors)."""
    return float(singular_values(matrix)[0])


def check_invertible(matrix, labels=None) -> np.ndarray:
    """Return the matrix if it passes the scale-free invertibility test.

    An ``(m, d, d)`` stack is tested in one batched SVD; ``labels``, one
    per matrix of a stack, then name the first matrix that fails.
    """
    M = np.asarray(matrix, dtype=float)
    stack = as_square(M)[None] if M.ndim == 2 else M
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] == 0:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {M.shape}")
    if not np.all(np.isfinite(stack)):
        raise ValueError("matrix has non-finite entries")
    try:
        s = np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular value computation failed") from exc
    bad = np.flatnonzero(s[:, -1] <= INVERTIBILITY_RTOL * s[:, 0])
    if bad.size:
        j = bad[0]
        raise SingularMatrixError(
            f"matrix is numerically singular (sigma_min/sigma_max = "
            f"{s[j, -1] / s[j, 0] if s[j, 0] > 0 else 0.0:.3e})"
            + (f" [{labels[j]}]" if labels and labels[j] else "")
        )
    return M


def conorm(matrix) -> float:
    """Smallest singular value; equals ``1 / |M^-1|`` for invertible inputs."""
    M = check_invertible(matrix)
    return float(singular_values(M)[-1])


def check_index(index: int, d: int) -> None:
    """Raise unless ``index`` splits R^d into two nonzero parts (1..d-1)."""
    if not 1 <= index <= d - 1:
        raise ValueError(f"index must be in 1..{d - 1}, got {index}")


def exterior_norm(matrix, k: int) -> float:
    """Norm of the induced map on the k-th exterior power.

    Equals the product of the k largest singular values.  The equivalent
    compound-matrix operator norm costs O(d^(2k)) and is used only as a
    test oracle.
    """
    s = singular_values(matrix)
    if not 1 <= k <= len(s):
        raise ValueError(f"k must be in 1..{len(s)}, got {k}")
    return float(np.prod(s[:k]))


def _homogeneous_pair(x: float) -> tuple[float, float]:
    if math.isinf(x):
        return (1.0, 0.0)
    return (float(x), 1.0)


def _det2(u: tuple[float, float], v: tuple[float, float]) -> float:
    return u[0] * v[1] - u[1] * v[0]


def cross_ratio(a: float, b: float, c: float, d: float) -> float:
    """Cross-ratio ``(c-a)/(b-a) * (d-b)/(d-c)`` of four extended reals.

    Infinity is handled by the standard limit convention (both signed
    infinities denote the same projective point).
    """
    pts = [_homogeneous_pair(x) for x in (a, b, c, d)]
    scales = [math.hypot(*p) for p in pts]
    for i in range(4):
        for j in range(i + 1, 4):
            if abs(_det2(pts[i], pts[j])) <= 1e-14 * scales[i] * scales[j]:
                raise ValueError("cross-ratio requires four pairwise distinct points")
    a, b, c, d = pts
    num = _det2(c, a) * _det2(d, b)
    den = _det2(b, a) * _det2(d, c)
    if den == 0.0:
        return math.inf
    return num / den


def principal_angles(first, second) -> np.ndarray:
    """Principal angles between two subspaces given by orthonormal frames.

    Accepts raw ``(d, k)`` frames or objects with a ``frame`` attribute, or
    ``(..., d, k)`` frame stacks, which broadcast over their leading axes.
    Returns ``min(p, q)`` angles in ``[0, pi/2]`` per pair, sorted
    non-decreasing; cosines are clamped to ``[0, 1]`` before ``arccos`` so
    rounding can never produce NaN.
    """
    E = np.asarray(getattr(first, "frame", first), dtype=float)
    F = np.asarray(getattr(second, "frame", second), dtype=float)
    if E.ndim == 1:
        E = E[:, None]
    if F.ndim == 1:
        F = F[:, None]
    if E.shape[-2] != F.shape[-2]:
        raise ValueError("frames must share the ambient dimension")
    cos = np.linalg.svd(np.swapaxes(E, -1, -2) @ F, compute_uv=False)
    cos = np.clip(cos, 0.0, 1.0)
    return np.arccos(cos)
