"""Exact-formula numerical primitives on small dense matrices.

Singular spectra, operator norms and co-norms, singular-value gap ratios,
exterior-power norms, cross-ratios on the projective line, and principal
angles between subspaces.  Everything here is a pure function of its
arguments and is safe to call concurrently.

``top_singular_values`` is the gap search's sigma_1 kernel: batched over
``(..., n, n)`` stacks without LAPACK SVD (``|x|``, a 2x2 closed form, or
the largest eigenvalue of ``C C^T``), within 1e-14 relative of
``svd(...)[..., 0]``; ``operator_norms`` extends it to rectangular stacks
through the Gram matrix of the narrower side.  ``top_singular_value_bounds``
brackets the same sigma_1 without an eigen-solver, so the search can skip
the kernel on words that cannot matter: exact for n <= 2, and
``[|G|_F / sqrt(tr G), |G|_F^(1/2)]`` with ``G = C C^T`` above, from
``sum lambda^2 / sum lambda <= lambda_max <= (sum lambda^2)^(1/2)``.
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


def top_singular_values(stack) -> np.ndarray:
    """sigma_1 of every matrix in an ``(..., n, n)`` stack, without LAPACK SVD.

    n = 1 is ``|x|`` and n = 2 the closed form
    ``(hypot(a + d, b - c) + hypot(a - d, b + c)) / 2``, whose two terms are
    non-negative so their sum cannot cancel.  For n >= 3 it is the square
    root of the largest eigenvalue of ``C C^T`` (batched ``eigvalsh``);
    that eigenvalue is at least ``|C|_F^2 / n``, so it is well conditioned.
    Relative error against ``svd(...)[..., 0]`` is below 1e-14 for entries
    whose squares neither overflow nor underflow; the gap search passes
    Frobenius-normalized stacks.
    """
    C = _square_stack(stack)
    n = C.shape[-1]
    if n == 1:
        return np.abs(C[..., 0, 0])
    if n == 2:
        a, b, c, d = C[..., 0, 0], C[..., 0, 1], C[..., 1, 0], C[..., 1, 1]
        return 0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c))
    gram = C @ np.swapaxes(C, -1, -2)
    return np.sqrt(np.linalg.eigvalsh(gram)[..., -1])


def top_singular_value_bounds(stack) -> tuple[np.ndarray, np.ndarray]:
    """``(lower, upper)`` with ``lower <= sigma_1 <= upper`` for every matrix
    of an ``(..., n, n)`` stack, without an eigen-solver.

    For n <= 2 both are ``top_singular_values`` (a closed form already).
    For n >= 3, with ``G = C C^T`` and ``lambda`` its eigenvalues,
    ``sum lambda^2 / sum lambda <= lambda_max <= (sum lambda^2)^(1/2)``, so
    ``sigma_1`` lies in ``[|G|_F / sqrt(tr G), |G|_F^(1/2)]``.  Both sides
    hold up to rounding (1e-14 relative); they meet when the singular
    values are all equal or all but one are zero.
    """
    C = _square_stack(stack)
    if C.shape[-1] <= 2:
        top = top_singular_values(C)
        return top, top
    gram = C @ np.swapaxes(C, -1, -2)
    gram_sq = np.einsum("...ij,...ij->...", gram, gram)
    trace = np.einsum("...ii->...", gram)
    # a zero matrix has trace 0 and gram_sq 0: its lower bound is 0, not nan
    lower = np.sqrt(gram_sq / np.where(trace > 0.0, trace, 1.0))
    return lower, np.sqrt(np.sqrt(gram_sq))


def operator_norms(stack: np.ndarray) -> np.ndarray:
    """Operator 2-norm of every matrix of a ``(..., p, q)`` stack, without
    LAPACK SVD: ``top_singular_values`` of a square one, else the square
    root of that of the Gram matrix of its narrower side."""
    p, q = stack.shape[-2:]
    if p == q:
        return top_singular_values(stack)
    # a copy: numpy's syrk path for X X^T is slow on stacks of small matrices
    Xt = np.ascontiguousarray(np.swapaxes(stack, -1, -2))
    return np.sqrt(top_singular_values(np.matmul(stack, Xt) if p < q else np.matmul(Xt, stack)))


def singular_values(matrix, label: str | None = None) -> np.ndarray:
    """Singular values of a square matrix, sorted non-increasing."""
    M = as_square(matrix)
    try:
        return np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular value computation failed", label=label) from exc


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


def check_invertible(matrix, label=None) -> np.ndarray:
    """Return the matrix if it passes the scale-free invertibility test.

    An ``(m, d, d)`` stack is tested in one batched SVD; ``label`` is then
    one label per matrix, and the error names the first matrix that fails.
    """
    M = np.asarray(matrix, dtype=float)
    single = M.ndim == 2
    stack = as_square(M)[None] if single else M
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] == 0:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {M.shape}")
    if not np.all(np.isfinite(stack)):
        raise ValueError("matrix has non-finite entries")
    labels = [label] if single else list(label or [None] * len(stack))
    try:
        s = np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular value computation failed", label=label if single else None) from exc
    bad = np.flatnonzero(s[:, -1] <= INVERTIBILITY_RTOL * s[:, 0])
    if bad.size:
        j = bad[0]
        raise SingularMatrixError(
            f"matrix is numerically singular (sigma_min/sigma_max = "
            f"{s[j, -1] / s[j, 0] if s[j, 0] > 0 else 0.0:.3e})"
            + (f" [{labels[j]}]" if labels[j] else "")
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


def gap_ratio(matrix, index: int) -> float:
    """Ratio ``sigma_{index+1} / sigma_index`` with 1-based ``index`` in ``1..d-1``.

    The value lies in ``(0, 1]``; uniform exponential decay of this ratio over
    all products of a family is the gap-based domination criterion.
    """
    s = singular_values(matrix)
    check_index(index, len(s))
    if s[index - 1] <= 0.0:
        raise NumericalError(f"sigma_{index} is zero; gap ratio undefined")
    return float(s[index] / s[index - 1])


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
