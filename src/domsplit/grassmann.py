"""Planes in the Grassmannian: group action, metric, transversality, cones.

A plane is stored as an orthonormal frame; the metric is the largest
principal angle, a true metric on G(i, d).  Row-aligned pairs go through
``grass_distance`` alone, in sine form: accurate near 0, it carries about
1e-8 rad near pi/2, where the arcsine is ill-conditioned.  All-pairs
distances take the cosine on the narrower of a plane and its orthogonal
complement (same nonzero principal angles): closed forms for one- and
two-column frames, one small SVD per pair for wider ones, and an arccos
that carries about 1e-8 rad near 0.
Cone-like sets are finite (n, d, i) frame stacks plus a radius.  A cone
meets the projective line P(W) of a 2-plane W exactly where some center C
has ``|C^T v| >= cos r``: one closed-form arc per center (``projectivize``),
merged around the circle by ``line_trace``.  Arcs are (start, end) angles
with start in [0, pi); an arc across 0 ends past pi, and the whole circle is
``[(0, pi)]``.
The cover check's reference planes come from Halton points computed here,
bit-equal to scipy's unscrambled ``qmc.Halton``; only their Gaussian
quantiles (``ndtri``) load scipy, on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import linalg

# Margin threshold for declaring two complementary planes transverse; far
# above rounding noise, far below geometric margins in shipped examples.
TRANSVERSALITY_TOL = 1e-8


def _canonical_signs(frames: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-magnitude entry of each is positive,
    for one frame or a stack of them."""
    top = np.argmax(np.abs(frames), axis=-2)[..., None, :]
    return np.where(np.take_along_axis(frames, top, axis=-2) < 0, -frames, frames)


def orthonormal_frames(vectors: np.ndarray) -> np.ndarray:
    """Canonically signed orthonormal frames spanning each column set of a
    (..., d, i) stack; raises if any is numerically rank-deficient."""
    U, s, _ = np.linalg.svd(vectors, full_matrices=False)
    if np.any(s[..., -1] <= 1e-12 * s[..., 0]):
        raise ValueError("spanning vectors are numerically rank-deficient")
    return _canonical_signs(U)


def frame_stack(planes) -> np.ndarray:
    """The frame of a plane, or the (..., d, i) float stack of a frame array
    or of a sequence of planes or raw frames; float arrays pass through."""
    frames = getattr(planes, "frame", planes)
    if not isinstance(frames, np.ndarray):
        frames = np.stack([getattr(p, "frame", p) for p in frames])
    return np.asarray(frames, dtype=float)


@dataclass(frozen=True, eq=False)
class Plane:
    """An i-dimensional subspace of R^d held as a d-by-i orthonormal frame."""

    frame: np.ndarray

    def __post_init__(self):
        F = np.asarray(self.frame, dtype=float)
        if F.ndim == 1:
            F = F[:, None]
        if F.ndim != 2 or F.shape[0] < F.shape[1] or F.shape[1] < 1:
            raise ValueError(f"frame must be a tall d-by-i matrix, got shape {F.shape}")
        gram = F.T @ F
        # written so that a NaN entry fails too
        if not np.max(np.abs(gram - np.eye(F.shape[1]))) <= 1e-10:
            raise ValueError("frame columns are not orthonormal")
        F = np.ascontiguousarray(F)
        F.setflags(write=False)
        object.__setattr__(self, "frame", F)

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    @classmethod
    def from_spanning(cls, vectors) -> "Plane":
        """Orthonormalize a spanning set (columns) into a Plane.

        Raises if the columns are numerically rank-deficient.
        """
        V = np.asarray(vectors, dtype=float)
        if V.ndim == 1:
            V = V[:, None]
        return cls(orthonormal_frames(V))

    @classmethod
    def span(cls, *vectors) -> "Plane":
        return cls.from_spanning(np.column_stack([np.asarray(v, dtype=float) for v in vectors]))

    def coordinates(self, vector) -> np.ndarray:
        """Coefficients of the orthogonal projection of a vector onto this plane."""
        return self.frame.T @ np.asarray(vector, dtype=float)


@dataclass(frozen=True, eq=False)
class ConeSample:
    """Finite sample of a cone-like subset of G(i, d): frames plus a radius.

    ``frames`` takes a sequence of planes (or raw frames) or an (n, d, i)
    stack and holds a read-only (n, d, i) stack, each frame validated as
    ``Plane`` validates one; an empty sample holds shape (0, 0, i).
    """

    grass_index: int
    frames: np.ndarray
    radius: float

    def __post_init__(self):
        if self.grass_index < 1:
            raise ValueError("grass_index must be >= 1")
        if not self.radius >= 0:  # NaN fails too
            raise ValueError("radius must be non-negative")
        # frames of mixed shape fail to stack; a frame wider than tall cannot
        # have orthonormal columns
        F = frame_stack(self.frames) if len(self.frames) else np.empty((0, 0, self.grass_index))
        F = np.array(F, dtype=float)
        if F.ndim != 3 or F.shape[2] != self.grass_index:
            raise ValueError("all points must have dimension grass_index")
        gram = np.matmul(np.swapaxes(F, 1, 2), F)
        if len(F) and not np.max(np.abs(gram - np.eye(F.shape[2]))) <= 1e-10:
            raise ValueError("frame columns are not orthonormal")
        F.setflags(write=False)
        object.__setattr__(self, "frames", F)

    @cached_property
    def points(self) -> tuple[Plane, ...]:
        return tuple(Plane(f) for f in self.frames)

    @property
    def ambient_dim(self) -> int | None:
        return self.frames.shape[1] if len(self.frames) else None

    def to_json_dict(self) -> dict:
        return {
            "grass_index": self.grass_index,
            "radius": self.radius,
            "frames": self.frames.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConeSample":
        return cls(int(data["grass_index"]), data["frames"], float(data["radius"]))

    def csv_rows(self) -> list[list]:
        """One row per frame column: point index, column index, then entries."""
        rows = []
        for idx, frame in enumerate(self.frames):
            for col in range(frame.shape[1]):
                rows.append([idx, col] + [repr(float(x)) for x in frame[:, col]])
        return rows


def act(matrix, plane: Plane) -> Plane:
    """Image of a plane under an invertible matrix, re-orthonormalized
    (``act_frames`` of one matrix and one frame)."""
    return Plane(act_frames(linalg.as_square(matrix)[None], plane.frame[None])[0])


def grass_distance(first, second):
    """Largest principal angle between two planes of the same dimension, or
    between the frames of two (..., d, i) stacks, row by row and broadcast
    over the leading axes; a pair of planes gives a float.

    It is the arcsine of sin(theta_max) = sigma_1(R), R = E - F (F^T E),
    with sigma_1 read off the Gram matrix R^T R (``linalg.operator_norms``,
    no LAPACK SVD).  The angle keeps full relative precision for nearly
    equal planes and carries about 1e-8 rad near pi/2.  Each row's value
    depends on that row's frames only.
    """
    E, F = frame_stack(first), frame_stack(second)
    if E.shape[-2:] != F.shape[-2:]:
        raise ValueError("grass_distance requires planes of identical type")
    residual = E - F @ (np.swapaxes(F, -1, -2) @ E)
    angle = np.arcsin(np.minimum(linalg.operator_norms(residual), 1.0))
    return float(angle) if angle.ndim == 0 else angle


def image_frames(images: np.ndarray) -> np.ndarray:
    """Orthonormal frames of the column spans of an (n, d, i) stack of
    images ``M @ frame``.

    One- and two-column frames use vectorized Gram-Schmidt (with a second
    projection pass for stability); distances only see the span, so basis
    choice within the image is irrelevant.  Each frame depends on its own
    image only.
    """
    width = images.shape[2]
    if width == 1:
        return images / np.linalg.norm(images, axis=1, keepdims=True)
    if width == 2:
        q1 = images[:, :, 0]
        q1 = q1 / np.linalg.norm(q1, axis=1, keepdims=True)
        v2 = images[:, :, 1]
        v2 = v2 - q1 * np.sum(q1 * v2, axis=1, keepdims=True)
        v2 = v2 - q1 * np.sum(q1 * v2, axis=1, keepdims=True)
        q2 = v2 / np.linalg.norm(v2, axis=1, keepdims=True)
        return np.stack([q1, q2], axis=2)
    Q, R = np.linalg.qr(images)
    signs = np.sign(np.einsum("...ii->...i", R))
    signs[signs == 0] = 1.0
    return Q * signs[:, None, :]


def act_frames(matrices: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Re-orthonormalized M @ frame for every matrix of a stack and every
    frame of a stack, member-major: image ``j * len(frames) + k`` is that of
    frame k under matrix j.  ``image_frames(np.matmul(M_rows, frame_rows))``
    gives chosen rows of it, bit for bit."""
    return image_frames(np.matmul(matrices[:, None], frames[None]).reshape(-1, *frames.shape[1:]))


def complement_frames(frames: np.ndarray) -> np.ndarray:
    """(n, d, d - i) orthonormal frames of the orthogonal complements of an
    (n, d, i) frame stack: the first d - i left singular vectors of
    ``I - F F^T``, one batched SVD for the whole stack."""
    d, i = frames.shape[1:]
    U, _, _ = np.linalg.svd(np.eye(d)[None] - np.matmul(frames, np.swapaxes(frames, 1, 2)))
    return U[:, :, : d - i]


def _narrower_side(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two frame stacks, or their complement frames when those have fewer
    columns.  A nonzero principal angle between two planes is also one
    between their complements, so every distance is unchanged."""
    d, i = A.shape[1], A.shape[2]
    if 2 * i > d:
        return complement_frames(A), complement_frames(B)
    return A, B


def _min_cos_2x2(a, b, c, d):
    """Smaller singular value of [[a, b], [c, d]], elementwise.

    It is ``|det| / sigma_max``, with ``sigma_max`` the closed form of
    ``linalg.top_singular_values``; no step subtracts nearly equal terms,
    so nearly coincident planes keep full relative precision in the cosine.
    The entries are cosines, so ``sqrt(x*x + y*y)`` can stand in for the
    slower ``hypot``.  The arrays can span (rows x centers), so the work
    reuses three temporaries in place.
    """
    top = np.add(a, d)
    top *= top
    tmp = np.subtract(b, c)
    tmp *= tmp
    top += tmp
    np.sqrt(top, out=top)
    np.subtract(a, d, out=tmp)
    tmp *= tmp
    other = np.add(b, c)
    other *= other
    tmp += other
    np.sqrt(tmp, out=tmp)
    top += tmp
    top *= 0.5
    np.multiply(a, d, out=tmp)
    np.multiply(b, c, out=other)
    tmp -= other
    np.abs(tmp, out=tmp)
    # |det| <= sigma_max^2, so a zero sigma_max leaves the zero |det| in place
    return np.divide(tmp, top, out=tmp, where=top > 0.0)


def min_cos_principal(grams: np.ndarray) -> np.ndarray:
    """Smallest singular value over a stack of k-by-k frame Gram matrices.

    k = 0 (planes that fill the space) gives 1, and k = 1 and k = 2 have
    closed forms that avoid millions of LAPACK calls in the batched
    distance paths.  The batched SVD serves k >= 3 only, which the all-pairs
    distance functions below reach only when min(i, d - i) >= 3.
    """
    k = grams.shape[-1]
    if k == 0:
        return np.ones(grams.shape[:-2])
    if k == 1:
        return np.abs(grams[..., 0, 0])
    if k == 2:
        return _min_cos_2x2(grams[..., 0, 0], grams[..., 0, 1], grams[..., 1, 0], grams[..., 1, 1])
    return np.linalg.svd(grams, compute_uv=False)[..., -1]


def min_cos_pairs(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Smallest principal cosine for every frame pair, shaped (a, b).

    Both stacks are first reduced to the narrower of the planes and their
    complements.  One- and two-column frames then use per-column BLAS
    products and a closed form on contiguous arrays; wider frames fall
    back to batched SVD.
    """
    A, B = _narrower_side(A, B)
    i = A.shape[2]
    if i == 1:
        return np.abs(A[:, :, 0] @ B[:, :, 0].T)
    if i == 2:
        a1, a2 = A[:, :, 0], A[:, :, 1]
        b1, b2 = B[:, :, 0], B[:, :, 1]
        return _min_cos_2x2(a1 @ b1.T, a1 @ b2.T, a2 @ b1.T, a2 @ b2.T)
    # every pair's Gram matrix in one BLAS call, reordered to (a, b, i, j)
    G = np.tensordot(A, B, axes=([1], [1]))
    return min_cos_principal(np.ascontiguousarray(np.transpose(G, (0, 2, 1, 3))))


def frame_stack_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise largest principal angles between two stacks of frames."""
    return np.arccos(np.clip(min_cos_pairs(A, B), 0.0, 1.0))


# Allowance, in sin^2 of the largest angle, by which a row's upper bound may
# fall short of the lower bound on the answer and still be evaluated exactly;
# far above the rounding of the projection GEMM and of the closed form.
NEAREST_PRUNE_SLACK = 1e-6


def worst_nearest_angle(A: np.ndarray, B: np.ndarray) -> float:
    """``max over A of (distance to the nearest frame of B)``: the first
    value of ``nearest_angles``."""
    return nearest_angles(A, B)[0]


def nearest_angles(A: np.ndarray, B: np.ndarray) -> tuple[float, np.ndarray]:
    """``max over A of (distance to the nearest frame of B)``, and per frame
    of A an upper bound on its own nearest distance.

    Both stacks are first reduced to the narrower of the planes and their
    complements, so ``i <= d - i`` below.  One GEMM on flattened projection
    matrices gives, for every pair,
    ``s = i - <P_a, P_b> = sum_k sin^2(theta_k)``; at most ``i`` principal
    angles are nonzero, so ``s / i <= sin^2(theta_max) <= s``.  Each row's
    nearest distance is then at most ``arcsin(sqrt(u_a))`` with
    ``u_a = min_b s_ab`` (the bound returned; it holds up to the rounding of
    the GEMM, a few ulps of ``s``), and the answer is at least
    ``max_a u_a / i`` in ``sin^2``.  A row whose upper bound lies below that
    lower bound (by more than ``NEAREST_PRUNE_SLACK``, which absorbs
    rounding) cannot hold the maximum, so the closed form runs only on the
    remaining rows, against all of B.  The pruning is conservative: it drops
    only rows that provably do not set the result.  Planes that fill the
    space (i = d) are all at distance 0.

    A one-row product takes the matrix-vector BLAS path, which rounds
    differently from a product of several rows; the closed form therefore
    always runs on at least two rows (a lone row twice), so each row's
    distance is the same whatever other rows the call holds.

    The angle is monotone in the cosine, so the reduction happens on the
    cosine matrix and a single arccos finishes the job.
    """
    A, B = _narrower_side(A, B)
    d, i = A.shape[1], A.shape[2]
    if i == 0:
        return 0.0, np.zeros(A.shape[0])
    PA = np.matmul(A, np.swapaxes(A, 1, 2)).reshape(A.shape[0], d * d)
    PB = np.matmul(B, np.swapaxes(B, 1, 2)).reshape(B.shape[0], d * d)
    upper = i - (PA @ PB.T).max(axis=1)
    keep = np.flatnonzero(upper >= upper.max() / i - NEAREST_PRUNE_SLACK)
    cos = min_cos_pairs(A[np.resize(keep, max(len(keep), 2))], B)
    worst = float(np.arccos(np.clip(np.min(cos.max(axis=1)), 0.0, 1.0)))
    return worst, np.arcsin(np.sqrt(np.clip(upper, 0.0, 1.0)))


def pairwise_distances(first, second) -> np.ndarray:
    """Matrix of grass_distance values between two plane lists or frame stacks (batched).

    Uses the cosine formulation, whose closed forms keep the cosine to a
    few ulps; the arccos then limits nearly equal planes to an absolute
    accuracy of about 1e-8 rad, against ``grass_distance``'s sine form.
    """
    if len(first) == 0 or len(second) == 0:
        return np.zeros((len(first), len(second)))
    return frame_stack_distances(frame_stack(first), frame_stack(second))


def transverse(first, second):
    """Whether two complementary-dimension planes span the ambient space.

    The margin is the smallest singular value of the concatenated frames;
    the pair is transverse iff it exceeds ``TRANSVERSALITY_TOL``.  Frame
    stacks ``(..., d, i)`` and ``(..., d, d - i)`` broadcast over their
    leading axes and give arrays of flags and margins; a pair of planes
    gives ``(bool, float)``.
    """
    E, F = frame_stack(first), frame_stack(second)
    if E.shape[-2] != F.shape[-2]:
        raise ValueError("planes must share the ambient dimension")
    if E.shape[-1] + F.shape[-1] != E.shape[-2]:
        raise ValueError("plane dimensions must sum to the ambient dimension")
    lead = np.broadcast_shapes(E.shape[:-2], F.shape[:-2])
    stacked = np.concatenate(
        [np.broadcast_to(E, lead + E.shape[-2:]), np.broadcast_to(F, lead + F.shape[-2:])], axis=-1
    )
    margin = np.linalg.svd(stacked, compute_uv=False)[..., -1]
    if margin.ndim == 0:
        return bool(margin > TRANSVERSALITY_TOL), float(margin)
    return margin > TRANSVERSALITY_TOL, margin


def _halton(dim: int, count: int) -> np.ndarray:
    """Points 1..count of the unscrambled Halton sequence in the first ``dim``
    prime bases, as a (count, dim) array.  Each coordinate is the radical
    inverse of the index, summed digit by digit from the lowest in the order
    scipy's unscrambled ``qmc.Halton`` uses, so the points are bit-equal to
    its after ``fast_forward(1)``."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < dim:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    points = np.zeros((count, dim))
    for k, base in enumerate(primes):
        q = np.arange(1, count + 1)
        scale = 1.0 / base
        while q.any():
            points[:, k] += (q % base) * scale
            scale /= base
            q //= base
    return points


@lru_cache(maxsize=64)
def reference_frames(ambient_dim: int, dim: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy sample of G(dim, ambient_dim), as a
    read-only (count, ambient_dim, dim) frame stack built once per shape.

    Each frame spans the Gaussian quantiles (``scipy.special.ndtri``) of one
    in-house Halton point (``_halton``, bit-equal to scipy's), reshaped to
    ambient_dim by dim.  G(d, d) is one point, sampled as ``count`` identity
    frames."""
    if dim == ambient_dim:
        stack = np.repeat(np.eye(dim)[None], count, axis=0)
    else:
        from scipy.special import ndtri

        points = ndtri(_halton(ambient_dim * dim, count))
        stack = orthonormal_frames(points.reshape(count, ambient_dim, dim))
    stack.setflags(write=False)
    return stack


def projectivize(cone: ConeSample, line) -> np.ndarray:
    """The arcs of the projective line P(line) that the cone's balls meet, as
    a (k, 2) array of (start, end) angles, one row per ball that meets it.

    A direction v lies in some plane within ``cone.radius`` = r of a center
    C exactly when its angle to C is at most r, that is ``|C^T v| >= cos r``.
    With W the line's frame and v = W u, u = (cos t, sin t), this reads
    ``u^T Q u >= cos^2 r`` for the 2x2 ``Q = W^T C C^T W``, whose solutions
    form one arc centered on Q's top eigenvector, of half-width h with
    ``sin^2 h = (mu_1 - cos^2 r) / (mu_1 - mu_2)``: the whole circle when
    ``mu_2 >= cos^2 r``, nothing when ``mu_1 < cos^2 r``.  Q is taken as
    ``I - R`` with R the Gram matrix of W's residual off C, which keeps full
    precision for nearly contained directions.  Angles follow ``line_trace``.
    """
    W = frame_stack(line)
    if W.ndim != 2 or W.shape[1] != 2:
        raise ValueError(f"the line must be a 2-plane, got a frame of shape {W.shape}")
    C = cone.frames
    if not len(C):
        return np.empty((0, 2))
    if C.shape[1] != W.shape[0]:
        raise ValueError("cone and line must share the ambient dimension")
    residual = W - C @ (np.swapaxes(C, 1, 2) @ W)
    off, vecs = np.linalg.eigh(np.swapaxes(residual, 1, 2) @ residual)  # 1 - mu, ascending
    sin2 = math.sin(min(cone.radius, math.pi / 2)) ** 2
    full = off[:, 1] <= sin2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.clip((sin2 - off[:, 0]) / (off[:, 1] - off[:, 0]), 0.0, 1.0)
    half = np.where(full, math.pi / 2, np.arcsin(np.sqrt(ratio)))
    start = np.where(full, 0.0, (np.arctan2(vecs[:, 1, 0], vecs[:, 0, 0]) - half) % math.pi)
    return np.column_stack([start, start + 2.0 * half])[off[:, 0] <= sin2]


def line_trace(arcs) -> list[tuple[float, float]]:
    """The maximal arcs of the union of arcs of a projective line.

    P(line) is parametrized by angle in [0, pi); an arc is (start, end) with
    start in [0, pi) and end - start <= pi, so an arc across 0 ends past pi.
    Arcs that overlap or touch are merged, also across 0, and the result is
    sorted by start; a union that covers the circle is ``[(0, pi)]``.
    """
    merged: list[list[float]] = []
    for start, end in sorted(np.asarray(arcs, dtype=float).reshape(-1, 2).tolist()):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    # only the last arc can end past pi, over the first ones
    while len(merged) > 1 and merged[-1][1] - math.pi >= merged[0][0]:
        merged[-1][1] = max(merged[-1][1], merged.pop(0)[1] + math.pi)
    if any(end - start >= math.pi for start, end in merged):
        return [(0.0, math.pi)]
    return [(start, end) for start, end in merged]
