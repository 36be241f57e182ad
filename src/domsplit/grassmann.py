"""Planes in the Grassmannian: group action, metric, transversality, cones.

A plane is stored as an orthonormal frame; the metric is the largest
principal angle, a true metric on G(i, d), always taken as the arcsine of
sin(theta_max).  Row-aligned pairs go through ``grass_distance`` and all
pairs of two frame stacks through ``sin_max_pairs``, which reads the sine
directly off the frame against the other plane's complement frame.  Both
keep full precision near 0 and carry about 1e-8 rad near pi/2, where the
arcsine is ill-conditioned.
Cone-like sets are finite (n, d, i) frame stacks plus a radius.  A cone
meets the projective line P(W) of a 2-plane W exactly where some center C
has ``|C^T v| >= cos r``: one closed-form arc per center (``projectivize``),
merged around the circle by ``line_trace``.  Arcs are (start, end) angles
with start in [0, pi); an arc across 0 ends past pi, and the whole circle is
``[(0, pi)]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
        return [
            [idx, col, *map(repr, column)]
            for idx, frame in enumerate(np.swapaxes(self.frames, 1, 2).tolist())
            for col, column in enumerate(frame)
        ]


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
    U, _, _ = np.linalg.svd(np.eye(d)[None] - linalg.gram_matrices(frames))
    return U[:, :, : d - i]


# GEMM outputs per row block of the all-pairs kernels (``_row_blocks``):
# 4 MB of float64, so a kernel's temporaries stay a few such blocks however
# many pairs it takes.
BLOCK_OUTPUTS = 2**19


def _row_blocks(rows: int, per_row: int) -> list[slice]:
    """Consecutive slices covering ``rows`` rows of ``per_row`` GEMM outputs
    each, of ``size = max(2, BLOCK_OUTPUTS // per_row)`` rows, the last one
    also taking the remainder (at most ``2 size - 1`` rows in all).  A slice
    is a lone row only when ``rows`` is 1, as a one-row product could take
    another BLAS path with other rounding."""
    size = max(2, BLOCK_OUTPUTS // max(per_row, 1))
    count = max(1, rows // size)
    return [slice(b * size, rows if b == count - 1 else (b + 1) * size) for b in range(count)]


def _sine_blocks(A: np.ndarray, B: np.ndarray):
    """``(rows, sines)`` for each row block of A, with ``sines`` the
    ``sin_max_pairs`` of ``A[rows]`` against B, all blocks against one QR
    complement of B."""
    i = A.shape[2]
    C = np.linalg.qr(B, mode="complete")[0][:, :, i:]
    k = C.shape[2]
    for rows in _row_blocks(len(A), len(B) * k * i):
        # row-major over the (d - i) x i entries, each a contiguous (rows, b) array
        entries = [A[rows, :, c] @ C[:, :, l].T for l in range(k) for c in range(i)]
        if min(i, k) <= 1:
            sines = np.sqrt(sum(e * e for e in entries))
        elif i == k == 2:
            a, b, c, d = entries
            sines = (np.sqrt((a + d) ** 2 + (b - c) ** 2) + np.sqrt((a - d) ** 2 + (b + c) ** 2)) / 2
        else:
            sines = linalg.operator_norms(np.stack(entries, axis=-1).reshape(*entries[0].shape, k, i))
        yield rows, sines


def sin_max_pairs(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sin(theta_max) for every pair of frames of two (n, d, i) stacks,
    shaped (a, b).

    It is sigma_1(C_b^T A_a), with C_b a complement frame of B_b: the last
    d - i columns of its complete QR factor, about five times cheaper than
    the SVD of ``complement_frames``, whose basis the ball probes need.  The
    (d - i) x i entries come from one GEMM per (frame column, complement
    column) and are read directly, so nearly equal planes keep full
    precision.  sigma_1 is the root of the sum of squares when
    min(i, d - i) <= 1 (planes that fill the space are at sine 0), the
    closed form ``(sqrt((a + d)^2 + (b - c)^2) + sqrt((a - d)^2 +
    (b + c)^2)) / 2`` of ``linalg.TopSingular`` for 2 x 2 entries (each term
    is non-negative, so nothing cancels, and the entries are at most 1, so
    ``sqrt`` can stand in for the slower ``hypot``), and
    ``linalg.operator_norms`` for anything wider.  The rows of A run in the
    blocks of ``_row_blocks``, of about BLOCK_OUTPUTS entries each, so the
    call holds a few blocks beside its (a, b) result, and each row's sines
    are the same whatever block holds it.
    """
    sines = np.empty((len(A), len(B)))
    for rows, block in _sine_blocks(A, B):
        sines[rows] = block
    return sines


def frame_stack_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise largest principal angles between two stacks of frames."""
    sines = sin_max_pairs(A, B)
    # rounding can take a sine past 1; in place, as the (a, b) result can be large
    return np.arcsin(np.minimum(sines, 1.0, out=sines), out=sines)


# Allowance, in sin^2 of the largest angle, by which a row's upper bound may
# fall short of the lower bound on the answer and still be evaluated exactly;
# far above the rounding of the projection GEMM and of the sine kernel.
NEAREST_PRUNE_SLACK = 1e-6


def worst_nearest_angle(A: np.ndarray, B: np.ndarray) -> float:
    """``max over A of (distance to the nearest frame of B)``: the first
    value of ``nearest_angles``."""
    return nearest_angles(A, B)[0]


def nearest_angles(A: np.ndarray, B: np.ndarray) -> tuple[float, np.ndarray]:
    """``max over A of (distance to the nearest frame of B)``, and per frame
    of A an upper bound on its own nearest distance.

    A GEMM on flattened projection matrices gives, for every pair,
    ``s = i - <P_a, P_b> = sum_k sin^2(theta_k)``; at most
    ``k = min(i, d - i)`` principal angles are nonzero, so
    ``s / k <= sin^2(theta_max) <= s``.  Each row's nearest distance is then
    at most ``arcsin(sqrt(u_a))`` with ``u_a = min_b s_ab`` (the bound
    returned; it holds up to the rounding of the GEMM, a few ulps of ``s``),
    and the answer is at least ``max_a u_a / k`` in ``sin^2``.  A row whose
    upper bound lies below that lower bound (by more than
    ``NEAREST_PRUNE_SLACK``, which absorbs rounding) cannot hold the
    maximum, so the sine kernel (``sin_max_pairs``) runs only on the
    remaining rows, against all of B.  The pruning is conservative: it drops
    only rows that provably do not set the result.  The planes are proper
    (1 <= i <= d - 1), so k >= 1.

    Both the bounds and the kept rows' sines are formed and reduced row
    block by row block (``_row_blocks``), the sines against one QR
    complement of B, so no whole (rows x len(B)) array is held.  The kernel
    always runs on at least two rows (a lone row twice), as a one-row
    product could take another BLAS path with other rounding; so each row's
    distance is the same whatever other rows the call holds.  The angle is
    monotone in the sine, so the reduction happens on the sines and a single
    arcsine finishes the job.
    """
    d, i = A.shape[1], A.shape[2]
    k = min(i, d - i)
    PA = linalg.gram_matrices(A).reshape(A.shape[0], d * d)
    PB = linalg.gram_matrices(B).reshape(B.shape[0], d * d)
    upper = np.concatenate([i - (PA[rows] @ PB.T).max(axis=1) for rows in _row_blocks(len(A), len(B))])
    keep = np.flatnonzero(upper >= upper.max() / k - NEAREST_PRUNE_SLACK)
    kept = A[np.resize(keep, max(len(keep), 2))]
    nearest = np.max([sines.min(axis=1).max() for _, sines in _sine_blocks(kept, B)])
    worst = float(np.arcsin(min(nearest, 1.0)))
    return worst, np.arcsin(np.sqrt(np.clip(upper, 0.0, 1.0)))


def pairwise_distances(first, second) -> np.ndarray:
    """``frame_stack_distances`` between two plane lists or frame stacks,
    empty when either is."""
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
