"""Invariant multicones: attractor sampling, the strict invariance check,
the adapted metric, the radius search and the component analysis.

Interior/closure conditions on finite samples are realized as numeric
margins; every verdict carries its margin rather than a bare boolean.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg, words
from .errors import MulticoneConstructionError, NumericalError
from .grassmann import (
    ConeSample,
    complement_frames,
    frame_stack,
    frame_stack_distances,
    grass_distance,
    image_frames,
    nearest_angles,
    orthonormal_frames,
    transverse,
    worst_nearest_angle,
)
from .grassmann import line_trace, projectivize  # noqa: F401  (not called here: the bench tracer wraps these names)
from .jsonio import JsonRecord
from .words import MatrixFamily

log = logging.getLogger(__name__)


# the attractor of ``build_multicone``: words of ATTRACTOR_WORD_LEN letters,
# ATTRACTOR_WORDS of them unless the caller asks for another count, drawn
# with ``attractor``'s default seed
ATTRACTOR_WORD_LEN = 40
ATTRACTOR_WORDS = 256
# the largest attractor size.  The construction of a 4-d, index-2
# family (the benchmark suite's dominated_6, 2 members; max RSS of a fresh
# process, one BLAS thread) peaks at 48 MB with 256 words, 56 MB with
# 1,024 and 88 MB with 2,048.  By tracemalloc, the invariance check's
# nearest-point search sets the peak at 256 (10 MB), and the center pass's
# search, which runs while the n x n center distances are held (32 MB at
# 2,048), at 1,024 (18 MB) and 2,048 (43 MB).
MAX_ATTRACTOR_WORDS = 2048


def check_attractor_words(count: int) -> None:
    """Refuse an attractor size outside 1..MAX_ATTRACTOR_WORDS."""
    if not 1 <= count <= MAX_ATTRACTOR_WORDS:
        raise ValueError(f"attractor_words must be from 1 to {MAX_ATTRACTOR_WORDS}, got {count}")


@dataclass(frozen=True, eq=False)
class Multicone(JsonRecord):
    """Strictly invariant cone sample split into isolated components.

    ``component_gap`` is the minimum distance between points of different
    components minus twice the radius; positive means the component closures
    are pairwise disjoint.  It is +inf for a single component.
    """

    cone: ConeSample
    components: tuple[tuple[int, ...], ...]
    invariance_margin: float
    component_gap: float = field(metadata={"null_as": math.inf})

    def __post_init__(self):
        assigned = sorted(i for comp in self.components for i in comp)
        if assigned != list(range(len(self.cone.frames))):
            raise ValueError("components must partition the cone points")
        if len(self.components) < 1:
            raise ValueError("need at least one component")

    def component_cone(self, which: int) -> ConeSample:
        return replace(self.cone, frames=self.cone.frames[list(self.components[which])])


# Allowance, in radians, by which a (member, center) pair's bound on its
# probe images may fall short of the value to beat and still have those
# probes evaluated; far above the rounding of the computed distances (at
# most DISTANCE_RESOLUTION, see ``strictly_invariant``) and of the bounds.
PROBE_PRUNE_SLACK = 1e-6


def _ball_probes(frames: np.ndarray, complements: np.ndarray, radius: float) -> np.ndarray:
    """(n, i (d - i), d, i) geodesic steps of exactly ``radius`` from each
    center, given its (n, d, d - i) complement frames.

    Probe ``p = c (d - i) + l`` of center k rotates the center's column c
    towards complement column l; the probes sample the boundary of the
    radius-ball so invariance is tested on the neighborhood, not just on
    its centers (a near-identity family fixes the centers but not the
    ball).  The rotation sign is that of ``(-1)^(k + p)``: point clouds
    sample their set densely, so neighboring centers jointly cover both
    signs at half the probe count.
    """
    n, d, i = frames.shape
    cos_r, sin_r = math.cos(radius), math.sin(radius)
    probes = np.repeat(frames[:, None], i * (d - i), axis=1)
    for p in range(i * (d - i)):
        c, l = divmod(p, d - i)
        sign = np.where((np.arange(n) + p) % 2 == 0, 1.0, -1.0)[:, None]
        probes[:, p, :, c] = cos_r * frames[:, :, c] + sign * sin_r * complements[:, :, l]
    return probes


def _inverse_norm_and_solve(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``|A^-1|`` and ``A^-1 B`` for a stack of invertible square A, both
    from the inverse, which is in closed form for one and two columns."""
    i = A.shape[-1]
    if i == 1:
        inv = 1.0 / A
    elif i == 2:
        a, b, c, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
        adj = np.stack([np.stack([d, -b], -1), np.stack([-c, a], -1)], -2)
        inv = adj / (a * d - b * c)[..., None, None]
    else:
        inv = np.linalg.inv(A)
    return linalg.operator_norms(inv), np.matmul(inv, B)


@dataclass(frozen=True, eq=False)
class _CenterPass:
    """The radius-independent part of ``strictly_invariant``: the m x n
    (member j, center k) pairs of one family and one cone's centers.

    ``complements`` are the centers' (n, d, d - i) complement frames, from
    which ``_ball_probes`` steps at every radius.  ``worst`` is the worst
    nearest-center distance of the center images F_jk and ``upper[j, k]``
    an upper bound on F_jk's own.  Any plane within r of center k maps under
    member j to within ``arctan(alpha tan r / (1 - beta tan r))`` of F_jk
    (``_ball_growth``).  ``spread[j, k]`` is the distance between F_jk and
    F_(j+1)k on a sampled curve (no rows otherwise), and ``chart`` the
    smallest over centers E_a of the largest distance from E_a to a center
    (inf for i = d).
    """

    family: MatrixFamily
    frames: np.ndarray
    complements: np.ndarray
    worst: float
    upper: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    spread: np.ndarray
    chart: float


def _center_pass(family: MatrixFamily, frames: np.ndarray, dist: np.ndarray | None = None) -> _CenterPass:
    """Images, nearest-center bounds and ball-growth constants of every
    (member, center) pair; see ``strictly_invariant``.  The chart reads
    ``dist``, the ``frame_stack_distances`` of the centers, computed here
    unless the caller holds it."""
    n, d, i = frames.shape
    m = family.size
    Y = np.matmul(family.stack[:, None], frames[None]).reshape(m * n, d, i)
    F = image_frames(Y)
    worst, upper = nearest_angles(F, frames)
    complements = complement_frames(frames)
    if i < d:
        # A = F^T Y, B = F^T Z and C = Z - F B with Z the image of the
        # complement frame: graph(L) over E_k maps to graph(C L (A + B L)^-1)
        # over F_jk
        Z = np.matmul(family.stack[:, None], complements[None]).reshape(m * n, d, d - i)
        Ft = np.swapaxes(F, 1, 2)
        B = np.matmul(Ft, Z)
        inv_norm, K = _inverse_norm_and_solve(np.matmul(Ft, Y), B)
        alpha = linalg.operator_norms(Z - np.matmul(F, B)) * inv_norm
        beta = linalg.operator_norms(K)
    else:
        alpha = beta = np.zeros(m * n)
    spread = np.empty((0, n))
    if family.source.kind == "sampled_curve" and m > 1:
        spread = grass_distance(F[:-n], F[n:]).reshape(m - 1, n)
    if dist is None and i < d:
        dist = frame_stack_distances(frames, frames)
    chart = float(dist.max(axis=1).min()) if i < d else math.inf
    return _CenterPass(
        family=family,
        frames=frames,
        complements=complements,
        worst=worst,
        upper=upper.reshape(m, n),
        alpha=alpha.reshape(m, n),
        beta=beta.reshape(m, n),
        spread=spread,
        chart=chart,
    )


def _ball_growth(centers: _CenterPass, radius: float) -> np.ndarray:
    """(m, n) bound g on the distance from F_jk of the image under member j
    of any plane within ``radius`` of center k; inf where none holds."""
    t = math.tan(radius) if radius < math.pi / 2 else math.inf
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        bt = centers.beta * t
        growth = np.arctan(centers.alpha * t / (1.0 - bt))
    # a nan bound compares false below and keeps its pair
    return np.where(bt >= 1.0, np.inf, growth)


def _probe_images(mats: np.ndarray, probes: np.ndarray, members, centers) -> np.ndarray:
    """Images of every probe of center ``centers[q]`` under member
    ``members[q]``, pair-major and flattened; each row has the bits of its
    row of ``act_frames``."""
    images = np.matmul(mats[members][:, None], probes[centers])
    return image_frames(images.reshape(-1, *probes.shape[2:]))


def strictly_invariant(
    family: MatrixFamily, cone: ConeSample, centers: _CenterPass | None = None
) -> tuple[bool, float]:
    """Margin test for the image of the cone landing inside the cone.

    The sampled set is the union of radius-balls around the points, so the
    image sweep covers the centers and geodesic boundary probes of each
    ball.  margin = radius - max over images of the distance to the nearest
    cone point - adjacent-sample spread allowance.  For a sampled curve the
    allowance is the largest distance between the images of one probe under
    adjacent members.

    A multicone must also be proper, and a positive margin alone does not
    make it so: in Bochi-Gourmelon (arXiv 0808.3811, Thm B) some (d - i)-plane
    is transverse to every plane of a multicone; for d = 2 (Avila-Bochi-
    Yoccoz) the cone misses a point of P^1.  Merely missing some plane is too
    weak for d >= 3: diag(R, 1/3), with R a 2 x 2 rotation, is not dominated
    at index 1, yet it maps the complement of a small ball about its
    repelling line e_3 strictly into itself.  The chart test proves the
    transversal plane.  With chart = min over a of max over k of
    dist(E_a, E_k), a call passes only when chart + r < pi/2.  The largest
    principal angle is a metric, so every plane P of every ball (boundary
    included) lies within r + dist(E_a, E_k) < pi/2 of the minimizing
    center E_a; and theta_max(P, E_a) < pi/2 exactly when P meets E_a^perp
    only in 0.  So every plane of the cone is transverse to the one plane
    E_a^perp, up to the rounding of the distances (at most
    DISTANCE_RESOLUTION, from the arcsine near pi/2).  Its
    limit: with E_a taken among the centers, a valid multicone whose
    components are nearly perpendicular (two arcs of P^1 about pi/2 apart)
    is rejected, as for the output digest's two interleaved members at
    lambda = 8.  The multicones of its other runs have a chart slack
    pi/2 - chart - r of at least 0.49 rad, and of 0.11 rad for three
    interleaved members.  G(d, d) is one point, so chart = inf and i = d
    never passes.

    The sweep evaluates only the probes that can set the margin.  Take a
    member M_j and a center E_k with complement frame E_k^perp, F_jk the
    frame of Y = M_j E_k and Z = M_j E_k^perp; then A = F^T Y, B = F^T Z,
    C = Z - F B, alpha = |C| |A^-1| and beta = |A^-1 B|.  A plane within r
    of E_k is graph(L) over it with |L| <= tan r, and its image is
    graph(C L (A + B L)^-1) over F_jk, so it lies within
    g_jk(r) = arctan(alpha tan r / (1 - beta tan r)) of F_jk while
    beta tan r < 1 (no bound otherwise).  The largest principal angle is a
    metric (Qiu, Zhang & Li 2005), so by the triangle inequality
    - every probe image of (j, k) lies within u_jk + g_jk(r) of the nearest
      center, with u_jk an upper bound on F_jk's own distance
      (``nearest_angles``);
    - the images of one probe of center k under members j and j + 1 are at
      most g_jk + s_jk + g_(j+1)k apart, with s_jk the distance between
      F_jk and F_(j+1)k.
    The center images are themselves sweep rows, so their worst distance L
    and their largest spread S are values the full sweep attains.  The
    probes of a pair are evaluated only where its bound reaches L (or S)
    less PROBE_PRUNE_SLACK, which exceeds the rounding of the bounds and of
    the distances: at most DISTANCE_RESOLUTION, from the arcsine that both
    sine-form kernels take near pi/2.  Every skipped probe provably
    lies below a value already attained, so the margin is that of the full
    sweep, bit for bit: each image and distance is computed by the same
    kernels, row by row.  Everything that does not depend on the radius
    (the complement frames and images of the centers, L, u, S, alpha, beta
    and the chart) is one pass over the pairs; ``build_multicone``
    computes it once, chooses its radius from it, and hands it to its one
    call, as ``centers``.  The nearest-point searches, one over the center
    images and one over the kept probe images, each take all their rows in
    one call (``nearest_angles``, ``worst_nearest_angle``), which prunes its
    own rows by the same kind of bound and holds its memory to a few row
    blocks of ``grassmann.BLOCK_OUTPUTS`` outputs.
    """
    frames = cone.frames
    if not len(frames):
        raise ValueError("cone sample must be non-empty")
    _, d, i = frames.shape
    if d != family.dim:
        raise ValueError("family and cone dimensions do not match")
    if centers is None:
        centers = _center_pass(family, frames)
    elif centers.family is not family or not np.array_equal(centers.frames, frames):
        raise ValueError("the center pass belongs to another family or cone sample")
    worst, spread = centers.worst, float(centers.spread.max(initial=0.0))
    if cone.radius > 0.0 and i < d:
        probes = _ball_probes(frames, centers.complements, cone.radius)
        growth = _ball_growth(centers, cone.radius)
        j, k = np.nonzero(~(centers.upper + growth < worst - PROBE_PRUNE_SLACK))
        if len(j):
            worst = max(worst, worst_nearest_angle(_probe_images(family.stack, probes, j, k), frames))
        if len(centers.spread):
            bound = growth[:-1] + centers.spread + growth[1:]
            j, k = np.nonzero(~(bound < spread - PROBE_PRUNE_SLACK))
            if len(j):
                here = _probe_images(family.stack, probes, j, k)
                there = _probe_images(family.stack, probes, j + 1, k)
                spread = max(spread, float(np.max(grass_distance(here, there))))
    margin = cone.radius - worst - spread
    return margin > 0.0 and centers.chart + cone.radius < math.pi / 2, margin


# products whose gap ratio at the index is within GAP_WARNING_TOL of 1 have
# ill-defined top frames
GAP_WARNING_TOL = 1e-6


def attractor(
    family: MatrixFamily,
    index: int,
    word_len: int,
    word_count: int,
    rng_seed: int = 2024,
) -> ConeSample:
    """Sampled forward attractor: top singular frames of long word products.

    Each of the ``word_count`` sampled words of length ``word_len``
    contributes the span of the first ``index`` left singular directions of
    its product.  The first letter of each word cycles through the members
    so every one-step target is represented.  Products whose gap ratio at
    ``index`` is within GAP_WARNING_TOL of 1 are skipped and logged as
    warnings.  The stable counterpart is this function on the inverse
    family with index ``d - index``.
    """
    linalg.check_index(index, family.dim)
    if word_len < 1:
        raise ValueError("word_len must be positive")
    if word_count < 1:
        raise ValueError(f"word_count must be at least 1, got {word_count}")
    rng = np.random.default_rng(rng_seed)
    first = np.arange(word_count) % family.size
    rest = rng.integers(family.size, size=(word_count, word_len - 1))
    P, _ = words.scaled_word_product(family, np.column_stack([first, rest]))
    try:
        U, s, _ = np.linalg.svd(P)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular value decomposition failed") from exc
    flat = s[:, index] >= s[:, index - 1] * (1.0 - GAP_WARNING_TOL)
    spans = U[~flat, :, :index]
    warned = int(np.count_nonzero(flat))
    if warned:
        log.warning("attractor: %d sampled products had ill-defined top frames", warned)
    return ConeSample(index, orthonormal_frames(spans) if len(spans) else (), 0.0)


def adapted_metric(
    family: MatrixFamily, first, second, n_trunc: int, stable_sample: ConeSample, beam_width: int = 64
) -> float | np.ndarray:
    """Truncated adapted distance: sum over n of the worst n-step image distance.

    ``first`` and ``second`` are planes, or ``(n, d, i)`` frame stacks paired
    row by row as ``grass_distance`` pairs them; a pair of planes gives a
    float, stacks an ``(n,)`` array.  Every plane must be transverse to every
    plane of the stable attractor sample.  Each term is a beam-limited
    maximum over words of length n (exhaustive while the beam holds all
    words); the last term is a truncation indicator, logged at DEBUG level.
    Under domination every family member strictly contracts this metric.
    Each row's beam, images, distances and stable cut depend on that row's
    pair only, so every row is bit-equal to the call on its pair alone.
    """
    if beam_width < 1:
        raise ValueError(f"beam_width must be at least 1, got {beam_width}")
    if n_trunc < 0:
        raise ValueError(f"n_trunc must be at least 0, got {n_trunc}")
    pairs = np.stack([frame_stack(first), frame_stack(second)], axis=-3)
    shape, (d, i) = pairs.shape[:-3], pairs.shape[-2:]
    # (n, 2, beam, d, i): the two beams of every pair, one plane each at first
    beams = pairs.reshape(-1, 2, 1, d, i)
    if len(stable_sample.frames):
        # every (plane, stable point) pair in one call
        ok, _ = transverse(beams, stable_sample.frames)
        if not np.all(ok):
            raise ValueError("input plane is not transverse to the stable sample")
    total = last = grass_distance(beams[:, 0, 0], beams[:, 1, 0])
    for _ in range(n_trunc):
        # each pair's images, member-major: image j * beam + k is that of
        # beam plane k under member j
        images = np.matmul(family.stack[:, None], beams[:, :, None])
        beams = image_frames(images.reshape(-1, d, i)).reshape(len(beams), 2, -1, d, i)
        dists = grass_distance(beams[:, 0], beams[:, 1])
        last = dists.max(axis=1)
        total = total + last
        if beams.shape[2] > beam_width:
            keep = np.argsort(-dists, axis=1, kind="stable")[:, :beam_width]
            beams = np.take_along_axis(beams, keep[:, None, :, None, None], axis=2)
    log.debug("adapted_metric truncation indicator: largest last term %.3e", np.max(last))
    total = total.reshape(shape)
    return float(total) if total.ndim == 0 else total


def _components(dist: np.ndarray, link: float) -> tuple[tuple[tuple[int, ...], ...], float]:
    """Components of the points joined by pairs at distance <= link, ordered
    by smallest member, members ascending, and their gap: the smallest
    distance between points of different components less ``link``, +inf for
    one component.

    Only the upper triangle of ``dist`` is read: a distance matrix built by
    matrix products need not be bitwise symmetric.  A breadth-first search
    from the smallest unlabeled point labels every point it reaches by that
    point, its component's smallest member; no point of an earlier
    component is joined to it, so the unlabeled points are the unreached
    ones.  With one component no pair is apart and the minimum is its
    initial inf.
    """
    n = dist.shape[0]
    joined = np.triu(dist <= link, 1)
    joined |= joined.T
    label = np.full(n, -1)
    while (label < 0).any():
        a = int(np.argmax(label < 0))
        frontier = np.arange(n) == a
        while frontier.any():
            label[frontier] = a
            frontier = joined[frontier].any(axis=0) & (label < 0)
    comps = tuple(tuple(np.flatnonzero(label == a).tolist()) for a in range(n) if label[a] == a)
    apart = np.triu(label[:, None] != label, 1)
    return comps, float(np.min(dist, where=apart, initial=math.inf)) - link


# The uniform absolute accuracy of ``frame_stack_distances``: its sine is
# good to a few ulps, and the arcsine turns that into at most about
# sqrt(2^-52) = 2^-26 rad near pi/2.  No smaller radius is searched.
DISTANCE_RESOLUTION = 2.0**-26

# the radius search: RADIUS_GRID geometric radii, then RADIUS_REFINEMENTS
# steps of two radii each, 64 bounds in all
RADIUS_GRID = 32
RADIUS_REFINEMENTS = 16


def _worst_reach(centers: _CenterPass, radius: float) -> tuple[float, float]:
    """(u_jk, g_jk(radius)) of the (member, center) pair with the largest
    sum, the pair's bound on the distance from its ball's images to the
    nearest center (see ``strictly_invariant``)."""
    growth = _ball_growth(centers, radius)
    worst = int(np.argmax(centers.upper + growth))
    return float(centers.upper.flat[worst]), float(growth.flat[worst])


def _best_radius(centers: _CenterPass, lo: float, hi: float) -> tuple[float, float]:
    """The radius r in (lo, hi) with the largest bound r - u - g of
    ``_worst_reach``, and that bound: the best of RADIUS_GRID geometric radii
    strictly between lo and hi, then RADIUS_REFINEMENTS steps, each of which
    tries the radii a factor of the square root of the last step above and
    below the best so far.  The steps add up to less than one grid step, so
    every radius tried lies in (lo, hi)."""

    def bound_at(r: float) -> float:
        return r - sum(_worst_reach(centers, r))

    grid = np.geomspace(lo, hi, RADIUS_GRID + 2)[1:-1].tolist()
    bounds = [bound_at(r) for r in grid]
    a = int(np.argmax(bounds))
    best, bound, step = grid[a], bounds[a], grid[1] / grid[0]
    for _ in range(RADIUS_REFINEMENTS):
        step = math.sqrt(step)
        for r in (best / step, best * step):
            b = bound_at(r)
            if b > bound:
                best, bound = r, b
    return best, bound


def build_multicone(family: MatrixFamily, index: int, attractor_words: int = ATTRACTOR_WORDS) -> Multicone:
    """Construct a strictly invariant multicone from the sampled attractor.

    The radius r maximizes the closed-form bound on the invariance margin,
    r - max over (member j, center k) of [u_jk + g_jk(r)]; u and g are those
    of ``strictly_invariant``, read off the one center pass of the build.
    The search runs between max u plus the largest spread of the center
    images on a sampled curve, below which no sampled margin is positive,
    and pi/2 - chart, above which the chart test fails (up to pi/2 when that
    leaves no room, so that the failure reports a radius).  One
    ``strictly_invariant`` call at r decides, and its sampled margin is the
    one reported.  On a finite family its sweep lies within u + g of the
    centers, so that margin is at least the bound, up to rounding.

    The multicone is returned only when that call passes and the bound at r
    exceeds DISTANCE_RESOLUTION.  A strictly invariant multicone transverse
    to a plane certifies domination by itself (Bochi-Gourmelon, arXiv
    0808.3811, Thm B), so no gap search runs.  The spread is not subtracted
    from the bound: it is 0 on a finite family, and on a sampled curve the
    sampled margin already subtracts the spread of the probe images, while
    the spread of the center images can exceed the bound of a cone that
    passes (0.0316 against 0.0286 on the unstable side of the example at
    grid 40).  Any other outcome raises MulticoneConstructionError with the
    radius and the parts of its bound: no certificate, which says nothing
    about the family being dominated or not.

    The components are those of the attractor cloud at link 2r: points at
    distance <= 2r fall in one component.  The component gap is the
    smallest distance between components less 2r, so it is always positive.
    """
    check_attractor_words(attractor_words)
    cloud = attractor(family, index, ATTRACTOR_WORD_LEN, word_count=attractor_words)
    frames = cloud.frames
    if not len(frames):
        raise MulticoneConstructionError("attractor sample is empty", parts={})
    dist = frame_stack_distances(frames, frames)
    centers = _center_pass(family, frames, dist)
    spread = float(centers.spread.max(initial=0.0))
    lo = max(float(centers.upper.max()) + spread, DISTANCE_RESOLUTION)
    hi = math.pi / 2 - centers.chart
    radius, bound = _best_radius(centers, lo, hi if lo < hi else math.pi / 2)
    comps, gap = _components(dist, 2.0 * radius)
    # n x n, 32 MB at MAX_ATTRACTOR_WORDS: not held through the invariance call
    del dist
    cone = replace(cloud, radius=radius)
    ok, margin = strictly_invariant(family, cone, centers)
    if not (ok and bound > DISTANCE_RESOLUTION):
        u, g = _worst_reach(centers, radius)
        parts = {"radius": radius, "u": u, "g": g, "spread": spread, "chart_slack": hi - radius}
        # strictly_invariant rejects a positive margin only by the chart test
        if ok:
            reason = "passes the invariance check with no positive bound"
        elif margin > 0.0:
            reason = "fails the chart test"
        else:
            reason = "fails the invariance check"
        raise MulticoneConstructionError(
            f"the best radius {radius:.4g} {reason}: sampled margin {margin:.4g}, bound {bound:.4g}",
            parts=parts,
        )
    return Multicone(cone=cone, components=comps, invariance_margin=margin, component_gap=gap)
