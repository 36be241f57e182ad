"""Invariant multicones: attractor sampling, the strict invariance check,
the adapted metric, and epsilon-neighborhood component analysis.

Interior/closure conditions on finite samples are realized as numeric
margins; every verdict carries its margin rather than a bare boolean.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg, words
from .errors import DominationGateError, MulticoneConstructionError, NumericalError
from .grassmann import (
    ConeSample,
    Plane,
    act_frames,
    complement_frames,
    frame_stack_distances,
    grass_distance,
    image_frames,
    min_cos_principal,
    nearest_angles,
    orthonormal_frames,
    reference_frames,
    transverse,
    worst_nearest_angle,
)
from .grassmann import line_trace, projectivize  # noqa: F401  (not called here: the bench tracer wraps these names)
from .jsonio import JsonRecord
from .words import MatrixFamily, SearchConfig

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MulticoneConfig:
    attractor_word_len: int = 40
    attractor_words: int = 256
    attractor_rng_seed: int = 2024
    override_domination_gate: bool = False
    gate_search: SearchConfig = field(default_factory=SearchConfig)


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


# image-center pairs per nearest-point search in ``strictly_invariant``;
# bounds the memory of one search
_GROUP_PAIRS = 5_000_000

# Allowance, in radians, by which a (member, center) pair's bound on its
# probe images may fall short of the value to beat and still have those
# probes evaluated; far above the rounding of the computed distances (about
# 1e-8 rad at worst, see ``strictly_invariant``) and of the bounds.
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


# reference planes of the Grassmannian whose cover by the sample rules
# strict invariance out
COVER_CHECK_POINTS = 128


def _row_chunks(rows: int, width: int) -> list[np.ndarray]:
    """Index chunks of ``rows`` image rows, each searched against ``width``
    centers: at least ``max(2, _GROUP_PAIRS // width)`` rows each (all of
    them if fewer) and under twice that, so a search holds about
    ``_GROUP_PAIRS`` pairs."""
    size = max(2, _GROUP_PAIRS // max(width, 1))
    return np.array_split(np.arange(rows), max(1, rows // size))


def _inverse_norm_and_solve(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``|A^-1|`` and ``A^-1 B`` for a stack of invertible square A, in
    closed form for one and two columns."""
    i = A.shape[-1]
    inv_norm = 1.0 / min_cos_principal(A)
    if i == 1:
        return inv_norm, B / A
    if i == 2:
        a, b, c, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
        adj = np.stack([np.stack([d, -b], -1), np.stack([-c, a], -1)], -2)
        return inv_norm, np.matmul(adj, B) / (a * d - b * c)[..., None, None]
    return inv_norm, np.linalg.solve(A, B)


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
    F_(j+1)k on a sampled curve (no rows otherwise), and ``cover`` the
    radius from which the centers cover every reference plane.
    """

    family: MatrixFamily
    frames: np.ndarray
    complements: np.ndarray
    worst: float
    upper: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    spread: np.ndarray
    cover: float


def _center_pass(family: MatrixFamily, frames: np.ndarray) -> _CenterPass:
    """Images, nearest-center bounds and ball-growth constants of every
    (member, center) pair; see ``strictly_invariant``."""
    n, d, i = frames.shape
    m = family.size
    Y = np.matmul(family.stack[:, None], frames[None]).reshape(m * n, d, i)
    F = image_frames(Y)
    searched = [nearest_angles(F[rows], frames) for rows in _row_chunks(m * n, n)]
    worst = max(w for w, _ in searched)
    upper = np.concatenate([u for _, u in searched])
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
    refs = reference_frames(d, i, COVER_CHECK_POINTS)
    cover = float(frame_stack_distances(refs, frames).min(axis=1).max())
    return _CenterPass(
        family=family,
        frames=frames,
        complements=complements,
        worst=worst,
        upper=upper.reshape(m, n),
        alpha=alpha.reshape(m, n),
        beta=beta.reshape(m, n),
        spread=spread,
        cover=cover,
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
    adjacent members.  A sample whose points cover the whole
    (reference-sampled) Grassmannian is never declared strictly invariant,
    whatever the margin: interior inclusion needs slack that the full space
    cannot offer.

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
    the distances: about 1e-8 rad, from the nearest-center search's arccos
    near 0 and the spread's arcsine near pi/2.  Every skipped probe provably
    lies below a value already attained, so the margin is that of the full
    sweep, bit for bit: each image and distance is computed by the same
    kernels, row by row.  Everything that does not depend on the radius
    (the complement frames and images of the centers, L, u, S, alpha, beta
    and the cover radius) is one pass over the pairs; ``build_multicone``
    computes it once and hands it to every call, as ``centers``.  The
    nearest-point search (``worst_nearest_angle``) prunes its own rows by
    the same kind of bound and runs on the narrower of the planes and their
    complements.
    """
    frames = cone.frames
    if not len(frames):
        raise ValueError("cone sample must be non-empty")
    n, d, i = frames.shape
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
            images = _probe_images(family.stack, probes, j, k)
            for rows in _row_chunks(len(images), n):
                worst = max(worst, worst_nearest_angle(images[rows], frames))
        if len(centers.spread):
            bound = growth[:-1] + centers.spread + growth[1:]
            j, k = np.nonzero(~(bound < spread - PROBE_PRUNE_SLACK))
            if len(j):
                here = _probe_images(family.stack, probes, j, k)
                there = _probe_images(family.stack, probes, j + 1, k)
                spread = max(spread, float(np.max(grass_distance(here, there))))
    margin = cone.radius - worst - spread
    if centers.cover <= cone.radius:
        return False, margin
    return margin > 0.0, margin


# products whose gap ratio at the index is within GAP_WARNING_TOL of 1 have
# ill-defined top frames
GAP_WARNING_TOL = 1e-6


def attractor(
    family: MatrixFamily,
    index: int,
    word_len: int,
    word_count: int = 64,
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
    family: MatrixFamily,
    first: Plane,
    second: Plane,
    n_trunc: int,
    stable_sample: ConeSample,
    beam_width: int = 64,
) -> float:
    """Truncated adapted distance: sum over n of the worst n-step image distance.

    Both planes must be transverse to every plane of the stable attractor
    sample.  Each term is a beam-limited maximum over words of length n
    (exhaustive while the beam holds all words); the last term is a
    truncation indicator, logged at DEBUG level.  Under domination every
    family member strictly contracts this metric.
    """
    stable = stable_sample.frames
    if len(stable):
        # every (plane, stable point) pair in one call
        ok, _ = transverse(np.stack([first.frame, second.frame])[:, None], stable)
        if not np.all(ok):
            raise ValueError("input plane is not transverse to the stable sample")
    total = grass_distance(first, second)
    beam_a = first.frame[None]
    beam_b = second.frame[None]
    last = total
    for _ in range(1, n_trunc + 1):
        # both beams in one call; each member's images of beam_a come first
        imgs = act_frames(family.stack, np.concatenate([beam_a, beam_b]))
        imgs = imgs.reshape(family.size, 2, -1, *imgs.shape[1:])
        imgs_a = imgs[:, 0].reshape(-1, *imgs.shape[3:])
        imgs_b = imgs[:, 1].reshape(-1, *imgs.shape[3:])
        dists = grass_distance(imgs_a, imgs_b)
        last = float(np.max(dists))
        total += last
        if imgs_a.shape[0] > beam_width:
            keep = np.argsort(-dists, kind="stable")[:beam_width]
            imgs_a = imgs_a[keep]
            imgs_b = imgs_b[keep]
        beam_a, beam_b = imgs_a, imgs_b
    log.debug("adapted_metric truncation indicator: last term %.3e", last)
    return float(total)


def _single_linkage(dist: np.ndarray, link_radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-linkage merge tree of the points and their component count at
    each link radius.

    Only the upper triangle of ``dist`` is read: a distance matrix built by
    matrix products need not be bitwise symmetric.  The tree's n - 1 merge
    heights are exact entries of ``dist`` in ascending order, and the points
    joined by pairs at distance <= t are joined by the tree's merges of
    height <= t, so the count at t is n minus the number of those merges
    (Gower & Ross 1969).
    """
    from scipy.cluster.hierarchy import linkage

    n = dist.shape[0]
    merges = linkage(dist[np.triu_indices(n, 1)], method="single") if n > 1 else np.empty((0, 4))
    counts = n - np.searchsorted(merges[:, 2], link_radii, side="right")
    return merges, counts


def _components_at(merges: np.ndarray, link_radius: float) -> tuple[tuple[int, ...], ...]:
    """Components of the points joined by the merges of height <= link_radius,
    ordered by smallest member, members ascending."""
    from scipy.cluster.hierarchy import fcluster

    if not len(merges):  # one point; fcluster rejects an empty tree
        return ((0,),)
    labels = fcluster(merges, link_radius, criterion="distance")
    groups: dict[int, list[int]] = {}
    # points in ascending order: each component first appears at its smallest
    for a, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(a)
    return tuple(tuple(g) for g in groups.values())


# the epsilon scan: EPSILON_GRID_SIZE geometric radii, and a plateau spans
# a factor of at least PLATEAU_FACTOR
PLATEAU_FACTOR = 1.5
EPSILON_GRID_SIZE = 48


def build_multicone(family: MatrixFamily, index: int, config: MulticoneConfig | None = None) -> Multicone:
    """Construct a strictly invariant multicone from the sampled attractor.

    Requires (or overrides) a Dominated verdict.  The radius is chosen where
    the single-linkage component count is stable across a factor of at least
    PLATEAU_FACTOR of radii; candidates must then pass the strict
    invariance check.  With no passing candidate the (epsilon, component
    count) table is raised as a construction failure.

    The counts come from one single-linkage tree of the attractor cloud:
    points at link distance <= 2 epsilon fall in one component exactly when
    the tree joins them by merges of height <= 2 epsilon, so the count at
    epsilon is n minus the number of such merges (Gower & Ross 1969).  The
    next merge, the first above 2 epsilon, joins the two closest components,
    so the component gap is its height less 2 epsilon and always positive.
    Only the upper triangle of the pairwise distance matrix is read for the
    tree; the components themselves are formed only for the radii the scan
    tries.
    """
    cfg = config or MulticoneConfig()
    if not cfg.override_domination_gate:
        report = words.is_dominated(family, index, cfg.gate_search)
        if report.verdict.kind != words.DOMINATED:
            raise DominationGateError(
                f"family verdict is {report.verdict.kind}; pass "
                "override_domination_gate=True to build anyway"
            )
    cloud = attractor(
        family,
        index,
        cfg.attractor_word_len,
        word_count=cfg.attractor_words,
        rng_seed=cfg.attractor_rng_seed,
    )
    frames = cloud.frames
    if not len(frames):
        raise MulticoneConstructionError("attractor sample is empty", table=[])
    dist = frame_stack_distances(frames, frames)
    np.fill_diagonal(dist, 0.0)

    # the grid starts at a quarter of the smallest positive distance; each
    # distance is the arccos of a cosine clipped to [0, 1], so it is 0 (a
    # point sampled twice) or at least arccos(1 - 2^-53) ~ 1.49e-8
    positive = dist[dist > 0.0]
    if positive.size == 0:
        grid = np.geomspace(1e-4, 1.0, EPSILON_GRID_SIZE)
    else:
        lo = float(positive.min()) / 4.0
        hi = max(float(np.max(dist)) * 0.75, lo * 4.0)
        grid = np.geomspace(lo, hi, EPSILON_GRID_SIZE)

    merges, counts = _single_linkage(dist, 2.0 * grid)
    table = [(float(eps), int(count)) for eps, count in zip(grid, counts)]

    # one pass over the (member, center) pairs serves every radius tried.
    # The sweep at any radius starts from the center images, so its worst
    # distance and spread are at least theirs: the margin at eps is at most
    # eps + center_margin, and no eps below -center_margin can pass
    centers = _center_pass(family, frames)
    _, center_margin = strictly_invariant(family, cloud, centers)
    skip_below = max(0.0, -center_margin)

    failures: list[str] = []
    best: Multicone | None = None
    for a in range(len(grid)):
        b = a
        while b + 1 < len(grid) and table[b + 1][1] == table[a][1]:
            b += 1
        if grid[b] / grid[a] < PLATEAU_FACTOR:
            continue
        eps = float(grid[a])
        if eps < skip_below:
            continue
        if best is not None and table[a][1] != len(best.components):
            break  # next plateau has a different component count: keep the best
        comps = _components_at(merges, 2.0 * eps)
        cone = replace(cloud, radius=eps)
        ok, margin = strictly_invariant(family, cone, centers)
        gap = float(merges[len(frames) - len(comps), 2]) - 2.0 * eps if len(comps) > 1 else math.inf
        if ok:
            candidate = Multicone(
                cone=cone, components=comps, invariance_margin=margin, component_gap=gap
            )
            if best is None or margin > best.invariance_margin:
                best = candidate
            elif margin < best.invariance_margin:
                break  # margins decay past the sweet spot: stop scanning
            continue
        if best is not None:
            break
        # strictly_invariant rejects a positive margin only when the sample
        # covers the reference-sampled Grassmannian
        cover = "; fails the cover check" if margin > 0.0 else ""
        failures.append(
            f"eps={eps:.4g}: invariance margin {margin:.4g}, component gap {gap:.4g}{cover}"
        )
    if best is not None:
        return best
    raise MulticoneConstructionError(
        "no epsilon plateau passed invariance and separation checks"
        + ("; tried " + " | ".join(failures) if failures else ""),
        table=table,
    )

