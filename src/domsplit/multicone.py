"""Invariant multicones: attractor sampling, the adapted metric,
epsilon-neighborhood component analysis, and semiconvexity audits.

Interior/closure conditions on finite samples are realized as numeric
margins; every verdict carries its margin rather than a bare boolean.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from . import linalg, words
from .errors import DominationGateError, MulticoneConstructionError, NumericalError
from .grassmann import (
    ConeSample,
    Plane,
    act_frames,
    aligned_distances,
    complement_frames,
    frame_stack_distances,
    grass_distance,
    image_frames,
    line_trace,
    min_cos_principal,
    nearest_angles,
    orthonormal_frames,
    projectivize,
    reference_frames,
    transverse,
    worst_nearest_angle,
)
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
    component_gap: float = field(metadata={"inf_as_null": True})

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
# probes evaluated; far above the arccos floor of the computed distances
# (about 1e-8 rad) and the rounding of the bounds.
PROBE_PRUNE_SLACK = 1e-6


def _ball_probes(frames: np.ndarray, radius: float) -> np.ndarray:
    """Centers plus geodesic steps of exactly ``radius`` from each frame.

    For each frame column and each orthocomplement direction, rotate the
    column by the radius; the results sample the boundary of the
    radius-ball so invariance is tested on the neighborhood, not just on
    its centers (a near-identity family fixes the centers but not the
    ball).  The rotation sign alternates with the frame index: point
    clouds sample their set densely, so neighboring frames jointly cover
    both signs at half the probe count.  Probe ``n * (1 + p) + k`` is the
    p-th boundary probe of center k.
    """
    if radius <= 0.0:
        return frames
    n, d, i = frames.shape
    complements = complement_frames(frames)
    cos_r, sin_r = math.cos(radius), math.sin(radius)
    probes = [frames]
    pair = 0
    for k in range(i):
        for l in range(d - i):
            w = complements[:, :, l]
            sign = np.where((np.arange(n) + pair) % 2 == 0, 1.0, -1.0)[:, None]
            moved = frames.copy()
            moved[:, :, k] = cos_r * frames[:, :, k] + sign * sin_r * w
            probes.append(moved)
            pair += 1
    return np.concatenate(probes, axis=0)


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


def _spectral_norms(X: np.ndarray) -> np.ndarray:
    """Operator 2-norm of every matrix of a (..., p, q) stack: sigma_1 of a
    square one, else the square root of the top eigenvalue of the Gram
    matrix of its narrower side (sigma_1 of a symmetric PSD matrix)."""
    p, q = X.shape[-2:]
    if p == q:
        return linalg.top_singular_values(X)
    Xt = np.swapaxes(X, -1, -2)
    return np.sqrt(linalg.top_singular_values(np.matmul(X, Xt) if p < q else np.matmul(Xt, X)))


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

    ``worst`` is the worst nearest-center distance of the center images
    F_jk and ``upper[j, k]`` an upper bound on F_jk's own.  Any plane within
    r of center k maps under member j to within
    ``arctan(alpha tan r / (1 - beta tan r))`` of F_jk (``_ball_growth``).
    ``spread[j, k]`` is the distance between F_jk and F_(j+1)k on a sampled
    curve (no rows otherwise), and ``cover`` the radius from which the
    centers cover every reference plane.
    """

    family: MatrixFamily
    frames: np.ndarray
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
    mats = np.stack(family.matrices)
    Y = np.matmul(mats[:, None], frames[None]).reshape(m * n, d, i)
    F = image_frames(Y)
    searched = [nearest_angles(F[rows], frames) for rows in _row_chunks(m * n, n)]
    worst = max(w for w, _ in searched)
    upper = np.concatenate([u for _, u in searched])
    if i < d:
        # A = F^T Y, B = F^T Z and C = Z - F B with Z the image of the
        # complement frame: graph(L) over E_k maps to graph(C L (A + B L)^-1)
        # over F_jk
        Z = np.matmul(mats[:, None], complement_frames(frames)[None]).reshape(m * n, d, d - i)
        Ft = np.swapaxes(F, 1, 2)
        B = np.matmul(Ft, Z)
        inv_norm, K = _inverse_norm_and_solve(np.matmul(Ft, Y), B)
        alpha = _spectral_norms(Z - np.matmul(F, B)) * inv_norm
        beta = _spectral_norms(K)
    else:
        alpha = beta = np.zeros(m * n)
    spread = np.empty((0, n))
    if family.source.kind == "sampled_curve" and m > 1:
        spread = aligned_distances(F[:-n], F[n:]).reshape(m - 1, n)
    refs = reference_frames(d, i, COVER_CHECK_POINTS)
    cover = float(frame_stack_distances(refs, frames).min(axis=1).max())
    return _CenterPass(
        family=family,
        frames=frames,
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


def _probe_images(mats: np.ndarray, probes: np.ndarray, members, rows) -> np.ndarray:
    """Images of the boundary probes ``rows`` (one row of probe indices per
    pair) under ``members``, flattened; the same bits as the rows of
    ``act_frames(mats, probes)``."""
    members = np.repeat(members, rows.shape[1])
    return image_frames(np.matmul(mats[members], probes[rows.ravel()]))


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
    the arccos; every skipped probe provably lies below a value already
    attained, so the margin is that of the full sweep, bit for bit: each
    image and distance is computed by the same kernels, row by row.
    Everything that does not depend on the radius (the images of the
    centers, L, u, S, alpha, beta and the cover radius) is one pass over
    the pairs; ``build_multicone`` computes it once and hands it to every
    call, as ``centers``.  The nearest-point search (``worst_nearest_angle``)
    prunes its own rows by the same kind of bound, and every distance runs
    on the narrower of the planes and their complements.
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
    probe_count = i * (d - i)
    if cone.radius > 0.0 and probe_count:
        probes = _ball_probes(frames, cone.radius)
        mats = np.stack(family.matrices)
        growth = _ball_growth(centers, cone.radius)
        # the boundary probe indices of each center, one row per center
        own = n * np.arange(1, probe_count + 1)[None, :] + np.arange(n)[:, None]
        j, k = np.nonzero(~(centers.upper + growth < worst - PROBE_PRUNE_SLACK))
        if len(j):
            images = _probe_images(mats, probes, j, own[k])
            for rows in _row_chunks(len(images), n):
                worst = max(worst, worst_nearest_angle(images[rows], frames))
        if len(centers.spread):
            bound = growth[:-1] + centers.spread + growth[1:]
            j, k = np.nonzero(~(bound < spread - PROBE_PRUNE_SLACK))
            if len(j):
                here = _probe_images(mats, probes, j, own[k])
                there = _probe_images(mats, probes, j + 1, own[k])
                spread = max(spread, float(np.max(aligned_distances(here, there))))
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
    if word_len < 1:
        raise ValueError("word_len must be positive")
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
    mats = np.stack(family.matrices)
    last = total
    for _ in range(1, n_trunc + 1):
        # both beams in one call; each member's images of beam_a come first
        imgs = act_frames(mats, np.concatenate([beam_a, beam_b]))
        imgs = imgs.reshape(len(mats), 2, -1, *imgs.shape[1:])
        imgs_a = imgs[:, 0].reshape(-1, *imgs.shape[3:])
        imgs_b = imgs[:, 1].reshape(-1, *imgs.shape[3:])
        dists = aligned_distances(imgs_a, imgs_b)
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
    n = dist.shape[0]
    merges = linkage(dist[np.triu_indices(n, 1)], method="single") if n > 1 else np.empty((0, 4))
    counts = n - np.searchsorted(merges[:, 2], link_radii, side="right")
    return merges, counts


def _components_at(merges: np.ndarray, link_radius: float) -> tuple[tuple[int, ...], ...]:
    """Components of the points joined by the merges of height <= link_radius,
    ordered by smallest member, members ascending."""
    n = len(merges) + 1
    k = int(np.searchsorted(merges[:, 2], link_radius, side="right"))
    # merge m creates tree node n + m, linked to the two nodes it joins; the
    # points reachable from one another through these links form a component
    children = merges[:k, :2].astype(np.intp).ravel()
    parents = np.repeat(n + np.arange(k), 2)
    graph = coo_matrix((np.ones(2 * k), (children, parents)), shape=(n + k, n + k))
    _, labels = connected_components(graph, directed=False)
    groups: dict[int, list[int]] = {}
    # points in ascending order: each component first appears at its smallest
    for a, label in enumerate(labels[:n].tolist()):
        groups.setdefault(label, []).append(a)
    return tuple(tuple(g) for g in groups.values())


def _component_gap(dist: np.ndarray, comps, eps: float) -> float:
    """Smallest distance between points of different components, minus 2 eps;
    +inf for a single component."""
    if len(comps) <= 1:
        return math.inf
    label = np.empty(dist.shape[0], dtype=np.intp)
    for which, members in enumerate(comps):
        label[list(members)] = which
    return float(dist[label[:, None] < label[None, :]].min()) - 2.0 * eps


# the epsilon scan: EPSILON_GRID_SIZE geometric radii, a plateau spans a
# factor of at least PLATEAU_FACTOR, and pairs nearer than DEDUP_TOL count
# as one point when the grid's lower end is chosen
PLATEAU_FACTOR = 1.5
EPSILON_GRID_SIZE = 48
DEDUP_TOL = 1e-9


def build_multicone(family: MatrixFamily, index: int, config: MulticoneConfig | None = None) -> Multicone:
    """Construct a strictly invariant multicone from the sampled attractor.

    Requires (or overrides) a Dominated verdict.  The radius is chosen where
    the single-linkage component count is stable across a factor of at least
    PLATEAU_FACTOR of radii; candidates must then pass the strict
    invariance check and have a positive component gap.  With no passing
    candidate the (epsilon, component count) table is raised as a
    construction failure.

    The counts come from one single-linkage tree of the attractor cloud:
    points at link distance <= 2 epsilon fall in one component exactly when
    the tree joins them by merges of height <= 2 epsilon, so the count at
    epsilon is n minus the number of such merges (Gower & Ross 1969).  Only
    the upper triangle of the pairwise distance matrix is read for the tree;
    the components themselves are formed only for the radii the scan tries.
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

    positive = dist[dist > DEDUP_TOL]
    if positive.size == 0:
        grid = np.geomspace(1e-4, 1.0, EPSILON_GRID_SIZE)
    else:
        nearest = np.where(dist > DEDUP_TOL, dist, np.inf).min(axis=1)
        lo = max(float(np.min(nearest[np.isfinite(nearest)])) / 4.0, 1e-9)
        hi = max(float(np.max(dist)) * 0.75, lo * 4.0)
        grid = np.geomspace(lo, hi, EPSILON_GRID_SIZE)

    merges, counts = _single_linkage(dist, 2.0 * grid)
    table = [(float(eps), int(count)) for eps, count in zip(grid, counts)]

    # images of the bare centers bound the viable radius from below: the
    # probe sweep only widens with the radius, so margins grow at most
    # linearly and candidates under this deficit cannot pass
    # one pass over the (member, center) pairs serves every radius tried
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
        gap = _component_gap(dist, comps, eps)
        if ok and gap > 0.0:
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
        cover = "; fails the cover check" if not ok and margin > 0.0 else ""
        failures.append(
            f"eps={eps:.4g}: invariance margin {margin:.4g}, component gap {gap:.4g}{cover}"
        )
        if margin < 0.0:
            skip_below = max(skip_below, eps - margin)
    if best is not None:
        return best
    raise MulticoneConstructionError(
        "no epsilon plateau passed invariance and separation checks"
        + ("; tried " + " | ".join(failures) if failures else ""),
        table=table,
    )


def semiconvexity_audit(
    mc: Multicone,
    lines,
    arc_resolution: int = 180,
    directions_per_plane: int = 64,
) -> list[tuple[Plane, int]]:
    """Arc counts of each component's projectivization on candidate lines.

    Returns, per line, the worst (largest) arc count over the components;
    any count above 1 is a witness that the component fails semiconvexity
    on that line.
    """
    out = []
    for line in lines:
        worst = 0
        for which in range(len(mc.components)):
            sample = projectivize(mc.component_cone(which), directions_per_plane)
            worst = max(worst, len(line_trace(line, sample, arc_resolution)))
        out.append((line, worst))
    return out
