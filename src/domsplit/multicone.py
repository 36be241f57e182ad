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
    complement_frames,
    frame_stack,
    frame_stack_distances,
    grass_distance,
    image_frames,
    min_cos_principal,
    nearest_angles,
    orthonormal_frames,
    transverse,
    worst_nearest_angle,
)
from .grassmann import line_trace, projectivize  # noqa: F401  (not called here: the bench tracer wraps these names)
from .jsonio import JsonRecord
from .words import MatrixFamily, SearchConfig

log = logging.getLogger(__name__)


# the largest attractor sizes.  With the gate overridden, a 4-d, index-2
# family peaks at 547 MB with 1,024 words and at 594 MB with 2,048; above
# that the n^2 distance matrix of the component analysis takes over.  The
# drawn letters take 8 bytes each: 164 MB for 2,048 words of 10,000.
MAX_ATTRACTOR_WORDS = 2048
MAX_ATTRACTOR_WORD_LEN = 10_000


@dataclass(frozen=True)
class MulticoneConfig:
    attractor_word_len: int = 40
    attractor_words: int = 256
    attractor_rng_seed: int = 2024
    override_domination_gate: bool = False
    gate_search: SearchConfig = field(default_factory=SearchConfig)

    def __post_init__(self):
        # refused here, before the domination gate's gap search runs
        for name, cap in (("attractor_words", MAX_ATTRACTOR_WORDS), ("attractor_word_len", MAX_ATTRACTOR_WORD_LEN)):
            value = getattr(self, name)
            if not 1 <= value <= cap:
                raise ValueError(f"{name} must be from 1 to {cap}, got {value}")


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
    E_a^perp, up to the rounding of the distances (about 1e-8 rad).  Its
    limit: with E_a taken among the centers, a valid multicone whose
    components are nearly perpendicular (two arcs of P^1 about pi/2 apart)
    can be rejected.  No fallback is added: every passing call of the
    output digest's runs has a chart slack pi/2 - chart - r of at least
    0.55 rad.  G(d, d) is one point, so chart = inf and i = d never passes.

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
    and the chart) is one pass over the pairs; ``build_multicone``
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


def _single_linkage(dist: np.ndarray, link_radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-linkage tree of the points and their component count at each
    link radius.

    The tree is a minimum spanning tree by Prim's algorithm (Prim 1957), as
    (n - 1, 3) rows (a, b, height) sorted by height.  Only the upper triangle
    of ``dist`` is read: a distance matrix built by matrix products need not
    be bitwise symmetric.  The heights are exact entries of ``dist``, and
    their sorted multiset is that of every minimum spanning tree, so it does
    not depend on how ties are broken.  The points joined by pairs at
    distance <= t are joined by the tree's edges of height <= t, so the
    count at t is n minus the number of those edges (Gower & Ross 1969).
    """
    n = dist.shape[0]
    # best[b]: distance from point b to the tree grown from point 0, through
    # its nearest tree point parent[b]; inf once b is in the tree
    best = np.concatenate([[math.inf], dist[0, 1:]])
    parent = np.zeros(n, dtype=int)
    outside = np.arange(n) > 0
    closer = np.empty(n, dtype=bool)
    edges = []
    for _ in range(n - 1):
        b = int(best.argmin())
        edges.append((parent[b], b, best[b]))
        best[b], outside[b] = math.inf, False
        row = np.concatenate((dist[:b, b], dist[b, b:]))
        np.less(row, best, out=closer)
        closer &= outside
        np.copyto(best, row, where=closer)
        parent[closer] = b
    tree = np.array(edges, dtype=float).reshape(-1, 3)
    tree = tree[np.argsort(tree[:, 2], kind="stable")]
    counts = n - np.searchsorted(tree[:, 2], link_radii, side="right")
    return tree, counts


def _components_at(tree: np.ndarray, link_radius: float) -> tuple[tuple[int, ...], ...]:
    """Components of the points joined by the tree's edges of height <=
    link_radius, ordered by smallest member, members ascending."""
    root = list(range(len(tree) + 1))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for a, b, height in tree.tolist():
        if height > link_radius:
            break
        # each component's root is its smallest member
        ra, rb = find(int(a)), find(int(b))
        root[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for a in range(len(root)):
        groups.setdefault(find(a), []).append(a)
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
    the tree joins them by edges of height <= 2 epsilon, so the count at
    epsilon is n minus the number of such edges (Gower & Ross 1969).  The
    next edge, the first above 2 epsilon, joins the two closest components,
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
    # one pass over the (member, center) pairs serves every radius tried; its
    # chart reads dist as computed, so it is that of a pass on its own
    centers = _center_pass(family, frames, dist)
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

    tree, counts = _single_linkage(dist, 2.0 * grid)
    table = [(float(eps), int(count)) for eps, count in zip(grid, counts)]

    # The sweep at any radius starts from the center images, so its worst
    # distance and spread are at least theirs: the margin at eps is at most
    # eps + center_margin, and no eps below -center_margin can pass
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
        comps = _components_at(tree, 2.0 * eps)
        cone = replace(cloud, radius=eps)
        ok, margin = strictly_invariant(family, cone, centers)
        gap = float(tree[len(frames) - len(comps), 2]) - 2.0 * eps if len(comps) > 1 else math.inf
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
        # strictly_invariant rejects a positive margin only by the chart test
        chart = "; fails the chart test" if margin > 0.0 else ""
        failures.append(
            f"eps={eps:.4g}: invariance margin {margin:.4g}, component gap {gap:.4g}{chart}"
        )
    if best is not None:
        return best
    raise MulticoneConstructionError(
        "no epsilon plateau passed invariance and separation checks"
        + ("; tried " + " | ".join(failures) if failures else ""),
        table=table,
    )

