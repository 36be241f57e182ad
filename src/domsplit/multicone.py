"""Invariant multicones: cone iteration, attractor sampling, the adapted
metric, epsilon-neighborhood component analysis, and semiconvexity audits.

Interior/closure conditions on finite samples are realized as numeric
margins; every verdict carries its margin rather than a bare boolean.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from . import linalg, words
from .errors import DominationGateError, MulticoneConstructionError
from .grassmann import (
    TRANSVERSALITY_TOL,
    ConeSample,
    Plane,
    act,
    frame_stack_distances,
    grass_distance,
    line_trace,
    min_cos_principal,
    projectivize,
    reference_frames,
    worst_nearest_angle,
)
from .words import MatrixFamily, SearchConfig

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MulticoneConfig:
    attractor_word_len: int = 40
    attractor_words: int = 256
    attractor_rng_seed: int = 2024
    plateau_factor: float = 1.5
    epsilon_grid_size: int = 48
    dedup_tol: float = 1e-9
    cover_check_points: int = 128
    gap_warning_tol: float = 1e-6
    override_domination_gate: bool = False
    gate_search: SearchConfig = field(default_factory=SearchConfig)


@dataclass(frozen=True, eq=False)
class Multicone:
    """Strictly invariant cone sample split into isolated components.

    ``component_gap`` is the minimum distance between points of different
    components minus twice the radius; positive means the component closures
    are pairwise disjoint.  It is +inf for a single component.
    """

    cone: ConeSample
    components: tuple[tuple[int, ...], ...]
    invariance_margin: float
    component_gap: float

    def __post_init__(self):
        assigned = sorted(i for comp in self.components for i in comp)
        if assigned != list(range(len(self.cone.points))):
            raise ValueError("components must partition the cone points")
        if len(self.components) < 1:
            raise ValueError("need at least one component")

    def component_cone(self, which: int) -> ConeSample:
        pts = tuple(self.cone.points[i] for i in self.components[which])
        return ConeSample(self.cone.grass_index, pts, self.cone.radius)

    def to_json_dict(self) -> dict:
        return {
            "cone": self.cone.to_json_dict(),
            "components": [list(c) for c in self.components],
            "invariance_margin": self.invariance_margin,
            "component_gap": None if math.isinf(self.component_gap) else self.component_gap,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Multicone":
        gap = data["component_gap"]
        return cls(
            cone=ConeSample.from_json_dict(data["cone"]),
            components=tuple(tuple(int(i) for i in c) for c in data["components"]),
            invariance_margin=float(data["invariance_margin"]),
            component_gap=math.inf if gap is None else float(gap),
        )


def _batched_act(matrices: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Re-orthonormalized M @ frame for every matrix of a stack and every
    frame of a stack, member-major: image ``j * len(frames) + k`` is that of
    frame k under matrix j.

    One- and two-column frames use vectorized Gram-Schmidt (with a second
    projection pass for stability); distances only see the span, so basis
    choice within the image is irrelevant.
    """
    images = np.matmul(matrices[:, None], frames[None]).reshape(-1, *frames.shape[1:])
    width = frames.shape[2]
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


# image-center pairs per nearest-point search in ``strictly_invariant``;
# bounds the memory of one search
_GROUP_PAIRS = 5_000_000


def _frames_of(cone_points) -> np.ndarray:
    return np.stack([p.frame for p in cone_points])


@lru_cache(maxsize=64)
def _reference_stack(count: int, ambient_dim: int, dim: int) -> np.ndarray:
    """Read-only frame stack of ``reference_frames(ambient_dim, dim, count)``,
    built once per shape for the cover check."""
    stack = _frames_of(reference_frames(ambient_dim, dim, count))
    stack.setflags(write=False)
    return stack


def iterate_cone(family: MatrixFamily, cone: ConeSample, dedup_tol: float = 1e-9) -> ConeSample:
    """One-step image of the cone sample under every family member.

    Image points are exact, so the radius resets to zero; points closer than
    ``dedup_tol`` are merged (first occurrence kept, member-major order).
    """
    images: list[Plane] = []
    for _, M in family.members:
        for p in cone.points:
            images.append(act(M, p))
    kept: list[Plane] = []
    for q in images:
        if all(grass_distance(q, r) > dedup_tol for r in kept):
            kept.append(q)
    return ConeSample(grass_index=cone.grass_index, points=tuple(kept), radius=0.0)


def _ball_probes(frames: np.ndarray, radius: float) -> np.ndarray:
    """Centers plus geodesic steps of exactly ``radius`` from each frame.

    For each frame column and each orthocomplement direction, rotate the
    column by the radius; the results sample the boundary of the
    radius-ball so invariance is tested on the neighborhood, not just on
    its centers (a near-identity family fixes the centers but not the
    ball).  The rotation sign alternates with the frame index: point
    clouds sample their set densely, so neighboring frames jointly cover
    both signs at half the probe count.
    """
    if radius <= 0.0:
        return frames
    n, d, i = frames.shape
    eye = np.eye(d)
    complements = eye[None] - np.matmul(frames, np.swapaxes(frames, 1, 2))
    U, s, _ = np.linalg.svd(complements)
    cos_r, sin_r = math.cos(radius), math.sin(radius)
    probes = [frames]
    pair = 0
    for k in range(i):
        for l in range(d - i):
            w = U[:, :, l]
            sign = np.where((np.arange(n) + pair) % 2 == 0, 1.0, -1.0)[:, None]
            moved = frames.copy()
            moved[:, :, k] = cos_r * frames[:, :, k] + sign * sin_r * w
            probes.append(moved)
            pair += 1
    return np.concatenate(probes, axis=0)


def strictly_invariant(
    family: MatrixFamily, cone: ConeSample, cover_check_points: int = 128
) -> tuple[bool, float]:
    """Margin test for the image of the cone landing inside the cone.

    The sampled set is the union of radius-balls around the points, so the
    image sweep covers the centers and geodesic boundary probes of each
    ball.  margin = radius - max over images of the distance to the nearest
    cone point - adjacent-sample spread allowance.  The nearest-point search
    (``worst_nearest_angle``) brackets each image-center pair by
    ``s / k <= sin^2(theta_max) <= s`` from one projection-matrix GEMM, with
    ``s`` the sum of squared principal sines and ``k = min(i, d - i)``, and
    evaluates the exact principal angles only for images whose upper bound
    reaches the best lower bound; the images it skips provably lie nearer
    to the cone than the worst one, so the margin is that of the full
    search.  For a sampled curve the spread allowance is the largest
    distance between the images of one probe under adjacent members, taken
    from the same images.  A sample whose points cover the whole
    (reference-sampled) Grassmannian is never declared strictly invariant,
    whatever the margin: interior inclusion needs slack that the full space
    cannot offer.
    """
    if not cone.points:
        raise ValueError("cone sample must be non-empty")
    d = cone.points[0].ambient_dim
    if d != family.dim:
        raise ValueError("family and cone dimensions do not match")
    frames = _frames_of(cone.points)
    probes = _ball_probes(frames, cone.radius)
    curve = family.source.kind == "sampled_curve"
    worst = spread = 0.0
    prev = None
    # group members so each distance computation is one large BLAS product
    group = max(1, _GROUP_PAIRS // max(probes.shape[0] * frames.shape[0], 1))
    mats = family.matrices
    for lo in range(0, family.size, group):
        images = _batched_act(np.stack(mats[lo : lo + group]), probes)
        if curve:
            # first-order guard against the unsampled continuum between
            # adjacent curve samples; the last image carries to the next group
            for cur in images.reshape(-1, *probes.shape):
                if prev is not None:
                    cos = min_cos_principal(np.einsum("adi,adj->aij", prev, cur))
                    spread = max(spread, float(np.max(np.arccos(np.clip(cos, 0.0, 1.0)))))
                prev = cur
        worst = max(worst, worst_nearest_angle(images, frames))
    margin = cone.radius - worst - spread

    refs = _reference_stack(cover_check_points, d, cone.grass_index)
    ref_dist = frame_stack_distances(refs, frames)
    if bool(np.all(ref_dist.min(axis=1) <= cone.radius)):
        return False, margin
    return margin > 0.0, margin


def attractor(
    family: MatrixFamily,
    index: int,
    word_len: int,
    seeds: list[Plane] | None = None,
    words_per_seed: int = 64,
    rng_seed: int = 2024,
    gap_warning_tol: float = 1e-6,
) -> ConeSample:
    """Sampled forward attractor: top singular frames of long word products.

    Each sampled word of length ``word_len`` contributes the span of the
    first ``index`` left singular directions of its product.  The first
    letter of each word cycles through the members so every one-step target
    is represented.  Seeds, when given, multiply the word streams (one
    deterministic stream per seed).  Products whose gap ratio at ``index``
    is within ``gap_warning_tol`` of 1 have ill-defined frames and are
    logged as warnings.  The stable counterpart is this function on the
    inverse family with index ``d - index``.
    """
    if word_len < 1:
        raise ValueError("word_len must be positive")
    n_streams = max(1, len(seeds) if seeds is not None else 1)
    points: list[Plane] = []
    warned = 0
    for stream in range(n_streams):
        rng = np.random.default_rng(rng_seed + 7919 * stream)
        for w_idx in range(words_per_seed):
            first = (stream * words_per_seed + w_idx) % family.size
            rest = rng.integers(family.size, size=word_len - 1)
            word = (first, *map(int, rest))
            P, _ = words.scaled_word_product(family, word)
            spec = linalg.singular_spectrum(P)
            if spec.values[index] >= spec.values[index - 1] * (1.0 - gap_warning_tol):
                warned += 1
                continue
            points.append(Plane.from_spanning(spec.left[:, :index]))
    if warned:
        log.warning("attractor: %d sampled products had ill-defined top frames", warned)
    return ConeSample(grass_index=index, points=tuple(points), radius=0.0)


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
    if stable_sample.points:
        planes = np.stack([first.frame, second.frame])
        stable = _frames_of(stable_sample.points)
        d = planes.shape[1]
        if stable.shape[1] != d or planes.shape[2] + stable.shape[2] != d:
            raise ValueError("input planes and the stable sample must be complementary")
        # every (plane, stable point) pair in one batch; transverse iff the
        # concatenated frames have full rank, as in ``grassmann.transverse``
        m = len(stable)
        pairs = np.concatenate([np.repeat(planes, m, axis=0), np.tile(stable, (2, 1, 1))], axis=2)
        if not np.all(np.linalg.svd(pairs, compute_uv=False)[:, -1] > TRANSVERSALITY_TOL):
            raise ValueError("input plane is not transverse to the stable sample")
    total = grass_distance(first, second)
    beam_a = first.frame[None]
    beam_b = second.frame[None]
    mats = np.stack(family.matrices)
    last = total
    for _ in range(1, n_trunc + 1):
        imgs_a = _batched_act(mats, beam_a)
        imgs_b = _batched_act(mats, beam_b)
        grams = np.einsum("adi,adj->aij", imgs_a, imgs_b)
        cos = min_cos_principal(grams)
        dists = np.arccos(np.clip(cos, 0.0, 1.0))
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


def build_multicone(family: MatrixFamily, index: int, config: MulticoneConfig | None = None) -> Multicone:
    """Construct a strictly invariant multicone from the sampled attractor.

    Requires (or overrides) a Dominated verdict.  The radius is chosen where
    the single-linkage component count is stable across a factor of at least
    ``plateau_factor`` of radii; candidates must then pass the strict
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
        words_per_seed=cfg.attractor_words,
        rng_seed=cfg.attractor_rng_seed,
        gap_warning_tol=cfg.gap_warning_tol,
    )
    pts = cloud.points
    if not pts:
        raise MulticoneConstructionError("attractor sample is empty", table=[])
    frames = _frames_of(pts)
    dist = frame_stack_distances(frames, frames)
    np.fill_diagonal(dist, 0.0)

    positive = dist[dist > cfg.dedup_tol]
    if positive.size == 0:
        grid = np.geomspace(1e-4, 1.0, cfg.epsilon_grid_size)
    else:
        nearest = np.where(dist > cfg.dedup_tol, dist, np.inf).min(axis=1)
        lo = max(float(np.min(nearest[np.isfinite(nearest)])) / 4.0, 1e-9)
        hi = max(float(np.max(dist)) * 0.75, lo * 4.0)
        grid = np.geomspace(lo, hi, cfg.epsilon_grid_size)

    merges, counts = _single_linkage(dist, 2.0 * grid)
    table = [(float(eps), int(count)) for eps, count in zip(grid, counts)]

    # images of the bare centers bound the viable radius from below: the
    # probe sweep only widens with the radius, so margins grow at most
    # linearly and candidates under this deficit cannot pass
    _, center_margin = strictly_invariant(
        family, ConeSample(grass_index=index, points=pts, radius=0.0), cfg.cover_check_points
    )
    skip_below = max(0.0, -center_margin)

    failures: list[str] = []
    best: Multicone | None = None
    for a in range(len(grid)):
        b = a
        while b + 1 < len(grid) and table[b + 1][1] == table[a][1]:
            b += 1
        if grid[b] / grid[a] < cfg.plateau_factor:
            continue
        eps = float(grid[a])
        if eps < skip_below:
            continue
        if best is not None and table[a][1] != len(best.components):
            break  # next plateau has a different component count: keep the best
        comps = _components_at(merges, 2.0 * eps)
        cone = ConeSample(grass_index=index, points=pts, radius=eps)
        ok, margin = strictly_invariant(family, cone, cfg.cover_check_points)
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
        failures.append(
            f"eps={eps:.4g}: invariance margin {margin:.4g}, component gap {gap:.4g}"
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
