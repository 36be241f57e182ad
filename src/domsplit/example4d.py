"""A 4-dimensional two-curve family whose multicones cannot be semiconvex.

Two planar curves with skew ruled line families are lifted to 2-planes in
R^4 through homogeneous coordinates [x:y:z:1].  Scaling one family of
planes up and the other down by a factor lambda gives a sampled matrix
family that is dominated of index 2 while every invariant multicone meets
the lifted x-axis plane in at least two separate arcs: the four axis
points interleave around the projective circle, so no single arc can
contain the first curve's endpoints without swallowing the second's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import linalg, words
from .errors import ConditioningError, DomsplitError, NumericalError
from .grassmann import (
    ConeSample,
    Plane,
    line_trace,
    orthonormal_frames,
    pairwise_distances,
    projectivize,
)
from .jsonio import JsonRecord
from .multicone import build_multicone, check_attractor_words, strictly_invariant
from .words import FamilySource, MatrixFamily, SearchConfig

CURVE_DOMAIN = (0.0, math.pi)

# The parameter interval may be widened slightly without losing skewness.
DOMAIN_EXTENSION = 0.05

FIRST = "first"
SECOND = "second"


def _check_which(which: str) -> None:
    if which not in (FIRST, SECOND):
        raise ValueError(f"which must be '{FIRST}' or '{SECOND}'")


def _check_domain(t: np.ndarray) -> None:
    lo, hi = CURVE_DOMAIN[0] - DOMAIN_EXTENSION, CURVE_DOMAIN[1] + DOMAIN_EXTENSION
    if np.any(t < lo - 1e-12) or np.any(t > hi + 1e-12):
        raise ValueError(f"parameter outside [{lo}, {hi}]")


def gamma(which: str, t) -> np.ndarray:
    """Point of the first or second planar curve at parameter t."""
    _check_which(which)
    t = np.asarray(t, dtype=float)
    _check_domain(t)
    zero = np.zeros_like(t)
    if which == FIRST:
        out = np.stack([t - np.sin(t), 0.5 * np.sin(t), zero], axis=-1)
    else:
        out = np.stack([1.5 * math.pi - t + np.sin(t), -0.5 * np.sin(t), zero], axis=-1)
    return out


def tangent(which: str, t) -> np.ndarray:
    """Curve tangent (unnormalized) at parameter t."""
    _check_which(which)
    t = np.asarray(t, dtype=float)
    _check_domain(t)
    zero = np.zeros_like(t)
    if which == FIRST:
        return np.stack([1.0 - np.cos(t), 0.5 * np.cos(t), zero], axis=-1)
    return np.stack([-1.0 + np.cos(t), -0.5 * np.cos(t), zero], axis=-1)


class LineSample(NamedTuple):
    base: np.ndarray
    direction: np.ndarray


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each vector along the last axis.  Each is one BLAS
    dot of the vector with itself, as ``np.linalg.norm`` of a single vector
    is, so the two agree bit for bit."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def line(which: str, t) -> LineSample:
    """Ruled line at parameter t: through the curve point, tilted out of plane.

    The direction is the normalized tangent plus the vertical unit vector,
    renormalized; its vertical component is always positive.  An array of
    parameters gives (..., 3) stacks of bases and directions.
    """
    base = gamma(which, t)
    v = tangent(which, t)
    n = _norms(v)
    if np.any(n < 1e-12):
        raise NumericalError("zero curve tangent")  # cannot occur on the domain
    direction = v / n[..., None] + np.array([0.0, 0.0, 1.0])
    return LineSample(base=base, direction=direction / _norms(direction)[..., None])


class SkewnessMargin(NamedTuple):
    min_distance: float
    min_parallelism_defect: float


def skewness_margin(grid_n: int) -> SkewnessMargin:
    """Minimum inter-line distance and direction cross-product norm on a grid.

    Both positive certifies (at grid resolution) that every line of the
    first family is skew to every line of the second.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    lo, hi = CURVE_DOMAIN
    ts = np.linspace(lo - DOMAIN_EXTENSION, hi + DOMAIN_EXTENSION, grid_n)
    b1, d1 = line(FIRST, ts)
    b2, d2 = line(SECOND, ts)
    cross = np.cross(d1[:, None, :], d2[None, :, :])
    cross_norm = np.linalg.norm(cross, axis=-1)
    delta = b2[None, :, :] - b1[:, None, :]
    dist = np.abs(np.einsum("abk,abk->ab", delta, cross)) / np.maximum(cross_norm, 1e-300)
    return SkewnessMargin(
        min_distance=float(np.min(dist)),
        min_parallelism_defect=float(np.min(cross_norm)),
    )


def lift_frames(base, direction) -> np.ndarray:
    """Homogeneous lifts of lines in R^3 to 2-planes in R^4, as canonically
    signed (..., 4, 2) frames.

    Each is spanned by (p, 1) for the base point and (v, 0) for the
    direction: the set of homogeneous representatives [q:1] of the line's
    points plus its point at infinity.
    """
    base = np.asarray(base, float)
    direction = np.asarray(direction, float)
    b = np.concatenate([base, np.ones(base.shape[:-1] + (1,))], axis=-1)
    v = np.concatenate([direction, np.zeros(direction.shape[:-1] + (1,))], axis=-1)
    return orthonormal_frames(np.stack([b, v], axis=-1))


def lift_point(point) -> np.ndarray:
    """Unit homogeneous representative [p:1] of a point of R^3."""
    v = np.append(np.asarray(point, float), 1.0)
    return v / np.linalg.norm(v)


def curve_frames(which: str, ts) -> np.ndarray:
    """(..., 4, 2) frames of the lifted 2-planes of the ruled lines at the
    parameters ts."""
    s = line(which, ts)
    return lift_frames(s.base, s.direction)


def axis_plane() -> Plane:
    """Lift of the x-axis: the 2-plane spanned by e1 and e4."""
    return Plane(np.eye(4)[:, [0, 3]])


def family_matrices(ts, lam: float) -> np.ndarray:
    """(n, 4, 4) stack of the maps scaling the first lifted plane at each
    parameter by lam and the second by 1/lam.

    Each is conjugate to diag(lam, lam, 1/lam, 1/lam); determinant 1.  The
    plane bases are checked for conditioning and the scalar action on each
    plane is verified to 1e-10 lam before returning.  Every step works on the
    whole stack and gives each matrix the bits of a one-parameter call.
    """
    if not 1.0 < lam < math.inf:
        raise ValueError(f"lam must exceed 1 and be finite, got {lam}")
    ts = np.asarray(ts, dtype=float)
    p1 = curve_frames(FIRST, ts)
    p2 = curve_frames(SECOND, ts)
    basis = np.concatenate([p1, p2], axis=2)
    svals = np.linalg.svd(basis, compute_uv=False)
    bad = svals[:, -1] <= 1e-8 * svals[:, 0]
    if bad.any():
        raise ConditioningError(f"near-degenerate plane basis at t={ts[bad][0]}, lam={lam}")
    A = basis @ np.diag([lam, lam, 1.0 / lam, 1.0 / lam]) @ np.linalg.inv(basis)
    # the rounding of A is about lam 2^-52 on either plane
    for name, plane, scale in (("first", p1, lam), ("second", p2, 1.0 / lam)):
        bad = np.max(np.abs(A @ plane - scale * plane), axis=(1, 2)) > 1e-10 * lam
        if bad.any():
            raise NumericalError(f"scalar action check failed on the {name} plane at t={ts[bad][0]}")
    return A


def parameter_grid(grid_n: int) -> np.ndarray:
    lo, hi = CURVE_DOMAIN
    return np.linspace(lo, hi, grid_n)


def curve_family(lam: float, samples: int) -> MatrixFamily:
    """The sampled matrix family over the curve parameter."""
    return MatrixFamily(
        labels=tuple(f"A{j:03d}" for j in range(samples)),
        stack=family_matrices(parameter_grid(samples), lam),
        source=FamilySource(
            kind="sampled_curve",
            description=f"two-curve ruled family, lambda={lam}",
            sample_count=samples,
        ),
    )


# ---------------------------------------------------------------------------
# pipeline


# Invariance certificates (the lambda scan and the multicone) run on a
# REFINE_FACTOR times finer curve sampling than ``grid_n``: the sampled-curve
# spread allowance shrinks with the sampling step while the admissible
# neighborhood radius is capped by the fixed transversality angle between
# the two plane families, and at the default ``grid_n`` the allowance alone
# would exceed the cap.  The domination verdict and the
# containment/exclusion targets use the ``grid_n`` sampling itself.
REFINE_FACTOR = 3
# neighborhood radius as a share of that transversality angle
NEIGHBORHOOD_FRACTION = 0.6
# entrywise noise and seed of the perturbed rerun
PERTURBATION_NOISE = 1e-3
PERTURBATION_SEED = 11
# the lambda values scanned, in order, when none is forced
LAMBDA_SCAN = (2.0, 4.0, 8.0, 16.0, 32.0)
# lines per family in the skewness check
SKEW_GRID = 101
# gap search of each side's domination verdict
SEARCH = SearchConfig(max_len=8, budget=300_000, beam_width=256)
# curve points per curve, and ruling heights per line, of the figure exports
CSV_CURVE_POINTS = 256
CSV_RULING_HEIGHTS = 9
# the largest grid_n: the neighborhood radius step holds (REFINE_FACTOR
# grid_n)^2 plane pairs, about 46 MB per million, so 500 peaks near 135 MB
MAX_GRID_N = 500


@dataclass(frozen=True)
class ExampleConfig:
    """Pipeline knobs; the fixed ones are the module constants above."""

    grid_n: int = 64
    attractor_words: int = 192
    run_perturbed: bool = True

    def __post_init__(self):
        if not 1 <= self.grid_n <= MAX_GRID_N:
            raise ValueError(f"grid_n must be from 1 to {MAX_GRID_N}, got {self.grid_n}")
        # refuses a sample size out of range here, not after the lambda scan
        check_attractor_words(self.attractor_words)


@dataclass(frozen=True)
class LambdaScanEntry(JsonRecord):
    lam: float = field(metadata={"key": "lambda"})
    unstable_margin: float
    stable_margin: float
    passed: bool


@dataclass(frozen=True)
class MulticoneSummary(JsonRecord):
    component_count: int
    invariance_margin: float
    component_gap: float = field(metadata={"null_as": math.inf})
    contained_max_distance: float
    contained_all: bool
    excluded_min_distance: float
    excluded_all: bool
    single_relevant_component: bool


@dataclass(frozen=True)
class TraceSummary(JsonRecord):
    arc_count: int
    arcs: tuple[tuple[float, float], ...]
    axis_points: tuple[tuple[str, float, bool], ...]  # (name, angle, occupied)
    expected_occupied: tuple[str, ...]
    occupancy_ok: bool
    interleaving_ok: bool


@dataclass(frozen=True)
class SideResult(JsonRecord):
    """Verdicts for one side (unstable: forward family, stable: inverse)."""

    verdict: str
    fitted_log_tau: float
    fit_residual: float
    multicone: MulticoneSummary | None
    trace: TraceSummary | None
    passed: bool
    failing_stage: str | None


@dataclass(frozen=True)
class ExampleReport(JsonRecord):
    """Full certificate for the two-curve family (and its perturbation)."""

    grid_n: int
    lam: float | None = field(metadata={"key": "lambda"})
    scan: tuple[LambdaScanEntry, ...]
    skew_min_distance: float
    skew_min_parallelism_defect: float
    unstable: SideResult | None
    stable: SideResult | None
    perturbed_unstable: SideResult | None
    perturbed_stable: SideResult | None
    passed: bool
    failing_stage: str | None


_AXIS_POINTS = (
    ("a", np.array([0.0, 0.0, 0.0])),
    ("b", np.array([math.pi / 2, 0.0, 0.0])),
    ("c", np.array([math.pi, 0.0, 0.0])),
    ("d", np.array([1.5 * math.pi, 0.0, 0.0])),
)


def _axis_angle(point: np.ndarray) -> float:
    """Angle of the lifted axis point on the projective circle of the axis plane."""
    coords = axis_plane().coordinates(lift_point(point))
    angle = math.atan2(coords[1], coords[0]) % math.pi
    return angle


def _angle_in_arcs(angle: float, arcs) -> bool:
    for start, end in arcs:
        # wrapped arcs have end > pi
        if start <= angle < end or start <= angle + math.pi < end:
            return True
    return False


def _trace_summary(component_sample: ConeSample, expected: tuple[str, ...]) -> TraceSummary:
    """Where a multicone component meets the lifted x-axis plane, and which
    lifted axis points it holds.

    The arcs are exact: the union over the component's balls of the
    closed-form arcs of ``projectivize``, merged by ``line_trace`` (angles in
    [0, pi), an arc across 0 ends past pi).  ``occupancy_ok`` asks that the
    occupied axis points be exactly ``expected``, and ``interleaving_ok``
    that occupied and free points alternate around the circle.
    """
    arcs = line_trace(projectivize(component_sample, axis_plane()))
    pts = []
    ok = True
    for name, point in _AXIS_POINTS:
        angle = _axis_angle(point)
        occupied = _angle_in_arcs(angle, arcs)
        pts.append((name, angle, occupied))
        if occupied != (name in expected):
            ok = False
    # occupied and unoccupied axis points must alternate around the circle
    ordered = sorted(pts, key=lambda p: p[1])
    flags = [p[2] for p in ordered]
    interleaving = all(flags[k] != flags[(k + 1) % 4] for k in range(4))
    return TraceSummary(
        arc_count=len(arcs),
        arcs=tuple((float(a), float(b)) for a, b in arcs),
        axis_points=tuple(pts),
        expected_occupied=expected,
        occupancy_ok=ok,
        interleaving_ok=interleaving,
    )


def _run_side(
    family: MatrixFamily,
    refined_family: MatrixFamily,
    contained_planes: np.ndarray,
    excluded_planes: np.ndarray,
    expected_axis: tuple[str, ...],
    cfg: ExampleConfig,
) -> SideResult:
    report = words.is_dominated(family, 2, SEARCH)
    # every later outcome is this failure with more stages filled in
    failed = SideResult(
        verdict=report.verdict.kind,
        fitted_log_tau=report.fit.log_tau,
        fit_residual=report.fit.residual,
        multicone=None,
        trace=None,
        passed=False,
        failing_stage="domination",
    )
    if report.verdict.kind != words.DOMINATED:
        return failed
    # the multicone is certified on the refined sampling; the gap verdict
    # above, on the coarse family, is the side's own stage, which the
    # build does not run
    try:
        cone = build_multicone(refined_family, 2, cfg.attractor_words)
    except DomsplitError as exc:  # construction failure is a reportable outcome
        return replace(failed, failing_stage=f"multicone: {exc}")

    dist_in = pairwise_distances(contained_planes, cone.cone.frames)
    dist_out = pairwise_distances(excluded_planes, cone.cone.frames)
    contained_dists = dist_in.min(axis=1)
    excluded_dists = dist_out.min(axis=1)
    contained_all = bool(np.all(contained_dists <= cone.cone.radius))
    excluded_all = bool(np.all(excluded_dists > cone.cone.radius))

    point_comp = np.empty(len(cone.cone.frames), dtype=int)
    for ci, comp in enumerate(cone.components):
        point_comp[list(comp)] = ci
    nearest_comp = point_comp[np.argmin(dist_in, axis=1)]
    single_comp = bool(np.all(nearest_comp == nearest_comp[0]))
    relevant = int(nearest_comp[0])

    summary = MulticoneSummary(
        component_count=len(cone.components),
        invariance_margin=float(cone.invariance_margin),
        component_gap=cone.component_gap,
        contained_max_distance=float(np.max(contained_dists)),
        contained_all=contained_all,
        excluded_min_distance=float(np.min(excluded_dists)),
        excluded_all=excluded_all,
        single_relevant_component=single_comp,
    )
    if not (contained_all and excluded_all and single_comp):
        return replace(failed, multicone=summary, failing_stage="containment")
    trace = _trace_summary(cone.component_cone(relevant), expected_axis)
    trace_ok = trace.arc_count >= 2 and trace.occupancy_ok and trace.interleaving_ok
    return replace(
        failed,
        multicone=summary,
        trace=trace,
        passed=trace_ok,
        failing_stage=None if trace_ok else "semiconvexity_trace",
    )


def verify_example(*, lam: float | None = None, config: ExampleConfig | None = None) -> ExampleReport:
    """Run the whole certificate pipeline for the two-curve family.

    Scans lambda (unless one is forced) for strict invariance of disjoint
    neighborhoods of the two lifted plane curves; then, per side, certifies
    domination of index 2, builds the invariant multicone, checks it
    contains every sampled plane of its curve and none of the other's, and
    traces the relevant component on the lifted axis plane where the arc
    count must be at least 2 with the axis points interleaved.  Optionally
    repeats both sides under a small perturbation of the family.
    """
    cfg = config or ExampleConfig()
    skew = skewness_margin(SKEW_GRID)

    ts = parameter_grid(cfg.grid_n)
    first_planes = curve_frames(FIRST, ts)
    second_planes = curve_frames(SECOND, ts)

    fine_n = cfg.grid_n * REFINE_FACTOR
    fine_ts = parameter_grid(fine_n)
    fine_first = curve_frames(FIRST, fine_ts)
    fine_second = curve_frames(SECOND, fine_ts)
    # the neighborhood radius is capped by the smallest principal angle
    # between the two families: a plane closer to the first curve than that
    # angle can never contain a direction of the second family, so it cannot
    # get stuck under the dynamics; this cap is far below the grass-distance
    # separation, so disjointness of the two neighborhoods is automatic
    angles = linalg.principal_angles(fine_first[:, None], fine_second[None])
    radius = NEIGHBORHOOD_FRACTION * float(np.min(angles))
    hood_first = ConeSample(2, fine_first, radius)
    hood_second = ConeSample(2, fine_second, radius)

    scan_values = LAMBDA_SCAN if lam is None else (lam,)
    scan_entries = []
    selected = fine_family = None
    for lam_value in scan_values:
        scanned = curve_family(lam_value, fine_n)
        ok_u, margin_u = strictly_invariant(scanned, hood_first)
        ok_s, margin_s = strictly_invariant(scanned.inverse(), hood_second)
        passed = ok_u and ok_s
        scan_entries.append(
            LambdaScanEntry(
                lam=float(lam_value),
                unstable_margin=float(margin_u),
                stable_margin=float(margin_s),
                passed=passed,
            )
        )
        if passed and selected is None:
            selected, fine_family = float(lam_value), scanned

    scan_failed = ExampleReport(
        grid_n=cfg.grid_n,
        lam=None,
        scan=tuple(scan_entries),
        skew_min_distance=skew.min_distance,
        skew_min_parallelism_defect=skew.min_parallelism_defect,
        unstable=None,
        stable=None,
        perturbed_unstable=None,
        perturbed_stable=None,
        passed=False,
        failing_stage="invariance_scan",
    )
    if selected is None:
        return scan_failed

    family = curve_family(selected, cfg.grid_n)
    runs = {"": (family, fine_family)}
    if cfg.run_perturbed:
        runs["perturbed_"] = tuple(
            words.perturb_family(f, PERTURBATION_NOISE, PERTURBATION_SEED) for f in (family, fine_family)
        )
    sides: dict[str, SideResult] = {}
    for prefix, (coarse, fine) in runs.items():
        sides[prefix + "unstable"] = _run_side(coarse, fine, first_planes, second_planes, ("a", "c"), cfg)
        sides[prefix + "stable"] = _run_side(
            coarse.inverse(), fine.inverse(), second_planes, first_planes, ("b", "d"), cfg
        )

    # the first failing side, in report order, names the failure
    failures = [f"{name}: {s.failing_stage}" for name, s in sides.items() if not s.passed]
    passed = skew.min_distance > 0 and skew.min_parallelism_defect > 0 and not failures
    failing = None if passed else (failures[0] if failures else "skewness")
    return replace(scan_failed, lam=selected, **sides, passed=passed, failing_stage=failing)


def curve_csv_rows() -> list[list[str]]:
    """Curve traces for figure reproduction."""
    rows = [["which", "t", "x", "y", "z"]]
    ts = np.linspace(*CURVE_DOMAIN, CSV_CURVE_POINTS)
    for which in (FIRST, SECOND):
        for t, p in zip(ts.tolist(), gamma(which, ts).tolist()):
            rows.append([which, repr(t)] + [repr(v) for v in p])
    return rows


def ruled_surface_csv_rows(grid_n: int) -> list[list[str]]:
    """Point cloud of both ruled surfaces for figure reproduction."""
    rows = [["which", "t", "s", "x", "y", "z"]]
    hs = np.linspace(-1.0, 1.0, CSV_RULING_HEIGHTS)
    ts = parameter_grid(grid_n)
    for which in (FIRST, SECOND):
        base, direction = line(which, ts)
        points = base[:, None, :] + hs[:, None] * direction[:, None, :]
        for t, ruling in zip(ts.tolist(), points.tolist()):
            for h, p in zip(hs.tolist(), ruling):
                rows.append([which, repr(t), repr(h)] + [repr(v) for v in p])
    return rows
