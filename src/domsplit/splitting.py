"""Finite-window estimation of an expanding/contracting splitting.

Window words are written in product order: the first letter is the
outermost (latest-applied) factor.  So for the future window the nearest
future symbol is the LAST letter, and for the past window the nearest past
symbol is the FIRST letter.  The contracting space comes from the bottom
right-singular directions of the future product; the expanding space comes
from the top left-singular directions of the past product (the backward
composition reuses the same code path by construction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, words
from .errors import IllDefinedSplittingError
from .grassmann import Plane, grass_distance, orthonormal_frames
from .jsonio import JsonRecord
from .words import MatrixFamily, Word

# Relative gap below which singular frames are treated as ill-defined.
DEGENERATE_GAP_RTOL = 1e-12

# Window growth stops once the window product's gap ratio is this small.
WINDOW_GAP_TARGET = 1e-8
WINDOW_CAP = 200
# the prefix that ``default_window_length`` walks before the capped word;
# the windows of the benchmark and test families are 15 to 27 letters
WINDOW_PREFIX = 32


@dataclass(frozen=True, eq=False)
class SplittingEstimate(JsonRecord):
    """Transverse pair (expanding, contracting) estimated from finite windows."""

    expanding: Plane = field(metadata={"key": "expanding_frame"})
    contracting: Plane = field(metadata={"key": "contracting_frame"})
    window_past: Word
    window_future: Word
    angle: float
    convergence_indicator: float = field(metadata={"null_as": math.nan})

    def __post_init__(self):
        if self.expanding.ambient_dim != self.contracting.ambient_dim:
            raise ValueError("planes must share the ambient dimension")
        if self.expanding.dim + self.contracting.dim != self.expanding.ambient_dim:
            raise ValueError("plane dimensions must sum to the ambient dimension")


def _check_gap(svals: np.ndarray, index: int) -> None:
    if svals[index] >= svals[index - 1] * (1.0 - DEGENERATE_GAP_RTOL):
        raise IllDefinedSplittingError(
            f"sigma_{index} and sigma_{index + 1} coincide to relative {DEGENERATE_GAP_RTOL}; "
            "singular frames are ill-defined"
        )


def _contracting_from(family: MatrixFamily, future: Word, index: int) -> Plane:
    P, _ = words.scaled_word_product(family, future)
    spec = linalg.singular_spectrum(P)
    _check_gap(spec.values, index)
    return Plane.from_spanning(spec.right[:, index:])


def _expanding_from(family: MatrixFamily, past: Word, index: int) -> Plane:
    P, _ = words.scaled_word_product(family, past)
    spec = linalg.singular_spectrum(P)
    _check_gap(spec.values, index)
    return Plane.from_spanning(spec.left[:, :index])


def splitting_from_window(family: MatrixFamily, past, future, index: int) -> SplittingEstimate:
    """Estimate the splitting for the itinerary given by two window words.

    The convergence indicator compares against estimates from windows
    shortened by one symbol at their far ends (NaN, JSON null, for length-1
    windows).
    """
    linalg.check_index(index, family.dim)
    past = words._validate_word(family, past)
    future = words._validate_word(family, future)
    contracting = _contracting_from(family, future, index)
    expanding = _expanding_from(family, past, index)
    indicator = math.nan
    if len(future) >= 2 and len(past) >= 2:
        indicator = max(
            grass_distance(contracting, _contracting_from(family, future[1:], index)),
            grass_distance(expanding, _expanding_from(family, past[:-1], index)),
        )
    angle = float(linalg.principal_angles(expanding, contracting)[0])
    if angle <= 1e-8:
        raise IllDefinedSplittingError("estimated planes are not transverse")
    return SplittingEstimate(
        expanding=expanding,
        contracting=contracting,
        window_past=past,
        window_future=future,
        angle=angle,
        convergence_indicator=indicator,
    )


def default_window_length(family: MatrixFamily, index: int, seed: int = 0) -> int:
    """Length at which a random word's gap ratio drops below the target.

    Capped at WINDOW_CAP; the convergence of the singular frames is geometric
    so this is far past saturation in double precision.
    """
    linalg.check_index(index, family.dim)
    word = np.random.default_rng(seed).integers(family.size, size=WINDOW_CAP)
    orders = words._gap_orders(index, family.dim)
    # one walk gives the gap ratio of every prefix of its word, each row
    # bit-equal to that of a longer walk; the capped word is walked only
    # when no prefix of the first WINDOW_PREFIX letters crosses
    for length in (WINDOW_PREFIX, WINDOW_CAP):
        logs = words._compound_log_walk(family, word[:length], False, orders)[1:]
        below = np.flatnonzero(logs[:, index] - logs[:, index - 1] < math.log(WINDOW_GAP_TARGET))
        if below.size:
            return int(below[0]) + 1
    return WINDOW_CAP


# a passing ratio curve has its tail slope (over the final TAIL_FRACTION of
# the fitted segment) and its whole-curve slope below -SLOPE_MARGIN
SLOPE_MARGIN = 0.01
TAIL_FRACTION = 0.5
# ratio level below which a flat tail is attributed to the precision of the
# estimated planes rather than to a genuine violation
FLOOR_RATIO = 1e-10


@dataclass(frozen=True)
class DominationCheck:
    """Restricted-norm ratio curve along one word and the pass verdict.

    ``fitted_intercept`` is the smallest intercept whose line at the fitted
    slope stays above the whole curve (the log of the constant absorbing
    transients).
    """

    ratio_curve: tuple[float, ...]
    log_ratio_curve: tuple[float, ...]
    passes: bool
    fitted_slope: float
    fitted_intercept: float
    residual: float

    def csv_rows(self) -> list[list[str]]:
        rows = [["n", "ratio", "log_ratio"]]
        for n, (r, lr) in enumerate(zip(self.ratio_curve, self.log_ratio_curve)):
            rows.append([str(n), repr(r), repr(lr)])
        return rows


def _suffix_restricted_logs(family: MatrixFamily, word: Word, frame: np.ndarray) -> list[tuple[float, float]]:
    """(log sigma_max, log sigma_min) of product(word[-n:]) @ frame, n = 0..N.

    The frame block is pushed through the word from its last letter with a
    shared rescale each step, so no cancellation against the large part of
    the product ever occurs and the restricted norms stay accurate for long
    words.  Every step's block is kept, and one batched SVD after the walk
    gives the singular values of all of them.
    """
    blocks = np.empty((len(word) + 1, *frame.shape))
    blocks[0] = frame
    block = frame
    log_accs = [0.0]
    for n, j in enumerate(reversed(word), start=1):
        block = family.stack[j] @ block
        s = float(np.linalg.norm(block))
        block /= s
        log_accs.append(log_accs[-1] + math.log(s))
        blocks[n] = block
    svals = np.linalg.svd(blocks, compute_uv=False)
    return [(acc + math.log(sv[0]), acc + math.log(sv[-1])) for acc, sv in zip(log_accs, svals)]


def verify_domination(family: MatrixFamily, estimate: SplittingEstimate, word) -> DominationCheck:
    """Check the domination inequality directly along one word.

    ``ratio_curve[n]`` is the norm of the n-step forward map restricted to
    the contracting plane over its co-norm restricted to the expanding
    plane.  The n-step forward map at the anchor point is the product of
    the word's LAST n letters (new symbols compose on the left), so the
    word must extend the estimate's future window at the same anchor: the
    future window should be the word itself, possibly with extra distant
    symbols prepended.  Passing means the curve genuinely decays: both the
    tail slope and the whole-curve slope must lie below -SLOPE_MARGIN
    (the intercept is free, mirroring the transient-absorbing constant in
    the decay definition).

    A curve that bottoms out below FLOOR_RATIO has hit the precision
    floor of the estimated planes; the fit then reads only the decaying
    segment before the first arrival at that floor.  Flat tails ABOVE the
    floor level are genuine violations and fail.
    """
    w = words._validate_word(family, word)
    contracting = _suffix_restricted_logs(family, w, estimate.contracting.frame)
    expanding = _suffix_restricted_logs(family, w, estimate.expanding.frame)
    log_curve = [c[0] - e[1] for c, e in zip(contracting, expanding)]
    x = np.arange(len(log_curve), dtype=float)
    y = np.array(log_curve)
    stop = len(y) - 1
    if float(y.min()) < math.log(FLOOR_RATIO):
        # cut ahead of the saturation bend: three log-units above the floor
        stop = int(np.nonzero(y <= y.min() + 3.0)[0][0])
    xf, yf = (x[: stop + 1], y[: stop + 1]) if stop >= 3 else (x, y)
    n_tail = max(2, math.ceil(TAIL_FRACTION * len(yf)))
    tail_slope, tail_intercept = np.polyfit(xf[-n_tail:], yf[-n_tail:], 1)
    global_slope, _ = np.polyfit(xf, yf, 1)
    resid = float(
        np.sqrt(np.mean((yf[-n_tail:] - (tail_intercept + tail_slope * xf[-n_tail:])) ** 2))
    )
    envelope_intercept = float(np.max(yf - tail_slope * xf))
    passes = bool(tail_slope < -SLOPE_MARGIN and global_slope < -SLOPE_MARGIN)
    with np.errstate(over="ignore"):
        curve = tuple([float(np.exp(v)) for v in log_curve])
    return DominationCheck(
        ratio_curve=curve,
        log_ratio_curve=tuple([float(v) for v in log_curve]),
        passes=passes,
        fitted_slope=float(tail_slope),
        fitted_intercept=envelope_intercept,
        residual=resid,
    )


@dataclass(frozen=True)
class AngleBoundSample:
    """One step of the singular-frame angle bound check."""

    step: int
    lhs: float
    rhs: float
    degenerate: bool


def angle_decay_check(family: MatrixFamily, word, index: int) -> list[AngleBoundSample]:
    """Angle between consecutive bottom singular frames vs the gap bound.

    The n-step forward maps at a fixed anchor are the suffix products
    ``S_n = product(word[-n:])`` (each step composes a new matrix on the
    left).  For each n the left side is sin of the distance between the
    bottom right-singular frames of ``S_n`` and ``S_{n+1}``, the right side
    is ``max_norm * sigma_{index+1}(S_n) / sigma_index(S_{n+1})``.  The
    inequality lhs <= rhs holds whether or not the family is dominated;
    steps with a degenerate gap are flagged and given NaN sides.
    """
    w = words._validate_word(family, word)
    if len(w) < 2:
        raise ValueError("word must have length at least 2")
    d = family.dim
    linalg.check_index(index, d)
    max_norm = float(np.linalg.svd(family.stack, compute_uv=False)[:, 0].max())
    log_suffix = words._compound_log_walk(family, w, True, words._gap_orders(index, d))

    # the suffix products, one SVD call for all of them
    products = []
    P = np.eye(d)
    for step, j in enumerate(reversed(w), start=1):
        P = family.stack[j] @ P
        if step % words.RESCALE_PERIOD == 0:
            P = P / np.linalg.norm(P)
        products.append(P)
    _, svals, Vt = np.linalg.svd(np.stack(products))
    degenerate = svals[:, index] >= svals[:, index - 1] * (1.0 - DEGENERATE_GAP_RTOL)
    bottom = orthonormal_frames(np.swapaxes(Vt[:, index:, :], 1, 2))
    angles = grass_distance(bottom[:-1], bottom[1:])

    out = []
    for n in range(1, len(w)):
        if degenerate[n - 1] or degenerate[n]:
            out.append(AngleBoundSample(step=n, lhs=math.nan, rhs=math.nan, degenerate=True))
            continue
        lhs = math.sin(angles[n - 1])
        log_rhs = log_suffix[n][index] - log_suffix[n + 1][index - 1]
        rhs = max_norm * math.exp(min(log_rhs, 700.0))
        out.append(AngleBoundSample(step=n, lhs=float(lhs), rhs=float(rhs), degenerate=False))
    return out
