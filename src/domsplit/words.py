"""Word products over a finite matrix family: gap enumeration and verdicts.

A family holds its members as one read-only ``(m, d, d)`` stack, validated,
inverted, perturbed and turned into compound banks one batched call at a
time.  A word is a tuple of member indices; ``product(w) = M[w[0]] @
M[w[1]] @ ...`` left to right as written.

Long products are never trusted in raw form.  Singular values of a product
come from exterior-power (compound-matrix) accumulations: for each order k
the compound product is renormalized as it grows, with the magnitude carried
as an accumulated logarithm, and ``log sigma_k = log |wedge^k P| -
log |wedge^(k-1) P|``.  This keeps gap ratios accurate far beyond the length
where the small singular values of a directly formed product drown in
rounding.  The plain-matrix path (needed for singular frames) rescales every
``RESCALE_PERIOD`` multiplications.

Only sigma_1 of each normalized compound is ever needed.  It comes from the
batched kernel ``linalg.TopSingular`` (``|x|`` for 1x1, a closed form for
2x2, and from the Gram matrix above: the midpoint of a trace bracket where
that Gram is scalar to rounding, as for every compound of an isometry,
``eigvalsh`` elsewhere), within 1e-14 relative of LAPACK's SVD, so no SVD
runs here.  The walks step with one dot per normalization, which is what
``np.linalg.norm`` computes for a matrix, at half its call overhead.  Each
order's walk is independent of the others, so a caller that reads only a
gap ratio at index i walks only the orders i - 1, i and i + 1
(``_gap_orders``), and gets those columns bit-equal to the full walk.

The gap search reads only each length's maximum with its witness and, on a
length before a beam length, the ``beam_width`` largest scores.  So it
forms each order's kernel (one Gram matrix per word) once per chunk and
bounds every word's score first, from ``TopSingular.bounds`` (no
eigen-solver): the upper bound takes the upper bounds at orders i - 1 and
i + 1 and the lower bound at order i, the lower bound the reverse.  The
cut is the larger of the length's maximum so far and the chunk's largest
lower bound; when the next length beams it is the ``beam_width``-th
largest lower bound of the length so far instead (no cut before
``beam_width`` words).  A word whose upper bound is more than ``GAP_PRUNE_SLACK``
(1e-9 nats, for rounding) below the cut scores -inf; every other word gets
the exact sigma_1 from its own Gram, formed again for the few words that
need an eigen-solve, so no chunk's Gram matrices outlive their bounds.  A
pruned word can neither be a maximum nor enter a beam, ties all survive,
and the kernel gives the same bits on a row subset, so every output is
exactly that of scoring all words.

A length holds only the rows the next length reads; row r extends the
previous length's row r // m by the letter r % m.  When the next length is
exhaustive, every row's compounds and logs are stored, filled chunk by
chunk in place.  The last length stores none, and neither does a length
before a beam while it scores: each chunk is scored in its own buffers, the
witness is read off its parent, and once the length is scored the
``beam_width`` survivors alone are formed again from their parents, a chunk
of rows at a time, by the same ``matmul``, norm and log steps and so with
the same bits.  The stored rows' words are formed from their parents' once
the length is scored.  A length after a beam is never exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import linalg
from .errors import NumericalError
from .jsonio import JsonRecord

Word = tuple[int, ...]

RESCALE_PERIOD = 16


# ---------------------------------------------------------------------------
# family


@dataclass(frozen=True)
class FamilySource(JsonRecord):
    """Where a family came from; sampled curves carry their sampling density."""

    kind: str = "explicit"  # "explicit" | "sampled_curve"
    description: str = ""
    sample_count: int | None = None


@dataclass(frozen=True, eq=False)
class MatrixFamily:
    """Non-empty labeled set of invertible matrices of one common dimension.

    The members are one read-only ``(m, d, d)`` ``stack``, with
    ``labels[j]`` naming ``stack[j]``.  The stack is a copy of the input,
    so later writes to the caller's arrays do not reach the family, and is
    validated in one batched invertibility test.  For a family generated by
    sampling a parametric curve, members are kept in curve order so
    adjacent-sample discrepancies can be measured.
    """

    labels: tuple[str, ...]
    stack: np.ndarray
    source: FamilySource = field(default_factory=FamilySource)

    def __post_init__(self):
        labels = tuple(str(label) for label in self.labels)
        stack = np.array(self.stack, dtype=float, order="C")
        if stack.ndim != 3 or len(stack) != len(labels):
            raise ValueError(
                f"expected an (m, d, d) stack with one label per member, got shape "
                f"{stack.shape} and {len(labels)} labels"
            )
        if not labels:
            raise ValueError("family must have at least one member")
        if len(set(labels)) != len(labels):
            raise ValueError("member labels must be unique")
        linalg.check_invertible(stack, labels=labels)
        stack.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "stack", stack)

    @classmethod
    def from_matrices(cls, matrices, labels=None, source: FamilySource | None = None) -> "MatrixFamily":
        mats = [np.asarray(M, dtype=float) for M in matrices]
        if len({M.shape for M in mats}) > 1:
            raise ValueError("all members must share one dimension")
        if labels is None:
            labels = [f"M{j}" for j in range(len(mats))]
        stack = np.stack(mats) if mats else np.empty((0, 0, 0))
        return cls(labels=tuple(labels), stack=stack, source=source or FamilySource())

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    @property
    def size(self) -> int:
        return len(self.labels)

    def inverse(self) -> "MatrixFamily":
        return MatrixFamily(
            labels=tuple(f"{label}^-1" for label in self.labels),
            stack=np.linalg.inv(self.stack),
            source=self.source,
        )

    def word_labels(self, word: Word) -> tuple[str, ...]:
        return tuple([self.labels[j] for j in word])

    @cached_property
    def compound_banks(self) -> dict[int, np.ndarray]:
        """For k = 1..dim, the read-only stack of every member's k-th
        compound matrix, in member order; built once per family."""
        banks = {k: compound_matrix(self.stack, k) for k in range(2, self.dim + 1)}
        for bank in banks.values():
            bank.setflags(write=False)
        return {1: self.stack, **banks}


def perturb_family(family: MatrixFamily, noise: float, seed: int, copies: int = 1) -> MatrixFamily:
    """Entrywise uniform(-noise, noise) perturbation of every member.

    With ``copies > 1`` each member yields that many independently perturbed
    variants, consecutive in the result.  Deterministic for a fixed seed.
    """
    if copies < 1:
        raise ValueError(f"copies must be at least 1, got {copies}")
    if not noise >= 0.0:  # NaN fails too
        raise ValueError(f"noise must be at least 0, got {noise}")
    m, d = family.size, family.dim
    draw = np.random.default_rng(seed).uniform(-noise, noise, (m, copies, d, d))
    suffixes = ["~"] if copies == 1 else [f"~{c}" for c in range(copies)]
    return MatrixFamily(
        labels=tuple(label + suffix for label in family.labels for suffix in suffixes),
        stack=(family.stack[:, None] + draw).reshape(m * copies, d, d),
        source=family.source,
    )


def _validate_word(family: MatrixFamily, word) -> Word:
    w = tuple(word)
    if len(w) == 0:
        raise ValueError("word must be non-empty")
    # as in the batch path, a letter is an integer (not a bool) of 0..m-1
    if any(isinstance(j, bool) or not isinstance(j, (int, np.integer)) or not 0 <= j < family.size for j in w):
        raise ValueError("word contains an invalid member index")
    # from a list, not a generator: CPython builds a generator's tuple at a
    # guessed length and resizes it, so the freed tuple joins the free list
    # of another length, which only a full collection empties
    return tuple([int(j) for j in w])


# ---------------------------------------------------------------------------
# products

def compound_matrix(matrix, k: int) -> np.ndarray:
    """k-th compound: minors indexed by lexicographic k-subsets.

    Satisfies compound(A @ B) = compound(A) @ compound(B), so compound
    accumulation tracks exterior-power norms of long products exactly.
    A family's ``(m, d, d)`` stack gives the stack of its members' compounds.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 3:
        M = linalg.as_square(M)
    d = M.shape[-1]
    if not 1 <= k <= d:
        raise ValueError(f"k must be in 1..{d}, got {k}")
    if k == 1:
        return M.copy()
    subsets = np.array(list(itertools.combinations(range(d), k)))
    blocks = M[..., subsets[:, None, :, None], subsets[None, :, None, :]]
    return np.linalg.det(blocks)


def scaled_word_product(family: MatrixFamily, word) -> tuple[np.ndarray, float]:
    """Product in the form ``exp(log_scale) * P_hat`` with ``|P_hat|_F = 1``.

    Rescales every RESCALE_PERIOD multiplications so entries never overflow
    or underflow for long words.  ``word`` may also be an ``(n, L)`` array
    of n words of one length; the result is then an ``(n, d, d)`` stack and
    an ``(n,)`` array of log scales, each row bit-equal to its own call.
    """
    batch = np.asarray(word)
    single = batch.ndim == 1
    if single:
        batch = np.array([_validate_word(family, word)])
    elif batch.ndim != 2 or batch.shape[1] == 0:
        raise ValueError("words must form a non-empty (n, L) array")
    elif not np.issubdtype(batch.dtype, np.integer) or np.any((batch < 0) | (batch >= family.size)):
        raise ValueError("word contains an invalid member index")
    P = np.repeat(np.eye(family.dim)[None], batch.shape[0], axis=0)
    log_scale = np.zeros(batch.shape[0])
    for step in range(1, batch.shape[1] + 1):
        P = P @ family.stack[batch[:, step - 1]]
        if step % RESCALE_PERIOD == 0:
            P, log_scale = _rescaled(P, log_scale)
    P, log_scale = _rescaled(P, log_scale)
    return (P[0], float(log_scale[0])) if single else (P, log_scale)


def _rescaled(P: np.ndarray, log_scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # one dot per matrix, which is what np.linalg.norm computes for a 2-d
    # array: a batched norm(axis=(-2, -1)) sums in another order and moves
    # the products at the 1e-15 level
    s = np.array([math.sqrt(r.dot(r)) for r in P.reshape(-1, P.shape[-1] ** 2)])
    return P / s[:, None, None], log_scale + np.array([math.log(x) for x in s])


def _gap_orders(index: int, d: int) -> tuple[int, ...]:
    """The compound orders that ``log(sigma_{index+1} / sigma_index)`` reads:
    index - 1, index and index + 1, those of them in 1..d."""
    return tuple([k for k in (index - 1, index, index + 1) if 1 <= k <= d])


def _compound_log_walk(family: MatrixFamily, word, suffix: bool, orders=None) -> np.ndarray:
    """``out[n, j] = log sigma_{j+1}`` of the product of ``word[:n]``, or
    with ``suffix`` of ``word[-n:]``, for n = 0..len(word), over the given
    compound orders (all of 1..d by default).

    Suffix products are the nested forward maps at a fixed anchor point:
    each step multiplies the next matrix on the left.

    The walk renormalizes each order's product step by step and keeps every
    step's normalized compound; sigma_1 of all of them comes from one
    ``linalg.top_singular_values`` call per order after the walk.  Column
    j reads orders j and j + 1: it is nan when either was not walked (order
    0 is the identity), and otherwise bit-equal to the full walk's.
    """
    w = _validate_word(family, word)
    d = family.dim
    comps = family.compound_banks
    top = np.full((len(w) + 1, d + 1), math.nan)
    top[0] = top[:, 0] = 0.0
    for k in range(1, d + 1) if orders is None else orders:
        acc = np.eye(math.comb(d, k))
        steps = np.empty((len(w), *acc.shape))
        logs = np.empty(len(w))
        log_acc = 0.0
        for n, j in enumerate(reversed(w) if suffix else w):
            acc = comps[k][j] @ acc if suffix else acc @ comps[k][j]
            r = acc.ravel()
            s = math.sqrt(r.dot(r))  # np.linalg.norm(acc), bit for bit
            acc /= s
            log_acc += math.log(s)
            steps[n] = acc
            logs[n] = log_acc
        top[1:, k] = logs + np.log(linalg.top_singular_values(steps))
    return np.diff(top, axis=1)


def log_gap_ratio(family: MatrixFamily, word, index: int) -> float:
    """``log(sigma_{index+1}/sigma_index)`` of the word product, 1-based index."""
    linalg.check_index(index, family.dim)
    logs = _compound_log_walk(family, word, False, _gap_orders(index, family.dim))[-1]
    return float(logs[index] - logs[index - 1])


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class GapLengthStat(JsonRecord):
    """Worst (largest) log gap ratio over the words examined at one length."""

    length: int
    max_log_ratio: float
    words_examined: int
    exact: bool
    witness: Word


@dataclass(frozen=True)
class DecayFit(JsonRecord):
    """Least-squares line ``log_C + N * log_tau`` through the per-length maxima."""

    log_C: float
    log_tau: float
    residual: float


DOMINATED = "dominated"
NOT_DOMINATED = "not_dominated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict(JsonRecord):
    kind: str
    witness: Word | None = None
    reason: str | None = None


@dataclass(frozen=True)
class FamilySummary(JsonRecord):
    """The family a report was computed on: its dimension, member labels and
    source."""

    dim: int
    labels: tuple[str, ...]
    source: FamilySource


@dataclass(frozen=True)
class GapReport(JsonRecord):
    """Per-length gap maxima, fitted decay, and the domination verdict.

    Its JSON is the codec's, field by field, plus the witness's member
    labels as ``verdict.witness_labels``; reading it back ignores them.
    """

    index: int
    family: FamilySummary
    per_length: tuple[GapLengthStat, ...]
    fit: DecayFit | None = None
    verdict: Verdict | None = None

    def to_json_dict(self) -> dict:
        data = super().to_json_dict()
        if self.verdict is not None and self.verdict.witness is not None:
            data["verdict"]["witness_labels"] = [self.family.labels[j] for j in self.verdict.witness]
        return data

    def csv_rows(self) -> list[list[str]]:
        rows = [["N", "max_log_ratio", "words_examined", "exact"]]
        for s in self.per_length:
            rows.append([str(s.length), repr(s.max_log_ratio), str(s.words_examined), "true" if s.exact else "false"])
        return rows


@dataclass(frozen=True)
class SearchConfig:
    """Limits of the gap enumeration.

    Words are enumerated exhaustively while ``|family|^N <= budget``, for
    N up to ``max_len``; beyond that a beam keeps the ``beam_width`` worst
    (largest) gap-ratio words per length and extends only those.  A beam's
    per-length maximum can only be at or below the exhaustive one, so the
    decay looks faster than it is and the bias runs toward a false Dominated
    verdict.
    """

    max_len: int = 12
    budget: int = 250_000
    beam_width: int = 1024


# ---------------------------------------------------------------------------
# enumeration


# new words per batch (at least one word's extensions by every member): a
# batch holds its compounds and their Gram matrices, of every order, at
# once; at the last length and before a beam, the compounds of one batch
# are all the length holds of them, and a beam's survivors are formed this
# many rows at a time.  A 4-d, index-3 search of 3 members to length 10
# peaks at 16.0 MB (tracemalloc), against 22.3 MB with twice the rows
CHUNK_SIZE = 8192

# a word is pruned only when its score's upper bound is this many nats below
# the cut; absorbs the rounding of the bounds against the exact kernel
GAP_PRUNE_SLACK = 1e-9


def _log_gaps(
    mats: dict[int, np.ndarray], logs: dict[int, np.ndarray], index: int, best_val: float, beam, width: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Log gap ratio of every row, and the beam's lower bounds.

    A row gets its exact score only when its score bounds do not rule out
    that it beats ``best_val`` or, when ``beam`` is not None (the next
    length beams), enters the beam; every other row gets -inf.  ``beam``
    holds the ``width`` largest lower bounds of this length so far, and is
    returned with this chunk's rows taken in."""
    # one Gram per order for the bounds and the pin; the eigen-solve of
    # the kept rows forms theirs again
    kernels = {k: linalg.TopSingular(mats[k]) for k in mats}
    # the score adds log sigma_1 at orders i - 1 and i + 1 and takes
    # twice the order i off: each bound takes each term from its own side
    upper = lower = 0.0
    for k, kernel in kernels.items():
        lo, hi = kernel.bounds()
        lo = logs[k] + np.log(lo)
        hi = logs[k] + np.log(hi)
        if k == index:
            upper, lower = upper - 2.0 * lo, lower - 2.0 * hi
        else:
            upper, lower = upper + hi, lower + lo
    if beam is None:
        cut = max(best_val, float(np.max(lower)))
    else:
        # a row below all width largest lower bounds has width exact scores
        # above it; a copy, since the caller holds the beam it passed in
        # until the chunk is scored, and a view would keep all of the
        # partitioned array alive with it
        beam = np.concatenate([beam, lower])
        if beam.size > width:
            beam = np.partition(beam, -width)[-width:].copy()
        cut = float(np.min(beam)) if beam.size == width else -math.inf
    keep = upper >= cut - GAP_PRUNE_SLACK
    tops = {k: logs[k][keep] + np.log(kernels[k].values(keep)) for k in kernels}
    low = tops[index - 1] if index > 1 else 0.0
    out = np.full(keep.shape, -math.inf)
    out[keep] = tops[index + 1] + low - 2.0 * tops[index]
    return out, beam


def _normalize(prod: np.ndarray, parent_logs: np.ndarray) -> np.ndarray:
    """Divide each product of an ``(n, a, a)`` stack by its Frobenius norm,
    in place, and return the parents' logs with each norm's log added."""
    nrm = np.linalg.norm(prod, axis=(-2, -1))
    prod /= nrm[:, None, None]
    return parent_logs + np.log(nrm)


def _check_limits(family: MatrixFamily, index: int, cfg: SearchConfig) -> None:
    linalg.check_index(index, family.dim)
    if cfg.budget < family.size:
        raise ValueError(f"budget ({cfg.budget}) is below the family size ({family.size})")
    if cfg.max_len < 2:
        raise ValueError("max_len must be at least 2")
    if cfg.beam_width < 1:
        raise ValueError(f"beam_width must be at least 1, got {cfg.beam_width}")


def enumerate_gaps(family: MatrixFamily, index: int, config: SearchConfig | None = None) -> GapReport:
    """Per-length worst gap ratios (fit and verdict left empty).

    Breadth-wise enumeration with compound-matrix beam states: exhaustive
    while the word count fits the budget, beam search beyond; deterministic
    for a fixed configuration.
    """
    cfg = config or SearchConfig()
    _check_limits(family, index, cfg)
    m, d = family.size, family.dim
    max_len, budget, width = cfg.max_len, cfg.budget, cfg.beam_width

    ks = _gap_orders(index, d)
    bank = family.compound_banks
    words = np.zeros((1, 0), dtype=np.int32)
    mats = {k: np.eye(bank[k].shape[1])[None].copy() for k in ks}
    logs = {k: np.zeros(1) for k in ks}
    complete = True

    stats: list[GapLengthStat] = []
    for length in range(1, max_len + 1):
        # row r of this length extends parent r // m by the letter r % m
        count = words.shape[0]
        rows = count * m
        exact = complete and rows <= budget
        # the next length keeps only the width best of these rows
        beam_next = length < max_len and rows * m > budget and rows > width
        # store only the rows the next length reads: all of them, filled
        # chunk by chunk in place, when it is exhaustive; none at the
        # last length; before a beam the width best, formed from their
        # parents once the length is scored
        stored = length < max_len and not beam_next
        new_mats = {k: np.empty((rows, *bank[k].shape[1:])) for k in ks} if stored else {}
        new_logs = {k: np.empty(rows) for k in ks} if stored else {}
        scores = np.empty(rows)
        best_val = -math.inf
        best_word: Word = ()
        beam = np.empty(0) if beam_next else None
        step = max(1, CHUNK_SIZE // m)
        for lo in range(0, count, step):
            sl = slice(lo, min(lo + step, count))
            n_par = sl.stop - sl.start
            out = slice(lo * m, sl.stop * m)
            cm, cl = {}, {}
            for k in ks:
                prod = new_mats[k][out] if stored else np.empty((n_par * m, *bank[k].shape[1:]))
                np.matmul(mats[k][sl][:, None], bank[k][None], out=prod.reshape(n_par, m, *prod.shape[1:]))
                cm[k] = prod
                cl[k] = _normalize(prod, np.repeat(logs[k][sl], m))
                if stored:
                    new_logs[k][out] = cl[k]
            cs = scores[out]
            cs[:], beam = _log_gaps(cm, cl, index, best_val, beam, width)
            arg = int(np.argmax(cs))
            if cs[arg] > best_val:
                best_val = float(cs[arg])
                best_word = (*words[lo + arg // m].tolist(), arg % m)
        stats.append(
            GapLengthStat(length=length, max_log_ratio=best_val, words_examined=rows, exact=exact, witness=best_word)
        )

        if length < max_len:
            if beam_next:
                kept = np.argsort(-scores, kind="stable")[:width].astype(np.int32)
                parents, letters = np.divmod(kept, m)
                # the chunk loop's steps on the kept rows alone, bit for bit,
                # a chunk at a time into their stack
                new_mats = {k: np.empty((len(kept), *bank[k].shape[1:])) for k in ks}
                new_logs = {k: np.empty(len(kept)) for k in ks}
                for lo in range(0, len(kept), CHUNK_SIZE):
                    sl = slice(lo, lo + CHUNK_SIZE)
                    for k in ks:
                        prod = new_mats[k][sl]
                        np.matmul(mats[k][parents[sl]], bank[k][letters[sl]], out=prod)
                        new_logs[k][sl] = _normalize(prod, logs[k][parents[sl]])
            else:
                parents, letters = np.divmod(np.arange(rows, dtype=np.int32), m)
            words = np.column_stack((words[parents], letters))
            mats, logs = new_mats, new_logs
        # a length after a beam is never exact, whatever its row count
        complete = exact and not beam_next
    return GapReport(
        index=index,
        family=FamilySummary(dim=d, labels=family.labels, source=family.source),
        per_length=tuple(stats),
    )


# share of the per-length maxima, taken from the long end, that the decay
# fit reads, and the fewest lengths a fit takes
TAIL_FRACTION = 0.5
MIN_FIT_LENGTHS = 4


def fit_decay(report: GapReport) -> GapReport:
    """Least-squares exponential-decay fit over the final TAIL_FRACTION of lengths."""
    if len(report.per_length) < MIN_FIT_LENGTHS:
        raise ValueError(f"need at least {MIN_FIT_LENGTHS} per-length entries to fit a decay")
    n_tail = max(2, math.ceil(TAIL_FRACTION * len(report.per_length)))
    tail = report.per_length[-n_tail:]
    x = np.array([s.length for s in tail], dtype=float)
    y = np.array([s.max_log_ratio for s in tail])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (intercept + slope * x)) ** 2)))
    return replace(report, fit=DecayFit(log_C=float(intercept), log_tau=float(slope), residual=resid))


def _primitive_root(word: Word) -> Word:
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word == word[:p] * (n // p):
            return word[:p]
    return word


# a NotDominated witness has eigenvalue moduli at positions index and
# index + 1 that agree to this relative tolerance: a dominated family
# separates them on every periodic product
WITNESS_RTOL = 1e-9


def _periodic_witness(family: MatrixFamily, index: int, report: GapReport) -> Word | None:
    """First candidate word whose product has equal eigenvalue moduli at
    positions ``index`` and ``index + 1``, to ``WITNESS_RTOL`` relative.

    Candidates are the single letters followed by the per-length worst
    words, reduced to their primitive roots.  The moduli are read off the
    product's ``index``-th compound, whose two largest eigenvalue moduli
    have the product's ratio ``|lambda_(index+1)| / |lambda_index|``.
    Read off the product itself, eigenvalues far below its largest drown
    in its rounding and can come out as a conjugate pair of equal moduli.
    """
    bank = family.compound_banks[index]
    candidates = [(j,) for j in range(family.size)] + [s.witness for s in report.per_length]
    for root in dict.fromkeys(map(_primitive_root, candidates)):
        P = np.eye(bank.shape[1])
        for j in root:
            P = P @ bank[j]
            P /= np.linalg.norm(P)
        try:
            second, top = np.sort(np.abs(np.linalg.eigvals(P)))[-2:]
        except np.linalg.LinAlgError as exc:
            raise NumericalError("eigenvalue computation failed") from exc
        if top - second <= WITNESS_RTOL * top:
            return root
    return None


# a Dominated verdict needs the fitted slope below -DOMINATED_MARGIN, the
# fit residual below RESIDUAL_BOUND (scaled, see below) and every per-length
# maximum under the fitted line with its slope slackened by MARGIN_SLACK
DOMINATED_MARGIN = 0.01
RESIDUAL_BOUND = 0.05
MARGIN_SLACK = 0.1


def is_dominated(family: MatrixFamily, index: int, config: SearchConfig | None = None) -> GapReport:
    """Gap enumeration, decay fit, and a three-way domination verdict.

    A periodic witness wins over the fit: a candidate word (a single
    letter, or the root of a per-length worst word) whose product has
    eigenvalues of equal modulus at positions ``index`` and ``index + 1``
    rules domination out, since a dominated family separates them on every
    periodic product.  Inconclusive is an explicit outcome with a reason.
    Settings it cannot run with are refused before the search runs: a
    ``max_len`` too short to fit a decay, an index outside the family's
    range, a budget below the family size or an empty beam.
    """
    config = config or SearchConfig()
    if config.max_len < MIN_FIT_LENGTHS:
        raise ValueError(f"max_len must be at least {MIN_FIT_LENGTHS} to fit a decay, got {config.max_len}")
    report = fit_decay(enumerate_gaps(family, index, config))
    witness = _periodic_witness(family, index, report)
    if witness is not None:
        verdict = Verdict(kind=NOT_DOMINATED, witness=witness)
    else:
        fit = report.fit
        problems = []
        if not fit.log_tau < -DOMINATED_MARGIN:
            problems.append(f"fitted log_tau {fit.log_tau:.4f} is not below -{DOMINATED_MARGIN}")
        # per-length wobble grows with the decay rate, so the residual bound
        # scales with the slope magnitude (near-flat slopes keep the strict bound)
        resid_bound = RESIDUAL_BOUND * max(1.0, -fit.log_tau)
        if not fit.residual < resid_bound:
            problems.append(f"fit residual {fit.residual:.4f} exceeds {resid_bound:.4f}")
        for s in report.per_length:
            bound = fit.log_C + s.length * (fit.log_tau + MARGIN_SLACK)
            if s.max_log_ratio > bound:
                problems.append(
                    f"length {s.length} maximum {s.max_log_ratio:.4f} exceeds fitted decay line"
                )
                break
        if problems:
            verdict = Verdict(kind=INCONCLUSIVE, reason="; ".join(problems))
        else:
            verdict = Verdict(kind=DOMINATED)
    return replace(report, verdict=verdict)
