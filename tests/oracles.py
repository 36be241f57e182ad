"""Independent oracle implementations used only by tests.

These deliberately avoid the production code paths: compound matrices are
assembled entry by entry from explicit minor index lists, derivatives come
from central differences, and word-product maxima come from exhaustive
enumeration with plainly formed products.  ``grass_distance_oracle`` is
the sine form by LAPACK SVD of the residual, as ``grass_distance`` took it
before it read sigma_1 off the Gram matrix.  The nearest-angle reference
is the full, unpruned reduction over every pair's ``grass_distance_oracle``,
which shares no arithmetic with the sine kernel under test.
The curve-spread reference is the exception: it is the per-member loop the
grouped sweep replaced, built on the same image map and distance, so it
pins the restructuring and not the per-pair arithmetic.
``ball_probes_oracle`` builds each probe alone, with its complement
directions taken inline from an SVD rather than from the center pass.
The component references are pair-by-pair loops: a union-find over every
pair, and the gap as a minimum block by block over component pairs.
``window_length_oracle``, ``periodic_witness_oracle``,
``transverse_pairs_oracle``, ``angle_decay_oracle``,
``compound_log_walk_oracle`` and ``suffix_restricted_logs_oracle`` are the
per-prefix, per-power, per-pair and per-step loops that the stacked versions
replaced.  ``line_trace_oracle`` tests 100,003 directions of a projective
line against every ball and counts the runs, sharing no arithmetic with the
closed-form arcs.
``top_singular_values_oracle`` is the LAPACK SVD that the sigma_1 kernel
replaced.  ``gap_search_oracle`` is the gap search without its bound-and-
refine pruning or chunking: every word's exact score, from the same product
and sigma_1 arithmetic, so the two must agree bit for bit.
``attractor_oracle`` is the attractor's per-word loop of plain products and
single-matrix SVDs.  ``adapted_metric_oracle`` is the adapted metric one
plane pair at a time, as it was computed before it took frame stacks, so
the two must agree bit for bit.  ``brute_force_strictly_invariant`` is the
invariance sweep without its ball-growth pruning: every boundary probe of
every center under every member, with the same probes, image map and
distance kernels, so the two must agree bit for bit; its chart test reads
the same all-pairs distances.
``cone_csv_rows_oracle`` is the per-entry loop that wrote a cone's CSV rows
before they were read off one ``tolist()``, so the two must agree byte for
byte.
``family_matrix_oracle`` is the example's per-parameter construction: each
plane's line, lift and frame built alone, from 1-D vector norms and one
single-matrix SVD, inverse and product at a time.  ``family_arrays_oracle``
builds a family's arrays one member and one copy at a time, as they were
built before the family held one stack.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from domsplit import linalg, splitting, words
from domsplit.grassmann import (
    TRANSVERSALITY_TOL,
    Plane,
    act_frames,
    frame_stack_distances,
    grass_distance,
    orthonormal_frames,
    transverse,
    worst_nearest_angle,
)
from domsplit.multicone import GAP_WARNING_TOL


def compound_matrix_oracle(M: np.ndarray, k: int) -> np.ndarray:
    """k-th compound matrix built minor by minor with explicit loops."""
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    subsets = list(itertools.combinations(range(d), k))
    out = np.zeros((len(subsets), len(subsets)))
    for a, rows in enumerate(subsets):
        for b, cols in enumerate(subsets):
            minor = np.array([[M[r, c] for c in cols] for r in rows])
            out[a, b] = np.linalg.det(minor)
    return out


def family_arrays_oracle(matrices, noise: float, seed: int, copies: int) -> dict:
    """A family's arrays built member by member: the stack, the inverses,
    the compound bank of every order and ``copies`` perturbed copies of each
    member, drawn member by member and copy by copy."""
    mats = [np.asarray(M, dtype=float) for M in matrices]
    rng = np.random.default_rng(seed)
    return {
        "stack": np.stack(mats),
        "inverse": np.stack([np.linalg.inv(M) for M in mats]),
        "banks": {
            k: np.stack([words.compound_matrix(M, k) for M in mats]) for k in range(1, mats[0].shape[0] + 1)
        },
        "perturbed": np.stack([M + rng.uniform(-noise, noise, size=M.shape) for M in mats for _ in range(copies)]),
    }


def central_difference(f, t: float, h: float = 1e-6) -> np.ndarray:
    return (np.asarray(f(t + h)) - np.asarray(f(t - h))) / (2.0 * h)


def word_product(family, word) -> np.ndarray:
    """Plain left-to-right product of a word's members; only safe for short
    words."""
    P = np.eye(family.dim)
    for j in word:
        P = P @ family.stack[int(j)]
    return P


def brute_force_max_log_gap(matrices, index: int, length: int) -> tuple[float, tuple[int, ...]]:
    """Exhaustive worst log gap ratio over all words of one length.

    Plain products and plain SVD: only valid while the products stay well
    conditioned, which the call sites guarantee.
    """
    best = -np.inf
    best_word: tuple[int, ...] = ()
    for word in itertools.product(range(len(matrices)), repeat=length):
        P = np.eye(matrices[0].shape[0])
        for j in word:
            P = P @ matrices[j]
        s = np.linalg.svd(P, compute_uv=False)
        val = float(np.log(s[index] / s[index - 1]))
        if val > best:
            best = val
            best_word = word
    return best, best_word


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    Q, R = np.linalg.qr(rng.normal(size=(dim, dim)))
    return Q * np.sign(np.diagonal(R))


def random_invertible(dim: int, rng: np.random.Generator, min_conorm: float = 0.1) -> np.ndarray:
    while True:
        M = rng.normal(size=(dim, dim))
        if np.linalg.svd(M, compute_uv=False)[-1] >= min_conorm:
            return M


def diagonal_projective_angles(top: float, bottom: float, slope: float, steps: int) -> list[float]:
    """Closed-form angles from span(e1) after iterating diag(top, bottom).

    The direction (1, s) maps to (top, bottom * s), i.e. the slope contracts
    by bottom/top each step; the angle from the first axis is arctan(slope).
    """
    out = []
    s = slope
    for _ in range(steps + 1):
        out.append(float(np.arctan(abs(s))))
        s *= bottom / top
    return out


def grass_distance_oracle(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Largest principal angle between the rows of two (..., d, i) frame
    stacks, broadcast: the arcsine of the top singular value, by LAPACK SVD,
    of the residual ``E - F (F^T E)``."""
    residual = first - second @ (np.swapaxes(second, -1, -2) @ first)
    sin = np.linalg.svd(residual, compute_uv=False)[..., 0]
    return np.arcsin(np.clip(sin, 0.0, 1.0))


def brute_force_worst_nearest_angle(A: np.ndarray, B: np.ndarray) -> float:
    """Max over frames of A of the distance to the nearest frame of B, from
    the SVD sine form of every pair (``grass_distance_oracle``)."""
    return float(grass_distance_oracle(A[:, None], B[None]).min(axis=1).max())


def ball_probes_oracle(frames: np.ndarray, radius: float) -> np.ndarray:
    """Alternating-sign geodesic probes, center-major as an
    (n, i (d - i), d, i) stack, with the complement directions taken inline
    from the SVD of ``I - F F^T`` and each probe built one at a time."""
    n, d, i = frames.shape
    eye = np.eye(d)
    complements = eye[None] - np.matmul(frames, np.swapaxes(frames, 1, 2))
    U, s, _ = np.linalg.svd(complements)
    cos_r, sin_r = math.cos(radius), math.sin(radius)
    probes = np.empty((n, i * (d - i), d, i))
    for k in range(n):
        pair = 0
        for c in range(i):
            for l in range(d - i):
                sign = 1.0 if (k + pair) % 2 == 0 else -1.0
                moved = frames[k].copy()
                moved[:, c] = cos_r * frames[k, :, c] + sign * sin_r * U[k, :, l]
                probes[k, pair] = moved
                pair += 1
    return probes


def sweep_points_oracle(frames: np.ndarray, radius: float) -> np.ndarray:
    """The centers followed by every center's ``ball_probes_oracle``."""
    return np.concatenate([frames, ball_probes_oracle(frames, radius).reshape(-1, *frames.shape[1:])])


def curve_spread_oracle(family, probes: np.ndarray) -> float:
    """Max distance between the images of one probe under adjacent members
    of a sampled curve (zero for explicit families), acting on every probe
    once per member in a loop of its own."""
    if family.source.kind != "sampled_curve" or family.size < 2:
        return 0.0
    worst = 0.0
    prev = act_frames(family.stack[0][None], probes)
    for j in range(1, family.size):
        cur = act_frames(family.stack[j][None], probes)
        worst = max(worst, float(np.max(grass_distance(prev, cur))))
        prev = cur
    return worst


def union_find_components(dist: np.ndarray, link_radius: float) -> tuple[tuple[int, ...], ...]:
    """Single-linkage components at one link radius from a union-find over
    every pair a < b (so only the upper triangle of ``dist`` is read); roots
    are minimal indices, so components come ordered by smallest member."""
    n = dist.shape[0]
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(n):
        for b in range(a + 1, n):
            if dist[a, b] <= link_radius:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for a in range(n):
        groups.setdefault(find(a), []).append(a)
    return tuple(tuple(groups[r]) for r in sorted(groups))


def component_gap_oracle(dist: np.ndarray, comps, eps: float) -> float:
    """Smallest distance between points of different components minus
    2 eps, taken block by block over component pairs (+inf for one)."""
    if len(comps) <= 1:
        return float("inf")
    inter = min(
        float(dist[np.ix_(ca, cb)].min())
        for i, ca in enumerate(comps)
        for cb in comps[i + 1 :]
    )
    return inter - 2.0 * eps


def line_distance(base1, dir1, base2, dir2) -> float:
    """Distance between two lines in R^3 (parallel pairs handled)."""
    b1, d1 = np.asarray(base1, float), np.asarray(dir1, float)
    b2, d2 = np.asarray(base2, float), np.asarray(dir2, float)
    cross = np.cross(d1, d2)
    n = float(np.linalg.norm(cross))
    delta = b2 - b1
    if n < 1e-12:
        return float(np.linalg.norm(np.cross(delta, d1)) / np.linalg.norm(d1))
    return float(abs(delta @ cross) / n)


def line_trace_oracle(frames, radius: float, line, count: int = 100_003) -> tuple[list[tuple[float, float]], float]:
    """Arcs of P(line) inside the union of the radius-balls around the
    frames, by dense membership, and the grid step.

    The direction ``v = W (cos t, sin t)`` at ``t = (k + 1/2) pi / count`` is
    inside when the largest ``|C^T v|`` over the centers C is at least
    ``cos(radius)``.  Each circular run of inside directions comes back as
    (first angle, last angle), a run across 0 with its last angle past pi,
    sorted by first angle; ``[(0, pi)]`` when every direction is inside.
    """
    W = getattr(line, "frame", line)
    step = math.pi / count
    t = (np.arange(count) + 0.5) * step
    directions = np.column_stack([np.cos(t), np.sin(t)]) @ W.T
    best = np.zeros(count)
    for C in frames:
        best = np.maximum(best, np.linalg.norm(directions @ C, axis=1))
    inside = best >= math.cos(radius)
    if inside.all():
        return [(0.0, math.pi)], step
    # read the circle from an outside direction, so no run is cut in two
    first = int(np.argmin(inside))
    edges = np.diff(np.append(np.roll(inside, -first), False).astype(int))
    runs = []
    for a, b in zip(np.flatnonzero(edges == 1) + 1, np.flatnonzero(edges == -1)):
        start = float(t[(first + a) % count])
        runs.append((start, start + float(b - a) * step))
    return sorted(runs), step


def window_length_oracle(family, index: int, seed: int, target: float, cap: int) -> int:
    """First prefix length whose gap ratio falls below ``target``, drawing one
    letter at a time and walking every prefix from scratch."""
    rng = np.random.default_rng(seed)
    word: list[int] = []
    for n in range(1, cap + 1):
        word.append(int(rng.integers(family.size)))
        if words.log_gap_ratio(family, tuple(word), index) < math.log(target):
            return n
    return cap


def periodic_witness_oracle(family, index: int, report):
    """First candidate root whose product's eigenvalue moduli at positions
    index and index + 1 agree to ``words.WITNESS_RTOL``: each letter's
    compound minor by minor, their product by repeated ``np.matmul``, then
    ``np.linalg.eigvals``, whose top two moduli have the ratio
    ``|lambda_(index+1)| / |lambda_index|``."""
    candidates = [(j,) for j in range(family.size)] + [s.witness for s in report.per_length]
    letters = [compound_matrix_oracle(M, index) for M in family.stack]
    seen = set()
    for cand in candidates:
        root = words._primitive_root(cand)
        if root in seen:
            continue
        seen.add(root)
        P = np.eye(len(letters[0]))
        for j in root:
            P = np.matmul(P, letters[j])
        top, second = sorted(np.abs(np.linalg.eigvals(P)), reverse=True)[:2]
        if top - second <= words.WITNESS_RTOL * top:
            return root
    return None


def transverse_pairs_oracle(planes, stable) -> tuple[np.ndarray, np.ndarray]:
    """Transversality flags and margins of every (plane, stable frame) pair,
    one pair at a time: the smallest singular value of the two frames side
    by side."""
    margins = np.array(
        [[np.linalg.svd(np.hstack([E, F]), compute_uv=False)[-1] for F in stable] for E in planes]
    )
    return margins > TRANSVERSALITY_TOL, margins


def angle_decay_oracle(family, word, index: int) -> list:
    """The angle-bound samples of ``angle_decay_check``, with one SVD and
    one validated ``Plane`` per suffix product and one ``grass_distance``
    call per consecutive pair."""
    w = tuple(int(j) for j in word)
    max_norm = max(linalg.operator_norm(M) for M in family.stack)
    log_suffix = words._compound_log_walk(family, w, suffix=True)
    frames = []
    P = np.eye(family.dim)
    for step, j in enumerate(reversed(w), start=1):
        P = family.stack[j] @ P
        if step % words.RESCALE_PERIOD == 0:
            P = P / np.linalg.norm(P)
        spec = linalg.singular_spectrum(P)
        if spec.values[index] >= spec.values[index - 1] * (1.0 - splitting.DEGENERATE_GAP_RTOL):
            frames.append(None)
        else:
            frames.append(Plane.from_spanning(spec.right[:, index:]))
    out = []
    for n in range(1, len(w)):
        bottom_n, bottom_next = frames[n - 1], frames[n]
        if bottom_n is None or bottom_next is None:
            out.append(splitting.AngleBoundSample(step=n, lhs=math.nan, rhs=math.nan, degenerate=True))
            continue
        lhs = math.sin(grass_distance(bottom_n, bottom_next))
        log_rhs = log_suffix[n][index] - log_suffix[n + 1][index - 1]
        rhs = max_norm * math.exp(min(log_rhs, 700.0))
        out.append(splitting.AngleBoundSample(step=n, lhs=float(lhs), rhs=float(rhs), degenerate=False))
    return out


def top_singular_values_oracle(stack) -> np.ndarray:
    """sigma_1 of every matrix in a stack, from the full LAPACK SVD."""
    return np.linalg.svd(np.asarray(stack, dtype=float), compute_uv=False)[..., 0]


def compound_log_walk_oracle(family, word, suffix: bool) -> np.ndarray:
    """The prefix (or suffix) log-singular-value walk with one SVD of every
    order's compound at every step."""
    d = family.dim
    acc = {k: np.eye(math.comb(d, k)) for k in range(1, d + 1)}
    logs = {k: 0.0 for k in range(1, d + 1)}
    out = np.zeros((len(word) + 1, d))
    for n, j in enumerate(reversed(word) if suffix else word, start=1):
        top = np.zeros(d + 1)
        for k in range(1, d + 1):
            C = words.compound_matrix(family.stack[int(j)], k)
            acc[k] = C @ acc[k] if suffix else acc[k] @ C
            s = float(np.linalg.norm(acc[k]))
            acc[k] /= s
            logs[k] += math.log(s)
            top[k] = logs[k] + math.log(float(np.linalg.svd(acc[k], compute_uv=False)[0]))
        out[n] = np.diff(top)
    return out


def suffix_restricted_logs_oracle(family, word, frame: np.ndarray) -> list[tuple[float, float]]:
    """(log sigma_max, log sigma_min) of product(word[-n:]) @ frame, with
    one SVD per step of the rescaled block walk."""
    block = frame.copy()
    log_acc = 0.0
    svals = np.linalg.svd(block, compute_uv=False)
    out = [(log_acc + math.log(svals[0]), log_acc + math.log(svals[-1]))]
    for j in reversed(word):
        block = family.stack[j] @ block
        s = float(np.linalg.norm(block))
        block /= s
        log_acc += math.log(s)
        svals = np.linalg.svd(block, compute_uv=False)
        out.append((log_acc + math.log(svals[0]), log_acc + math.log(svals[-1])))
    return out


def gap_search_oracle(family, index: int, config) -> list:
    """Per-length gap statistics with the exact score of every word, in one
    batch per length: the search before bound-and-refine pruning."""
    m = family.size
    bank = family.compound_banks
    ks = tuple(k for k in (index - 1, index, index + 1) if 1 <= k <= family.dim)
    words_ = np.zeros((1, 0), dtype=np.int32)
    mats = {k: np.eye(bank[k].shape[1])[None].copy() for k in ks}
    logs = {k: np.zeros(1) for k in ks}
    scores = np.zeros(1)
    complete = True
    stats = []
    for length in range(1, config.max_len + 1):
        count = words_.shape[0]
        exact = complete and count * m <= config.budget
        if count * m > config.budget and count > config.beam_width:
            keep = np.argsort(-scores, kind="stable")[: config.beam_width]
            words_ = words_[keep]
            mats = {k: mats[k][keep] for k in ks}
            logs = {k: logs[k][keep] for k in ks}
            count = words_.shape[0]
        words_ = np.concatenate(
            [np.repeat(words_, m, axis=0), np.tile(np.arange(m, dtype=np.int32), count)[:, None]], axis=1
        )
        tops = {}
        for k in ks:
            prod = np.matmul(mats[k][:, None], bank[k][None]).reshape(count * m, *bank[k].shape[1:])
            nrm = np.linalg.norm(prod, axis=(-2, -1))
            prod /= nrm[:, None, None]
            mats[k] = prod
            logs[k] = np.repeat(logs[k], m) + np.log(nrm)
            tops[k] = logs[k] + np.log(linalg.top_singular_values(prod))
        low = tops[index - 1] if index - 1 >= 1 else 0.0
        scores = tops[index + 1] + low - 2.0 * tops[index]
        arg = int(np.argmax(scores))
        stats.append(
            words.GapLengthStat(
                length=length,
                max_log_ratio=float(scores[arg]),
                words_examined=scores.size,
                exact=exact,
                witness=tuple(int(j) for j in words_[arg]),
            )
        )
        complete = exact
    return stats


def scaled_word_product_oracle(family, word) -> tuple[np.ndarray, float]:
    """One word's Frobenius-normalized product and log scale, rescaled every
    ``RESCALE_PERIOD`` steps, one 2-d product at a time."""
    P = np.eye(family.dim)
    log_scale = 0.0
    for step, j in enumerate(word, start=1):
        P = P @ family.stack[int(j)]
        if step % words.RESCALE_PERIOD == 0:
            s = float(np.linalg.norm(P))
            P = P / s
            log_scale += math.log(s)
    s = float(np.linalg.norm(P))
    return P / s, log_scale + math.log(s)


def attractor_oracle(family, index: int, word_len: int, word_count: int, rng_seed: int) -> np.ndarray:
    """The attractor's frames from one drawn word, one product and one SVD
    at a time, at least one word per member."""
    rng = np.random.default_rng(rng_seed)
    spans = []
    for w_idx in range(max(word_count, family.size)):
        word = (w_idx % family.size, *map(int, rng.integers(family.size, size=word_len - 1)))
        spec = linalg.singular_spectrum(scaled_word_product_oracle(family, word)[0])
        if spec.values[index] < spec.values[index - 1] * (1.0 - GAP_WARNING_TOL):
            spans.append(spec.left[:, :index])
    return orthonormal_frames(np.stack(spans))


def adapted_metric_oracle(family, first, second, n_trunc: int, stable_sample, beam_width: int = 64) -> np.ndarray:
    """``adapted_metric`` of each row pair of two (n, d, i) frame stacks, one
    pair at a time: both beams act in one ``act_frames`` call per step, and
    the beams are cut by a stable sort of that pair's image distances."""
    stable = stable_sample.frames
    out = []
    for E, F in zip(first, second):
        if len(stable):
            ok, _ = transverse(np.stack([E, F])[:, None], stable)
            if not np.all(ok):
                raise ValueError("input plane is not transverse to the stable sample")
        total = grass_distance(E, F)
        beam_a, beam_b = E[None], F[None]
        for _ in range(1, n_trunc + 1):
            imgs = act_frames(family.stack, np.concatenate([beam_a, beam_b]))
            imgs = imgs.reshape(family.size, 2, -1, *imgs.shape[1:])
            imgs_a = imgs[:, 0].reshape(-1, *imgs.shape[3:])
            imgs_b = imgs[:, 1].reshape(-1, *imgs.shape[3:])
            dists = grass_distance(imgs_a, imgs_b)
            total += float(np.max(dists))
            if imgs_a.shape[0] > beam_width:
                keep = np.argsort(-dists, kind="stable")[:beam_width]
                imgs_a, imgs_b = imgs_a[keep], imgs_b[keep]
            beam_a, beam_b = imgs_a, imgs_b
        out.append(total)
    return np.array(out)


def brute_force_strictly_invariant(family, cone) -> tuple[bool, float]:
    """``strictly_invariant`` as one unpruned sweep: the images of every
    center and boundary probe under every member, searched in one call for
    the worst nearest-center distance, and for a sampled curve the largest
    distance between the images of one probe under adjacent members.  The
    chart test passes where some center is within pi/2 - r of every center."""
    frames = cone.frames
    probes = sweep_points_oracle(frames, cone.radius)
    images = act_frames(family.stack, probes)
    worst = worst_nearest_angle(images, frames)
    spread = 0.0
    if family.source.kind == "sampled_curve":
        per_member = images.reshape(-1, *probes.shape)
        for prev, cur in zip(per_member, per_member[1:]):
            spread = max(spread, float(np.max(grass_distance(prev, cur))))
    margin = cone.radius - worst - spread
    reach = frame_stack_distances(frames, frames).max(axis=1)
    return margin > 0.0 and bool(np.any(reach + cone.radius < math.pi / 2)), margin


def cone_csv_rows_oracle(frames: np.ndarray) -> list[list]:
    """``ConeSample.csv_rows`` entry by entry: each numpy entry converted
    by ``float`` and written by ``repr``."""
    rows = []
    for idx, frame in enumerate(frames):
        for col in range(frame.shape[1]):
            rows.append([idx, col] + [repr(float(x)) for x in frame[:, col]])
    return rows


def family_matrix_oracle(t: float, lam: float) -> np.ndarray:
    """The two-curve map at one parameter, each lifted plane built alone."""
    from domsplit import example4d

    frames = []
    for which in (example4d.FIRST, example4d.SECOND):
        v = example4d.tangent(which, t)
        direction = v / float(np.linalg.norm(v)) + np.array([0.0, 0.0, 1.0])
        direction = direction / np.linalg.norm(direction)
        b = np.append(example4d.gamma(which, t), 1.0)
        frames.append(Plane.from_spanning(np.column_stack([b, np.append(direction, 0.0)])).frame)
    basis = np.hstack(frames)
    return basis @ np.diag([lam, lam, 1.0 / lam, 1.0 / lam]) @ np.linalg.inv(basis)
