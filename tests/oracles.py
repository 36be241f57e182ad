"""Independent oracle implementations used only by tests.

These deliberately avoid the production code paths: compound matrices are
assembled entry by entry from explicit minor index lists, derivatives come
from central differences, and word-product maxima come from exhaustive
enumeration with plainly formed products.  The two invariance-check
references are the exception: they are the full, unpruned reductions the
production code replaced, built on the same closed form and image map, so
they pin the restructuring and not the per-pair arithmetic.  The component
references are the pair-by-pair loops the single-linkage tree replaced.
"""

from __future__ import annotations

import itertools

import numpy as np

from domsplit.grassmann import min_cos_pairs, min_cos_principal
from domsplit.multicone import _batched_act


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


def central_difference(f, t: float, h: float = 1e-6) -> np.ndarray:
    return (np.asarray(f(t + h)) - np.asarray(f(t - h))) / (2.0 * h)


def word_product(family, word) -> np.ndarray:
    """Plain left-to-right product of a word's members; only safe for short
    words."""
    P = np.eye(family.dim)
    for j in word:
        P = P @ family.matrix(int(j))
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


def brute_force_worst_nearest_angle(A: np.ndarray, B: np.ndarray) -> float:
    """Max over frames of A of the distance to the nearest frame of B, from
    the full cosine matrix of every pair."""
    cos = min_cos_pairs(A, B)
    return float(np.arccos(np.clip(np.min(cos.max(axis=1)), 0.0, 1.0)))


def curve_spread_oracle(family, probes: np.ndarray) -> float:
    """Max distance between the images of one probe under adjacent members
    of a sampled curve (zero for explicit families), acting on every probe
    once per member in a loop of its own."""
    if family.source.kind != "sampled_curve" or family.size < 2:
        return 0.0
    worst = 0.0
    prev = _batched_act(family.matrix(0)[None], probes)
    for j in range(1, family.size):
        cur = _batched_act(family.matrix(j)[None], probes)
        grams = np.einsum("adi,adj->aij", prev, cur)
        cos = min_cos_principal(grams)
        worst = max(worst, float(np.max(np.arccos(np.clip(cos, 0.0, 1.0)))))
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
