"""Planes, the group action, metric properties, cones, and line traces."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    brute_force_worst_nearest_angle,
    cone_csv_rows_oracle,
    grass_distance_oracle,
    line_trace_oracle,
    random_invertible,
    random_orthogonal,
    transverse_pairs_oracle,
)

from domsplit import grassmann
from domsplit.grassmann import ConeSample, Plane


def e(i, d=4):
    v = np.zeros(d)
    v[i] = 1.0
    return v


def test_plane_invariants():
    P = Plane.span(e(0), e(1))
    assert P.dim == 2 and P.ambient_dim == 4
    C = P.frame @ P.frame.T  # the projection-matrix representative
    assert np.allclose(C, C.T, atol=1e-12)
    assert np.allclose(C @ C, C, atol=1e-10)
    assert np.trace(C) == pytest.approx(2.0)


def test_plane_rejects_bad_frames():
    with pytest.raises(ValueError):
        Plane(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        Plane.from_spanning(np.column_stack([e(0), e(0)]))
    with pytest.raises(ValueError, match="orthonormal"):
        Plane(np.full((3, 2), np.nan))


def act(M, E: Plane) -> np.ndarray:
    """The frame of the image of one plane under one matrix."""
    return grassmann.act_frames(np.asarray(M, dtype=float)[None], E.frame[None])[0]


def test_act_examples():
    E = Plane.span([0.0, 1.0, 0.0])
    out = act(np.diag([2.0, 1.0, 1.0]), E)
    assert grassmann.grass_distance(out, E) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(1)
    F = Plane.from_spanning(rng.normal(size=(4, 2)))
    assert grassmann.grass_distance(act(np.eye(4), F), F) < 1e-12


def test_act_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        M = random_invertible(4, rng)
        E = Plane.from_spanning(rng.normal(size=(4, 2)))
        back = act(M, Plane(act(np.linalg.inv(M), E)))
        assert grassmann.grass_distance(back, E) <= 1e-10


def test_act_is_group_action():
    rng = np.random.default_rng(3)
    for _ in range(100):
        M = random_invertible(3, rng)
        N = random_invertible(3, rng)
        E = Plane.from_spanning(rng.normal(size=(3, 2)))
        left = act(M @ N, E)
        right = act(M, Plane(act(N, E)))
        assert grassmann.grass_distance(left, right) <= 1e-10


def test_grass_distance_examples():
    E = Plane.span(e(0, 3), e(1, 3))
    F = Plane.span(e(0, 3), e(2, 3))
    assert grassmann.grass_distance(E, E) == 0.0
    assert grassmann.grass_distance(E, F) == pytest.approx(math.pi / 2)
    with pytest.raises(ValueError):
        grassmann.grass_distance(E, Plane.span(e(0, 3)))


def test_grass_distance_triangle_inequality():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        A, B, C = (Plane.from_spanning(rng.normal(size=(4, 2))) for _ in range(3))
        ab = grassmann.grass_distance(A, B)
        bc = grassmann.grass_distance(B, C)
        ac = grassmann.grass_distance(A, C)
        assert ac <= ab + bc + 1e-10


def test_grass_distance_orthogonal_invariance():
    rng = np.random.default_rng(5)
    for _ in range(100):
        Q = random_orthogonal(4, rng)
        A = Plane.from_spanning(rng.normal(size=(4, 2)))
        B = Plane.from_spanning(rng.normal(size=(4, 2)))
        d0 = grassmann.grass_distance(A, B)
        d1 = grassmann.grass_distance(act(Q, A), act(Q, B))
        assert d1 == pytest.approx(d0, abs=1e-10)


def test_pairwise_distances_matches_scalar():
    rng = np.random.default_rng(6)
    planes = [Plane.from_spanning(rng.normal(size=(4, 2))) for _ in range(6)]
    D = grassmann.pairwise_distances(planes, planes)
    for a in range(6):
        for b in range(6):
            assert D[a, b] == pytest.approx(
                grassmann.grass_distance(planes[a], planes[b]), abs=1e-7
            )


def _orthonormal_stack(raw: np.ndarray) -> np.ndarray:
    Q, _ = np.linalg.qr(raw)
    return Q


@st.composite
def frame_stacks(draw):
    """(A, B, block outputs) with A and B stacks of frames in G(i, d),
    i < d: random, clustered around B (1e-3 jitter) or exact duplicates of
    frames of B, and the kernels' ``BLOCK_OUTPUTS``: 1, for two-row blocks,
    or the default."""
    i = draw(st.sampled_from((1, 2, 3)))
    d = draw(st.integers(min_value=i + 1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=40))
    m = draw(st.integers(min_value=1, max_value=40))
    kind = draw(st.sampled_from(("random", "clustered", "duplicate")))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    B = _orthonormal_stack(rng.normal(size=(m, d, i)))
    if kind == "random":
        A = _orthonormal_stack(rng.normal(size=(n, d, i)))
    else:
        A = B[rng.integers(m, size=n)].copy()
        if kind == "clustered":
            A = _orthonormal_stack(A + 1e-3 * rng.normal(size=A.shape))
    return A, B, draw(st.sampled_from((1, grassmann.BLOCK_OUTPUTS)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(frame_stacks())
def test_worst_nearest_angle_matches_full_reduction(stacks):
    A, B, block_outputs = stacks
    default = grassmann.worst_nearest_angle(A, B), grassmann.sin_max_pairs(A, B)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grassmann, "BLOCK_OUTPUTS", block_outputs)
        got = grassmann.worst_nearest_angle(A, B)
        worst, upper = grassmann.nearest_angles(A, B)
        sines = grassmann.sin_max_pairs(A, B)
    # the row blocks change no bit of the sines, on every branch of the
    # kernel, and so none of the worst distance; the upper bounds, GEMMs
    # over d^2 entries, can round otherwise in a block's last rows and are
    # only held to bound
    assert worst == got == default[0]
    assert np.array_equal(sines, default[1])
    want = brute_force_worst_nearest_angle(A, B)
    assert abs(math.cos(got) - math.cos(want)) <= 1e-9
    assert abs(got - want) <= 2e-7
    # the per-row upper bounds from the same projection GEMM hold, up to
    # the rounding of s near zero
    nearest = np.array([brute_force_worst_nearest_angle(A[a : a + 1], B) for a in range(len(A))])
    assert np.all(upper >= nearest - 1e-7)


@pytest.mark.parametrize(
    "per_row", [1, grassmann.BLOCK_OUTPUTS // 300, grassmann.BLOCK_OUTPUTS // 3, grassmann.BLOCK_OUTPUTS]
)
@pytest.mark.parametrize("rows", [0, 1, 2, 3, 5, 301, 1_000])
def test_row_blocks_cover_rows_in_bounded_slices(rows, per_row):
    # the slices cover every row once, in order, each of size to
    # 2 size - 1 rows (fewer only when all rows fit in one), so a block
    # holds at most about BLOCK_OUTPUTS outputs and is never a lone row
    # among several
    size = max(2, grassmann.BLOCK_OUTPUTS // per_row)
    blocks = grassmann._row_blocks(rows, per_row)
    assert np.array_equal(np.concatenate([np.arange(rows)[b] for b in blocks]), np.arange(rows))
    assert all(min(rows, size) <= b.stop - b.start <= 2 * size - 1 for b in blocks)


def test_frame_stack_distances_peak_memory_stays_near_its_result():
    # the kernel's temporaries are a few row blocks, not several (a, b)
    # arrays: 1,024 frames against themselves make an 8 MB result
    A = _orthonormal_stack(np.random.default_rng(9).normal(size=(1024, 4, 2)))
    tracemalloc.start()
    try:
        grassmann.frame_stack_distances(A, A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 1024 * 1024 * 8


def test_transverse_examples():
    E = Plane.span(e(0), e(1))
    F = Plane.span(e(2), e(3))
    ok, margin = grassmann.transverse(E, F)
    assert ok and margin == pytest.approx(1.0)
    G = Plane.span(e(1), e(2))
    ok, margin = grassmann.transverse(E, G)
    assert not ok and margin == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        grassmann.transverse(E, Plane.span(e(2)))


def test_transverse_margin_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(50):
        E = Plane.from_spanning(rng.normal(size=(4, 2)))
        F = Plane.from_spanning(rng.normal(size=(4, 2)))
        _, m1 = grassmann.transverse(E, F)
        _, m2 = grassmann.transverse(F, E)
        assert m1 == pytest.approx(m2, abs=1e-12)


def _trace(frames, radius, line):
    """Exact arcs of the balls of ``radius`` around a (n, d, i) frame stack
    on P(line)."""
    frames = np.asarray(frames, dtype=float)
    return grassmann.line_trace(grassmann.projectivize(ConeSample(frames.shape[2], frames, radius), line))


def _directions(angles, d=2):
    """(n, d, 1) frames of the directions at ``angles`` in span(e0, e1)."""
    frames = np.zeros((len(angles), d, 1))
    frames[:, 0, 0], frames[:, 1, 0] = np.cos(angles), np.sin(angles)
    return frames


def _circle_gap(a, b):
    """Distance between two angles on the projective circle, of length pi."""
    return abs((a - b + math.pi / 2) % math.pi - math.pi / 2)


def test_projectivize_single_direction():
    # the ball of radius r around e0 meets P(span(e0, e1)) in the angles
    # within r of 0: one arc across 0, which ends past pi
    line = Plane(np.eye(3)[:, :2])
    arcs = grassmann.projectivize(ConeSample(1, (Plane.span(e(0, 3)),), 0.1), line)
    assert arcs.shape == (1, 2)
    assert arcs[0] == pytest.approx([math.pi - 0.1, math.pi + 0.1], abs=1e-12)
    # a direction at angle r0 off the line, above angle phi of it: the angles
    # t with cos(r0) cos(t - phi) >= cos(r)
    r0, phi, r = 0.05, 1.0, 0.1
    tilted = np.array([math.cos(r0) * math.cos(phi), math.cos(r0) * math.sin(phi), math.sin(r0)])
    half = math.acos(math.cos(r) / math.cos(r0))
    arcs = grassmann.projectivize(ConeSample(1, (Plane.span(tilted),), r), line)
    assert arcs[0] == pytest.approx([phi - half, phi + half], abs=1e-12)
    assert grassmann.projectivize(ConeSample(1, (Plane.span(tilted),), 0.04), line).shape == (0, 2)


def test_projectivize_plane_containment():
    # a center that holds the line, a radius of pi/2 or more, and planes that
    # fill the space all give the whole circle
    line = Plane(np.eye(4)[:, :2])
    full = [(0.0, math.pi)]
    assert _trace([Plane.span(e(0), e(1)).frame], 0.01, line) == full
    far = Plane.span(e(2), e(3)).frame
    assert _trace([far], math.pi / 2 - 0.01, line) == []
    for radius in (math.pi / 2, 2.0, math.pi):
        assert _trace([far], radius, line) == full
    assert _trace([np.eye(4)], 0.1, line) == full
    assert _trace([np.eye(2)], 0.1, Plane(np.eye(2))) == full


def test_projectivize_rejects_bad_lines():
    cone = ConeSample(2, (Plane.span(e(0), e(1)),), 0.1)
    for line in (Plane.span(e(0)), Plane(np.eye(4)[:, :3])):
        with pytest.raises(ValueError, match="2-plane"):
            grassmann.projectivize(cone, line)
    with pytest.raises(ValueError, match="ambient dimension"):
        grassmann.projectivize(cone, Plane(np.eye(3)[:, :2]))


def test_projectivize_preserves_strict_invariance_margin():
    # contraction toward span(e1, e2) in G(2, 3) keeps the line span(e1, e3);
    # the cone meets that line in one arc around e1, and the map sends each
    # end of the arc inside it by at least the invariance margin
    from domsplit.multicone import strictly_invariant
    from domsplit.words import MatrixFamily

    A = np.diag([4.0, 2.0, 0.5])
    fam = MatrixFamily.from_matrices([A], ["A"])
    rng = np.random.default_rng(8)
    base = Plane.span(e(0, 3), e(1, 3))
    pts = [base]
    for _ in range(40):
        pert = base.frame + 0.05 * rng.normal(size=(3, 2))
        pts.append(Plane.from_spanning(pert))
    cone = ConeSample(2, tuple(pts), 0.25)
    ok, margin = strictly_invariant(fam, cone)
    assert ok and margin > 0
    arcs = grassmann.line_trace(grassmann.projectivize(cone, Plane(np.eye(3)[:, [0, 2]])))
    assert len(arcs) == 1
    start, end = arcs[0]
    assert start < math.pi < end
    for angle in (start, end):
        image = math.atan2(A[2, 2] * math.sin(angle), A[0, 0] * math.cos(angle)) % math.pi
        assert start < image < end or start < image + math.pi < end
        assert min(_circle_gap(image, start), _circle_gap(image, end)) >= margin


def test_line_trace_half_plane_cone():
    # balls of radius 0.1 around directions pi/16 apart, from -pi/4 to pi/4,
    # overlap into the one arc of angles within pi/4 + 0.1 of e0; at radius
    # 0.09 they stay nine arcs
    centers = _directions(np.linspace(-math.pi / 4, math.pi / 4, 9))
    arcs = _trace(centers, 0.1, Plane(np.eye(2)))
    assert len(arcs) == 1
    assert arcs[0] == pytest.approx((0.75 * math.pi - 0.1, 1.25 * math.pi + 0.1), abs=1e-12)
    assert len(_trace(centers, 0.09, Plane(np.eye(2)))) == 9


def test_line_trace_empty():
    line = Plane(np.eye(3)[:, :2])
    assert grassmann.line_trace(np.empty((0, 2))) == []
    # a ball that does not reach the line
    assert _trace([e(2, 3)[:, None]], 0.5, line) == []


def test_line_trace_two_arcs_and_wrap():
    # two bundles of directions, one across angle 0 = pi
    centers = _directions(np.concatenate([np.linspace(-0.1, 0.1, 5), np.linspace(1.0, 1.2, 5)]))
    arcs = _trace(centers, 0.03, Plane(np.eye(2)))
    assert arcs == [
        pytest.approx((0.97, 1.23), abs=1e-12),
        pytest.approx((math.pi - 0.13, math.pi + 0.13), abs=1e-12),
    ]
    # the arc across 0 takes in every arc it reaches past pi
    assert grassmann.line_trace([(0.1, 0.2), (0.5, 0.6), (3.0, 3.3)]) == [(0.5, 0.6), (3.0, math.pi + 0.2)]
    assert grassmann.line_trace([(0.1, 0.2), (0.15, 0.7), (2.5, 3.3)]) == [(2.5, math.pi + 0.7)]
    # touching arcs merge, and arcs that cover the circle give [(0, pi)]
    assert grassmann.line_trace([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]) == [(0.0, 3.0)]
    assert grassmann.line_trace([(2.0, 3.0), (0.0, 1.0), (1.0, 2.0), (3.0, math.pi)]) == [(0.0, math.pi)]
    assert grassmann.line_trace([(0.5, 2.0), (1.9, 3.7)]) == [(0.0, math.pi)]


def test_cone_sample_serialization_round_trip():
    rng = np.random.default_rng(10)
    pts = tuple(Plane.from_spanning(rng.normal(size=(4, 2))) for _ in range(3))
    cone = ConeSample(2, pts, 0.25)
    back = ConeSample.from_json_dict(cone.to_json_dict())
    assert back.radius == cone.radius
    for p, q in zip(cone.points, back.points):
        assert grassmann.grass_distance(p, q) < 1e-12
    rows = cone.csv_rows()
    assert len(rows) == 6  # two columns per 2-plane


def test_cone_sample_from_planes_equals_stack():
    rng = np.random.default_rng(12)
    planes = tuple(Plane.from_spanning(rng.normal(size=(4, 2))) for _ in range(5))
    stack = np.stack([p.frame for p in planes])
    a = ConeSample(2, planes, 0.2)
    b = ConeSample(2, stack, 0.2)
    assert np.array_equal(a.frames, b.frames)
    assert a.frames.shape == (5, 4, 2)
    assert a.to_json_dict() == b.to_json_dict()
    assert a.csv_rows() == b.csv_rows()
    assert all(np.array_equal(p.frame, q.frame) for p, q in zip(a.points, planes))
    # the sample owns a read-only copy of its frames
    assert not b.frames.flags.writeable
    stack[0] = 0.0
    assert np.array_equal(b.frames, a.frames)
    back = ConeSample.from_json_dict(json.loads(json.dumps(b.to_json_dict())))
    assert np.array_equal(back.frames, a.frames)


@pytest.mark.parametrize("n", [0, 1, 300])
@pytest.mark.parametrize("i, d", [(i, d) for i in (1, 2, 3) for d in range(i + 1, 6)])
def test_cone_csv_rows_match_per_entry_loop(i, d, n):
    # n = 0 is the empty cone, whose frames are a (0, 0, i) stack
    rng = np.random.default_rng(100 * i + 10 * d + n)
    cone = ConeSample(i, grassmann.orthonormal_frames(rng.normal(size=(n, d, i))), 0.1)
    rows = cone.csv_rows()
    assert len(rows) == n * i
    assert rows == cone_csv_rows_oracle(cone.frames)


def test_cone_sample_rejects_bad_stacks():
    rng = np.random.default_rng(13)
    stack = np.stack([Plane.from_spanning(rng.normal(size=(3, 2))).frame for _ in range(4)])
    bad = stack.copy()
    bad[2, :, 1] *= 1.01
    with pytest.raises(ValueError, match="orthonormal"):
        ConeSample(2, bad, 0.1)
    with pytest.raises(ValueError, match="orthonormal"):
        ConeSample.from_json_dict({"grass_index": 2, "radius": 0.1, "frames": np.full((2, 3, 2), np.nan).tolist()})
    with pytest.raises(ValueError, match="non-negative"):
        ConeSample(2, stack, math.nan)
    with pytest.raises(ValueError, match="dimension grass_index"):
        ConeSample(1, stack, 0.1)
    with pytest.raises(ValueError, match="dimension grass_index"):
        ConeSample(2, stack[:, :, 0], 0.1)
    # mixed dimensions and mixed ambient dimensions
    with pytest.raises(ValueError):
        ConeSample(2, (Plane.span(e(0, 3), e(1, 3)), Plane.span(e(0, 3))), 0.1)
    with pytest.raises(ValueError):
        ConeSample(1, (Plane.span(e(0, 3)), Plane.span(e(0, 4))), 0.1)
    # frames wider than tall
    with pytest.raises(ValueError, match="orthonormal"):
        ConeSample(2, np.ones((1, 1, 2)) / math.sqrt(2.0), 0.1)
    with pytest.raises(ValueError):
        ConeSample(2, stack, -0.1)


def test_cone_sample_empty():
    cone = ConeSample(2, (), 0.3)
    assert cone.frames.shape == (0, 0, 2)
    assert cone.points == () and cone.csv_rows() == []
    assert cone.to_json_dict() == {"grass_index": 2, "radius": 0.3, "frames": []}
    assert ConeSample.from_json_dict(cone.to_json_dict()).frames.shape == (0, 0, 2)
    arcs = grassmann.projectivize(cone, Plane(np.eye(4)[:, :2]))
    assert arcs.shape == (0, 2) and grassmann.line_trace(arcs) == []


@pytest.mark.parametrize(
    "index,dim", [(i, d) for i in (1, 2, 3) for d in range(2, 6) if d >= i]
)
def test_projectivize_matches_per_direction_loop(index, dim):
    # the exact arcs against a membership test of 100,003 directions: the
    # same arcs, each end within one grid step.  Each center holds a
    # direction of the line tilted off it by up to twice the radius, so its
    # ball may reach the line or just miss it.
    rng = np.random.default_rng(100 * index + dim)
    for count in (1, 2, 3, 5, 8, 12):
        for radius in (0.01, 0.1, 0.5):
            line = Plane.from_spanning(rng.normal(size=(dim, 2)))
            t = rng.uniform(0.0, math.pi, count)
            tilt = rng.normal(size=(count, dim))
            tilt *= rng.uniform(0.0, 2.0 * radius, (count, 1)) / np.linalg.norm(tilt, axis=1, keepdims=True)
            held = np.column_stack([np.cos(t), np.sin(t)]) @ line.frame.T + tilt
            spans = np.concatenate([held[:, :, None], rng.normal(size=(count, dim, index - 1))], axis=2)
            frames = grassmann.orthonormal_frames(spans)
            arcs = _trace(frames, radius, line)
            want, step = line_trace_oracle(frames, radius, line)
            assert len(arcs) == len(want), (count, radius, arcs, want)
            for start, end in arcs:
                assert any(
                    _circle_gap(start, a) <= step + 1e-7 and _circle_gap(end, b) <= step + 1e-7
                    for a, b in want
                ), (count, radius, arcs, want)


def _aligned_pairs(index, dim, nudge):
    rng = np.random.default_rng(7 * index + dim)
    first = [Plane.from_spanning(rng.normal(size=(dim, index))) for _ in range(20)]
    if nudge is None:
        second = [Plane.from_spanning(rng.normal(size=(dim, index))) for _ in range(20)]
    else:
        second = [Plane.from_spanning(p.frame + nudge * rng.normal(size=(dim, index))) for p in first]
    got = grassmann.grass_distance(grassmann.frame_stack(first), grassmann.frame_stack(second))
    return got, np.array([grass_distance_oracle(p.frame, q.frame) for p, q in zip(first, second)])


_ALIGNED_CASES = [(1, 2), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5), (4, 4)]


# row-aligned stacks: row k of one against row k of the other
@pytest.mark.parametrize("index,dim", _ALIGNED_CASES)
def test_aligned_distances_match_grass_distance(index, dim):
    got, want = _aligned_pairs(index, dim, None)
    assert got.shape == (20,)
    assert np.allclose(got, want, rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("index,dim", _ALIGNED_CASES)
def test_aligned_distances_near_coincident(index, dim):
    # planes 1e-4 apart, where a cosine form would be least accurate; the
    # sine form keeps the angle's relative precision
    got, want = _aligned_pairs(index, dim, 1e-4)
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


@st.composite
def aligned_plane_pairs(draw):
    """(E, F) frame stacks in G(i, d), d <= 5 and 1 <= i <= d, with F random
    or each row of F a given distance (1e-4, 1e-7 or 1e-10) from E's."""
    d = draw(st.integers(min_value=1, max_value=5))
    i = draw(st.integers(min_value=1, max_value=d))
    n = draw(st.integers(min_value=1, max_value=8))
    apart = draw(st.sampled_from((None, 1e-4, 1e-7, 1e-10)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    E = _orthonormal_stack(rng.normal(size=(n, d, i)))
    if apart is None:
        return E, _orthonormal_stack(rng.normal(size=(n, d, i)))
    # turn each frame by about ``apart`` within a random 2-plane of R^d
    Q = _orthonormal_stack(rng.normal(size=(n, d, min(d, 2))))
    J = np.array([[0.0, -apart], [apart, 0.0]])[: Q.shape[2], : Q.shape[2]]
    return E, _orthonormal_stack((np.eye(d) + Q @ J @ np.swapaxes(Q, 1, 2)) @ E)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(aligned_plane_pairs())
def test_grass_distance_sine_matches_svd_oracle(pairs):
    E, F = pairs
    want = np.sin(grass_distance_oracle(E, F))
    assert np.allclose(np.sin(grassmann.grass_distance(E, F)), want, rtol=1e-14, atol=0.0)
    # broadcast: every row of E against every row of F
    want = np.sin(grass_distance_oracle(E[:, None], F[None]))
    assert np.allclose(np.sin(grassmann.grass_distance(E[:, None], F[None])), want, rtol=1e-14, atol=0.0)


@st.composite
def plane_stacks(draw, complementary: bool):
    """(A, B) stacks of frames in G(i, d) and G(i, d) or G(d - i, d): random,
    B clustered around frames of A (1e-3 jitter), or B sharing a column with
    a frame of A (not transverse)."""
    d = draw(st.integers(min_value=2, max_value=6))
    i = draw(st.integers(min_value=1, max_value=d - 1 if complementary else d))
    j = d - i if complementary else i
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=1, max_value=12))
    kind = draw(st.sampled_from(("random", "shared" if complementary else "clustered")))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    A = _orthonormal_stack(rng.normal(size=(n, d, i)))
    raw = rng.normal(size=(m, d, j))
    if kind == "clustered":
        raw = A[rng.integers(n, size=m)] + 1e-3 * raw
    elif kind == "shared":
        raw[:, :, 0] = A[rng.integers(n, size=m), :, 0]
    return A, _orthonormal_stack(raw)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(plane_stacks(complementary=False))
def test_grass_distance_stacks_match_per_pair_calls(stacks):
    A, B = stacks
    want = np.array([[grassmann.grass_distance(Plane(a), Plane(b)) for b in B] for a in A])
    assert np.array_equal(grassmann.grass_distance(A[:, None], B[None]), want)
    k = min(len(A), len(B))
    assert np.array_equal(grassmann.grass_distance(A[:k], B[:k]), want[np.arange(k), np.arange(k)])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(plane_stacks(complementary=False))
def test_frame_stack_distances_match_grass_distance(stacks):
    # every (d, i) with d <= 6: the 1- and 2-column closed forms on the
    # planes or on their complements, i = d, and the SVD path at d = 6, i = 3
    A, B = stacks
    want = grass_distance_oracle(A[:, None], B[None])
    got = grassmann.frame_stack_distances(A, B)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 2e-7


@pytest.mark.parametrize("gap", [1e-12, 1e-9, 1e-6])
def test_near_coincident_distances_keep_full_precision(gap):
    # planes gap apart, for every (d, i) with d <= 6: the all-pairs distance
    # and, for i < d, the nearest-point search read them as the row-aligned
    # sine form does, where an arccos of the cosine reads 0 or 1.49e-8 at
    # 1e-12
    rng = np.random.default_rng(23)
    for d in range(2, 7):
        for i in range(1, d + 1):
            A = _orthonormal_stack(rng.normal(size=(4, d, i)))
            B = A.copy()
            if i < d:
                perp = grassmann.complement_frames(A)[:, :, 0]
                B[:, :, 0] = math.cos(gap) * A[:, :, 0] + math.sin(gap) * perp
            want = grassmann.grass_distance(A, B)
            got = np.diagonal(grassmann.frame_stack_distances(A, B))
            assert np.max(np.abs(got - want)) <= 1e-13, (d, i)
            if i < d:
                assert abs(grassmann.worst_nearest_angle(B, A) - np.max(want)) <= 1e-13, (d, i)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(plane_stacks(complementary=True))
def test_transverse_stacks_match_per_pair_loop(stacks):
    A, B = stacks
    ok, margin = grassmann.transverse(A[:, None], B)
    want_ok, want_margin = transverse_pairs_oracle(A, B)
    assert np.array_equal(ok, want_ok) and np.array_equal(margin, want_margin)
    single_ok, single_margin = grassmann.transverse(Plane(A[0]), Plane(B[0]))
    assert single_ok is bool(want_ok[0, 0]) and single_margin == want_margin[0, 0]
