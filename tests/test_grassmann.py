"""Planes, the group action, metric properties, cones, and line traces."""

import json
import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    brute_force_worst_nearest_angle,
    projectivize_oracle,
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
    C = P.canonical
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


def test_act_examples():
    E = Plane.span([0.0, 1.0, 0.0])
    out = grassmann.act(np.diag([2.0, 1.0, 1.0]), E)
    assert grassmann.grass_distance(out, E) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(1)
    F = Plane.from_spanning(rng.normal(size=(4, 2)))
    assert grassmann.grass_distance(grassmann.act(np.eye(4), F), F) < 1e-12


def test_act_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        M = random_invertible(4, rng)
        E = Plane.from_spanning(rng.normal(size=(4, 2)))
        back = grassmann.act(M, grassmann.act(np.linalg.inv(M), E))
        assert grassmann.grass_distance(back, E) <= 1e-10


def test_act_is_group_action():
    rng = np.random.default_rng(3)
    for _ in range(100):
        M = random_invertible(3, rng)
        N = random_invertible(3, rng)
        E = Plane.from_spanning(rng.normal(size=(3, 2)))
        left = grassmann.act(M @ N, E)
        right = grassmann.act(M, grassmann.act(N, E))
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
        d1 = grassmann.grass_distance(grassmann.act(Q, A), grassmann.act(Q, B))
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
    """(A, B) stacks of frames in G(i, d): random, clustered around B
    (1e-3 jitter) or exact duplicates of frames of B."""
    i = draw(st.sampled_from((1, 2, 3)))
    d = draw(st.integers(min_value=max(2, i), max_value=5))
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
    return A, B


@settings(derandomize=True, max_examples=300, deadline=None)
@given(frame_stacks())
def test_worst_nearest_angle_matches_full_reduction(stacks):
    A, B = stacks
    got = grassmann.worst_nearest_angle(A, B)
    want = brute_force_worst_nearest_angle(A, B)
    assert abs(math.cos(got) - math.cos(want)) <= 1e-9
    assert abs(got - want) <= 2e-7
    # the per-row upper bounds from the same projection GEMM hold, up to
    # the rounding of s near zero
    worst, upper = grassmann.nearest_angles(A, B)
    assert worst == got
    nearest = np.array([brute_force_worst_nearest_angle(A[a : a + 1], B) for a in range(len(A))])
    assert np.all(upper >= nearest - 1e-7)


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


def test_projectivize_single_direction():
    cone = ConeSample(1, (Plane.span(e(0)),), 0.1)
    out = grassmann.projectivize(cone, resolution=32)
    assert len(out.points) == 1
    assert grassmann.grass_distance(out.points[0], Plane.span(e(0))) < 1e-12
    assert out.radius == cone.radius


def test_projectivize_plane_containment():
    cone = ConeSample(2, (Plane.span(e(0), e(1)),), 0.0)
    out = grassmann.projectivize(cone, resolution=64)
    assert len(out.points) == 64
    for p in out.points:
        v = p.frame[:, 0]
        assert abs(v[2]) < 1e-12 and abs(v[3]) < 1e-12


def test_projectivize_preserves_strict_invariance_margin():
    # contraction toward span(e1, e2) in G(2, 3) projectivizes to contraction
    # toward the corresponding direction set, up to the sampling resolution
    from domsplit.multicone import strictly_invariant
    from domsplit.words import MatrixFamily

    fam = MatrixFamily.from_matrices([np.diag([4.0, 2.0, 0.5])], ["A"])
    rng = np.random.default_rng(8)
    base = Plane.span(e(0, 3), e(1, 3))
    pts = [base]
    for _ in range(40):
        pert = base.frame + 0.05 * rng.normal(size=(3, 2))
        pts.append(Plane.from_spanning(pert))
    cone = ConeSample(2, tuple(pts), 0.25)
    ok, margin = strictly_invariant(fam, cone)
    assert ok and margin > 0
    resolution = 128
    proj = grassmann.projectivize(cone, resolution=resolution)
    ok_p, margin_p = strictly_invariant(fam, proj)
    assert ok_p
    sampling_slack = math.pi / resolution
    assert margin_p >= margin - sampling_slack


def test_line_trace_half_plane_cone():
    # directions within pi/4 of e1 in the plane: one arc
    angles = np.linspace(-math.pi / 4, math.pi / 4, 41)
    pts = tuple(Plane.span(np.array([math.cos(a), math.sin(a)])) for a in angles)
    cone = ConeSample(1, pts, 0.0)
    line = Plane(np.eye(2))
    arcs = grassmann.line_trace(line, cone, arc_resolution=90)
    assert len(arcs) == 1


def test_line_trace_empty():
    line = Plane(np.eye(2))
    assert grassmann.line_trace(line, ConeSample(1, (), 0.0), 90) == []


def test_line_trace_two_arcs_and_wrap():
    # two separated bundles of directions, one of them hugging angle 0 = pi
    pts = []
    for a in list(np.linspace(-0.1, 0.1, 11)) + list(np.linspace(1.0, 1.2, 11)):
        pts.append(Plane.span(np.array([math.cos(a), math.sin(a)])))
    cone = ConeSample(1, tuple(pts), 0.0)
    arcs = grassmann.line_trace(Plane(np.eye(2)), cone, arc_resolution=180)
    assert len(arcs) == 2
    # off-plane directions do not pollute the trace
    far = ConeSample(1, (Plane.span(np.array([0.0, 0.0, 1.0])),), 0.0)
    line3 = Plane(np.eye(3)[:, :2])
    assert grassmann.line_trace(line3, far, 180) == []


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
    assert a.frames.shape == (5, 4, 2) and a.ambient_dim == 4
    assert a.to_json_dict() == b.to_json_dict()
    assert a.csv_rows() == b.csv_rows()
    assert all(np.array_equal(p.frame, q.frame) for p, q in zip(a.points, planes))
    # the sample owns a read-only copy of its frames
    assert not b.frames.flags.writeable
    stack[0] = 0.0
    assert np.array_equal(b.frames, a.frames)
    back = ConeSample.from_json_dict(json.loads(json.dumps(b.to_json_dict())))
    assert np.array_equal(back.frames, a.frames)


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
    assert cone.points == () and cone.ambient_dim is None and cone.csv_rows() == []
    assert cone.to_json_dict() == {"grass_index": 2, "radius": 0.3, "frames": []}
    assert ConeSample.from_json_dict(cone.to_json_dict()).frames.shape == (0, 0, 2)
    out = grassmann.projectivize(cone, 8)
    assert out.grass_index == 1 and len(out.frames) == 0 and out.radius == 0.3


@pytest.mark.parametrize(
    "index,dim", [(i, d) for i in (1, 2, 3) for d in range(2, 6) if d >= i]
)
def test_projectivize_matches_per_direction_loop(index, dim):
    rng = np.random.default_rng(100 * index + dim)
    planes = tuple(Plane.from_spanning(rng.normal(size=(dim, index))) for _ in range(6))
    for resolution in (1, 7, 16):
        out = grassmann.projectivize(ConeSample(index, planes, 0.1), resolution)
        want = np.stack(projectivize_oracle(planes, resolution))
        assert out.frames.shape == want.shape
        assert np.array_equal(out.frames, want)


def _aligned_pairs(index, dim, nudge):
    rng = np.random.default_rng(7 * index + dim)
    first = [Plane.from_spanning(rng.normal(size=(dim, index))) for _ in range(20)]
    if nudge is None:
        second = [Plane.from_spanning(rng.normal(size=(dim, index))) for _ in range(20)]
    else:
        second = [Plane.from_spanning(p.frame + nudge * rng.normal(size=(dim, index))) for p in first]
    got = grassmann.aligned_distances(grassmann.frame_stack(first), grassmann.frame_stack(second))
    return got, np.array([grassmann.grass_distance(p, q) for p, q in zip(first, second)])


_ALIGNED_CASES = [(1, 2), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5), (4, 4)]


@pytest.mark.parametrize("index,dim", _ALIGNED_CASES)
def test_aligned_distances_match_grass_distance(index, dim):
    got, want = _aligned_pairs(index, dim, None)
    assert got.shape == (20,)
    assert np.allclose(got, want, rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("index,dim", _ALIGNED_CASES)
def test_aligned_distances_near_coincident(index, dim):
    # planes 1e-4 apart, where the cosine form is least accurate
    got, want = _aligned_pairs(index, dim, 1e-4)
    assert np.allclose(got, want, rtol=0.0, atol=1e-7)


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
    want = np.array([[grassmann.grass_distance(Plane(a), Plane(b)) for b in B] for a in A])
    got = grassmann.frame_stack_distances(A, B)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 2e-7


@settings(derandomize=True, max_examples=200, deadline=None)
@given(plane_stacks(complementary=True))
def test_transverse_stacks_match_per_pair_loop(stacks):
    A, B = stacks
    ok, margin = grassmann.transverse(A[:, None], B)
    want_ok, want_margin = transverse_pairs_oracle(A, B)
    assert np.array_equal(ok, want_ok) and np.array_equal(margin, want_margin)
    single_ok, single_margin = grassmann.transverse(Plane(A[0]), Plane(B[0]))
    assert single_ok is bool(want_ok[0, 0]) and single_margin == want_margin[0, 0]
