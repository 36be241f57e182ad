"""Invariance margins, attractors, multicone construction."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import conjugated_diagonal_family, interleaved_family, rotation2
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    adapted_metric_oracle,
    attractor_oracle,
    ball_probes_oracle,
    brute_force_strictly_invariant,
    brute_force_worst_nearest_angle,
    component_gap_oracle,
    curve_spread_oracle,
    diagonal_projective_angles,
    line_trace_oracle,
    random_orthogonal,
    scaled_word_product_oracle,
    sweep_points_oracle,
    union_find_components,
)

from domsplit import grassmann, multicone, words
from domsplit.example4d import axis_plane
from domsplit.errors import MulticoneConstructionError
from domsplit.grassmann import (
    ConeSample,
    Plane,
    act,
    act_frames,
    complement_frames,
    frame_stack,
    frame_stack_distances,
    grass_distance,
    line_trace,
    orthonormal_frames,
    projectivize,
    transverse,
)
from domsplit.multicone import (
    ATTRACTOR_WORD_LEN,
    ATTRACTOR_WORDS,
    MAX_ATTRACTOR_WORDS,
    adapted_metric,
    attractor,
    build_multicone,
    strictly_invariant,
)
from domsplit.words import MatrixFamily


def direction(theta):
    return Plane.span(np.array([math.cos(theta), math.sin(theta)]))


@pytest.fixture(scope="module")
def diag21():
    return MatrixFamily.from_matrices([np.diag([2.0, 1.0])], ["A"])


def test_strictly_invariant_contracting_ball(diag21):
    # one projective step of diag(2,1) sends the direction at angle t to the
    # direction at angle atan(tan(t)/2); the worst ball probe sits at angle
    # 0.3 + 0.3 and its image must re-enter the sampled ball with margin
    angles = np.linspace(-0.3, 0.3, 25)
    spacing = 0.6 / 24
    pts = tuple(direction(t) for t in angles)
    ok, margin = strictly_invariant(diag21, ConeSample(1, pts, 0.3))
    assert ok and margin > 0
    worst_probe_image = math.atan(math.tan(0.6) / 2.0)
    excess = worst_probe_image - 0.3  # beyond the outermost center
    assert excess > 0
    assert margin >= 0.3 - excess - spacing
    assert margin <= 0.3 - excess + spacing


def test_strictly_invariant_rotation_fails():
    fam = MatrixFamily.from_matrices([rotation2(1.0)], ["R"])
    pts = tuple(direction(t) for t in np.linspace(-0.3, 0.3, 25))
    ok, margin = strictly_invariant(fam, ConeSample(1, pts, 0.3))
    assert not ok and margin < 0


def test_strictly_invariant_chart_test_rule(diag21):
    # the whole projective circle: every center has another pi/2 away, so
    # no center's chart holds the cone and it is never strictly invariant
    pts = tuple(direction(t) for t in np.linspace(0.0, math.pi, 60, endpoint=False))
    ok, margin = strictly_invariant(diag21, ConeSample(1, pts, 0.2))
    assert not ok
    assert margin > 0  # arithmetic margin alone would have passed


def test_strictly_invariant_spread_allowance_only_for_curves():
    # same members, explicit vs sampled-curve source: margin differs by spread
    mats = [rotation2(0.02 * j) @ np.diag([4.0, 1.0]) @ rotation2(-0.02 * j) for j in range(3)]
    explicit = MatrixFamily.from_matrices(mats, ["A", "B", "C"])
    sampled = MatrixFamily.from_matrices(
        mats, ["A", "B", "C"], words.FamilySource(kind="sampled_curve", description="t", sample_count=3)
    )
    pts = tuple(direction(t) for t in np.linspace(-0.25, 0.29, 31))
    cone = ConeSample(1, pts, 0.32)
    ok_e, margin_e = strictly_invariant(explicit, cone)
    ok_s, margin_s = strictly_invariant(sampled, cone)
    assert ok_e and ok_s
    assert margin_s < margin_e


# a block of 1 output gives two-row blocks; 5,000,000 outputs put every row
# of this small case in one block, as the default does
@pytest.mark.parametrize("block_outputs", [1, 2_000, 5_000_000])
@pytest.mark.parametrize("dim, index", [(2, 1), (4, 2)])
def test_strictly_invariant_spread_matches_standalone_loop(monkeypatch, block_outputs, dim, index):
    # the spread taken from the member images inside the sweep equals the
    # standalone adjacent-member loop exactly, whatever the kernels' row
    # blocks; an explicit family with the same members gets no spread
    rng = np.random.default_rng(5)
    base = np.diag(np.geomspace(4.0, 1.0, dim))
    gen = rng.normal(size=(dim, dim))
    gen = 0.05 * (gen - gen.T)
    mats = [np.linalg.matrix_power(expm(gen), j) @ base for j in range(7)]
    labels = tuple(f"M{j}" for j in range(7))
    explicit = MatrixFamily.from_matrices(mats, list(labels))
    sampled = MatrixFamily.from_matrices(
        mats, list(labels), words.FamilySource(kind="sampled_curve", description="t", sample_count=7)
    )
    top = Plane.from_spanning(np.eye(dim)[:, :index])
    pts = (top,) + tuple(
        Plane.from_spanning(top.frame + 0.1 * rng.normal(size=(dim, index))) for _ in range(12)
    )
    cone = ConeSample(index, pts, 0.3)
    monkeypatch.setattr(grassmann, "BLOCK_OUTPUTS", block_outputs)
    _, margin_e = strictly_invariant(explicit, cone)
    _, margin_s = strictly_invariant(sampled, cone)

    frames = frame_stack(pts)
    probes = sweep_points_oracle(frames, cone.radius)
    images = act_frames(np.stack(mats), probes)
    worst = brute_force_worst_nearest_angle(images, frames)
    spread = curve_spread_oracle(sampled, probes)
    assert spread > 0.0 and curve_spread_oracle(explicit, probes) == 0.0
    assert margin_e == pytest.approx(cone.radius - worst, abs=1e-12)
    assert margin_s == margin_e - spread


@st.composite
def invariance_cases(draw):
    """(family, cone, block size) for the pruned sweep against the unpruned
    one.

    Planes are i-planes of R^d with 2 <= d <= 5 and i <= d (so i = d too);
    d = 1 has its own test below.  Members are a
    slowly rotating curve of one dominated diagonal map (one member at the
    least), optionally with one member that nearly collapses a random
    direction, so that ``beta tan r >= 1`` leaves some pairs with no growth
    bound; the source is explicit or a sampled curve.  Centers
    jitter around the top coordinate plane (none: all equal), the radius is
    zero or positive, and the all-pairs kernels run in row blocks of the
    default size (``grassmann.BLOCK_OUTPUTS``) or of two rows.
    """
    i = draw(st.sampled_from((1, 2, 3)))
    d = draw(st.integers(min_value=max(i, 2), max_value=5))
    members = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=12))
    curve = draw(st.booleans())
    radius = draw(st.sampled_from((0.0, 0.02, 0.15, 0.5)))
    jitter = draw(st.sampled_from((0.0, 0.05, 0.3)))
    collapse = draw(st.sampled_from((None, 1e-3)))
    block_outputs = draw(st.sampled_from((1, grassmann.BLOCK_OUTPUTS)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    gen = rng.normal(size=(d, d))
    gen = 0.1 * (gen - gen.T)
    base = np.diag(np.geomspace(4.0, 1.0, d))
    mats = [expm(j * gen) @ base for j in range(members)]
    if collapse is not None:
        Q = random_orthogonal(d, rng)
        mats[rng.integers(members)] = mats[0] @ Q @ np.diag([collapse] + [1.0] * (d - 1)) @ Q.T
    labels = [f"M{j}" for j in range(members)]
    source = words.FamilySource(kind="sampled_curve" if curve else "explicit", sample_count=members)
    family = MatrixFamily.from_matrices(mats, labels, source)
    frames = np.linalg.qr(np.eye(d)[:, :i] + jitter * rng.normal(size=(n, d, i)))[0]
    return family, ConeSample(i, frames, radius), block_outputs


@settings(derandomize=True, max_examples=300, deadline=None)
@given(invariance_cases())
def test_strictly_invariant_matches_unpruned_sweep(case):
    # the pruned sweep gives the verdict and margin of evaluating every
    # probe, bit for bit, with the center pass computed inside or handed in
    family, cone, block_outputs = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grassmann, "BLOCK_OUTPUTS", block_outputs)
        want = brute_force_strictly_invariant(family, cone)
        assert strictly_invariant(family, cone) == want
        centers = multicone._center_pass(family, cone.frames)
        for radius in (0.0, cone.radius, 0.07):
            other = ConeSample(cone.grass_index, cone.frames, radius)
            assert strictly_invariant(family, other, centers) == brute_force_strictly_invariant(
                family, other
            )


def test_one_dimensional_family_fails_the_chart_test():
    # G(1, 1) is one point, so no sample is a proper part of it: the check
    # returns its margin and no pass, and does not raise
    fam = MatrixFamily.from_matrices([np.array([[2.0]]), np.array([[-0.5]])], ["A", "B"])
    ok, margin = strictly_invariant(fam, ConeSample(1, np.ones((1, 1, 1)), 0.1))
    assert not ok and margin == pytest.approx(0.1)
    assert multicone._center_pass(fam, np.ones((1, 1, 1))).chart == math.inf


@st.composite
def chart_clouds(draw):
    """(frames, radius, rng) of a cloud in G(i, d), d = 2..5 and i < d:
    random frames, or frames jittered about one to three cluster centers."""
    d = draw(st.integers(min_value=2, max_value=5))
    i = draw(st.integers(min_value=1, max_value=d - 1))
    n = draw(st.integers(min_value=1, max_value=12))
    clusters = draw(st.integers(min_value=0, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if clusters:
        centers = np.linalg.qr(rng.normal(size=(clusters, d, i)))[0]
        jitter = draw(st.sampled_from((0.0, 0.01, 0.1, 0.3)))
        raw = centers[rng.integers(clusters, size=n)] + jitter * rng.normal(size=(n, d, i))
    else:
        raw = rng.normal(size=(n, d, i))
    radius = draw(st.floats(min_value=0.0, max_value=math.pi / 2))
    return np.linalg.qr(raw)[0], radius, rng


@settings(derandomize=True, max_examples=300, deadline=None)
@given(chart_clouds())
def test_chart_test_proves_transversality(case):
    # wherever chart + r < pi/2, planes within r of any center, one geodesic
    # step of length <= r from it, are transverse to E_a^perp, with E_a the
    # center that sets the chart: the smallest singular value of the two
    # frames side by side is sqrt(1 - sin theta_max(P, E_a)), and
    # theta_max(P, E_a) <= r + chart
    frames, radius, rng = case
    n, d, i = frames.shape
    reach = frame_stack_distances(frames, frames).max(axis=1)
    a = int(np.argmin(reach))
    chart = multicone._center_pass(MatrixFamily.from_matrices([np.eye(d)]), frames).chart
    assert chart == reach[a]
    if not chart + radius < math.pi / 2:
        return
    # the step from center k along E_k^perp W, W = U diag(s) V^T, turns
    # E_k V by the angles t s / max(s), t <= radius; columns past the rank
    # of W stay put
    perp = complement_frames(frames)
    k = rng.integers(n, size=64)
    U, s, Vt = np.linalg.svd(rng.normal(size=(64, d - i, i)))
    angles = np.zeros((64, i))
    angles[:, : len(s[0])] = radius * rng.random((64, 1)) * s / s[:, :1]
    U = np.concatenate([U, np.zeros((64, d - i, max(0, 2 * i - d)))], axis=2)[:, :, :i]
    planes = np.matmul(frames[k], np.swapaxes(Vt, 1, 2)) * np.cos(angles)[:, None]
    planes += np.matmul(perp[k], U) * np.sin(angles)[:, None]
    assert np.max(grass_distance(planes, frames[k])) <= radius + 1e-12
    ok, margin = transverse(planes, perp[a])
    assert np.all(ok)
    assert np.min(margin) >= math.sqrt(1.0 - math.sin(chart + radius)) - 1e-7


def test_strictly_invariant_rejects_another_cones_pass(diag21):
    pts = tuple(direction(t) for t in np.linspace(-0.3, 0.3, 5))
    centers = multicone._center_pass(diag21, frame_stack(pts))
    with pytest.raises(ValueError, match="another family or cone sample"):
        strictly_invariant(diag21, ConeSample(1, pts[:4], 0.1), centers)
    with pytest.raises(ValueError, match="another family or cone sample"):
        strictly_invariant(diag21.inverse(), ConeSample(1, pts, 0.1), centers)


def test_center_pass_runs_once_per_build(monkeypatch, dominated_suite):
    # a build makes one center pass, searches its radius on it, and makes
    # one invariance call at that radius (counted on the ten dominated suite
    # families, the multicone benchmark's families at seed 0)
    passes = []
    calls = []
    center_pass = multicone._center_pass
    check = multicone.strictly_invariant

    def counting_pass(*args):
        passes[-1] += 1
        return center_pass(*args)

    def counting_check(*args):
        calls[-1] += 1
        return check(*args)

    monkeypatch.setattr(multicone, "_center_pass", counting_pass)
    monkeypatch.setattr(multicone, "strictly_invariant", counting_check)
    for case in dominated_suite:
        passes.append(0)
        calls.append(0)
        build_multicone(case.family, case.index)
    assert passes == [1] * 10
    assert calls == [1] * 10


def _center_complements(frames: np.ndarray) -> np.ndarray:
    identity = MatrixFamily.from_matrices([np.eye(frames.shape[1])], ["I"])
    return multicone._center_pass(identity, frames).complements


@pytest.mark.parametrize("dim, index", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (3, 3)])
@pytest.mark.parametrize("radius", [0.0, 0.2])
def test_ball_probes_match_inline_complements(dim, index, radius):
    rng = np.random.default_rng(10 * dim + index)
    frames = frame_stack([Plane.from_spanning(rng.normal(size=(dim, index))) for _ in range(7)])
    got = multicone._ball_probes(frames, _center_complements(frames), radius)
    want = ball_probes_oracle(frames, radius)
    assert got.shape == want.shape == (7, index * (dim - index), dim, index)
    assert np.array_equal(got, want)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(min_value=1, max_value=d - 1))
    ),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=1e-9, max_value=1.5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ball_probes_step_radius_with_alternating_sign(shape, pairs, radius, seed):
    # every probe lies at the radius from its center and has orthonormal
    # columns; the centers come in equal consecutive pairs, which share
    # their complement frames, so probe p of centers k and k + 1 must step
    # off the center in opposite directions
    dim, index = shape
    rng = np.random.default_rng(seed)
    frames = np.repeat(np.linalg.qr(rng.normal(size=(pairs, dim, index)))[0], 2, axis=0)
    probes = multicone._ball_probes(frames, _center_complements(frames), radius)
    assert probes.shape == (2 * pairs, index * (dim - index), dim, index)
    assert np.all(np.abs(grass_distance(probes, frames[:, None]) - radius) <= 1e-12)
    assert np.all(np.abs(np.swapaxes(probes, -1, -2) @ probes - np.eye(index)) <= 1e-12)
    off_center = (np.eye(dim) - frames @ np.swapaxes(frames, -1, -2))[:, None] @ probes
    assert np.all(np.abs(off_center[0::2] + off_center[1::2]) <= 1e-12)


@pytest.mark.parametrize("index", [1, 2, 3])
def test_act_frames_member_major(index):
    # image j * len(frames) + k is frame k moved by matrix j
    rng = np.random.default_rng(11)
    mats = [rng.normal(size=(4, 4)) for _ in range(3)]
    planes = [Plane.from_spanning(rng.normal(size=(4, index))) for _ in range(5)]
    images = act_frames(np.stack(mats), frame_stack(planes))
    assert images.shape == (15, 4, index)
    for j, M in enumerate(mats):
        for k, p in enumerate(planes):
            assert grass_distance(Plane(images[j * 5 + k]), act(M, p)) < 1e-12


def test_attractor_single_diagonal(diag21):
    out = attractor(diag21, 1, word_len=5, word_count=8)
    assert len(out.points) == 8
    for p in out.points:
        assert grass_distance(p, direction(0.0)) < 1e-12
    with pytest.raises(ValueError, match="word_count must be at least 1, got 0"):
        attractor(diag21, 1, word_len=5, word_count=0)


def test_attractor_conjugated_diagonal():
    rng = np.random.default_rng(0)
    Q = random_orthogonal(4, rng)
    M = Q @ np.diag([2.0, 1.0, 0.5, 0.25]) @ Q.T
    fam = MatrixFamily.from_matrices([M], ["A"])
    # the top frame of M^n is exactly Q[:, :2]; much longer words would let
    # the inner sigma_2/sigma_1 collapse below eps and blur the formed frame
    out = attractor(fam, 2, word_len=16, word_count=4)
    target = Plane.from_spanning(Q[:, :2])
    for p in out.points:
        assert grass_distance(p, target) < 1e-6


@pytest.mark.parametrize("word_len", [1, 15, 16, 17, 40])
def test_batched_attractor_matches_per_word_loop(dominated_suite, word_len):
    # one batched product walk and one batched SVD give the per-word loop's
    # frames bit for bit, across the rescale steps
    for case in dominated_suite:
        fam, i = case.family, case.index
        got = attractor(fam, i, word_len=word_len, word_count=12, rng_seed=5)
        assert np.array_equal(got.frames, attractor_oracle(fam, i, word_len, 12, 5))
        batch = np.random.default_rng(word_len).integers(fam.size, size=(5, word_len))
        P, log_scale = words.scaled_word_product(fam, batch)
        for row, w in enumerate(batch):
            want_P, want_scale = scaled_word_product_oracle(fam, w)
            assert np.array_equal(P[row], want_P) and log_scale[row] == want_scale
            single_P, single_scale = words.scaled_word_product(fam, tuple(w))
            assert np.array_equal(single_P, want_P) and single_scale == want_scale


def test_adapted_metric_zero_and_contraction(diag21):
    stable = ConeSample(1, (direction(math.pi / 2),), 0.0)
    E = direction(0.0)
    assert adapted_metric(diag21, E, E, 10, stable) == 0.0

    delta = 0.2
    F = direction(delta)
    total = adapted_metric(diag21, E, F, 30, stable)
    # oracle: closed-form projective action of the diagonal; the sine-form
    # distances carry about 1e-16 rad each here
    angles = diagonal_projective_angles(2.0, 1.0, math.tan(delta), 30)
    assert total == pytest.approx(sum(angles), abs=1e-12)
    # successive terms shrink by the eigenvalue ratio (factor 2 per step)
    assert angles[1] / angles[0] == pytest.approx(0.5, abs=0.02)

    # contraction under the single member
    ME = direction(math.atan(math.tan(0.0) / 2.0))
    MF = direction(math.atan(math.tan(delta) / 2.0))
    assert adapted_metric(diag21, ME, MF, 30, stable) < total


def test_adapted_metric_requires_transversality(diag21):
    stable = ConeSample(1, (direction(math.pi / 2),), 0.0)
    with pytest.raises(ValueError):
        adapted_metric(diag21, direction(math.pi / 2), direction(0.1), 10, stable)


@pytest.mark.parametrize("dim, index", [(d, i) for d in (2, 3, 4) for i in range(1, d)])
def test_adapted_metric_stack_matches_pair_by_pair_oracle(dim, index):
    # every row is bit-equal to its pair alone, at every beam cut
    rng = np.random.default_rng(10 * dim + index)
    for members in (1, 2, 3):
        fam = conjugated_diagonal_family(dim, index, members, seed=dim + members, noise=0.2)
        stable = attractor(fam.inverse(), dim - index, word_len=8, word_count=4)
        E = orthonormal_frames(rng.normal(size=(5, dim, index)))
        F = orthonormal_frames(rng.normal(size=(5, dim, index)))
        for n_trunc in (0, 1, 6):
            for beam_width in (1, members**n_trunc, 16, 64):
                got = adapted_metric(fam, E, F, n_trunc, stable, beam_width=beam_width)
                assert got.shape == (5,)
                assert np.array_equal(got, adapted_metric_oracle(fam, E, F, n_trunc, stable, beam_width))
                one = adapted_metric(fam, Plane(E[3]), Plane(F[3]), n_trunc, stable, beam_width=beam_width)
                assert type(one) is float and one == got[3]
        # one row whose first plane meets a stable plane
        meets = E.copy()
        meets[2] = orthonormal_frames(np.column_stack([stable.frames[0][:, 0], rng.normal(size=(dim, index - 1))]))
        with pytest.raises(ValueError, match="not transverse"):
            adapted_metric(fam, meets, F, 1, stable)


@pytest.mark.parametrize("beam_width", [0, -2])
def test_adapted_metric_beam_width_below_one_raises(diag21, beam_width):
    stable = ConeSample(1, (direction(math.pi / 2),), 0.0)
    with pytest.raises(ValueError, match=f"beam_width must be at least 1, got {beam_width}"):
        adapted_metric(diag21, direction(0.0), direction(0.2), 3, stable, beam_width=beam_width)


def test_adapted_metric_negative_truncation_raises(diag21):
    stable = ConeSample(1, (direction(math.pi / 2),), 0.0)
    with pytest.raises(ValueError, match="n_trunc must be at least 0, got -5"):
        adapted_metric(diag21, direction(0.0), direction(0.3), -5, stable)


def test_build_multicone_single_diagonal(diag21):
    mc = build_multicone(diag21, 1)
    assert len(mc.components) == 1
    assert mc.invariance_margin > 0
    assert math.isinf(mc.component_gap)
    for p in mc.cone.points:
        assert grass_distance(p, direction(0.0)) < 1e-10


def test_build_multicone_projective_identification():
    fam = MatrixFamily.from_matrices([np.diag([2.0, 1.0]), -np.diag([2.0, 1.0])], ["A", "B"])
    mc = build_multicone(fam, 1)
    assert len(mc.components) == 1


def test_build_multicone_two_components():
    # a multicone of several components: three hyperbolic members whose
    # unstable lines (0, pi/3, 2pi/3) interleave with their stable lines on
    # P^1: an arc joining two unstable lines crosses a stable line, so every
    # invariant multicone has a component about each unstable line
    mixed = interleaved_family(3, 6.0)
    assert words.is_dominated(mixed, 1).verdict.kind == words.DOMINATED
    mc = build_multicone(mixed, 1)
    assert len(mc.components) == 3
    assert mc.component_gap > 0
    assert mc.invariance_margin > 0

    def component_of(target):
        dists = [grass_distance(p, target) for p in mc.cone.points]
        idx = int(np.argmin(dists))
        return next(ci for ci, comp in enumerate(mc.components) if idx in comp)

    assert sorted(component_of(direction(j * math.pi / 3)) for j in range(3)) == [0, 1, 2]


@st.composite
def linkage_clouds(draw):
    """(dist, link radii) of a clustered cloud of frames in G(i, d).

    Points are cluster centers plus jitter (none: exact duplicates, so zero
    distances), the radii are a 48-point geometric grid plus zero and
    entries of ``dist`` itself (ties), and ``dist`` may have its lower
    triangle nudged up by one ulp, as a GEMM-built matrix can differ from its
    transpose in the last bits.
    """
    i = draw(st.sampled_from((1, 2)))
    d = draw(st.integers(min_value=i + 1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=30))
    clusters = draw(st.integers(min_value=1, max_value=4))
    jitter = draw(st.sampled_from((0.0, 1e-3, 0.05)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    centers = np.linalg.qr(rng.normal(size=(clusters, d, i)))[0]
    frames = centers[rng.integers(clusters, size=n)]
    if jitter:
        frames = np.linalg.qr(frames + jitter * rng.normal(size=frames.shape))[0]
        frames[rng.random(n) < 0.3] = frames[0]
    dist = frame_stack_distances(frames, frames)
    np.fill_diagonal(dist, 0.0)
    if draw(st.booleans()):
        lower = np.tril_indices(n, -1)
        dist[lower] = np.nextafter(dist[lower], np.inf)
    upper = dist[np.triu_indices(n, 1)]
    ties = rng.choice(upper, size=min(4, upper.size), replace=False) if upper.size else []
    return dist, _link_radii(upper, ties)


def _link_radii(upper: np.ndarray, ties) -> np.ndarray:
    """48 geometric link radii from 2e-4 to 1.5 times the largest of a
    cloud's upper-triangle distances, then zero and the given distances in
    ascending order."""
    top = max(float(upper.max(initial=0.0)), 1e-6)
    grid = np.geomspace(top / 1e4, 0.75 * top, 48)
    return np.concatenate([2.0 * grid, [0.0], np.sort(ties)])


def _arc_cloud() -> tuple[np.ndarray, np.ndarray]:
    """(dist, link radii) of 256 lines of G(1, 2) at equal steps on one arc.

    At a link of at least the largest step the cloud is one path of 255
    links, the deepest breadth-first search; below it, runs of neighbors.
    The ties are the adjacent distances, which differ by rounding: the
    smallest, the median and the largest.
    """
    frames = frame_stack([direction(0.005 * k) for k in range(256)])
    dist = frame_stack_distances(frames, frames)
    np.fill_diagonal(dist, 0.0)
    steps = np.sort(np.diagonal(dist, 1))
    return dist, _link_radii(dist[np.triu_indices(256, 1)], steps[[0, 127, -1]])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(linkage_clouds())
@example(_arc_cloud())
def test_components_match_union_find(cloud):
    # the labeling reproduces the pair-by-pair union-find at every radius:
    # the partitions and their order (by smallest member), and the gap
    # between components.  Both read the upper triangle only, so the gap
    # oracle gets it mirrored
    dist, link_radii = cloud
    upper = np.triu(dist) + np.triu(dist, 1).T
    for link in link_radii.tolist():
        comps, gap = multicone._components(dist, link)
        assert comps == union_find_components(dist, link)
        assert gap == component_gap_oracle(upper, comps, link / 2.0)


def test_build_multicone_all_duplicate_cloud(diag21):
    # every attractor point of diag(2, 1) is the same plane, so every pair
    # distance is an exact zero; pairs at distance zero must still join
    cloud = attractor(diag21, 1, ATTRACTOR_WORD_LEN, word_count=ATTRACTOR_WORDS)
    dist = frame_stack_distances(cloud.frames, cloud.frames)
    assert np.all(dist == 0.0)
    assert multicone._components(dist, 0.0) == ((tuple(range(len(dist))),), math.inf)
    mc = build_multicone(diag21, 1)
    assert mc.components == (tuple(range(len(cloud.frames))),)


@pytest.mark.parametrize("count", [0, MAX_ATTRACTOR_WORDS + 1])
def test_build_multicone_refuses_attractor_words_out_of_range(diag21, monkeypatch, count):
    # refused before the attractor is drawn
    def never(*args, **kwargs):
        raise AssertionError("attractor called")

    monkeypatch.setattr(multicone, "attractor", never)
    with pytest.raises(ValueError, match=f"attractor_words must be from 1 to {MAX_ATTRACTOR_WORDS}, got {count}"):
        build_multicone(diag21, 1, attractor_words=count)


def test_build_multicone_gate(caplog):
    # every power of a rotation has gap ratio 1, so every attractor product
    # is skipped with a warning and no radius is searched
    fam = MatrixFamily.from_matrices([rotation2(1.0)], ["R"])
    with caplog.at_level("WARNING", logger="domsplit.multicone"):
        with pytest.raises(MulticoneConstructionError, match="attractor sample is empty") as err:
            build_multicone(fam, 1)
    assert err.value.parts == {}
    assert "256 sampled products had ill-defined top frames" in caplog.text


def test_sampled_pass_without_a_positive_bound_is_no_certificate(monkeypatch):
    # the closed-form bound is the soundness guard: diag(2, 1) with a
    # rotation is not dominated and its best bound is about -0.07, so even a
    # passing invariance check builds nothing, and no gap search runs
    fam = MatrixFamily.from_matrices([np.diag([2.0, 1.0]), rotation2(1.0)], ["A", "R"])
    searches = []
    monkeypatch.setattr(words, "is_dominated", lambda *a, **k: searches.append(a))
    monkeypatch.setattr(multicone, "strictly_invariant", lambda *a: (True, 0.1))
    with pytest.raises(MulticoneConstructionError, match="with no positive bound") as err:
        build_multicone(fam, 1)
    parts = err.value.parts
    assert parts["radius"] - parts["u"] - parts["g"] < -0.05
    assert searches == []


def test_build_multicone_failure_carries_margin_parts():
    # diag(2, 1) with a rotation is not dominated; its attractor is
    # non-empty, so the radius search runs and fails with the parts of its
    # best radius's bound attached, which is negative
    fam = MatrixFamily.from_matrices([np.diag([2.0, 1.0]), rotation2(1.0)], ["A", "R"])
    with pytest.raises(MulticoneConstructionError, match="fails the invariance check") as err:
        build_multicone(fam, 1)
    parts = err.value.parts
    assert list(parts) == ["radius", "u", "g", "spread", "chart_slack"]
    assert parts["radius"] - parts["u"] - parts["g"] - parts["spread"] < 0.0
    assert "fails the chart test" not in str(err.value)
    # two interleaved members are dominated, and their bound is positive,
    # but their clusters sit pi/2 apart: the chart test rejects every radius
    with pytest.raises(MulticoneConstructionError, match="fails the chart test") as err:
        build_multicone(interleaved_family(2, 8.0), 1)
    parts = err.value.parts
    assert parts["radius"] - parts["u"] - parts["g"] - parts["spread"] > 0.1
    assert parts["chart_slack"] < 0.0


@pytest.mark.parametrize("dim, index", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_margin_at_the_chosen_radius_is_at_least_the_bound(monkeypatch, dim, index, seed):
    # on a finite family every ball's image lies within u + g of a center,
    # so the sampled margin at the chosen radius is at least the closed-form
    # bound r - max(u + g), up to the rounding of the distances; a repeated
    # build picks the same radius, bit for bit
    fam = conjugated_diagonal_family(dim, index, 3, seed=seed, gap=1.5, noise=0.3)
    monkeypatch.setattr(multicone, "ATTRACTOR_WORD_LEN", 20)
    calls = []
    check = multicone.strictly_invariant

    def recording_check(family, cone, centers):
        ok, margin = check(family, cone, centers)
        calls.append((cone.radius, margin, sum(multicone._worst_reach(centers, cone.radius))))
        return ok, margin

    monkeypatch.setattr(multicone, "strictly_invariant", recording_check)
    for _ in range(2):
        try:
            build_multicone(fam, index, attractor_words=64)
        except MulticoneConstructionError:
            pass
    (radius, margin, reach), again = calls
    assert margin >= radius - reach - multicone.DISTANCE_RESOLUTION
    assert again[0] == radius


def test_multicone_json_round_trip(diag21):
    mc = build_multicone(diag21, 1)
    back = multicone.Multicone.from_json_dict(mc.to_json_dict())
    assert back.components == mc.components
    assert back.invariance_margin == mc.invariance_margin
    assert math.isinf(back.component_gap)


def test_line_trace_familiar_cone():
    # the standard cone |v| <= a|u| around the coordinate plane span(e0, e1)
    # of R^3 is the direction set of the ball of radius arctan(a) around that
    # plane; it is semiconvex: every line meets it in at most one arc
    rng = np.random.default_rng(3)
    cone = ConeSample(2, (Plane(np.eye(3)[:, :2]),), math.atan(0.5))
    lines = [Plane.from_spanning(rng.normal(size=(3, 2))) for _ in range(100)]
    counts = [len(line_trace(projectivize(cone, line))) for line in lines]
    assert max(counts) == 1 and counts.count(1) > 50
    # two balls far apart on one line give two arcs
    two = ConeSample(1, np.eye(3)[:2, :, None], 0.3)
    assert len(line_trace(projectivize(two, Plane(np.eye(3)[:, :2])))) == 2


def test_line_trace_empty_intersection():
    cone = ConeSample(1, (Plane.span(np.array([0.0, 0.0, 1.0])),), 0.3)
    line = Plane(np.eye(3)[:, :2])
    assert len(line_trace(projectivize(cone, line))) == 0


def test_semiconvexity_audit_matches_dense_membership():
    # dominated_9 of the benchmark suite (d = 4, i = 3) at workload seed 3:
    # every component meets the lifted x-axis plane in one arc, as a
    # membership test of 100,003 directions finds; a trace of sampled
    # center directions, blind to the radius, split component 0 in two
    base = conjugated_diagonal_family(4, 3, 2, seed=1009)
    Q = random_orthogonal(4, np.random.default_rng([3, 9]))
    fam = MatrixFamily.from_matrices(list(Q @ base.stack @ Q.T), list(base.labels))
    mc = build_multicone(fam, 3)
    line = axis_plane()
    for which in range(len(mc.components)):
        cone = mc.component_cone(which)
        arcs = line_trace(projectivize(cone, line))
        want, step = line_trace_oracle(cone.frames, cone.radius, line)
        assert len(arcs) == len(want) == 1
        assert arcs[0] == pytest.approx(want[0], abs=step)


def test_attractor_invariance_bound(dominated_suite):
    # images of attractor points stay near the attractor set
    case = dominated_suite[1]
    fam, i = case.family, case.index
    cloud = attractor(fam, i, word_len=30, word_count=32)
    pts = list(cloud.points)
    for M in fam.stack:
        for p in pts:
            moved = act(M, p)
            dist = min(grass_distance(moved, q) for q in pts)
            assert dist < 0.05


def test_strictly_invariant_monotone_under_subfamily(dominated_suite):
    # dropping members can only shrink the worst image excursion
    case = dominated_suite[0]
    fam, i = case.family, case.index
    cloud = attractor(fam, i, word_len=20, word_count=16)
    cone = ConeSample(i, cloud.points, 0.2)
    _, full_margin = strictly_invariant(fam, cone)
    sub = MatrixFamily(labels=fam.labels[:1], stack=fam.stack[:1], source=fam.source)
    _, sub_margin = strictly_invariant(sub, cone)
    assert sub_margin >= full_margin - 1e-12


def test_unstable_multicone_transverse_to_stable_attractor(dominated_suite):
    # every plane of the unstable multicone is transverse to every plane S
    # of the stable attractor (inverse family, complementary index): a plane
    # within r of a center E_k lies within theta_max(E_k, S^perp) + r of
    # S^perp, and a plane less than pi/2 from S^perp meets S only in 0
    for case in dominated_suite:
        fam, i = case.family, case.index
        unstable = build_multicone(fam, i)
        stable = attractor(fam.inverse(), fam.dim - i, ATTRACTOR_WORD_LEN, ATTRACTOR_WORDS)
        reach = frame_stack_distances(unstable.cone.frames, complement_frames(stable.frames))
        assert float(reach.max()) + unstable.cone.radius < math.pi / 2
