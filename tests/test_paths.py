import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from bdlab.errors import PreconditionError
from bdlab.paths import (
    JordanPair,
    PiecewiseFunction,
    _L1_SLICE,
    _lane_l1_below,
    _lane_l1_pieces,
    integral,
    jordan_decompose,
    l1_distance,
    left_limit_at_one,
    neighborhood_contains,
    scale_path,
    total_variation,
)
from bdlab.process import (
    RateModel,
    RngStream,
    Trajectory,
    _Lanes,
    _xi_lanes,
    _zeta_lanes,
    simulate_xi,
)
from bdlab.weights import EventSpec

TOL = 1e-12

# breakpoints drawn from a coarse lattice so merged grids stay exact and
# "agree on the grid" is a clean float comparison
_LATTICE = [i / 64.0 for i in range(1, 64)]
_VALS = st.integers(min_value=-8, max_value=8).map(lambda v: v / 2.0)


@st.composite
def piecewise(draw):
    mode = draw(st.sampled_from(["step", "linear"]))
    inner = draw(st.lists(st.sampled_from(_LATTICE), max_size=5, unique=True))
    bps = tuple([0.0] + sorted(inner) + [1.0])
    n = len(bps) - 1 if mode == "step" else len(bps)
    vals = tuple(draw(st.lists(_VALS, min_size=n, max_size=n)))
    return PiecewiseFunction(bps, vals, mode)


def _agree_on_merged_grid(f, g):
    """True iff on each merged-grid segment [u, v] f and g agree at u and in
    their left limits at v, the two values l1_distance compares there: the
    left limit of a step function is its value at u, of a linear one its
    value at v.  (A midpoint value is no oracle: it may round off a
    constant that l1_distance sees exactly.)"""
    pts = sorted(set(f.breakpoints) | set(g.breakpoints))

    def ends(h, u, v):
        return h.value(u), h.value(u if h.mode == "step" else v)

    return all(ends(f, u, v) == ends(g, u, v) for u, v in zip(pts, pts[1:]))


def test_piecewise_validation():
    with pytest.raises(PreconditionError):
        PiecewiseFunction((0.0, 0.5), (1.0,), "step")
    with pytest.raises(PreconditionError):
        PiecewiseFunction((0.2, 1.0), (1.0,), "step")
    with pytest.raises(PreconditionError):
        PiecewiseFunction((0.0, 0.5, 0.5, 1.0), (1.0, 2.0, 3.0), "step")
    with pytest.raises(PreconditionError):
        PiecewiseFunction((0.0, 1.0), (1.0, 2.0), "step")
    with pytest.raises(PreconditionError):
        PiecewiseFunction((0.0, 1.0), (1.0,), "linear")
    with pytest.raises(PreconditionError):
        PiecewiseFunction((0.0, 1.0), (math.inf,), "step")
    with pytest.raises(PreconditionError):
        PiecewiseFunction((0.0, 1.0), (1.0,), "spline")


def test_piecewise_value_evaluation():
    f = PiecewiseFunction.step((0.0, 0.5, 1.0), (1.0, 3.0))
    assert f.value(0.0) == 1.0
    assert f.value(0.49) == 1.0
    assert f.value(0.5) == 3.0
    assert f.value(1.0) == 3.0
    g = PiecewiseFunction.linear((0.0, 1.0), (0.0, 2.0))
    assert g.value(0.25) == 0.5
    assert g.value(1.0) == 2.0
    with pytest.raises(PreconditionError):
        g.value(1.5)


def test_constant_constructor():
    f = PiecewiseFunction.constant(2.5)
    assert f.value(0.3) == 2.5
    g = PiecewiseFunction.constant(2.5, mode="linear")
    assert g.value(0.7) == 2.5


def test_scale_path_empty_trajectory():
    traj = Trajectory(horizon=3.0, jump_times=(), jump_signs=())
    f = scale_path(traj, 3.0, 10.0)
    assert f.breakpoints == (0.0, 1.0)
    assert f.values == (0.0,)


def test_scale_path_single_jump():
    traj = Trajectory(horizon=4.0, jump_times=(2.0,), jump_signs=(1,))
    f = scale_path(traj, 4.0, 10.0)
    assert f.breakpoints == (0.0, 0.5, 1.0)
    assert f.values == (0.0, 0.1)


def test_scale_path_three_jumps():
    traj = Trajectory(horizon=4.0, jump_times=(1.0, 2.0, 3.0), jump_signs=(1, 1, -1))
    f = scale_path(traj, 4.0, 2.0)
    assert f.breakpoints == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert f.values == (0.0, 0.5, 1.0, 0.5)


def test_scale_path_horizon_mismatch():
    traj = Trajectory(horizon=4.0, jump_times=(), jump_signs=())
    with pytest.raises(PreconditionError):
        scale_path(traj, 5.0, 1.0)
    with pytest.raises(PreconditionError):
        scale_path(traj, 4.0, 0.0)


def test_l1_distance_identity_and_constants():
    f = PiecewiseFunction.step((0.0, 0.3, 1.0), (1.0, -2.0))
    assert l1_distance(f, f) == 0.0
    zero = PiecewiseFunction.constant(0.0)
    a = PiecewiseFunction.constant(0.75)
    assert l1_distance(zero, a) == 0.75


def test_l1_distance_step_vs_ramp_against_riemann_oracle():
    f = PiecewiseFunction.step((0.0, 0.5, 1.0), (0.0, 1.0))
    g = PiecewiseFunction.linear((0.0, 1.0), (0.0, 1.0))
    t = (np.arange(1_000_000) + 0.5) / 1_000_000
    fv = np.where(t < 0.5, 0.0, 1.0)
    oracle = float(np.mean(np.abs(fv - t)))
    assert abs(l1_distance(f, g) - oracle) < 1e-9
    assert abs(l1_distance(f, g) - 0.25) < TOL


def test_total_variation_examples():
    assert total_variation(PiecewiseFunction.constant(5.0)) == 0.0
    mono = PiecewiseFunction.step((0.0, 0.3, 0.7, 1.0), (0.0, 1.0, 3.0))
    assert total_variation(mono) == 3.0
    zig = PiecewiseFunction.linear((0.0, 0.2, 0.6, 1.0), (0.0, 1.0, 0.2, 0.7))
    assert abs(total_variation(zig) - 2.3) < TOL


def test_jordan_nondecreasing_input():
    f = PiecewiseFunction.step((0.0, 0.5, 1.0), (1.0, 4.0))
    pair = jordan_decompose(f)
    assert pair.plus.values == f.values
    assert pair.minus.values == (0.0, 0.0)


def test_jordan_nonincreasing_input():
    f = PiecewiseFunction.step((0.0, 0.4, 1.0), (2.0, 0.0))
    pair = jordan_decompose(f)
    assert pair.plus.values == (2.0, 2.0)
    assert pair.minus.values == (0.0, 2.0)


def test_jordan_zigzag():
    f = PiecewiseFunction.step((0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 2.0, 1.0, 3.0))
    pair = jordan_decompose(f)
    assert pair.plus.values == (0.0, 2.0, 2.0, 4.0)
    assert pair.minus.values == (0.0, 0.0, 1.0, 1.0)


def test_jordan_pair_validation():
    up = PiecewiseFunction.step((0.0, 1.0), (0.0,))
    down = PiecewiseFunction.step((0.0, 0.5, 1.0), (1.0, 0.0))
    with pytest.raises(PreconditionError):
        JordanPair(plus=down, minus=down)
    with pytest.raises(PreconditionError):
        JordanPair(plus=up, minus=PiecewiseFunction.step((0.0, 1.0), (1.0,)))


def test_left_limit_at_one():
    f = PiecewiseFunction.step((0.0, 0.8, 1.0), (0.0, 2.0))
    assert left_limit_at_one(f) == 2.0
    ramp = PiecewiseFunction.linear((0.0, 1.0), (0.0, 1.0))
    assert left_limit_at_one(ramp) == 1.0
    traj = Trajectory(horizon=2.0, jump_times=(0.5, 1.0), jump_signs=(1, 1))
    assert left_limit_at_one(scale_path(traj, 2.0, 4.0)) == 0.5


def test_neighborhood_strictness():
    zero = PiecewiseFunction.constant(0.0)
    one = PiecewiseFunction.constant(1.0)
    assert neighborhood_contains(zero, zero, 1e-9)
    assert not neighborhood_contains(zero, one, 0.5)
    # distance is exactly 1, containment is strict
    assert not neighborhood_contains(zero, one, 1.0)
    assert neighborhood_contains(zero, one, 1.0 + 1e-9)
    with pytest.raises(PreconditionError):
        neighborhood_contains(zero, one, 0.0)


def test_integral_examples():
    assert integral(PiecewiseFunction.constant(3.0)) == 3.0
    ramp = PiecewiseFunction.linear((0.0, 1.0), (0.0, 1.0))
    assert integral(ramp) == 0.5
    step = PiecewiseFunction.step((0.0, 0.5, 1.0), (0.0, 1.0))
    assert integral(step) == 0.5


@settings(max_examples=1000, deadline=None)
@given(piecewise(), piecewise())
def test_metric_symmetry(f, g):
    assert abs(l1_distance(f, g) - l1_distance(g, f)) <= TOL


@settings(max_examples=1000, deadline=None)
@given(piecewise(), piecewise(), piecewise())
def test_metric_triangle_inequality(f, g, h):
    assert l1_distance(f, h) <= l1_distance(f, g) + l1_distance(g, h) + TOL


@settings(max_examples=1000, deadline=None)
@given(piecewise(), piecewise())
@example(PiecewiseFunction.step((0.0, 0.03125, 1.0), (1.5, 1.5)),
         PiecewiseFunction.linear((0.0, 0.265625, 1.0), (1.5, 1.5, 1.5)))
def test_metric_zero_iff_agree_on_merged_grid(f, g):
    d = l1_distance(f, g)
    if _agree_on_merged_grid(f, g):
        assert d == 0.0
    else:
        assert d > 0.0


@settings(max_examples=1000, deadline=None)
@given(piecewise())
def test_jordan_reconstruction_and_variation_additivity(f):
    pair = jordan_decompose(f)
    for p, m_, v in zip(pair.plus.values, pair.minus.values, f.values):
        assert abs((p - m_) - v) <= TOL
    var_sum = total_variation(pair.plus) + total_variation(pair.minus)
    assert abs(var_sum - total_variation(f)) <= TOL
    assert pair.plus.values[0] == f.values[0]
    assert pair.minus.values[0] == 0.0


@st.composite
def function_with_slack(draw):
    f = draw(piecewise())
    n = len(f.values)
    incs = draw(st.lists(
        st.integers(min_value=0, max_value=4).map(lambda v: v / 2.0),
        min_size=n, max_size=n,
    ))
    acc = 0.0
    h = []
    for d in incs:
        acc += d
        h.append(acc)
    return f, tuple(h)


@settings(max_examples=1000, deadline=None)
@given(function_with_slack())
def test_decomposition_minimality_under_monotone_slack(fh):
    # inflating both components by the same nondecreasing slack can only
    # steepen them: increments of plus+h dominate increments of plus
    f, h = fh
    plus = jordan_decompose(f).plus.values
    g1 = [p + s for p, s in zip(plus, h)]
    for i in range(len(plus)):
        for j in range(i + 1, len(plus)):
            assert g1[j] - g1[i] >= (plus[j] - plus[i]) - TOL


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_scaled_path_variation_counts_jumps(replica):
    traj = simulate_xi(RateModel(kind="canonical", P=1.0, Q=1.0, l=0.0), 3.0,
                       RngStream(29, replica))
    f = scale_path(traj, 3.0, 7.0)
    n = len(traj.jump_signs)
    assert abs(total_variation(f) - n / 7.0) <= TOL * max(1.0, n)


@settings(max_examples=500, deadline=None)
@given(piecewise(), st.integers(min_value=1, max_value=8))
def test_plus_end_monotone_under_increment_inflation(f, eighths):
    # raise one positive increment of f; the plus component's end value
    # must not decrease
    delta = eighths / 8.0
    rising = [i for i in range(1, len(f.values)) if f.values[i] > f.values[i - 1]]
    if not rising:
        return
    j = rising[0]
    vals = list(f.values)
    for i in range(j, len(vals)):
        vals[i] += delta
    f2 = PiecewiseFunction(f.breakpoints, tuple(vals), f.mode)
    end1 = left_limit_at_one(jordan_decompose(f).plus)
    end2 = left_limit_at_one(jordan_decompose(f2).plus)
    assert end2 >= end1 - TOL


# ---------------------------------------------------------------------------
# the two-pointer L1 merge against the sorted-set grid it replaced


def _reference_endpoints(f, u, v):
    i = f.segment_index(u)
    if f.mode == "step":
        val = f.values[i]
        return val, val
    t0, t1 = f.breakpoints[i], f.breakpoints[i + 1]
    w_u = (u - t0) / (t1 - t0)
    w_v = (v - t0) / (t1 - t0)
    a, b = f.values[i], f.values[i + 1]
    return a * (1.0 - w_u) + b * w_u, a * (1.0 - w_v) + b * w_v


def _reference_l1(f, g):
    grid = sorted(set(f.breakpoints) | set(g.breakpoints))
    pieces = []
    for u, v in zip(grid, grid[1:]):
        fu, fv = _reference_endpoints(f, u, v)
        gu, gv = _reference_endpoints(g, u, v)
        du = fu - gu
        dv = fv - gv
        width = v - u
        if du * dv >= 0.0:
            pieces.append(abs(du + dv) * 0.5 * width)
        else:
            r = du / (du - dv)
            pieces.append((abs(du) * r + abs(dv) * (1.0 - r)) * 0.5 * width)
    return math.fsum(pieces)


_INNER = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
_REALS = st.floats(min_value=-50.0, max_value=50.0)


def _draw_function(draw, mode, inner):
    bps = tuple([0.0] + sorted(inner) + [1.0])
    n = len(bps) - 1 if mode == "step" else len(bps)
    return PiecewiseFunction(bps, tuple(draw(st.lists(_REALS, min_size=n, max_size=n))), mode)


@st.composite
def sharing_pair(draw):
    """A step/step, step/linear or linear/linear pair on float breakpoints,
    some of them shared."""
    modes = draw(st.sampled_from([("step", "step"), ("step", "linear"), ("linear", "linear")]))
    shared = set(draw(st.lists(_INNER, max_size=4)))
    own = [shared | set(draw(st.lists(_INNER, max_size=8))) for _ in modes]
    f, g = (_draw_function(draw, mode, inner) for mode, inner in zip(modes, own))
    return f, g


@settings(max_examples=1000, deadline=None)
@given(sharing_pair())
def test_l1_merge_equals_sorted_grid_reference(fg):
    f, g = fg
    assert l1_distance(f, g) == _reference_l1(f, g)
    assert l1_distance(g, f) == _reference_l1(g, f)


def _colliding_jumps(draw, T, max_size=12):
    """Increasing jump times in (0, T) with runs one ulp apart and some in
    the last ulps below T, and a sign for each."""
    times = set()
    for t in draw(st.lists(st.floats(min_value=0.0, max_value=T, exclude_min=True,
                                     exclude_max=True), max_size=max_size)):
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            if 0.0 < t < T:
                times.add(t)
            t = math.nextafter(t, math.inf)
    t = T
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        t = math.nextafter(t, 0.0)
        times.add(t)
    times = sorted(times)
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(times), max_size=len(times)))
    return times, signs


@st.composite
def colliding_scaled_path(draw):
    """A trajectory with runs of jump times one ulp apart, some in the last
    ulps below the horizon, so that scaled times collide after t / T; with
    phi and a step or linear center that may share the path's breakpoints.

    (A valid jump time t < T never rounds up to t / T == 1.0: the quotient
    is at most 1 - 2**-53, so runs just below T are as close as it gets.)"""
    T = draw(st.sampled_from([0.1, 3.0, 7.0, 10.0]))
    times, signs = _colliding_jumps(draw, T)
    traj = Trajectory(horizon=T, jump_times=tuple(times), jump_signs=tuple(signs))
    phi = draw(st.sampled_from([1.0, 3.0, 7.0]))
    path = scale_path(traj, T, phi)
    inner = path.breakpoints[1:-1]
    pick = st.sampled_from(inner) | _INNER if inner else _INNER
    mode = draw(st.sampled_from(["step", "linear"]))
    center = _draw_function(draw, mode, set(draw(st.lists(pick, max_size=4))))
    return traj, phi, center


@settings(max_examples=600, deadline=None)
@given(colliding_scaled_path())
def test_l1_merge_on_colliding_scaled_paths_equals_reference(case):
    traj, phi, center = case
    path = scale_path(traj, traj.horizon, phi)
    assert l1_distance(path, center) == _reference_l1(path, center)
    assert l1_distance(center, path) == _reference_l1(center, path)


def test_l1_merge_on_simulated_paths_equals_reference():
    model = RateModel(kind="canonical", P=2.0, Q=1.0, l=0.5)
    centers = [PiecewiseFunction.linear((0.0, 1.0), (0.0, 0.3)),
               PiecewiseFunction.step((0.0, 0.5, 1.0), (0.2, 0.6)),
               PiecewiseFunction.linear((0.0, 0.25, 1.0), (0.0, 0.9, 0.1))]
    for r in range(300):
        path = scale_path(simulate_xi(model, 10.0, RngStream(47, r)), 10.0, 10.0)
        for center in centers:
            assert l1_distance(path, center) == _reference_l1(path, center)


# ---------------------------------------------------------------------------
# scale_path builds its step function without rerunning the checks


def _validated(f):
    return PiecewiseFunction(f.breakpoints, f.values, f.mode)


@settings(max_examples=600, deadline=None)
@given(colliding_scaled_path(), st.integers(min_value=-3, max_value=3))
def test_scale_path_equals_its_validated_rebuild(case, x0):
    traj, phi, _ = case
    traj = Trajectory(traj.horizon, traj.jump_times, traj.jump_signs, initial_state=x0)
    path = scale_path(traj, traj.horizon, phi)
    assert type(path) is PiecewiseFunction
    assert path == _validated(path)
    # each segment holds the state after every jump scaled to or before its start
    states = traj.states()
    scaled = [t / traj.horizon for t in traj.jump_times]
    for b, v in zip(path.breakpoints, path.values):
        assert v == states[sum(1 for s in scaled if s <= b)] / phi


def test_scale_path_of_simulated_paths_equals_its_validated_rebuild():
    model = RateModel(kind="canonical", P=2.0, Q=1.0, l=0.5)
    for r in range(300):
        for T, phi in ((10.0, 10.0), (0.5, 3.0)):
            path = scale_path(simulate_xi(model, T, RngStream(53, r)), T, phi)
            assert path == _validated(path)
    with pytest.raises(PreconditionError):
        scale_path(simulate_xi(model, 1.0, RngStream(53, 0)), 1.0, 0.0)


# ---------------------------------------------------------------------------
# a lockstep block's L1 distances against l1_distance of each lane's scaled path


def _block(paths, T):
    """A lane block whose kept paths on [0, T] are these (times, signs),
    each between its head (0.0, 0) and its tail (T, final)."""
    lanes = _Lanes(len(paths))
    lanes.jumps[:] = [len(ts) for ts, _ in paths]
    lanes.start = np.zeros(len(paths) + 1, dtype=np.intp)
    np.cumsum(lanes.jumps + 2, out=lanes.start[1:])
    lanes.times = np.array([t for ts, _ in paths for t in (0.0, *ts, T)], dtype=float)
    lanes.states = np.array([x for _, ss in paths for x in (*accumulate(ss, initial=0), sum(ss))],
                            dtype=np.int64)
    lanes.final[:] = [sum(ss) for _, ss in paths]
    return lanes


def _lane_l1_distances(lanes, T, phi, center):
    """math.fsum of each lane's _lane_l1_pieces: exact, so independent of
    their order, and the distance that _lane_l1_below decides against."""
    out = []
    for pieces, ends in _lane_l1_pieces(lanes, T, phi, center):
        ends = ends.tolist()
        pieces = pieces.tolist()
        out.extend(math.fsum(pieces[p:q]) for p, q in zip(ends, ends[1:]))
    return out


def _per_lane_l1(paths, T, phi, center):
    return [l1_distance(scale_path(Trajectory(T, ts, ss), T, phi), center) for ts, ss in paths]


@st.composite
def colliding_lane_block(draw):
    """Lanes of different lengths, some empty, whose scaled times collide,
    on one T and phi; a step or linear center whose breakpoints may equal
    lanes' scaled jump times; the lanes repeated so that the block may span
    several array slices."""
    T = draw(st.sampled_from([0.1, 2.0, 3.0, 10.0]))
    phi = draw(st.sampled_from([1.0, 2.5, 7.0]))
    paths = [_colliding_jumps(draw, T, max_size=draw(st.sampled_from([0, 3, 12])))
             for _ in range(draw(st.integers(min_value=1, max_value=6)))]
    scaled = sorted({t / T for ts, _ in paths for t in ts} - {0.0, 1.0})
    pick = st.sampled_from(scaled) | _INNER if scaled else _INNER
    mode = draw(st.sampled_from(["step", "linear"]))
    center = _draw_function(draw, mode, set(draw(st.lists(pick, max_size=4))))
    return paths * draw(st.integers(min_value=1, max_value=40)), T, phi, center


@settings(max_examples=400, deadline=None)
@given(colliding_lane_block())
def test_lane_l1_equals_l1_distance_of_each_scaled_path(case):
    paths, T, phi, center = case
    assert _lane_l1_distances(_block(paths, T), T, phi, center) == _per_lane_l1(paths, T, phi, center)


def test_lane_l1_hand_cases_equal_l1_distance():
    T = 0.1
    below = math.nextafter(T, 0.0)
    run = [0.03]
    for _ in range(5):
        run.append(math.nextafter(run[-1], math.inf))
    tail = [math.nextafter(math.nextafter(below, 0.0), 0.0), math.nextafter(below, 0.0), below]
    paths = [
        ([], []),
        (run + tail, [1, 1, -1, 1, 1, 1, -1, 1, 1]),
        ([i / 1000.0 for i in range(1, 100)], [1, -1] * 49 + [1]),
        ([], []),
        ([5e-324, 0.02, 0.05], [1, 1, 1]),  # the first scales to 0.0
        ([0.01, 0.04, 0.07], [-1, -1, 1]),  # a zeta lane below zero
        ([0.05], [1]),
    ]
    # the run and the tail really collide after t / T
    assert len(scale_path(Trajectory(T, *paths[1]), T, 1.0).breakpoints) < len(run + tail) + 2
    shared = (run[3] / T, 0.05 / T, 0.07 / T)
    centers = [
        PiecewiseFunction.linear((0.0, 1.0), (0.0, 0.3)),
        PiecewiseFunction.constant(0.5),
        PiecewiseFunction.step((0.0,) + shared + (1.0,), (0.5, -0.25, 1.5, 0.0)),
        PiecewiseFunction.linear((0.0,) + shared + (1.0,), (0.0, 2.0, -1.0, 0.5, 0.25)),
        PiecewiseFunction.linear((0.0, 0.25, 1.0), (1.0, -1.0, 3.0)),
    ]
    assert all(s in scale_path(Trajectory(T, *paths[i]), T, 1.0).breakpoints
               for s, i in zip(shared, (1, 6, 5)))
    for center in centers:
        for phi in (1.0, 3.0):
            for block in (paths, paths * 30):  # 210 lanes span several slices
                want = _per_lane_l1(block, T, phi, center)
                assert _lane_l1_distances(_block(block, T), T, phi, center) == want
    assert _lane_l1_distances(_block([([], [])] * 3, T), T, 1.0, centers[0]) == [0.15] * 3
    assert _lane_l1_distances(_block([], T), T, 1.0, centers[0]) == []


def test_lane_l1_on_simulated_lanes_equals_l1_distance():
    model = RateModel(kind="canonical", P=2.0, Q=1.0, l=0.5)
    centers = [PiecewiseFunction.linear((0.0, 1.0), (0.0, 0.3)),
               PiecewiseFunction.step((0.0, 0.25, 0.6, 1.0), (0.25, 0.75, 0.5)),
               PiecewiseFunction.linear((0.0, 0.3, 0.7, 1.0), (0.0, 0.75, 0.5, 0.75))]
    blocks = [(10.0, 10.0, lanes) for lanes in _xi_lanes(model, 10.0, 59, 0, 512, True)]
    blocks += [(3.0, 2.0, lanes) for lanes in _zeta_lanes(3.0, 59, 0, 512)]
    assert blocks[-1][2].below_zero.any()
    for T, phi, lanes in blocks:
        paths = [lanes.path(i) for i in range(lanes.final.size)]
        for center in centers:
            got = _lane_l1_distances(lanes, T, phi, center)
            assert got == _per_lane_l1(paths, T, phi, center)


def test_lane_hits_are_strict_at_a_lanes_exact_distance():
    T, phi = 2.0, 2.0
    paths = [([0.5, 1.5], [1, -1]), ([0.25, 1.0, 1.75], [1, 1, -1]), ([0.5], [-1])]
    lanes = _block(paths, T)
    lanes.below_zero[2] = True
    center = PiecewiseFunction.linear((0.0, 0.5, 1.0), (0.0, 0.75, 0.25))
    d = _lane_l1_distances(lanes, T, phi, center)
    assert d == _per_lane_l1(paths, T, phi, center) and d[0] != d[1]
    for i, eps in enumerate(d[:2]):
        event = EventSpec.neighborhood(center, eps)
        assert event._lane_hits(lanes, T, phi).tolist() == [x < eps for x in d[:2]] + [False]
        traj = Trajectory(horizon=T, jump_times=tuple(paths[i][0]), jump_signs=tuple(paths[i][1]))
        assert not event.occurs(traj, T, phi)
        wider = EventSpec.neighborhood(center, math.nextafter(eps, math.inf))
        assert wider._lane_hits(lanes, T, phi)[i]


# ---------------------------------------------------------------------------
# a block's neighborhood verdicts against its lanes' exact distances


def _around(d):
    """eps at each distance of d, at its neighbouring doubles and a few
    units of 2**-52 (relative) away from it."""
    out = set()
    for x in d:
        out |= {x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)}
        out |= {x * (1.0 + k * 2.0**-52) for k in (-64, -8, -3, -2, 2, 3, 8, 64)}
    return sorted(out)


def _assert_verdicts(block, T, phi, center, probe=None):
    """_lane_l1_below equals [d < eps ...] at eps around the distances of
    the lanes in probe (every lane by default); returns the distances."""
    d = _lane_l1_distances(block, T, phi, center)
    for eps in _around(d if probe is None else [d[i] for i in probe]):
        got = _lane_l1_below(block, T, phi, center, eps)
        assert got.dtype == bool and got.tolist() == [x < eps for x in d], eps
    return d


@settings(max_examples=400, deadline=None)
@given(colliding_lane_block())
def test_lane_verdicts_equal_exact_distance_tests(case):
    paths, T, phi, center = case
    # the lanes repeat, so the first few hold every distinct distance
    _assert_verdicts(_block(paths, T), T, phi, center, probe=range(min(len(paths), 6)))


def test_lane_verdicts_on_hand_cases():
    T = 2.0
    paths = [
        ([], []),
        ([0.5, 1.5], [1, -1]),
        ([0.25, 1.0, 1.75], [1, 1, -1]),
        ([0.5], [-1]),  # a zeta lane below zero
        ([1.0], [1]),   # equal to the step center below: distance 0
    ]
    centers = [
        PiecewiseFunction.linear((0.0, 0.5, 1.0), (0.0, 0.75, 0.25)),
        PiecewiseFunction.step((0.0, 0.5, 1.0), (0.0, 0.5)),
        PiecewiseFunction.constant(0.1),
    ]
    for center in centers:
        for block in (paths, paths * 30):  # 150 lanes span several slices
            d = _assert_verdicts(_block(block, T), T, 2.0, center, probe=range(len(paths)))
    assert d[0] == 0.1 and _lane_l1_below(_block([], T), T, 1.0, centers[0], 0.5).size == 0
    assert 0.0 in _lane_l1_distances(_block(paths, T), T, 2.0, centers[1])


def test_lane_l1_after_a_first_slice_without_jumps():
    # the first slice's lanes never jump, so it holds only heads and tails,
    # and the second slice starts on the entries after them
    T = 2.0
    paths = [([0.5, 1.5], [1, -1]), ([0.25, 1.0, 1.75], [1, 1, -1]), ([], []),
             ([0.5], [-1]), ([1.0, 1.25], [1, 1])]
    block = [([], [])] * _L1_SLICE + paths * 30
    centers = [
        PiecewiseFunction.linear((0.0, 0.5, 1.0), (0.0, 0.75, 0.25)),
        PiecewiseFunction.step((0.0, 0.5, 1.0), (0.0, 0.5)),
    ]
    for center in centers:
        for phi in (1.0, 2.0):
            d = _assert_verdicts(_block(block, T), T, phi, center, probe=range(_L1_SLICE + 6))
            assert d == _per_lane_l1(block, T, phi, center)
            assert d[:_L1_SLICE] == [d[_L1_SLICE + 2]] * _L1_SLICE


def test_lane_verdicts_at_ten_thousand_pieces():
    # a step center of 2**14 equal segments cuts every lane into at least
    # as many pieces.  Under the jumpless lane, each run of 128 pieces is 8
    # of 2**-14 and 120 of 0.45 * 2**-66, each below half a unit in the
    # last place of a sum that starts with 2**-14: summed with numpy's
    # usual eight partial sums per 128 terms, every small piece is lost,
    # so the numpy sum misses the exact one by several units in the last
    # place, and eps between the two is decided by the fsum fallback alone
    n = 2**14
    center = PiecewiseFunction.step(
        tuple(j / n for j in range(n + 1)),
        tuple(1.0 if j % 128 < 8 else 0.45 * 2.0**-52 for j in range(n)),
    )
    block = _block([([], []), ([0.3, 0.6], [1, -1]), ([0.5], [-1])], 1.0)
    pieces, ends = next(_lane_l1_pieces(block, 1.0, 1.0, center))
    assert ends[1] - ends[0] == n
    d = _assert_verdicts(block, 1.0, 1.0, center)
    numpy_sum = np.add.reduceat(pieces, ends[:-1])[0]
    assert d[0] - numpy_sum > 2 * math.ulp(d[0])


def test_lane_verdicts_on_simulated_lanes():
    model = RateModel(kind="canonical", P=2.0, Q=1.0, l=0.5)
    centers = [PiecewiseFunction.linear((0.0, 1.0), (0.0, 0.3)),
               PiecewiseFunction.step((0.0, 0.25, 0.6, 1.0), (0.25, 0.75, 0.5)),
               PiecewiseFunction.linear((0.0, 0.3, 0.7, 1.0), (0.0, 0.75, 0.5, 0.75))]
    blocks = [(10.0, 10.0, lanes) for lanes in _xi_lanes(model, 10.0, 61, 0, 512, True)]
    blocks += [(3.0, 2.0, lanes) for lanes in _zeta_lanes(3.0, 61, 0, 512)]
    for T, phi, lanes in blocks:
        for center in centers:
            _assert_verdicts(lanes, T, phi, center, probe=range(0, lanes.final.size, 29))
