import hashlib
import math
import os
import signal
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from bdlab import process, weights
from bdlab.errors import PreconditionError
from bdlab.paths import PiecewiseFunction
from bdlab.process import (
    RateModel,
    RngStream,
    Trajectory,
    _StateTable,
    _zeta_lanes,
    in_path_space,
    simulate_xi,
    total_rate,
)
from bdlab.rates import ScalingFamily, phi
from bdlab.weights import (
    Estimate,
    EventSpec,
    agreement_z,
    count_jumps,
    direct_estimate,
    functional_A,
    functional_B,
    importance_estimate,
    log_density,
    terminal_states,
    _density_row,
    _direct_chunk,
    _estimate_from_logw,
    _importance_chunk,
    _lane_log_weights,
    _run_chunks,
    _terminal_chunk,
)
from reference_walk import reference_xi, reference_zeta

UNIT = RateModel(kind="canonical", P=1.0, Q=1.0, l=0.0)
NEG_INF = float("-inf")


def test_count_jumps():
    empty = Trajectory(horizon=1.0, jump_times=(), jump_signs=())
    assert count_jumps(empty) == 0
    three = Trajectory(horizon=1.0, jump_times=(0.1, 0.2, 0.3), jump_signs=(1, 1, -1))
    assert count_jumps(three) == 3


def test_functional_A_zero_jumps():
    traj = Trajectory(horizon=4.0, jump_times=(), jump_signs=())
    assert functional_A(UNIT, traj) == 4.0


def test_functional_A_one_jump():
    t1 = 1.25
    traj = Trajectory(horizon=5.0, jump_times=(t1,), jump_signs=(1,))
    # eta(0) = 1 before the jump, eta(1) = 2 after
    assert abs(functional_A(UNIT, traj) - (t1 + 2.0 * (5.0 - t1))) < 1e-12


def test_functional_A_constant_table_is_linear_in_T():
    m = RateModel(kind="table", table=tuple([(1.5, 0.5)] * 50))
    for T in (1.0, 3.0, 7.5):
        traj = simulate_xi(UNIT, T, RngStream(31, 0))
        shifted = Trajectory(horizon=T, jump_times=traj.jump_times,
                             jump_signs=traj.jump_signs)
        assert abs(functional_A(m, shifted) - 2.0 * T) < 1e-12


def test_functional_A_rejects_negative_states():
    traj = Trajectory(horizon=1.0, jump_times=(0.5,), jump_signs=(-1,))
    with pytest.raises(PreconditionError):
        functional_A(UNIT, traj)


def test_functional_B_examples():
    empty = Trajectory(horizon=1.0, jump_times=(), jump_signs=())
    assert functional_B(UNIT, empty) == 0.0
    path = Trajectory(horizon=1.0, jump_times=(0.2, 0.4, 0.6), jump_signs=(1, 1, -1))
    # ln lambda(0) + ln lambda(1) + ln mu(2) = 0 + 0 + ln 2
    assert abs(functional_B(UNIT, path) - math.log(2.0)) < 1e-12
    dead = Trajectory(horizon=1.0, jump_times=(0.2, 0.4), jump_signs=(1, -1))
    live = functional_B(UNIT, dead)
    assert live == math.log(1.0)  # down from 1 has rate mu(1) = 1
    from_zero = Trajectory(horizon=1.0, jump_times=(0.3,), jump_signs=(-1,),
                           initial_state=1)
    two_down = Trajectory(horizon=1.0, jump_times=(0.3, 0.5), jump_signs=(-1, -1),
                          initial_state=1)
    assert functional_B(UNIT, from_zero) == 0.0
    assert functional_B(UNIT, two_down) == NEG_INF


def test_log_density_zero_jumps():
    traj = Trajectory(horizon=3.5, jump_times=(), jump_signs=())
    # -(eta(0) - 1) * T with eta(0) = 1 under the unit model
    assert log_density(UNIT, traj) == 0.0
    m = RateModel(kind="canonical", P=2.0, Q=1.0, l=0.0)
    assert abs(log_density(m, traj) - (-(2.0 - 1.0) * 3.5)) < 1e-12


def test_log_density_one_jump():
    t1 = 0.75
    traj = Trajectory(horizon=3.0, jump_times=(t1,), jump_signs=(1,))
    want = -(3.0 - t1) + math.log(2.0)
    assert abs(log_density(UNIT, traj) - want) < 1e-12


def test_log_density_linear_space_oracle():
    # constant-rate table, two jumps: multiply the per-segment and
    # per-jump factors directly in linear space and compare logs
    m = RateModel(kind="table", table=tuple([(1.0, 1.0)] * 10))
    traj = Trajectory(horizon=3.0, jump_times=(1.0, 2.0), jump_signs=(1, -1))
    holds = [(1.0, 0), (1.0, 1), (1.0, 1)]  # (length, state) per segment
    product = 1.0
    for tau, x in holds:
        product *= math.exp(-(total_rate(m, x) - 1.0) * tau)
    product *= 2.0 * 1.0  # up-jump from 0, rate lambda(0) = 1
    product *= 2.0 * 1.0  # down-jump from 1, rate mu(1) = 1
    assert abs(log_density(m, traj) - math.log(product)) < 1e-12


def test_log_density_requires_path_space():
    outside = Trajectory(horizon=1.0, jump_times=(0.5,), jump_signs=(-1,))
    with pytest.raises(PreconditionError):
        log_density(UNIT, outside)


def test_log_density_splits_additively():
    m = RateModel(kind="canonical", P=1.5, Q=0.8, l=0.5)
    for replica in range(40):
        traj = simulate_xi(m, 4.0, RngStream(37, replica))
        s = 1.7  # not a jump time with probability 1
        assert s not in traj.jump_times
        k = sum(1 for t in traj.jump_times if t < s)
        first = Trajectory(horizon=s, jump_times=traj.jump_times[:k],
                           jump_signs=traj.jump_signs[:k])
        second = Trajectory(
            horizon=4.0 - s,
            jump_times=tuple(t - s for t in traj.jump_times[k:]),
            jump_signs=traj.jump_signs[k:],
            initial_state=first.final_state(),
        )
        split_sum = 0.0
        for seg in (first, second):
            split_sum += (seg.horizon - functional_A(m, seg) + functional_B(m, seg)
                          + count_jumps(seg) * math.log(2.0))
        assert abs(split_sum - log_density(m, traj)) < 1e-10


def test_estimate_invariants():
    with pytest.raises(PreconditionError):
        Estimate(log_value=NEG_INF, relative_std_error=1.0, n_samples=10, n_hits=2)
    with pytest.raises(PreconditionError):
        Estimate(log_value=0.0, relative_std_error=1.0, n_samples=10, n_hits=0)
    with pytest.raises(PreconditionError):
        Estimate(log_value=0.0, relative_std_error=-1.0, n_samples=10, n_hits=5)
    with pytest.raises(PreconditionError):
        Estimate(log_value=0.0, relative_std_error=0.0, n_samples=10, n_hits=11)
    with pytest.raises(PreconditionError):
        Estimate(log_value=0.0, relative_std_error=0.0, n_samples=10, n_hits=5,
                 max_weight_share=1.5)


def test_event_spec_validation():
    with pytest.raises(PreconditionError):
        EventSpec.level_cross(0.0)
    with pytest.raises(PreconditionError):
        EventSpec.terminal_window(0.5, 0.2)
    with pytest.raises(PreconditionError):
        EventSpec.terminal_window(-0.1, 0.2)
    with pytest.raises(PreconditionError):
        EventSpec.neighborhood(PiecewiseFunction.constant(0.0), 0.0)
    with pytest.raises(PreconditionError):
        EventSpec(kind="nonsense")


def test_event_occurrence():
    traj = Trajectory(horizon=2.0, jump_times=(0.5, 1.0, 1.5), jump_signs=(1, 1, -1))
    assert EventSpec.full_space().occurs(traj, 2.0, 4.0)
    # final state 1, peak 2
    assert EventSpec.terminal_window(0.0, 0.25).occurs(traj, 2.0, 4.0)
    assert not EventSpec.terminal_window(0.3, 1.0).occurs(traj, 2.0, 4.0)
    assert EventSpec.level_cross(0.5).occurs(traj, 2.0, 4.0)
    assert not EventSpec.level_cross(0.51).occurs(traj, 2.0, 4.0)
    center = PiecewiseFunction.constant(0.0)
    assert EventSpec.neighborhood(center, 0.5).occurs(traj, 2.0, 4.0)
    assert not EventSpec.neighborhood(center, 0.1).occurs(traj, 2.0, 4.0)
    # peak includes the start point for shifted initial states
    high_start = Trajectory(horizon=2.0, jump_times=(1.0,), jump_signs=(-1,),
                            initial_state=3)
    assert EventSpec.level_cross(0.75).occurs(high_start, 2.0, 4.0)


def test_direct_full_space_is_exactly_one():
    est = direct_estimate(UNIT, 2.0, 1.0, EventSpec.full_space(), 500, 41)
    assert est.log_value == 0.0
    assert est.relative_std_error == 0.0
    assert est.n_hits == 500


def test_direct_terminal_zero_matches_exact_law():
    n = 100_000
    est = direct_estimate(UNIT, 3.0, 1.0, EventSpec.terminal_window(0.0, 0.0), n, 43)
    p = math.exp(-(1.0 - math.exp(-3.0)))
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(math.exp(est.log_value) - p) <= 4.0 * se


def test_importance_terminal_zero_matches_exact_law():
    n = 100_000
    est = importance_estimate(UNIT, 3.0, 1.0, EventSpec.terminal_window(0.0, 0.0), n, 47)
    p = math.exp(-(1.0 - math.exp(-3.0)))
    p_hat = math.exp(est.log_value)
    assert abs(p_hat - p) <= 4.0 * p_hat * est.relative_std_error


def test_impossible_event_gives_no_hits():
    # a neighborhood too tight around an unreachable profile
    far = PiecewiseFunction.constant(50.0)
    est = importance_estimate(UNIT, 1.0, 1.0, EventSpec.neighborhood(far, 1e-6), 200, 53)
    assert est.log_value == NEG_INF
    assert est.n_hits == 0
    assert est.relative_std_error == math.inf
    assert est.max_weight_share == 0.0


def test_importance_weights_finite_iff_path_space():
    args = (UNIT, 2.0, 1.0, EventSpec.full_space(), 59, 0, 400)
    weights = _importance_chunk(args)
    for r, w in enumerate(weights):
        inside = in_path_space(_reference_zeta_path(2.0, RngStream(59, r)))
        assert (w != NEG_INF) == inside


def test_estimators_agree_on_small_T_battery():
    center = PiecewiseFunction.constant(0.0)
    battery = [
        EventSpec.full_space(),
        EventSpec.terminal_window(0.0, 0.0),
        EventSpec.terminal_window(0.0, 1.0),
        EventSpec.level_cross(1.0),
        EventSpec.neighborhood(center, 0.6),
    ]
    n = 30_000
    for i, event in enumerate(battery):
        d = direct_estimate(UNIT, 2.0, 2.0, event, n, 61 + i)
        imp = importance_estimate(UNIT, 2.0, 2.0, event, n, 1061 + i)
        assert agreement_z(d, imp) <= 3.0, event.kind


def test_full_space_normalization_battery():
    # the identity P(chain stays in its own path space) = 1, checked for
    # every canonical combination with birth rate at most the reference
    # walk's total rate; there the reported error bars are trustworthy
    n = 100_000
    for P in (0.5, 1.0):
        for Q in (0.5, 1.0, 2.0):
            for l in (0.0, 0.5):
                for T in (1.0, 3.0):
                    m = RateModel(kind="canonical", P=P, Q=Q, l=l)
                    est = importance_estimate(
                        m, T, 1.0, EventSpec.full_space(), n, 67, threads=4
                    )
                    assert abs(est.log_value) <= 4.0 * est.relative_std_error, (P, Q, l, T)


def test_full_space_normalization_undercovers_at_high_birth_rate():
    # when the birth rate outruns the reference walk, the weight
    # distribution is too heavy-tailed for the sample standard error to
    # be believed: whether a 4-sigma check passes depends on whether a
    # dominant weight happened to be drawn.  At this seed, 9 of the 12
    # double-birth-rate combinations violate the bound, the worst by
    # more than 10 sigma, while every estimate stays below the truth.
    n = 100_000
    violations = 0
    worst = 0.0
    for Q in (0.5, 1.0, 2.0):
        for l in (0.0, 0.5):
            for T in (1.0, 3.0):
                m = RateModel(kind="canonical", P=2.0, Q=Q, l=l)
                est = importance_estimate(
                    m, T, 1.0, EventSpec.full_space(), n, 67, threads=4
                )
                assert est.log_value < 0.0, (Q, l, T)
                ratio = abs(est.log_value) / est.relative_std_error
                worst = max(worst, ratio)
                if ratio > 4.0:
                    violations += 1
    assert violations == 9
    assert worst > 10.0


def test_full_space_estimate_tightens_with_more_samples():
    # consistency at a mildly heavy-tailed corner: growing the sample
    # 16-fold moves the full-space estimate much closer to log 1 = 0
    m = RateModel(kind="canonical", P=2.0, Q=0.5, l=0.5)
    small = importance_estimate(m, 1.0, 1.0, EventSpec.full_space(), 100_000, 67, threads=4)
    large = importance_estimate(m, 1.0, 1.0, EventSpec.full_space(), 1_600_000, 67, threads=4)
    assert abs(large.log_value) < abs(small.log_value) / 2.0


def test_estimator_determinism_and_chunk_independence():
    event = EventSpec.terminal_window(0.0, 0.5)
    serial = importance_estimate(UNIT, 3.0, 2.0, event, 9000, 71, threads=0)
    parallel = importance_estimate(UNIT, 3.0, 2.0, event, 9000, 71, threads=3)
    assert serial == parallel
    again = importance_estimate(UNIT, 3.0, 2.0, event, 9000, 71, threads=0)
    assert serial == again
    other_seed = importance_estimate(UNIT, 3.0, 2.0, event, 9000, 72, threads=0)
    assert other_seed != serial


class CountingPool:
    """Stands in for the process pool: records its size and its shutdowns,
    runs each submitted chunk in-process."""

    def __init__(self, max_workers, started, stopped):
        self.size, self.stopped = max_workers, stopped
        started.append(max_workers)

    def submit(self, fn, args):
        future = Future()
        try:
            future.set_result(fn(args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        assert wait
        self.stopped.append(self.size)


def _counting_pools(monkeypatch):
    started, stopped = [], []
    monkeypatch.setattr(
        "bdlab.weights.ProcessPoolExecutor",
        lambda max_workers: CountingPool(max_workers, started, stopped),
    )
    return started, stopped


def test_pool_starts_no_more_workers_than_chunks(no_pool, monkeypatch):
    started, _ = _counting_pools(monkeypatch)
    # 8193 replicas make three 4096-replica chunks
    pooled = terminal_states(UNIT, 0.5, 8193, 5, threads=64)
    assert started == [3]
    assert pooled == terminal_states(UNIT, 0.5, 8193, 5, threads=0)
    assert len(pooled) == 8193 and all(type(x) is int and x >= 0 for x in pooled)


def test_one_pool_serves_calls_until_one_needs_more_workers(no_pool, monkeypatch):
    started, stopped = _counting_pools(monkeypatch)
    window = EventSpec.terminal_window(0.0, 0.5)
    serial = importance_estimate(UNIT, 1.0, 2.0, window, 8192, 3, threads=0)
    for threads in (2, 2, 3):  # two chunks need two workers
        assert importance_estimate(UNIT, 1.0, 2.0, window, 8192, 3, threads) == serial
    terminal_states(UNIT, 0.5, 4096, 5, threads=2)  # one chunk: serial, no pool
    assert (started, stopped) == ([2], [])
    terminal_states(UNIT, 0.5, 8193, 5, threads=3)  # three chunks need three
    assert (started, stopped) == ([2, 3], [2])
    terminal_states(UNIT, 0.5, 8193, 5, threads=2)  # a pool above threads is not reused
    assert (started, stopped) == ([2, 3, 2], [2, 3])


def _die(args):
    """A chunk worker that kills the worker process it runs in."""
    os._exit(1)


def test_a_dead_worker_drops_the_pool(no_pool):
    want = terminal_states(UNIT, 1.0, 8192, 7, threads=0)
    # the second time the dead worker's call is planned (the plan reads
    # phi_of_T at common[2])
    for plan in ([], [(_die, (None, None, 1.0), 8192)]):
        with weights._planned(plan, 2):
            with pytest.raises(BrokenProcessPool):
                _run_chunks(_die, (None, None, 1.0), 8192, 2)
        assert weights._pool is None
        assert terminal_states(UNIT, 1.0, 8192, 7, threads=2) == want


def test_a_chunk_error_keeps_the_pool(no_pool):
    # a table that runs out: some replica of each chunk leaves it
    short = RateModel(kind="table", table=((2.0, 0.0), (2.0, 1.0), (2.0, 1.0)))
    window = EventSpec.terminal_window(0.0, 0.5)
    for threads in (0, 2):
        with pytest.raises(PreconditionError, match="outside rate table"):
            direct_estimate(short, 4.0, 2.0, window, 8192, 3, threads)
    pool = weights._pool
    assert pool is not None
    want = terminal_states(UNIT, 1.0, 8192, 7, threads=0)
    assert terminal_states(UNIT, 1.0, 8192, 7, threads=2) == want
    assert weights._pool is pool


def test_estimates_equal_across_pool_sizes(no_pool):
    # three chunks: the pool grows to three workers and shrinks back to two
    window = EventSpec.terminal_window(0.0, 0.5)
    got = []
    for threads in (2, 3, 2, 0):
        got.append(importance_estimate(UNIT, 1.0, 2.0, window, 8193, 13, threads))
        got.append(direct_estimate(UNIT, 1.0, 2.0, window, 8193, 17, threads))
        assert weights._pool_size == max(threads, 2)
    assert got[0::2] == got[:1] * 4 and got[1::2] == got[1:2] * 4


def _exit_code(pid: int) -> int | None:
    """A forked child's exit code; None if it ran past a minute and was killed."""
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        return None
    return os.waitstatus_to_exitcode(done[1])


def test_a_forked_child_starts_its_own_pool(no_pool):
    want = terminal_states(UNIT, 1.0, 8192, 7, threads=0)
    assert terminal_states(UNIT, 1.0, 8192, 7, threads=2) == want
    parent_pool = weights._pool
    pid = os.fork()
    if pid == 0:  # the child: exit status 0 only if all went as it should
        ok = weights._pool is None
        try:
            ok = ok and terminal_states(UNIT, 1.0, 8192, 7, threads=2) == want
            ok = ok and weights._pool is not None
            weights._drop_pool()
        finally:
            os._exit(0 if ok else 1)
    assert _exit_code(pid) == 0
    assert weights._pool is parent_pool
    assert terminal_states(UNIT, 1.0, 8192, 7, threads=2) == want


WINDOW = EventSpec.terminal_window(0.0, 0.5)
# one importance call of two chunks: its arguments and its plan entry
PLANNED = (UNIT, 1.0, 2.0, WINDOW, 8192, 3)
PLAN_KEY = (_importance_chunk, (UNIT, 1.0, 2.0, WINDOW, 3), 8192)


def test_a_plan_belongs_to_its_thread(no_pool):
    want = importance_estimate(*PLANNED, threads=0)
    got = []
    other = threading.Thread(target=lambda: got.append(importance_estimate(*PLANNED, threads=2)))
    with weights._planned([PLAN_KEY], 2):
        plan = list(weights._local.plan)
        other.start()
        other.join(timeout=0.5)  # it waits for the pool the plan holds
        assert weights._local.plan == plan and len(plan) == 1
        assert importance_estimate(*PLANNED, threads=2) == want
        assert weights._local.plan == []
    other.join(timeout=60.0)
    assert not other.is_alive() and got == [want]
    assert getattr(weights._local, "plan", None) is None


def test_a_child_forked_under_a_plan_starts_without_it(no_pool):
    want = importance_estimate(*PLANNED, threads=0)
    with weights._planned([PLAN_KEY], 2):
        pid = os.fork()
        if pid == 0:  # the child: exit status 0 only if all went as it should
            ok = getattr(weights._local, "plan", None) is None and weights._pool is None
            try:
                ok = ok and importance_estimate(*PLANNED, threads=2) == want
                weights._drop_pool()
            finally:
                os._exit(0 if ok else 1)
        assert _exit_code(pid) == 0
        assert len(weights._local.plan) == 1
        assert importance_estimate(*PLANNED, threads=2) == want
        assert weights._local.plan == []


def test_agreement_z_conventions():
    hit = Estimate(log_value=-1.0, relative_std_error=0.1, n_samples=10, n_hits=5,
                   max_weight_share=0.3)
    none = Estimate(log_value=NEG_INF, relative_std_error=math.inf, n_samples=10,
                    n_hits=0)
    assert agreement_z(hit, hit) == 0.0
    assert agreement_z(none, none) == 0.0
    z = agreement_z(hit, none)
    assert 0.0 < z < math.inf
    exact1 = Estimate(log_value=0.0, relative_std_error=0.0, n_samples=10, n_hits=10)
    exact2 = Estimate(log_value=-0.5, relative_std_error=0.0, n_samples=10, n_hits=10)
    assert agreement_z(exact1, exact2) == math.inf


def test_estimator_rejects_bad_n():
    with pytest.raises(PreconditionError):
        importance_estimate(UNIT, 1.0, 1.0, EventSpec.full_space(), 0, 1)
    with pytest.raises(PreconditionError):
        direct_estimate(UNIT, 1.0, 1.0, EventSpec.full_space(), -5, 1)


# ---------------------------------------------------------------------------
# the v1 stream: per-replica outputs pinned bit for bit

PIN_MODEL = RateModel(kind="canonical", P=2.0, Q=1.0, l=0.5)
PIN_EVENTS = [
    EventSpec.full_space(),
    EventSpec.terminal_window(0.0, 0.5),
    EventSpec.level_cross(1.0),
    EventSpec.neighborhood(PiecewiseFunction.linear((0.0, 1.0), (0.0, 0.5)), 0.6),
]
# sha256 of the comma-joined float.hex of each replica's log weight (and
# of the comma-joined terminal states), recorded on the per-replica
# engine that simulated one Trajectory per replica; seeds 83 + event index
V1_PINS = {
    "importance": [
        "9e1ddb6304cdf7effa15f15e3c3e64d024da5587a4929538690b2c95f164c066",
        "f5851e95571dea259f37f48b9504a62f6154c7540e52192e3cec177933d10119",
        "9a40c1b65045fe23f027d84f9d67d098f4858ecec1dccd71ae939fa27f753010",
        "60a6de98e6249a3f54e9767f476e07bd24eba9964aa99a4dcd86da107dac842e",
    ],
    "direct": [
        "02d225cec1c042d5d09d78ddeb72822a76667c8ca39d1bb1e3d607ab0f5b7b57",
        "f16a9f6f0ffb8644fb6918c3bb7c4d21777156dd4d23b0a6ab5c17f64af11b4f",
        "5974a55b74d86a2d4184bb64c3bf48b99895edce5ccc943b20c6a684cd99c978",
        "34992ae7f03c0be44d7b88a346260559aeacec4b19366cbbaf3dd94cbb463826",
    ],
    "terminal": {
        "unit": "f8f7f0f0789ef534e797641fda17ad871e45a699ad270b55a40ffa54f91ce7e0",
        "chain": "5a909c1ae57aab22910e5b96912d3c075638a306a5b7a3a8d621e45a9e44c594",
    },
}


def _digest(values):
    text = ",".join(v.hex() if isinstance(v, float) else str(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("threads", [0, 2])
def test_v1_stream_pin(threads):
    # 4200 replicas: two chunks, so threads=2 sends them to the pool
    n = 4200
    for worker, name in ((_importance_chunk, "importance"), (_direct_chunk, "direct")):
        for i, event in enumerate(PIN_EVENTS):
            logw = _run_chunks(worker, (PIN_MODEL, 2.0, 2.0, event, 83 + i), n, threads)
            assert len(logw) == n
            assert _digest(logw) == V1_PINS[name][i], (name, event.kind)
    for model, name in ((UNIT, "unit"), (PIN_MODEL, "chain")):
        finals = terminal_states(model, 2.0, n, 89, threads)
        assert all(type(x) is int for x in finals)
        assert _digest(finals) == V1_PINS["terminal"][name]


# neighborhood events whose centers have interior breakpoints, so that
# lane segments are split at them; recorded on the engine that built each
# lane's scaled path and merged it with the center; seeds 93 + event index
SPLIT_PIN_EVENTS = [
    EventSpec.neighborhood(PiecewiseFunction.step((0.0, 0.25, 0.6, 1.0), (0.25, 0.75, 0.5)), 0.4),
    EventSpec.neighborhood(
        PiecewiseFunction.linear((0.0, 0.3, 0.7, 1.0), (0.0, 0.75, 0.5, 0.75)), 0.4
    ),
]
SPLIT_PINS = {
    "importance": [
        "877fee9fa0af616cbc394339dd12af05abffd733fccbbba8e1ece5be94d4a9f3",
        "0b86326854d4566bd2395410a6754b6cb6936b6883a0a28716c59dc0e78216d5",
    ],
    "direct": [
        "8f44ea213bf39daf06d60c122d5d9c70ec3471442abac3a33ad65169596fc5f6",
        "77fb89aa82549e1ac5a4e277e7c671535dcdac4b73e7b4f195d476d55adc5ae2",
    ],
}


@pytest.mark.parametrize("threads", [0, 2])
def test_v1_stream_pin_split_neighborhoods(threads):
    n = 4200
    for worker, name in ((_importance_chunk, "importance"), (_direct_chunk, "direct")):
        for i, event in enumerate(SPLIT_PIN_EVENTS):
            logw = _run_chunks(worker, (PIN_MODEL, 2.0, 2.0, event, 93 + i), n, threads)
            assert len(logw) == n
            assert 0 < sum(w != NEG_INF for w in logw) < n
            assert _digest(logw) == SPLIT_PINS[name][i], (name, event.center.mode)


# per-replica references from the block-draw loops of tests/reference_walk.py,
# which share no code with the lane walk that the chunks run


def _reference_zeta_path(T, stream):
    return Trajectory(T, *reference_zeta(T, stream.generator()))


def _reference_xi_path(model, T, stream):
    return Trajectory(T, *reference_xi(model, T, stream.generator()))


def _reference_log_weight(model, T, p, event, stream):
    traj = _reference_zeta_path(T, stream)
    if in_path_space(traj) and event.occurs(traj, T, p):
        return log_density(model, traj)
    return NEG_INF


@pytest.mark.parametrize("event", PIN_EVENTS, ids=lambda e: e.kind)
def test_chunks_equal_the_public_per_replica_functions(event):
    # a span that starts mid-way and crosses two lane blocks
    seed, start, stop = 101, 4000, 4600
    for model, T, p in ((PIN_MODEL, 2.0, 2.0), (UNIT, 3.0, 2.5)):
        streams = [RngStream(seed, r) for r in range(start, stop)]
        want = [_reference_log_weight(model, T, p, event, s) for s in streams]
        assert _importance_chunk((model, T, p, event, seed, start, stop)) == want
        assert 0 < sum(w != NEG_INF for w in want) < len(want) or event.kind == "full_space"
        paths = [_reference_xi_path(model, T, s) for s in streams]
        want = [0.0 if event.occurs(traj, T, p) else NEG_INF for traj in paths]
        assert _direct_chunk((model, T, p, event, seed, start, stop)) == want
        finals = terminal_states(model, T, stop, seed)[start:]
        assert finals == [traj.final_state() for traj in paths]


def test_estimators_match_a_per_replica_stream_reference():
    # 4200 replicas make two chunks, so threads=2 really uses the pool
    n, T = 4200, 1.0
    p = phi(ScalingFamily.exponential(1.0), T)
    window = EventSpec.terminal_window(0.0, 0.5)
    xi = lambda seed, r: _reference_xi_path(UNIT, T, RngStream(seed, r))  # noqa: E731
    reference = {
        "importance": _estimate_from_logw(
            [_reference_log_weight(UNIT, T, p, window, RngStream(71, r)) for r in range(n)]
        ),
        "direct": _estimate_from_logw(
            [0.0 if window.occurs(xi(73, r), T, p) else NEG_INF for r in range(n)]
        ),
        "terminal": [xi(79, r).final_state() for r in range(n)],
    }
    runs = {
        "importance": lambda th: importance_estimate(UNIT, T, p, window, n, 71, th),
        "direct": lambda th: direct_estimate(UNIT, T, p, window, n, 73, th),
        "terminal": lambda th: terminal_states(UNIT, T, n, 79, th),
    }
    assert 0 < reference["importance"].n_hits < n
    assert 0 < reference["direct"].n_hits < n
    for threads in (0, 2):
        assert {name: run(threads) for name, run in runs.items()} == reference


def test_chunks_past_two_to_the_64_keep_seed_sequence():
    start, stop = 2**64 - 3, 2**64 + 3
    want = [_reference_xi_path(UNIT, 2.0, RngStream(9, r)).final_state() for r in range(start, stop)]
    assert _terminal_chunk((UNIT, 2.0, 9, start, stop)) == want
    window = EventSpec.terminal_window(0.0, 1.0)
    want = [_reference_log_weight(UNIT, 2.0, 1.0, window, RngStream(9, r)) for r in range(start, stop)]
    assert _importance_chunk((UNIT, 2.0, 1.0, window, 9, start, stop)) == want
    for seed, start in ((2**64, 0), (0, -1)):
        with pytest.raises(PreconditionError):
            _terminal_chunk((UNIT, 2.0, seed, start, start + 3))


def test_estimators_refuse_a_bad_phi():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(PreconditionError, match="phi_of_T must be positive"):
            importance_estimate(UNIT, 1.0, bad, EventSpec.terminal_window(0.0, 1.0), 10, 1)
        with pytest.raises(PreconditionError, match="phi_of_T must be positive"):
            direct_estimate(UNIT, 1.0, bad, EventSpec.level_cross(1.0), 10, 1)


# ---------------------------------------------------------------------------
# the log density of a whole reference-walk block against log_density


# rates that are no round numbers, and mu(0) > 0, which a reference walk
# that stays nonnegative never uses
BLOCK_TABLE = RateModel(
    kind="table", table=tuple((1.0 + 0.5 * math.sin(x), 0.3 + 0.7 * x) for x in range(400))
)
BLOCK_MODELS = [UNIT, PIN_MODEL, BLOCK_TABLE]


def _per_lane_log_weights(model, T, p, event, seed, start, stop):
    """Each lane's log weight from log_density of its path's Trajectory, and
    the blocks the lanes came from."""
    want, blocks = [], list(_zeta_lanes(T, seed, start, stop))
    for lanes in blocks:
        for i, hit in enumerate(event._lane_hits(lanes, T, p).tolist()):
            want.append(log_density(model, Trajectory(T, *lanes.path(i))) if hit else NEG_INF)
    return want, blocks


def _hex(values):
    return [v.hex() for v in values]


# the shipped widths, one and three lanes a block, and a switch to 512
# lanes after the first block
@pytest.mark.parametrize("widths", [None, (1, 3, 0), (256, 512, 0)])
@pytest.mark.parametrize("T", [0.5, 3.0, 30.0, 150.0])
def test_block_log_density_equals_log_density_of_each_path(monkeypatch, widths, T):
    if widths is not None:
        for name, value in zip(("_LANES", "_WIDE_LANES", "_LONG_WALK"), widths):
            monkeypatch.setattr(process, name, value)
    n, p = 600, math.sqrt(T) + 1.0
    hit_jumps, below_zero = [], 0
    for model in BLOCK_MODELS:
        for event in (EventSpec.full_space(), EventSpec.terminal_window(0.0, 1.0)):
            got = _importance_chunk((model, T, p, event, 131, 40, 40 + n))
            want, blocks = _per_lane_log_weights(model, T, p, event, 131, 40, 40 + n)
            assert _hex(got) == _hex(want), (model, event.kind)
            jumps = [j for lanes in blocks for j in lanes.jumps.tolist()]
            hit_jumps += [j for j, w in zip(jumps, want) if w != NEG_INF]
            below_zero += sum(int(lanes.below_zero.sum()) for lanes in blocks)
    assert below_zero > 0 and hit_jumps
    if T == 0.5:
        assert 0 in hit_jumps
    if T == 150.0:
        # hit lanes that refilled their exponential row
        assert max(hit_jumps) > 128


def test_block_log_density_builds_rates_only_for_hit_lanes():
    # hits are the lanes that stay below state 3 of a 3-entry table; other
    # lanes that stay nonnegative go past it, and never raise
    short = RateModel(kind="table", table=((1.0, 0.0), (1.5, 1.0), (0.5, 2.0)))
    T, seen_above = 4.0, 0
    rates = _StateTable(short, _density_row)
    for lanes in _zeta_lanes(T, 3, 0, 1000):
        alive = ~lanes.below_zero
        hits = alive & (lanes.peak < 3)
        seen_above += int((alive & ~hits).sum())
        got = _lane_log_weights(rates, lanes, hits, T)
        want = [log_density(short, Trajectory(T, *lanes.path(i))) if hit else NEG_INF
                for i, hit in enumerate(hits.tolist())]
        assert _hex(got) == _hex(want)
    assert seen_above > 0
    assert len(rates.upto(0)[0]) == 3


@pytest.mark.parametrize("threads", [0, 2])
def test_block_log_density_keeps_the_table_error(threads):
    short = RateModel(kind="table", table=((1.0, 0.0), (1.5, 1.0), (0.5, 2.0)))
    T, n, full = 4.0, 4200, EventSpec.full_space()  # two chunks: threads=2 pools them
    with pytest.raises(PreconditionError) as want:
        _per_lane_log_weights(short, T, 1.0, full, 3, 0, n)
    with pytest.raises(PreconditionError) as got:
        importance_estimate(short, T, 1.0, full, n, 3, threads)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value) == "state 3 outside rate table (size 3)"
    # the same lanes, none of them a hit: none raises
    far = importance_estimate(short, T, 1.0, EventSpec.terminal_window(50.0, 60.0), n, 3, threads)
    assert far.n_hits == 0


def _estimate_over_every_entry(logw):
    """_estimate_from_logw as it reduced every entry, -inf ones included."""
    n = len(logw)
    hits = sum(1 for w in logw if w != NEG_INF)
    if hits == 0:
        return Estimate(NEG_INF, float("inf"), n, 0, 0.0)
    m = max(logw)
    shifted = [w - m for w in logw]
    s1 = math.fsum(math.exp(w) for w in shifted)
    s2 = math.fsum(math.exp(2.0 * w) for w in shifted)
    rel_se = (math.sqrt(max(s2 - s1 * s1 / n, 0.0) / (n - 1)) * math.sqrt(n) / s1
              if n > 1 else float("inf"))
    return Estimate(m + math.log(s1) - math.log(n), rel_se, n, hits, 1.0 / s1)


def test_estimate_reduced_over_hits_equals_every_entry():
    window = EventSpec.terminal_window(0.0, 0.5)
    cases = [
        [NEG_INF] * 5,
        [NEG_INF],
        [-2.5],
        [NEG_INF, NEG_INF, -2.5, NEG_INF],
        _importance_chunk((PIN_MODEL, 2.0, 2.0, window, 83, 0, 3000)),
        _importance_chunk((UNIT, 3.0, 2.0, EventSpec.full_space(), 85, 0, 3000)),
        _direct_chunk((PIN_MODEL, 2.0, 2.0, window, 87, 0, 3000)),
    ]
    for logw in cases:
        got, want = _estimate_from_logw(logw), _estimate_over_every_entry(logw)
        assert got == want and repr(got) == repr(want)
    assert all(0 < sum(w != NEG_INF for w in logw) < len(logw) for logw in cases[4:])
    assert set(cases[-1]) == {0.0, NEG_INF}
