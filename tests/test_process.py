import dataclasses
import math

import numpy as np
import pytest

from bdlab.errors import PreconditionError
from bdlab.harness import derive_seed
from bdlab.process import (
    _BLOCK,
    _ChainRates,
    _jump_path,
    _state_rates,
    _walk_lanes,
    _zeta_rates,
    RateModel,
    RngStream,
    Trajectory,
    birth_rate,
    death_rate,
    in_path_space,
    replica_streams,
    simulate_xi,
    simulate_zeta,
    total_rate,
)

UNIT = RateModel(kind="canonical", P=1.0, Q=1.0, l=0.0)


def test_total_rate_canonical_at_zero():
    assert total_rate(UNIT, 0) == 1.0


def test_total_rate_canonical_values():
    m = RateModel(kind="canonical", P=2.0, Q=0.5, l=0.0)
    assert total_rate(m, 4) == 4.0
    m = RateModel(kind="canonical", P=1.0, Q=1.0, l=0.5)
    assert total_rate(m, 4) == 6.0


def test_rate_model_validation():
    with pytest.raises(PreconditionError):
        RateModel(kind="canonical", P=0.0, Q=1.0, l=0.0)
    with pytest.raises(PreconditionError):
        RateModel(kind="canonical", P=1.0, Q=-1.0, l=0.0)
    with pytest.raises(PreconditionError):
        RateModel(kind="canonical", P=1.0, Q=1.0, l=1.0)
    with pytest.raises(PreconditionError):
        RateModel(kind="canonical", P=1.0, Q=1.0, l=-0.1)
    with pytest.raises(PreconditionError):
        RateModel(kind="bogus")
    with pytest.raises(PreconditionError):
        RateModel(kind="table", table=())
    with pytest.raises(PreconditionError):
        RateModel(kind="table", table=((0.0, 0.0),))
    # mu must be positive away from 0
    with pytest.raises(PreconditionError):
        RateModel(kind="table", table=((1.0, 0.0), (1.0, 0.0)))


def test_table_lookup_and_out_of_range():
    m = RateModel(kind="table", table=((1.0, 0.0), (2.0, 3.0)))
    assert birth_rate(m, 1) == 2.0
    assert death_rate(m, 1) == 3.0
    assert total_rate(m, 1) == 5.0
    with pytest.raises(PreconditionError):
        total_rate(m, 2)
    with pytest.raises(PreconditionError):
        birth_rate(m, -1)


def test_exact_law_flag():
    assert UNIT.exact_law_available
    assert not RateModel(kind="canonical", P=1.0, Q=1.0, l=0.5).exact_law_available
    assert not RateModel(kind="table", table=((1.0, 0.0), (1.0, 1.0))).exact_law_available


def test_constant_rate_table_allows_mu0_but_not_simulation():
    # constant-rate reference tables carry mu(0) > 0 for the functionals
    m = RateModel(kind="table", table=((1.0, 1.0), (1.0, 1.0)))
    assert death_rate(m, 0) == 1.0
    with pytest.raises(PreconditionError):
        simulate_xi(m, 1.0, RngStream(0, 0))


def test_trajectory_validation():
    with pytest.raises(PreconditionError):
        Trajectory(horizon=0.0, jump_times=(), jump_signs=())
    with pytest.raises(PreconditionError):
        Trajectory(horizon=1.0, jump_times=(0.5, 0.4), jump_signs=(1, 1))
    with pytest.raises(PreconditionError):
        Trajectory(horizon=1.0, jump_times=(0.5, 0.5), jump_signs=(1, 1))
    with pytest.raises(PreconditionError):
        Trajectory(horizon=1.0, jump_times=(1.0,), jump_signs=(1,))
    with pytest.raises(PreconditionError):
        Trajectory(horizon=1.0, jump_times=(0.5,), jump_signs=(2,))
    with pytest.raises(PreconditionError):
        Trajectory(horizon=1.0, jump_times=(0.5,), jump_signs=(1, -1))


def test_trajectory_states_are_prefix_sums():
    traj = Trajectory(horizon=1.0, jump_times=(0.2, 0.4, 0.6), jump_signs=(1, 1, -1))
    assert traj.states() == (0, 1, 2, 1)
    assert traj.final_state() == 1
    traj2 = Trajectory(horizon=1.0, jump_times=(0.5,), jump_signs=(-1,), initial_state=3)
    assert traj2.states() == (3, 2)


def test_stream_reproducibility():
    a = simulate_xi(UNIT, 5.0, RngStream(42, 7))
    b = simulate_xi(UNIT, 5.0, RngStream(42, 7))
    assert a.jump_times == b.jump_times
    assert a.jump_signs == b.jump_signs
    c = simulate_xi(UNIT, 5.0, RngStream(42, 8))
    assert (a.jump_times, a.jump_signs) != (c.jump_times, c.jump_signs)


def test_stream_validation():
    with pytest.raises(PreconditionError):
        RngStream(-1, 0)
    with pytest.raises(PreconditionError):
        RngStream(2**64, 0)
    with pytest.raises(PreconditionError):
        RngStream(0, -1)


def test_xi_first_jump_is_up():
    for r in range(200):
        traj = simulate_xi(UNIT, 2.0, RngStream(3, r))
        if traj.jump_signs:
            assert traj.jump_signs[0] == 1


def test_xi_paths_stay_in_path_space():
    for r in range(300):
        traj = simulate_xi(UNIT, 4.0, RngStream(5, r))
        assert in_path_space(traj)
        assert all(0.0 < t < 4.0 for t in traj.jump_times)


def test_xi_mean_final_state_matches_exact_mean():
    # mean of the closed-form terminal law at T=5 is 1 - exp(-5)
    n = 100_000
    total = 0
    for r in range(n):
        total += simulate_xi(UNIT, 5.0, RngStream(11, r)).final_state()
    mean = total / n
    a = 1.0 - math.exp(-5.0)
    se = math.sqrt(a / n)
    assert abs(mean - a) <= 4.0 * se


def test_zeta_zero_jump_fraction():
    n = 100_000
    zeros = sum(
        1 for r in range(n) if not simulate_zeta(3.0, RngStream(13, r)).jump_signs
    )
    p = math.exp(-3.0)
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(zeros / n - p) <= 4.0 * se


def test_zeta_jump_count_and_sign_split():
    n = 100_000
    total = 0
    ups = 0
    for r in range(n):
        traj = simulate_zeta(3.0, RngStream(17, r))
        total += len(traj.jump_signs)
        ups += sum(1 for s in traj.jump_signs if s == 1)
    se_n = math.sqrt(3.0 / n)
    assert abs(total / n - 3.0) <= 4.0 * se_n
    # up-jumps alone form a rate-1/2 process
    se_half = math.sqrt(1.5 / n)
    assert abs(ups / n - 1.5) <= 4.0 * se_half
    downs = total - ups
    assert abs(downs / n - 1.5) <= 4.0 * se_half


def test_xi_holding_time_at_zero():
    # first holding is exponential(eta(0)) = exponential(1); horizon 12
    # leaves conditioning bias ~1e-4, far below the 4-sigma band
    n = 20_000
    times = []
    for r in range(n):
        traj = simulate_xi(UNIT, 12.0, RngStream(19, r))
        if traj.jump_times:
            times.append(traj.jump_times[0])
    mean = sum(times) / len(times)
    se = 1.0 / math.sqrt(len(times))
    assert abs(mean - 1.0) <= 4.0 * se


def test_xi_jump_direction_frequency_from_state_one():
    # from state 1 under P=Q=1 the up-probability is 1/2
    ups = 0
    outs = 0
    for r in range(5_000):
        traj = simulate_xi(UNIT, 5.0, RngStream(23, r))
        states = traj.states()
        for i, s in enumerate(traj.jump_signs):
            if states[i] == 1:
                outs += 1
                ups += s == 1
    se = math.sqrt(0.25 / outs)
    assert abs(ups / outs - 0.5) <= 4.0 * se


def test_in_path_space_examples():
    up_down = Trajectory(horizon=1.0, jump_times=(0.3, 0.6), jump_signs=(1, -1))
    assert in_path_space(up_down)
    down_up = Trajectory(horizon=1.0, jump_times=(0.3, 0.6), jump_signs=(-1, 1))
    assert not in_path_space(down_up)
    empty = Trajectory(horizon=1.0, jump_times=(), jump_signs=())
    assert in_path_space(empty)
    shifted = Trajectory(horizon=1.0, jump_times=(0.5,), jump_signs=(-1,), initial_state=2)
    assert not in_path_space(shifted)


def test_generator_draws_are_bit_stable():
    g1 = RngStream(7, 3).generator()
    g2 = RngStream(7, 3).generator()
    np.testing.assert_array_equal(g1.random(16), g2.random(16))


def test_simulate_rejects_bad_horizon():
    with pytest.raises(PreconditionError):
        simulate_xi(UNIT, 0.0, RngStream(0, 0))
    with pytest.raises(PreconditionError):
        simulate_zeta(-1.0, RngStream(0, 0))
    with pytest.raises(PreconditionError):
        simulate_zeta(math.inf, RngStream(0, 0))


# ---------------------------------------------------------------------------
# vectorised substream seeding

WORD_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + [derive_seed(2026, 3, i) for i in range(3)]
WORD_SPANS = [
    (0, 8300),  # three 4096-replica blocks
    (4000, 4200),  # across the first chunk boundary, as a mid-chunk span
    (2**32 - 2100, 2**32 + 2100),  # r gains a second uint32 word
    (2**64 - 100, 2**64),  # the largest indices with a vectorised row
]


def test_replica_stream_words_equal_seed_sequence():
    checked = 0
    for seed in WORD_SEEDS:
        for start, stop in WORD_SPANS:
            streams = list(replica_streams(seed, start, stop))
            assert streams == [RngStream(seed, r) for r in range(start, stop)]
            got = np.array([s.seed_words for s in streams])
            want = np.array([
                np.random.SeedSequence((seed, r)).generate_state(4, np.uint64)
                for r in range(start, stop)
            ])
            assert got.dtype == np.uint64
            np.testing.assert_array_equal(got, want)
            checked += len(streams)
    assert checked >= 10**5


def test_replica_streams_past_two_to_the_64_keep_seed_sequence():
    streams = list(replica_streams(9, 2**64 - 2, 2**64 + 2))
    assert all(s.seed_words is None for s in streams)
    assert streams[-1].generator().random() == RngStream(9, 2**64 + 1).generator().random()
    with pytest.raises(PreconditionError):
        list(replica_streams(2**64, 0, 3))
    with pytest.raises(PreconditionError):
        list(replica_streams(0, -1, 3))
    assert list(replica_streams(0, 5, 5)) == []


def test_replica_streams_are_frozen_rng_streams():
    for r, stream in zip(range(10, 13), replica_streams(5, 10, 13)):
        assert type(stream) is RngStream
        assert stream == RngStream(5, r)
        assert repr(stream) == repr(RngStream(5, r))
        assert hash(stream) == hash(RngStream(5, r))
        with pytest.raises(dataclasses.FrozenInstanceError):
            stream.seed = 1


def test_replica_streams_simulate_the_same_paths():
    n = 3000
    xi = [simulate_xi(UNIT, 2.0, s) for s in replica_streams(41, 0, n)]
    zeta = [simulate_zeta(3.0, s) for s in replica_streams(43, 0, n)]
    assert xi == [simulate_xi(UNIT, 2.0, RngStream(41, r)) for r in range(n)]
    assert zeta == [simulate_zeta(3.0, RngStream(43, r)) for r in range(n)]


# ---------------------------------------------------------------------------
# the shared jump kernel against the block-draw loops it replaced


class _ReferenceDraws:
    def __init__(self, gen):
        self._gen = gen
        self._exp = []
        self._uni = []
        self._ei = 0
        self._ui = 0

    def exponential(self):
        if self._ei >= len(self._exp):
            self._exp = self._gen.standard_exponential(128).tolist()
            self._ei = 0
        v = self._exp[self._ei]
        self._ei += 1
        return v

    def uniform(self):
        if self._ui >= len(self._uni):
            self._uni = self._gen.random(128).tolist()
            self._ui = 0
        v = self._uni[self._ui]
        self._ui += 1
        return v


def _reference_advance(draws, t, rate):
    while True:
        dt = draws.exponential()
        if dt == 0.0:
            continue
        t_next = t + dt / rate
        if t_next > t:
            return t_next


def _reference_xi(model, T, stream):
    draws = _ReferenceDraws(stream.generator())
    t, x = 0.0, 0
    times, signs = [], []
    while True:
        lam = birth_rate(model, x)
        eta = lam + death_rate(model, x)
        t = _reference_advance(draws, t, eta)
        if t >= T:
            break
        if draws.uniform() < lam / eta:
            x += 1
            signs.append(1)
        else:
            x -= 1
            signs.append(-1)
        times.append(t)
    return tuple(times), tuple(signs)


def _reference_zeta(T, stream):
    draws = _ReferenceDraws(stream.generator())
    t = 0.0
    times, signs = [], []
    while True:
        t = _reference_advance(draws, t, 1.0)
        if t >= T:
            break
        signs.append(1 if draws.uniform() < 0.5 else -1)
        times.append(t)
    return tuple(times), tuple(signs)


class _Recording:
    """A stream whose generator logs every draw call it serves."""

    def __init__(self, stream, log):
        self._stream = stream
        self._log = log

    def generator(self):
        gen = self._stream.generator()
        log = self._log

        class Gen:
            def standard_exponential(self, size):
                log.append(("exp", size))
                return gen.standard_exponential(size)

            def random(self, size):
                log.append(("uni", size))
                return gen.random(size)

        return Gen()


def _jumps(traj):
    return traj.jump_times, traj.jump_signs


KERNEL_TABLE = RateModel(
    kind="table",
    table=tuple((1.0 + 0.5 * math.sin(x), 0.0 if x == 0 else 0.7 * x) for x in range(80)),
)
KERNEL_MODELS = [
    (RateModel(kind="canonical", P=1.0, Q=1.0, l=0.0), 4.0),
    (RateModel(kind="canonical", P=2.0, Q=1.0, l=0.5), 10.0),
    (RateModel(kind="canonical", P=20.0, Q=1.0, l=0.0), 1.5),
    (KERNEL_TABLE, 5.0),
]


@pytest.mark.parametrize("model,T", KERNEL_MODELS)
def test_jump_kernel_xi_equals_block_draw_reference(model, T):
    jumps = 0
    for r, stream in enumerate(replica_streams(61, 0, 2000)):
        got = _jumps(simulate_xi(model, T, stream))
        assert got == _reference_xi(model, T, RngStream(61, r))
        jumps += len(got[1])
    assert jumps > 2000
    # the same draw calls in the same order, so traced draw blocks agree
    for r in range(20):
        new_log, ref_log = [], []
        simulate_xi(model, T, _Recording(RngStream(61, r), new_log))
        _reference_xi(model, T, _Recording(RngStream(61, r), ref_log))
        assert new_log == ref_log


def test_jump_kernel_zeta_equals_block_draw_reference():
    for T in (3.0, 200.0):
        for r, stream in enumerate(replica_streams(67, 0, 2000 if T < 100 else 200)):
            got = _jumps(simulate_zeta(T, stream))
            assert got == _reference_zeta(T, RngStream(67, r))
        new_log, ref_log = [], []
        simulate_zeta(T, _Recording(RngStream(67, 0), new_log))
        _reference_zeta(T, _Recording(RngStream(67, 0), ref_log))
        assert new_log == ref_log


def test_jump_kernel_raises_where_the_table_runs_out():
    short = RateModel(kind="table", table=((2.0, 0.0), (2.0, 1.0), (2.0, 1.0), (2.0, 1.5)))
    messages = []
    for r in range(2000):
        try:
            want = _reference_xi(short, 4.0, RngStream(71, r))
        except PreconditionError as exc:
            want = str(exc)
            messages.append(want)
        try:
            got = _jumps(simulate_xi(short, 4.0, RngStream(71, r)))
        except PreconditionError as exc:
            got = str(exc)
        assert got == want
    assert 100 < len(messages) < 1900
    assert set(messages) == {"state 4 outside rate table (size 4)"}


class _FixedStream:
    """A stream that is its own generator: every block it serves starts
    with the given draws, padded to full size with the last of them."""

    def __init__(self, exps, unis):
        self._exps = exps
        self._unis = unis

    def generator(self):
        return self

    def standard_exponential(self, size):
        return np.array((self._exps + self._exps[-1:] * size)[:size])

    def random(self, size):
        return np.array((self._unis + self._unis[-1:] * size)[:size])


@pytest.mark.parametrize(
    "exps,T",
    [
        # a zero draw is drawn again
        ([0.0, 0.4, 0.0, 0.0, 0.3, 5.0], 2.0),
        # at t = 1e20 a draw of 1.0 does not move t and is drawn again
        ([1e20, 1.0, 2.0, 1e21, 1e30], 1e25),
    ],
)
def test_jump_kernel_redraws_like_the_reference(exps, T):
    unis = [0.25, 0.75, 0.1]
    for model in (UNIT, KERNEL_TABLE):
        got = _jumps(simulate_xi(model, T, _FixedStream(exps, unis)))
        assert got == _reference_xi(model, T, _FixedStream(exps, unis))
        assert len(got[0]) >= 2
    got = _jumps(simulate_zeta(T, _FixedStream(exps, unis)))
    assert got == _reference_zeta(T, _FixedStream(exps, unis))
    assert len(got[0]) >= 2


def test_kernel_paths_equal_their_validated_rebuild():
    for r in range(300):
        for traj in (simulate_xi(KERNEL_MODELS[1][0], 10.0, RngStream(73, r)),
                     simulate_zeta(3.0, RngStream(73, r))):
            assert type(traj) is Trajectory
            assert traj == Trajectory(traj.horizon, traj.jump_times, traj.jump_signs)
    with pytest.raises(PreconditionError):
        Trajectory(horizon=1.0, jump_times=(0.5, 0.5), jump_signs=(1, 1))


# ---------------------------------------------------------------------------
# the lockstep walker against the single-path kernel on the same streams


def _chain_rates_at(model):
    known = []

    def rates_at(x):
        if x == len(known):
            lam = birth_rate(model, x)
            eta = lam + death_rate(model, x)
            known.append((eta, lam / eta))
        return known[x]

    return rates_at


def _assert_lanes_match_kernel(make_gen, n, T, model=None, stop_below_zero=False):
    """Walk n lanes together and each lane alone on equal generators."""
    lane_rates = _zeta_rates if model is None else _ChainRates(model)
    lanes = _walk_lanes([make_gen(i) for i in range(n)], T, lane_rates, True, stop_below_zero)
    jumps = 0
    for i in range(n):
        rates_at = _zeta_rates if model is None else _chain_rates_at(model)
        traj = _jump_path(make_gen(i), T, rates_at)
        times, signs = lanes.path(i)
        below = not in_path_space(traj)
        assert lanes.below_zero[i] == (stop_below_zero and below)
        if lanes.below_zero[i]:
            # stopped at its first negative state: a prefix of the path
            k = lanes.jumps[i]
            assert (times, signs) == (list(traj.jump_times[:k]), list(traj.jump_signs[:k]))
            assert sum(signs) == -1 and min(np.cumsum(signs)) == -1
            continue
        assert (tuple(times), tuple(signs)) == _jumps(traj)
        assert lanes.final[i] == traj.final_state()
        assert lanes.peak[i] == max(traj.states())
        jumps += len(signs)
    return jumps


def _stream_gen(seed):
    return lambda i: RngStream(seed, i).generator()


@pytest.mark.parametrize("model,T", KERNEL_MODELS)
def test_lanes_equal_kernel_xi(model, T):
    assert _assert_lanes_match_kernel(_stream_gen(83), 600, T, model) > 600


def test_lanes_equal_kernel_zeta():
    for T in (0.5, 3.0):
        _assert_lanes_match_kernel(_stream_gen(89), 600, T)
        _assert_lanes_match_kernel(_stream_gen(89), 600, T, stop_below_zero=True)


def test_lanes_run_past_a_block_of_draws():
    # zeta at T=400 and xi at P=20, T=12 make several hundred jumps a lane,
    # so every lane refills both its exponential and its uniform row
    assert _assert_lanes_match_kernel(_stream_gen(97), 12, 400.0) > 12 * 3 * _BLOCK
    fast = RateModel(kind="canonical", P=20.0, Q=1.0, l=0.0)
    assert _assert_lanes_match_kernel(_stream_gen(97), 12, 12.0, fast) > 12 * 3 * _BLOCK


def test_lanes_equal_kernel_at_thousands_of_states():
    # lanes climb past 1,000 states at P = 2000, T = 1, through many
    # doublings of the chain's rate arrays
    fast = RateModel(kind="canonical", P=2000.0, Q=1.0, l=0.0)
    assert _assert_lanes_match_kernel(_stream_gen(101), 8, 1.0, fast) > 8 * 1000
    # one state more per call: the arrays are rebuilt at 1, 2, 4, ... states,
    # and at a table's end (80 states), never past it
    for model, top, rebuilds_wanted in ((fast, 2000, 12), (KERNEL_TABLE, 79, 8)):
        rates, rebuilds, last = _ChainRates(model), 0, None
        for x in range(top + 1):
            rates(np.array([x]))
            rebuilds += rates._eta is not last
            last = rates._eta
        assert rebuilds == rebuilds_wanted
        eta, p_up = rates(np.arange(top + 1))
        assert list(zip(eta.tolist(), p_up.tolist())) == [
            _state_rates(model, x) for x in range(top + 1)
        ]


def test_lanes_raise_where_the_table_runs_out():
    short = RateModel(kind="table", table=((2.0, 0.0), (2.0, 1.0), (2.0, 1.0), (2.0, 1.5)))
    messages = {}
    for r in range(300):
        try:
            _jump_path(RngStream(71, r).generator(), 4.0, _chain_rates_at(short))
        except PreconditionError as exc:
            messages[r] = str(exc)
    assert 10 < len(messages) < 290
    with pytest.raises(PreconditionError) as exc:
        _walk_lanes([RngStream(71, r).generator() for r in range(300)], 4.0,
                    _ChainRates(short), False, False)
    assert str(exc.value) == "state 4 outside rate table (size 4)"
    assert set(messages.values()) == {str(exc.value)}
    # the lanes that never leave the table walk on as the kernel does
    kept = [r for r in range(300) if r not in messages]
    _assert_lanes_match_kernel(lambda i: RngStream(71, kept[i]).generator(), len(kept), 4.0, short)


class _FixedGen:
    """A generator whose every block starts with the given draws, padded
    to full size with the last of them; serves both sized and out= calls."""

    def __init__(self, exps, unis):
        self._exps = exps
        self._unis = unis

    @staticmethod
    def _block(draws, size, out):
        values = (draws + draws[-1:] * _BLOCK)[: _BLOCK if out is None else out.size]
        if out is None:
            return np.array(values[:size])
        out[:] = values
        return out

    def standard_exponential(self, size=None, out=None):
        return self._block(self._exps, size, out)

    def random(self, size=None, out=None):
        return self._block(self._unis, size, out)


# a zero draw, draws that do not move t = 1e20, and (second) blocks in
# which one draw moves t and the other 127 stall, so that each jump
# redraws across a refill of the row; every pattern ends by T = 5e20
FIXED_DRAWS = [
    ([0.0, 0.4, 0.0, 0.0, 0.3, 5.0, 1e21], [0.25, 0.75, 0.1]),
    ([1e20] + [1.0] * 127, [0.9, 0.2]),
    ([1e20, 1.0, 2.0, 1e21, 1e30], [0.25, 0.75, 0.1]),
    ([0.3, 0.3, 1e21], [0.6]),
]


@pytest.mark.parametrize("T", [2.0, 5e20])
def test_lanes_redraw_like_the_kernel(T):
    # lanes that stall and lanes that never do share one lockstep walk
    draws = FIXED_DRAWS * 3
    make = lambda i: _FixedGen(*draws[i])  # noqa: E731
    for model in (UNIT, KERNEL_TABLE, None):
        _assert_lanes_match_kernel(make, len(draws), T, model)
    lanes = _walk_lanes([make(i) for i in range(len(draws))], T, _zeta_rates, True, False)
    assert lanes.jumps[1] == (4 if T > 1e20 else 0)


def test_lanes_that_redrew_refill_their_own_rows():
    # every row of the first pattern starts with three stalls, so its lane
    # runs ahead of the lanes that never stall and needs each new row
    # three steps before them
    draws = [([0.0, 0.0, 0.0] + [0.01] * 125, [0.6]), ([0.01], [0.6])] * 3
    make = lambda i: _FixedGen(*draws[i])  # noqa: E731
    for model in (UNIT, KERNEL_TABLE, None):
        assert _assert_lanes_match_kernel(make, len(draws), 3.0, model) > len(draws) * 2 * _BLOCK


def test_draws_into_rows_equal_sized_draws():
    rows = np.empty((5, _BLOCK))
    for r in range(2000):
        into, sized = RngStream(101, r).generator(), RngStream(101, r).generator()
        into.standard_exponential(out=rows[0])
        into.random(out=rows[1])
        into.standard_exponential(out=rows[2])
        into.standard_exponential(out=rows[3])
        into.random(out=rows[4])
        want = [sized.standard_exponential(_BLOCK), sized.random(_BLOCK),
                sized.standard_exponential(_BLOCK), sized.standard_exponential(_BLOCK),
                sized.random(_BLOCK)]
        assert np.array_equal(rows, np.array(want))
