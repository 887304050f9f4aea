import math

import numpy as np
import pytest

from bdlab.errors import PreconditionError
from bdlab.harness import derive_seed
from bdlab.process import (
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


def test_replica_streams_simulate_the_same_paths():
    n = 3000
    xi = [simulate_xi(UNIT, 2.0, s) for s in replica_streams(41, 0, n)]
    zeta = [simulate_zeta(3.0, s) for s in replica_streams(43, 0, n)]
    assert xi == [simulate_xi(UNIT, 2.0, RngStream(41, r)) for r in range(n)]
    assert zeta == [simulate_zeta(3.0, RngStream(43, r)) for r in range(n)]
