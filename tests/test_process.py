import hashlib
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from bdlab import process
from bdlab.errors import PreconditionError
from bdlab.harness import ExperimentConfig, derive_seed, emit_results, run_simulate
from bdlab.paths import PiecewiseFunction
from bdlab.process import (
    _BLOCK,
    _COLUMNS,
    _FIRST_COLUMNS,
    _lane_blocks,
    _replica_states,
    _running_sum,
    _StateTable,
    _xi_lanes,
    _zeta_lanes,
    _walk_lanes,
    _zeta_rates,
    RateModel,
    RngStream,
    Trajectory,
    birth_rate,
    death_rate,
    in_path_space,
    simulate_xi,
    simulate_zeta,
    total_rate,
)
from bdlab.weights import (
    EventSpec,
    _direct_chunk,
    _importance_chunk,
    direct_estimate,
    importance_estimate,
)
from reference_walk import reference_xi, reference_zeta

UNIT = RateModel(kind="canonical", P=1.0, Q=1.0, l=0.0)
# jump columns a group of the lane walk starts at: one (groups of 1, 1,
# 2, 4, ... columns), a short walk's start and the long-walk width
GROUP_WIDTHS = (1, _FIRST_COLUMNS, _COLUMNS)


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


# the large samples below walk replicas 0..n-1 of a seed a block of lanes
# at a time: replica r is the path simulate_xi or simulate_zeta gives for
# RngStream(seed, r), without a walk per call


def _zeta_blocks(T, seed, n, keep_paths=False):
    return _lane_blocks(_replica_states(seed, 0, n), T, _zeta_rates, keep_paths, False)


def test_xi_mean_final_state_matches_exact_mean():
    # mean of the closed-form terminal law at T=5 is 1 - exp(-5)
    n = 100_000
    total = sum(int(lanes.final.sum()) for lanes in _xi_lanes(UNIT, 5.0, 11, 0, n, False))
    mean = total / n
    a = 1.0 - math.exp(-5.0)
    se = math.sqrt(a / n)
    assert abs(mean - a) <= 4.0 * se


def test_zeta_zero_jump_fraction():
    n = 100_000
    zeros = sum(int(np.count_nonzero(lanes.jumps == 0)) for lanes in _zeta_blocks(3.0, 13, n))
    p = math.exp(-3.0)
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(zeros / n - p) <= 4.0 * se


def test_zeta_jump_count_and_sign_split():
    n = 100_000
    total = 0
    ups = 0
    for lanes in _zeta_blocks(3.0, 17, n):
        total += int(lanes.jumps.sum())
        # a lane's final state is its ups less its downs
        ups += int((lanes.jumps + lanes.final).sum()) // 2
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
    for lanes in _xi_lanes(UNIT, 12.0, 19, 0, n, True):
        # a lane's first jump follows its head
        times += lanes.times[lanes.start[:-1][lanes.jumps > 0] + 1].tolist()
    mean = sum(times) / len(times)
    se = 1.0 / math.sqrt(len(times))
    assert abs(mean - 1.0) <= 4.0 * se


def test_xi_jump_direction_frequency_from_state_one():
    # from state 1 under P=Q=1 the up-probability is 1/2
    ups = 0
    outs = 0
    for lanes in _xi_lanes(UNIT, 5.0, 23, 0, 5_000, True):
        for i in range(lanes.final.size):
            x = 0
            for s in lanes.path(i)[1]:
                if x == 1:
                    outs += 1
                    ups += s == 1
                x += s
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
    (0, 8300),  # more than two estimator chunks
    (0, 4100),
    (4000, 4200),  # across the first chunk boundary, as a mid-chunk span
    (100, 115),  # too short for the vectorised pass
    (100, 116),  # the shortest vectorised span
    (2**32 - 2100, 2**32 + 2100),  # r gains a second uint32 word
    (2**64 - 100, 2**64),  # the largest indices with a vectorised row
]


def _seed_sequence_states(seed, start, stop):
    words = [np.random.SeedSequence((seed, r)).generate_state(4, np.uint64) for r in range(start, stop)]
    return process._pcg64_states(np.array(words, dtype=np.uint64).reshape(-1, 4))


def test_replica_stream_words_equal_seed_sequence():
    checked = 0
    for seed in WORD_SEEDS:
        for start, stop in WORD_SPANS + [(7, 8)]:
            got = _replica_states(seed, start, stop)
            assert got.dtype == np.uint64 and got.flags.c_contiguous
            np.testing.assert_array_equal(got, _seed_sequence_states(seed, start, stop))
            checked += len(got)
    assert checked >= 10**5


def test_replica_streams_past_two_to_the_64_keep_seed_sequence():
    start, stop = 2**64 - 2, 2**64 + 2
    # a span that reaches 2**64 takes each row from SeedSequence, and
    # the lanes walk on the states of RngStream(9, r)'s generators
    states = _replica_states(9, start, stop)
    np.testing.assert_array_equal(states, _seed_sequence_states(9, start, stop))
    lanes = next(_lane_blocks(states, 3.0, _zeta_rates, True, False))
    for i, r in enumerate(range(start, stop)):
        want = reference_zeta(3.0, RngStream(9, r).generator())
        assert _lane_jumps(lanes, i) == want
        assert _jumps(simulate_zeta(3.0, RngStream(9, r))) == want
    with pytest.raises(PreconditionError):
        _replica_states(2**64, 0, 3)
    with pytest.raises(PreconditionError):
        _replica_states(0, -1, 3)
    assert _replica_states(0, 5, 5).shape == (0, 4)
    assert list(_lane_blocks(_replica_states(0, 5, 5), 3.0, _zeta_rates, True, False)) == []


# ---------------------------------------------------------------------------
# lane slots: generators re-keyed to the PCG64 state SeedSequence seeds

PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _GivenWords(np.random.bit_generator.ISeedSequence):
    """A seed source that hands PCG64 the given four uint64 words."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert n_words == 4 and np.dtype(dtype) == np.uint64
        return self.words


def _numpy_state(bit_generator):
    """(state, inc) of a PCG64 as 128-bit ints, from numpy's state dict."""
    state = bit_generator.state["state"]
    return state["state"], state["inc"]


def _as_ints(row):
    lo, hi, inc_lo, inc_hi = (int(w) for w in row)
    return lo | hi << 64, inc_lo | inc_hi << 64


def test_pcg64_states_equal_seed_sequence_seeding():
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    indices = [0, 1, 4095, 4096, 2**64 - 1, 2**64, 2**64 + 5]
    pairs = [(seed, r) for seed in seeds for r in indices]
    words = np.array([
        np.random.SeedSequence(pair).generate_state(4, np.uint64) for pair in pairs
    ])
    got = process._pcg64_states(words)
    assert got.dtype == np.uint64 and got.shape == (len(pairs), 4)
    for pair, row in zip(pairs, got):
        want = _numpy_state(np.random.PCG64(np.random.SeedSequence(pair)))
        assert _as_ints(row) == want, pair


def test_pcg64_states_carry_every_128_bit_word():
    top = 2**64 - 1
    values = [0, 1, 2**32 - 1, 2**32, 2**63, top - 1, top, 0x9E3779B97F4A7C15]
    rows = [(w0, w1, w2, w3) for w0 in (0, top) for w2 in (0, top)
            for w1 in values for w3 in values]
    rows += [(top,) * 4, (0,) * 4, (top, 0, top, 0), (0, top, 0, top), (1, top, 2**63, top)]
    got = process._pcg64_states(np.array(rows, dtype=np.uint64))
    carries = set()
    for row, out in zip(rows, got):
        w0, w1, w2, w3 = row
        inc = ((w2 << 64 | w3) << 1 | 1) % 2**128
        start = (inc + (w0 << 64 | w1)) % 2**128
        want = ((start * PCG_MULT + inc) % 2**128, inc)
        assert _as_ints(out) == want, row
        assert want == _numpy_state(np.random.PCG64(_GivenWords(row))), row
        # the carries out of each low word: inc's shift, the add, the
        # product's low half and the final add
        carries.add(("inc", w3 >> 63))
        carries.add(("add", (inc % 2**64 + w1) >> 64))
        carries.add(("mul", (start % 2**64) * (PCG_MULT % 2**64) >> 64 > 0))
        carries.add(("end", (start * PCG_MULT % 2**64 + inc % 2**64) >> 64))
    assert carries == {(name, bit) for name in ("inc", "add", "mul", "end") for bit in (0, 1)}
    # the high half of 64 x 64-bit products, with operands whose 32-bit partial sums carry
    a = np.array([0, 1, 2**32 - 1, 2**32, 2**63, top], dtype=np.uint64)
    for m in (top, 2**32 + 1, PCG_MULT % 2**64, PCG_MULT >> 64):
        assert process._mul_hi(a, m).tolist() == [int(x) * m >> 64 for x in a.tolist()]


def _slot_states(pairs):
    words = np.array([np.random.SeedSequence(pair).generate_state(4, np.uint64) for pair in pairs])
    return process._pcg64_states(words)


def test_rekeyed_slots_draw_like_fresh_generators():
    slots = process._Slots()
    for seed in (0, 5, 2**64 - 1):
        pairs = [(seed, r) for r in (0, 1, 4096, 2**64 + 5)]
        gens = slots.keyed(_slot_states(pairs))
        assert len(gens) == 4 and gens == slots.gens
        for pair, gen in zip(pairs, gens):
            fresh = RngStream(*pair).generator()
            assert _numpy_state(gen.bit_generator) == _numpy_state(fresh.bit_generator)
            for draw in ("standard_exponential", "random"):
                got, want = getattr(gen, draw)(256), getattr(fresh, draw)(256)
                assert np.array_equal(got, want), (pair, draw)
    # a narrower block re-keys only its own slots and keeps them all
    assert len(slots.keyed(_slot_states([(3, 7)]))) == 1 and len(slots.gens) == 4


@pytest.mark.parametrize("fault", ["read-back", "re-key"])
def test_slot_self_check_refuses_a_mismatch(monkeypatch, fault):
    if fault == "read-back":
        # a view that reads zeros in place of the generator's state
        monkeypatch.setattr(process, "_state_key", lambda gen: memoryview(bytearray(32)))
    else:
        monkeypatch.setattr(process, "_rekey", lambda keys, states: None)
    slots = process._Slots()
    with pytest.raises(RuntimeError, match=f"numpy {np.__version__}:"):
        slots.keyed(_slot_states([(1, 2), (3, 4)]))
    assert slots.gens == []


SLOT_CALLS = """
from bdlab.process import RateModel
from bdlab.paths import PiecewiseFunction
from bdlab.weights import EventSpec, direct_estimate, importance_estimate
LONG = RateModel(kind="canonical", P=2.0, Q=1.0, l=0.5)
center = PiecewiseFunction.linear((0.0, 1.0), (0.0, 0.3))
def estimates():
    return [f(LONG, 10.0, 10.0, EventSpec.neighborhood(center, 0.2), 600, 127)
            for f in (direct_estimate, importance_estimate)]
"""


def test_slots_after_a_raised_walk_equal_a_fresh_process():
    src = str(Path(__file__).resolve().parents[1] / "src")
    fresh = subprocess.run(
        [sys.executable, "-c", SLOT_CALLS + "print(repr(estimates()))"],
        capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    ).stdout
    short = RateModel(kind="table", table=KERNEL_TABLE.table[:7])
    with pytest.raises(PreconditionError, match=r"^state 7 outside rate table \(size 7\)$"):
        for _ in _xi_lanes(short, 10.0, 5, 0, 1000, True):
            pass
    names = {}
    exec(SLOT_CALLS, names)
    assert repr(names["estimates"]()) + "\n" == fresh


def test_threads_keep_their_own_slots():
    names = {}
    exec(SLOT_CALLS, names)
    want = names["estimates"]()
    # more threads than cores, switching often, so walks on shared slots
    # would interleave
    start = threading.Barrier(3, timeout=60)
    got, slots = {}, {}

    def run(name):
        start.wait()
        got[name] = [names["estimates"]() for _ in range(3)]
        slots[name] = process._slots.gens

    threads = [threading.Thread(target=run, args=(name,)) for name in "abc"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {name: [want] * 3 for name in "abc"}
    ids = [set(map(id, slots[name])) for name in "abc"]
    assert all(ids) and not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])


def test_exact_runs_load_no_random_module_and_build_no_slot():
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "import bdlab\n"
        "from bdlab import harness, process\n"
        f"config = harness.ExperimentConfig.load({str(root / 'configs' / 'marginal_exp.json')!r})\n"
        "assert harness.run_marginal_ldp_scan(config).rows\n"
        "assert 'numpy.random' not in sys.modules\n"
        "assert process._slots.gens == []\n"
    )
    subprocess.run([sys.executable, "-c", code], timeout=120, check=True,
                   env=dict(os.environ, PYTHONPATH=str(root / "src")))


# ---------------------------------------------------------------------------
# the lane walk, and simulate_xi/simulate_zeta as one replica of it, against
# the block-draw reference loops of tests/reference_walk.py


class _Recording:
    """A generator that logs the kind and size of every draw call it serves."""

    def __init__(self, gen, log):
        self._gen = gen
        self._log = log

    def standard_exponential(self, size=None, out=None):
        self._log.append(("exp", size if out is None else out.size))
        return self._gen.standard_exponential(size, out=out)

    def random(self, size=None, out=None):
        self._log.append(("uni", size if out is None else out.size))
        return self._gen.random(size, out=out)


def _jumps(traj):
    return traj.jump_times, traj.jump_signs


def _lane_jumps(lanes, i):
    times, signs = lanes.path(i)
    return tuple(times), tuple(signs)


def _lane_paths(blocks):
    """Every replica's (times, signs) across blocks, in replica order."""
    for lanes in blocks:
        for i in range(lanes.final.size):
            yield _lane_jumps(lanes, i)


def _assert_draw_calls_match(n, T, model, seed):
    """Lanes 0..n-1 make the draw calls, in kind, size and order, that the
    reference loop makes for each replica alone, at every group width."""
    want = [[] for _ in range(n)]
    for r in range(n):
        gen = _Recording(RngStream(seed, r).generator(), want[r])
        reference_zeta(T, gen) if model is None else reference_xi(model, T, gen)
    assert any(("uni", _BLOCK) in log for log in want)
    for columns in GROUP_WIDTHS:
        logs = [[] for _ in range(n)]
        rates = _zeta_rates if model is None else _StateTable(model)
        _walk_lanes([_Recording(RngStream(seed, r).generator(), logs[r]) for r in range(n)],
                    T, rates, True, False, columns)
        assert logs == want, columns


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
    for r, got in enumerate(_lane_paths(_xi_lanes(model, T, 61, 0, 2000, True))):
        assert got == reference_xi(model, T, RngStream(61, r).generator())
        jumps += len(got[1])
    assert jumps > 2000
    for r in range(20):
        want = reference_xi(model, T, RngStream(61, r).generator())
        assert _jumps(simulate_xi(model, T, RngStream(61, r))) == want
    _assert_draw_calls_match(20, T, model, 61)


def test_jump_kernel_zeta_equals_block_draw_reference():
    for T in (3.0, 200.0):
        n = 2000 if T < 100 else 200
        for r, got in enumerate(_lane_paths(_zeta_blocks(T, 67, n, True))):
            assert got == reference_zeta(T, RngStream(67, r).generator())
        for r in range(20):
            want = reference_zeta(T, RngStream(67, r).generator())
            assert _jumps(simulate_zeta(T, RngStream(67, r))) == want
        _assert_draw_calls_match(20, T, None, 67)


def test_jump_kernel_raises_where_the_table_runs_out():
    short = RateModel(kind="table", table=((2.0, 0.0), (2.0, 1.0), (2.0, 1.0), (2.0, 1.5)))
    messages = []
    for r in range(2000):
        try:
            want = reference_xi(short, 4.0, RngStream(71, r).generator())
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


class _FixedGen:
    """A generator whose every block holds the given draws, padded to full
    size with the last of them; serves both sized and out= calls.

    The k-th call (from 0, counting both kinds) scales its exponentials by
    s = 1 + k/drift and its uniforms by 1/s, so zeros stay zeros, uniforms
    stay below 1, and a row drawn early differs from the one due then;
    drift=math.inf serves the draws unscaled.
    """

    def __init__(self, exps, unis, drift=1024):
        self._exps = exps
        self._unis = unis
        self._drift = drift
        self._calls = 0

    def _block(self, draws, size, out, power):
        values = (draws + draws[-1:] * _BLOCK)[: _BLOCK if out is None else out.size]
        scale = (1.0 + self._calls / self._drift) ** power
        self._calls += 1
        values = [v * scale for v in values]
        if out is None:
            return np.array(values[:size])
        out[:] = values
        return out

    def standard_exponential(self, size=None, out=None):
        return self._block(self._exps, size, out, 1)

    def random(self, size=None, out=None):
        return self._block(self._unis, size, out, -1)


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
    # one lane, as simulate_xi and simulate_zeta walk it.  The second jump
    # of UNIT (from state 1) and of zeta draws u = 1/2 at p_up = 1/2, and
    # u < p_up fails, so it goes down
    make = lambda i: _FixedGen(exps, [0.25, 0.5, 0.75, 0.1], math.inf)  # noqa: E731
    for model in (UNIT, KERNEL_TABLE, None):
        assert _assert_lanes_match_reference(make, 1, T, model) >= 2
    for rates in (_StateTable(UNIT), _zeta_rates):
        assert _walk_lanes([make(0)], T, rates, True, False).path(0)[1] == [1, -1]


def test_kernel_paths_equal_their_validated_rebuild():
    for r in range(300):
        for traj in (simulate_xi(KERNEL_MODELS[1][0], 10.0, RngStream(73, r)),
                     simulate_zeta(3.0, RngStream(73, r))):
            assert type(traj) is Trajectory
            assert traj == Trajectory(traj.horizon, traj.jump_times, traj.jump_signs)
    with pytest.raises(PreconditionError):
        Trajectory(horizon=1.0, jump_times=(0.5, 0.5), jump_signs=(1, 1))


# sha256 of simulate's CSV on configs/simulate.json, and of the float.hex
# jump times and the signs of 300 paths (each path as its jump count, then
# its times, then its signs), recorded on the single-path engine that
# simulate_xi and simulate_zeta ran before they became one lane of the walk
SIMULATE_PINS = {
    "csv xi": "072b05ff223199d749a9b5b76f6aebcf628fe1d8fa8214f3d5fb1de9b45960eb",
    "csv zeta": "3b4495ed96654c7e9684cf9b60b12b46f4dce7fc820dd4631c740d29010930ab",
    "xi": "dfcb7031a40257ed7ac0537e3ee187dfce70a4de1a25aa110349235a701c1eea",
    "zeta": "2ec9ce66890f252a0f823dd608184c28f34789ff91ecfea23e026bc6ae16b53c",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_v1_stream_pin_simulate():
    config = ExperimentConfig.load(str(Path(__file__).resolve().parents[1] / "configs/simulate.json"))
    for process in ("xi", "zeta"):
        csv = emit_results(run_simulate(config, process=process), "csv")
        assert _sha256(csv) == SIMULATE_PINS[f"csv {process}"]
    chain = RateModel(kind="canonical", P=2.0, Q=1.0, l=0.5)
    # about 62 jumps a chain path and 150 a walk, so rows are refilled
    paths = {
        "xi": [simulate_xi(chain, 10.0, RngStream(137, r)) for r in range(300)],
        "zeta": [simulate_zeta(150.0, RngStream(139, r)) for r in range(300)],
    }
    for name, trajs in paths.items():
        values = []
        for traj in trajs:
            values += [len(traj.jump_signs), *traj.jump_times, *traj.jump_signs]
        text = ",".join(v.hex() if isinstance(v, float) else str(v) for v in values)
        assert _sha256(text) == SIMULATE_PINS[name]


# ---------------------------------------------------------------------------
# the lockstep walker against the reference loops on the same streams


def _assert_lanes_match_reference(make_gen, n, T, model=None, stop_below_zero=False,
                                  columns=_FIRST_COLUMNS):
    """Walk n lanes together, and each lane alone through the reference
    loop, on equal generators."""
    rates = _zeta_rates if model is None else _StateTable(model)
    lanes = _walk_lanes([make_gen(i) for i in range(n)], T, rates, True, stop_below_zero, columns)
    jumps = 0
    for i in range(n):
        gen = make_gen(i)
        want = reference_zeta(T, gen) if model is None else reference_xi(model, T, gen)
        times, signs = lanes.path(i)
        states = np.cumsum((0,) + want[1])
        assert lanes.below_zero[i] == (stop_below_zero and states.min() < 0)
        if lanes.below_zero[i]:
            # stopped at its first negative state: a prefix of the path
            k = lanes.jumps[i]
            assert (times, signs) == (list(want[0][:k]), list(want[1][:k]))
            assert sum(signs) == -1 and min(np.cumsum(signs)) == -1
            continue
        assert (tuple(times), tuple(signs)) == want
        assert lanes.final[i] == states[-1]
        assert lanes.peak[i] == states.max()
        jumps += len(signs)
    return jumps


def _stream_gen(seed):
    return lambda i: RngStream(seed, i).generator()


@pytest.mark.parametrize("model,T", KERNEL_MODELS)
def test_lanes_equal_kernel_xi(model, T):
    assert _assert_lanes_match_reference(_stream_gen(83), 600, T, model) > 600


def test_lanes_equal_kernel_zeta():
    for T in (0.5, 3.0):
        _assert_lanes_match_reference(_stream_gen(89), 600, T)
        _assert_lanes_match_reference(_stream_gen(89), 600, T, stop_below_zero=True)


def test_lanes_run_past_a_block_of_draws():
    # zeta at T=400 and xi at P=20, T=12 make several hundred jumps a lane,
    # so every lane refills both its exponential and its uniform row
    assert _assert_lanes_match_reference(_stream_gen(97), 12, 400.0) > 12 * 3 * _BLOCK
    fast = RateModel(kind="canonical", P=20.0, Q=1.0, l=0.0)
    assert _assert_lanes_match_reference(_stream_gen(97), 12, 12.0, fast) > 12 * 3 * _BLOCK


def test_lanes_equal_kernel_at_thousands_of_states():
    # lanes climb past 1,000 states at P = 2000, T = 1, through many
    # doublings of the chain's rate arrays
    fast = RateModel(kind="canonical", P=2000.0, Q=1.0, l=0.0)
    assert _assert_lanes_match_reference(_stream_gen(101), 8, 1.0, fast) > 8 * 1000
    # one state more per call: the arrays are rebuilt at 1, 2, 4, ... states,
    # and at a table's end (80 states), never past it
    for model, top, rebuilds_wanted in ((fast, 2000, 12), (KERNEL_TABLE, 79, 8)):
        rates, rebuilds, last = _StateTable(model), 0, None
        for x in range(top + 1):
            rates(x)
            eta = rates.upto(x)[0]
            rebuilds += eta is not last
            last = eta
        assert rebuilds == rebuilds_wanted
    # every column, bit for bit, against the public rate functions
    for model, top in ((fast, 2000), (LONG, 2000), (KERNEL_TABLE, 79)):
        rates, states = _StateTable(model), range(top + 1)
        columns = [c[:top + 1].tolist() for c in rates.upto(top)]
        want = [
            [total_rate(model, x) for x in states],
            [birth_rate(model, x) / total_rate(model, x) for x in states],
            [math.log(birth_rate(model, x)) for x in states],
            [math.log(death_rate(model, x)) if x else -math.inf for x in states],
        ]
        assert [[v.hex() for v in c] for c in columns] == [[v.hex() for v in c] for c in want]
        eta, p_up = rates(top)
        assert eta[:top + 1].tolist() == columns[0] and p_up[:top + 1].tolist() == columns[1]
    # past the end of KERNEL_TABLE, the last model above, upto raises and
    # the walk's view reads inf and 1/2
    with pytest.raises(PreconditionError, match=r"^state 80 outside rate table \(size 80\)$"):
        rates.upto(80)
    eta, p_up = rates(85)
    assert len(eta) > 85
    assert eta[80:].tolist() == [math.inf] * (len(eta) - 80)
    assert p_up[80:].tolist() == [0.5] * (len(p_up) - 80)


def test_lanes_raise_where_the_table_runs_out():
    short = RateModel(kind="table", table=((2.0, 0.0), (2.0, 1.0), (2.0, 1.0), (2.0, 1.5)))
    messages = {}
    for r in range(300):
        try:
            reference_xi(short, 4.0, RngStream(71, r).generator())
        except PreconditionError as exc:
            messages[r] = str(exc)
    assert 10 < len(messages) < 290
    with pytest.raises(PreconditionError) as exc:
        _walk_lanes([RngStream(71, r).generator() for r in range(300)], 4.0,
                    _StateTable(short), False, False)
    assert str(exc.value) == "state 4 outside rate table (size 4)"
    assert set(messages.values()) == {str(exc.value)}
    # the lanes that never leave the table walk on as the reference does
    kept = [r for r in range(300) if r not in messages]
    _assert_lanes_match_reference(lambda i: RngStream(71, kept[i]).generator(), len(kept), 4.0, short)


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
    # lanes that stall and lanes that never do share one walk, at every
    # group width
    draws = FIXED_DRAWS * 3
    make = lambda i: _FixedGen(*draws[i])  # noqa: E731
    for columns in GROUP_WIDTHS:
        for model in (UNIT, KERNEL_TABLE, None):
            _assert_lanes_match_reference(make, len(draws), T, model, columns=columns)
        lanes = _walk_lanes([make(i) for i in range(len(draws))], T, _zeta_rates, True, False,
                            columns)
        assert lanes.jumps[1] == (4 if T > 1e20 else 0)


def test_lanes_that_redrew_refill_their_own_rows():
    # every row of the first pattern starts with three stalls, so its lane
    # runs ahead of the lanes that never stall and needs each new row
    # three jumps before them, inside a group of columns
    draws = [([0.0, 0.0, 0.0] + [0.01] * 125, [0.6]), ([0.01], [0.6])] * 3
    make = lambda i: _FixedGen(*draws[i])  # noqa: E731
    for columns in GROUP_WIDTHS:
        for model in (UNIT, KERNEL_TABLE, None):
            jumps = _assert_lanes_match_reference(make, len(draws), 3.0, model, columns=columns)
            assert jumps > len(draws) * 2 * _BLOCK


def test_walks_fill_the_reused_rows_before_reading_them():
    # every walk of a thread draws into the same rows: left holding NaN,
    # they change no path of a narrow or a widened block
    for rows in process._slots.rows(process._WIDE_LANES):
        rows.fill(math.nan)
    model, T = KERNEL_MODELS[1]
    for r, got in enumerate(_lane_paths(_xi_lanes(model, T, 79, 0, 600, True))):
        assert got == reference_xi(model, T, RngStream(79, r).generator())
    assert r == 599


def test_kept_paths_sit_between_a_head_and_a_tail():
    # lane i's entries are its head (0.0, 0), its jumps and its tail
    # (T, final); path(i) reads the jumps between them.  The chain walks a
    # 256-lane block and then a widened one; the reference walk has lanes
    # stopped below zero (their path is the prefix up to that state) and
    # lanes that never jump
    model, T = KERNEL_MODELS[1]
    walks = {
        T: (list(_xi_lanes(model, T, 83, 0, 600, True)), lambda gen: reference_xi(model, T, gen)),
        3.0: (list(_zeta_lanes(3.0, 83, 0, 600)), lambda gen: reference_zeta(3.0, gen)),
    }
    assert [lanes.final.size for lanes in walks[T][0]] == [256, 344]
    for T, (blocks, reference) in walks.items():
        r = 0
        for lanes in blocks:
            head, tail = lanes.start[:-1], lanes.start[1:] - 1
            assert np.array_equal(np.diff(lanes.start), lanes.jumps + 2)
            assert (lanes.times[head] == 0.0).all() and (lanes.states[head] == 0).all()
            assert (lanes.times[tail] == T).all()
            assert np.array_equal(lanes.states[tail], lanes.final)
            for i in range(lanes.final.size):
                times, signs = reference(RngStream(83, r).generator())
                k = int(lanes.jumps[i])
                assert k == len(times) or lanes.below_zero[i]
                assert lanes.path(i) == (list(times[:k]), list(signs[:k]))
                r += 1
        assert r == 600
    zeta = walks[3.0][0]
    assert any(lanes.below_zero.any() for lanes in zeta)
    assert any((lanes.jumps == 0).any() for lanes in zeta)


def _sequential_clock(t, dt):
    """t after each holding time of dt, added one at a time as Python floats."""
    out = []
    for step in dt:
        t += step
        out.append(t)
    return out


def test_group_time_pass_adds_like_t_plus_dt():
    # rows of mixed magnitude: clocks and holding times from 1e-30 to 1e30,
    # so many sums round and many do not move t at all
    rng = np.random.default_rng(20261019)
    lanes, columns = 512, 32
    t0 = 10.0 ** rng.uniform(-30, 30, lanes) * rng.uniform(0.5, 1.5, lanes)
    e = rng.standard_exponential((columns, lanes)) * 10.0 ** rng.uniform(-30, 30, (columns, lanes))
    eta = 10.0 ** rng.uniform(-3, 3, (columns, lanes))
    dt = e / eta
    times = np.empty((columns + 1, lanes))
    times[0] = t0
    _running_sum(times, dt)
    stalls = 0
    for j in range(lanes):
        want = _sequential_clock(float(t0[j]), [float(a) / float(b) for a, b in zip(e[:, j], eta[:, j])])
        assert [v.hex() for v in times[1:, j].tolist()] == [v.hex() for v in want]
        stalls += sum(b <= a for a, b in zip([float(t0[j])] + want, want))
    assert 1000 < stalls < columns * lanes - 1000
    # the stall patterns of FIXED_DRAWS, padded to a row as _FixedGen pads
    # them, from t = 0 and from a clock where a draw of 1.0 does not move
    for exps, _ in FIXED_DRAWS:
        row = np.array((exps + exps[-1:] * _BLOCK)[:_BLOCK])
        for start, rate in ((0.0, 1.0), (1e20, 3.0), (0.25, 0.7)):
            times = np.empty((_BLOCK + 1, 1))
            times[0] = start
            _running_sum(times, (row / rate)[:, None])
            want = _sequential_clock(start, [v / rate for v in row.tolist()])
            assert [v.hex() for v in times[1:, 0].tolist()] == [v.hex() for v in want]


def test_lanes_ending_inside_a_table_step_past_its_edge_without_raising():
    # at T = 0.4 most chains on a 4-state table end before they reach
    # state 4, but a group of columns steps every lane on past T, toward
    # and past the table's edge, before it knows where each lane ended
    short = RateModel(kind="table", table=((6.0, 0.0), (6.0, 1.0), (6.0, 1.0), (6.0, 1.5)))
    T, kept, messages = 0.4, [], set()
    for r in range(400):
        try:
            reference_xi(short, T, RngStream(73, r).generator())
            kept.append(r)
        except PreconditionError as exc:
            messages.add(str(exc))
    assert 200 < len(kept) < 390
    assert messages == {"state 4 outside rate table (size 4)"}

    class Asked(_StateTable):
        # the highest state any group asked the rates for
        top = 0

        def __call__(self, top):
            Asked.top = max(Asked.top, top)
            return super().__call__(top)

    for columns in GROUP_WIDTHS:
        Asked.top = 0
        make = lambda i: RngStream(73, kept[i]).generator()  # noqa: E731
        rates = Asked(short)
        lanes = _walk_lanes([make(i) for i in range(len(kept))], T, rates, True, False, columns)
        for i in range(len(kept)):
            assert _lane_jumps(lanes, i) == reference_xi(short, T, make(i))
        assert lanes.peak.max() == 3 and Asked.top >= 8
        with pytest.raises(PreconditionError) as exc:
            _walk_lanes([RngStream(73, r).generator() for r in range(400)], T, _StateTable(short),
                        False, False, columns)
        assert str(exc.value) == "state 4 outside rate table (size 4)"


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


# ---------------------------------------------------------------------------
# the width of a lockstep block never changes a replica


LONG = RateModel(kind="canonical", P=2.0, Q=1.0, l=0.5)
# (first width, width after a long walk, jumps that make a walk long,
# first group of jump columns, widest group): the shipped values, a
# switch after the first block, and the widths 1 and 3 in either order
# with groups from 1 to 2 columns and from 32 to 5
WIDTHS = [(256, 512, 64, 8, 32), (256, 512, 0, 8, 32), (1, 3, 0, 1, 2), (3, 1, 0, 32, 5)]


def _set_widths(monkeypatch, widths):
    names = ("_LANES", "_WIDE_LANES", "_LONG_WALK", "_FIRST_COLUMNS", "_COLUMNS")
    for name, value in zip(names, widths):
        monkeypatch.setattr(process, name, value)


def _replicas(blocks):
    """Every replica's lane results across blocks, in replica order."""
    rows = []
    for lanes in blocks:
        paths = hasattr(lanes, "start")
        for i in range(lanes.final.size):
            row = (int(lanes.final[i]), int(lanes.peak[i]), int(lanes.jumps[i]),
                   bool(lanes.below_zero[i]))
            rows.append(row + lanes.path(i) if paths else row)
    return rows


def _widened(blocks):
    """_replicas of blocks, and whether any block after the first was wider."""
    blocks = list(blocks)
    return _replicas(blocks), any(b.final.size > blocks[0].final.size for b in blocks[1:])


def test_block_width_never_changes_a_replica(monkeypatch):
    table = RateModel(kind="table", table=KERNEL_TABLE.table[:40])
    walks = {
        "xi": lambda: _xi_lanes(LONG, 10.0, 107, 0, 1000, True),
        "xi no paths": lambda: _xi_lanes(LONG, 10.0, 107, 0, 1000, False),
        "table": lambda: _xi_lanes(table, 20.0, 109, 0, 600, True),
        "table no paths": lambda: _xi_lanes(table, 20.0, 109, 0, 600, False),
        "zeta": lambda: _zeta_lanes(80.0, 113, 0, 600),
        "zeta no paths": lambda: _lane_blocks(_replica_states(113, 0, 600), 80.0,
                                              _zeta_rates, False, True),
    }
    want = {}
    for widths in WIDTHS:
        _set_widths(monkeypatch, widths)
        for name, walk in walks.items():
            got, widened = _widened(walk())
            # every walk here is long enough to widen at the shipped threshold
            assert widened == (widths[1] > widths[0])
            want.setdefault(name, got)
            assert got == want[name], (name, widths)
    assert want["xi"][:4] != want["xi"][4:8]  # the rows differ, so order is checked
    assert [row[:4] for row in want["xi"]] == want["xi no paths"]
    assert [row[:4] for row in want["zeta"]] == want["zeta no paths"]
    assert any(row[3] for row in want["zeta"]) and not any(row[3] for row in want["xi"])


def test_blocks_widen_only_after_a_long_walk():
    # a chain lane at P=2, l=0.5, T=10 makes about 62 jumps, so some lane
    # of the first block makes more than 64; walks at T=1 make under 10
    sizes = [lanes.final.size for lanes in _xi_lanes(LONG, 10.0, 131, 0, 1000, False)]
    assert sizes == [256, 512, 232]
    assert [lanes.final.size for lanes in _zeta_lanes(1.0, 131, 0, 1000)] == [256, 256, 256, 232]
    assert [lanes.final.size for lanes in _xi_lanes(UNIT, 1.0, 131, 0, 1000, True)] == [256] * 3 + [232]


def test_block_width_never_changes_an_estimate(monkeypatch):
    center = PiecewiseFunction.linear((0.0, 1.0), (0.0, 0.3))
    events = [EventSpec.neighborhood(center, 0.2), EventSpec.level_cross(0.4)]
    want = None
    for widths in WIDTHS:
        _set_widths(monkeypatch, widths)
        # each replica's log weight, and the estimates made of them
        got = [chunk((LONG, 10.0, 10.0, event, 127, 0, 600))
               for event in events for chunk in (_direct_chunk, _importance_chunk)]
        got += [f(LONG, 10.0, 10.0, events[0], 600, 127)
                for f in (direct_estimate, importance_estimate)]
        want = want or got
        assert got == want, widths
    assert all(0 < est.n_hits < 600 for est in want[4:])
    assert all(0 < sum(w > -math.inf for w in logw) < 600 for logw in want[:4])


def test_block_width_keeps_the_table_error(monkeypatch):
    short = RateModel(kind="table", table=KERNEL_TABLE.table[:7])
    out = []
    for r in range(1000):
        try:
            reference_xi(short, 10.0, RngStream(5, r).generator())
        except PreconditionError as exc:
            out.append((r, str(exc)))
    first_out, message = out[0]
    assert message == "state 7 outside rate table (size 7)"
    # the first raises in its first block; the others in a block that was
    # widened, after the 64 or 103 replicas before it
    kept = []
    for widths, before in (((256, 512, 64), 0), ((64, 512, 0), 64), ((1, 3, 0), 103)):
        _set_widths(monkeypatch, widths)
        done = []
        with pytest.raises(PreconditionError) as exc:
            for lanes in _xi_lanes(short, 10.0, 5, 0, 1000, True):
                done.append(lanes)
        assert str(exc.value) == message
        kept.append(_replicas(done))
        assert len(kept[-1]) == before
    assert first_out == 103 and kept[1] == kept[2][:64]
