"""Rate models and exact simulation of the birth-death chain and its reference walk.

The chain xi lives on the nonnegative integers, starts at 0, jumps up at
rate lambda(x) and down at rate mu(x).  The reference walk zeta is the
symmetric continuous-time random walk on all integers with total jump
rate 1 and fair coin signs; it is the base measure for the
change-of-measure estimators in weights.py.
"""

from __future__ import annotations

import ctypes
import math
import threading
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

__all__ = [
    "RateModel",
    "Trajectory",
    "RngStream",
    "birth_rate",
    "death_rate",
    "total_rate",
    "simulate_xi",
    "simulate_zeta",
    "in_path_space",
]

# draws fetched from the generator per block; amortizes numpy call overhead
_BLOCK = 128
# replicas the lane walker advances together; bounds its block arrays.
# A numpy call costs about the same whatever its lane count, and a block
# walks until its longest lane is done, so once a block's longest lane
# made more than _LONG_WALK jumps the rest of its chunk is walked
# _WIDE_LANES at a time.  Measured on a 2-vCPU VM with the one-jump
# lockstep this walker replaced, median of 9 calls: two 2,048-replica
# direct estimates on the P=2, l=0.5, T=10 chain (about 62 jumps a lane)
# took 48.9 ms at 256 lanes, 41.9 ms when widened after the first block
# and 38.9 ms at 512 throughout.  Short walks stay at 256, where 512
# measured slower: 4,096 replicas, median of 15, zeta at T=1 12-13 ->
# 13.7 ms, xi at P=Q=1, T=1 12.4 -> 13.9 ms.
_LANES = 256
_WIDE_LANES = 512
_LONG_WALK = 64
# jump columns a block walks per group: after k jumps a group is
# max(first, k) columns wide, and never wider than _COLUMNS.  Blocks start
# at first = _FIRST_COLUMNS and, with the width, switch to first =
# _COLUMNS after a long walk.  A group pays some 40 numpy calls whatever
# its width, and its rows past a lane's end are wasted, so short walks
# start narrow.  Interleaved with the one-jump lockstep this walker
# replaced, in one process: the importance_small_T pass (walks of 1-3
# jumps) took 0.96-0.98 of the lockstep's time at first = 8 and 1.01-1.10
# at first = 32; the direct_long_path pass took 0.74 with the switch and
# 0.78 without it.
_FIRST_COLUMNS = 8
_COLUMNS = 32


@dataclass(frozen=True)
class RateModel:
    """Birth-death jump rates.

    kind="canonical": lambda(x) = P * max(x, 1)**l, mu(x) = Q * x.  This
    keeps lambda(0) > 0 and mu(0) = 0 while matching the asymptotic
    regime lambda(x)/x**l -> P, mu(x)/x -> Q.

    kind="table": explicit per-state (lambda, mu) entries starting at
    state 0.  Lookups past the end of the table raise instead of
    extrapolating.  Tables with mu(0) > 0 are accepted so that
    constant-rate reference models can be used with the path
    functionals, but such models cannot be simulated (see simulate_xi).
    """

    kind: str
    P: float = 1.0
    Q: float = 1.0
    l: float = 0.0
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "canonical":
            if not (self.P > 0 and math.isfinite(self.P)):
                raise PreconditionError(f"P must be positive, got {self.P}")
            if not (self.Q > 0 and math.isfinite(self.Q)):
                raise PreconditionError(f"Q must be positive, got {self.Q}")
            if not (0.0 <= self.l < 1.0):
                raise PreconditionError(f"l must lie in [0, 1), got {self.l}")
            if self.table is not None:
                raise PreconditionError("canonical models carry no table")
        elif self.kind == "table":
            if not self.table:
                raise PreconditionError("table models need at least one entry")
            for x, (lam, mu) in enumerate(self.table):
                if not (lam > 0 and math.isfinite(lam)):
                    raise PreconditionError(f"lambda({x}) must be positive, got {lam}")
                if not (mu >= 0 and math.isfinite(mu)):
                    raise PreconditionError(f"mu({x}) must be nonnegative, got {mu}")
                if x >= 1 and mu == 0:
                    raise PreconditionError(f"mu({x}) must be positive for x >= 1")
        else:
            raise PreconditionError(f"unknown model kind {self.kind!r}")

    @property
    def exact_law_available(self) -> bool:
        """True iff lambda is constant P and mu(x) = Q*x exactly.

        Only the canonical family with l = 0 qualifies; a finite table
        cannot certify the law for all states.
        """
        return self.kind == "canonical" and self.l == 0.0


def birth_rate(model: RateModel, x: int) -> float:
    """Up-jump rate lambda(x)."""
    if x < 0:
        raise PreconditionError(f"state must be nonnegative, got {x}")
    if model.kind == "canonical":
        if model.l == 0.0:
            return model.P
        return model.P * max(x, 1) ** model.l
    if x >= len(model.table):
        raise PreconditionError(
            f"state {x} outside rate table (size {len(model.table)})"
        )
    return model.table[x][0]


def death_rate(model: RateModel, x: int) -> float:
    """Down-jump rate mu(x); mu(0) = 0 for canonical models."""
    if x < 0:
        raise PreconditionError(f"state must be nonnegative, got {x}")
    if model.kind == "canonical":
        return model.Q * x
    if x >= len(model.table):
        raise PreconditionError(
            f"state {x} outside rate table (size {len(model.table)})"
        )
    return model.table[x][1]


def total_rate(model: RateModel, x: int) -> float:
    """Combined jump rate eta(x) = lambda(x) + mu(x)."""
    return birth_rate(model, x) + death_rate(model, x)


@dataclass(frozen=True)
class Trajectory:
    """A finite-jump cadlag path on [0, horizon].

    Only jump times and signs are stored; the visited states are derived
    as prefix sums from initial_state.  Times are strictly increasing
    and strictly inside (0, horizon).
    """

    horizon: float
    jump_times: tuple[float, ...]
    jump_signs: tuple[int, ...]
    initial_state: int = 0

    def __post_init__(self) -> None:
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise PreconditionError(f"horizon must be positive, got {self.horizon}")
        if len(self.jump_times) != len(self.jump_signs):
            raise PreconditionError("jump_times and jump_signs lengths differ")
        prev = 0.0
        for t in self.jump_times:
            if not (prev < t < self.horizon):
                raise PreconditionError(
                    f"jump times must be strictly increasing in (0, horizon); got {t}"
                )
            prev = t
        for s in self.jump_signs:
            if s != 1 and s != -1:
                raise PreconditionError(f"jump signs must be +1 or -1, got {s}")

    def states(self) -> tuple[int, ...]:
        """State sequence s_0, s_1, ..., s_N (before/after each jump)."""
        out = [self.initial_state]
        x = self.initial_state
        for s in self.jump_signs:
            x += s
            out.append(x)
        return tuple(out)

    def final_state(self) -> int:
        x = self.initial_state
        for s in self.jump_signs:
            x += s
        return x


@dataclass(frozen=True)
class RngStream:
    """A named substream of the package's random source.

    The substream for (seed, replica_index) is PCG64 keyed by numpy's
    SeedSequence entropy mix of the pair.  The mix is a fixed, documented
    function: identical pairs reproduce identical draws bit for bit, and
    distinct replica indices give statistically independent streams.
    The lane walk behind the estimators, simulate_xi and simulate_zeta
    builds no generator per replica: it keys a per-thread slot to exactly
    the PCG64 state that generator() starts from, and fills its draw rows
    through numpy's own C fill loops (see _pcg64_states and _Bank; new
    slots check their draws against numpy's Generator).
    """

    seed: int
    replica_index: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.seed < 2**64):
            raise PreconditionError(f"seed must be a 64-bit integer, got {self.seed}")
        if self.replica_index < 0:
            raise PreconditionError(
                f"replica_index must be nonnegative, got {self.replica_index}"
            )

    def generator(self) -> np.random.Generator:
        key = np.random.SeedSequence((self.seed, self.replica_index))
        return np.random.Generator(np.random.PCG64(key))


# numpy SeedSequence constants (bit_generator.pyx, after M. E. O'Neill's
# seed_seq_fe); every product and difference below wraps modulo 2**32
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL = 4
# below _SHORT_SPAN rows a per-replica SeedSequence is cheaper than the
# vectorised pass of _seed_words
_SHORT_SPAN = 16


def _seed_words(seed: int, start: int, stop: int) -> np.ndarray:
    """Rows SeedSequence((seed, r)).generate_state(4, np.uint64), r in start..stop-1.

    A straight port of SeedSequence's mix_entropy and generate_state to
    uint32 arrays, one lane per replica.  The entropy of the pair is the
    little-endian uint32 words of seed, then those of r.  It never
    exceeds the four-word pool for seed, r < 2**64, and running out of
    entropy hashes zeros, so r's words are written as (low, high) and
    the pool is zero-padded.  The hash constants advance the same way in
    every lane, so they stay Python ints.
    """
    n = stop - start
    r = np.uint64(start) + np.arange(n, dtype=np.uint64)
    seed_part = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    entropy = [np.full(n, w, dtype=np.uint32) for w in seed_part]
    entropy += [(r & np.uint64(_MASK32)).astype(np.uint32), (r >> np.uint64(32)).astype(np.uint32)]
    entropy += [np.zeros(n, dtype=np.uint32)] * (_POOL - len(entropy))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hashed = hashmix(pool[src])
                mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashed
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # pairs of uint32 words, low word first, joined by shifts: no byte-order view
    words = [state[2 * k] | (state[2 * k + 1] << np.uint64(32)) for k in range(_POOL)]
    return np.stack(words, axis=1)


def _replica_states(seed: int, start: int, stop: int) -> np.ndarray:
    """The PCG64 states (_pcg64_states rows) that RngStream(seed, r).generator()
    starts from, for r in start..stop-1.

    The pair (seed, start) is validated before any words are derived;
    every later index is larger, so no other pair needs checking.  The
    rows come from one vectorised pass (_seed_words, _pcg64_states),
    except that a span of fewer than _SHORT_SPAN rows, or one reaching
    past 2**64, reads each row from numpy's own
    PCG64(SeedSequence((seed, r))).state.
    """
    RngStream(seed, start)
    if stop - start >= _SHORT_SPAN and stop <= 2**64:
        return _pcg64_states(_seed_words(seed, start, stop))
    keys = [np.random.PCG64(np.random.SeedSequence((seed, r))).state["state"] for r in range(start, stop)]
    rows = [(k["state"] % 2**64, k["state"] >> 64, k["inc"] % 2**64, k["inc"] >> 64) for k in keys]
    return np.array(rows, dtype=np.uint64).reshape(-1, 4)


# PCG64's 128-bit LCG multiplier (numpy's pcg64.h, PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT_HI = 0x2360ED051FC65DA4
_PCG_MULT_LO = 0x4385DF649FCCF645


def _mul_hi(a: np.ndarray, m: int) -> np.ndarray:
    """The high 64 bits of the 128-bit products a * m, from 32-bit halves."""
    low32, shift = np.uint64(_MASK32), np.uint64(32)
    a0, a1 = a & low32, a >> shift
    m0, m1 = np.uint64(m & _MASK32), np.uint64(m >> 32)
    cross_a, cross_b = a1 * m0, a0 * m1
    mid = ((a0 * m0) >> shift) + (cross_a & low32) + (cross_b & low32)
    return a1 * m1 + (cross_a >> shift) + (cross_b >> shift) + (mid >> shift)


def _pcg64_states(words: np.ndarray) -> np.ndarray:
    """The PCG64 state that each row of SeedSequence words seeds.

    PCG64 reads a row (w0, w1, w2, w3) as s = w0*2**64 + w1 and
    q = w2*2**64 + w3, and its seeding (numpy's pcg64_set_seed, after
    O'Neill's pcg_setseq_128_srandom_r) sets inc = 2q + 1 and
    state = ((inc + s)*M + inc) mod 2**128.  The 128-bit sums and the
    product are carried out on uint64 halves.  A row of the result is
    (state low, state high, inc low, inc high), the order in which
    numpy keeps them on a little-endian machine; new slots check it.
    """
    w0, w1, w2, w3 = words.T
    one = np.uint64(1)
    inc_lo = (w3 << one) | one
    inc_hi = (w2 << one) | (w3 >> np.uint64(63))
    lo = inc_lo + w1
    hi = inc_hi + w0 + (lo < w1)
    mult_lo = np.uint64(_PCG_MULT_LO)
    state_lo = lo * mult_lo + inc_lo
    state_hi = (_mul_hi(lo, _PCG_MULT_LO) + lo * np.uint64(_PCG_MULT_HI) + hi * mult_lo
                + inc_hi + (state_lo < inc_lo))
    return np.stack((state_lo, state_hi, inc_lo, inc_hi), axis=1)


# numpy's C loops behind Generator.standard_exponential and Generator.random
# for float64 (distributions.c), each called as fill(bitgen_t *, count, double *)
_FILLS = ("random_standard_exponential_fill", "random_standard_uniform_fill")
_COUNT = ctypes.c_ssize_t(_BLOCK)  # passes as is; an int would be converted every call


def _check_bank(bank: _Bank, old: int) -> None:
    """Raise unless each slot i from old on, keyed to SeedSequence(i)'s
    state and then to its neighbour's, fills through the C loops the _BLOCK
    exponentials and uniforms that Generator(PCG64) draws from that seed."""
    seeds = [np.random.SeedSequence(i) for i in range(old, len(bank.slots))]
    gens = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    want = np.array([(gen.standard_exponential(_BLOCK), gen.random(_BLOCK)) for gen in gens])
    states = _pcg64_states(np.array([seed.generate_state(4, np.uint64) for seed in seeds]))
    for shift in (0, 1):
        bank.keyed(np.concatenate((bank.slots[:old, 8:], np.roll(states, -shift, axis=0))))
        bank.fill_exps(range(old, bank.n))
        bank.fill_unis(range(old, bank.n))
        if not np.array_equal(np.stack((bank.exps[old:], bank.unis[old:]), axis=1),
                              np.roll(want, -shift, axis=0)):
            raise RuntimeError(f"numpy {np.__version__}: a slot built on PCG64's bitgen_t does "
                               "not draw what Generator(PCG64) draws from the same state")


class _Bank(threading.local):
    """This thread's lane slots: a uint64 row per lane, from which numpy's
    C fill loops draw as a Generator(PCG64) on the row's state would.

    A row is 12 words: a bitgen_t (a pointer to word 5, then the 4
    function pointers of a PCG64's bitgen_t), a pcg64_state (a pointer to
    word 8, then has_uint32 = 0), a pad, and in words 8-11 the 128-bit
    state and inc as _pcg64_states rows give them, 16-byte aligned as a
    128-bit integer is.  keyed(states) writes words 8-11 of the first
    n = len(states) rows in one assignment.  exps and unis are the reused
    rows a walk fills before it reads them: fill_exps(lanes) and
    fill_unis(lanes) fill row i from slot i, for each lane i, with the
    _BLOCK draws of Generator.standard_exponential(out=row) and
    Generator.random(out=row).  The bank grows when a block first needs
    more slots, which pass _check_bank before any use.  Each thread has
    its own; a block's re-key overwrites what a raised walk left behind.
    """

    def __init__(self) -> None:
        self.n = 0
        self.slots = np.zeros((0, 12), dtype=np.uint64)
        self.exps = self.unis = np.empty((0, _BLOCK))

    def keyed(self, states: np.ndarray) -> _Bank:
        """This bank, its first len(states) slots keyed to the rows of states."""
        if len(states) > len(self.slots):
            try:
                self._grow(len(states))
            except BaseException:  # keep no slot that failed its check
                self.__init__()
                raise
        self.n = len(states)
        self.slots[:self.n, 8:12] = states
        return self

    def fill_exps(self, lanes) -> None:
        fill, at, rows = self._fill_exps, self._at, self._exp_at
        for i in lanes:
            fill(at[i], _COUNT, rows[i])

    def fill_unis(self, lanes) -> None:
        fill, at, rows = self._fill_unis, self._at, self._uni_at
        for i in lanes:
            fill(at[i], _COUNT, rows[i])

    def _grow(self, n: int) -> None:
        from numpy.random import _generator

        lib = ctypes.PyDLL(_generator.__file__)
        try:
            fills = [getattr(lib, name) for name in _FILLS]
        except AttributeError as exc:
            raise RuntimeError(f"numpy {np.__version__}: {exc}") from None
        for fill in fills:
            fill.argtypes, fill.restype = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p), None
        self._fill_exps, self._fill_unis = fills
        old, raw = len(self.slots), np.zeros(12 * n + 1, dtype=np.uint64)
        skip = raw.ctypes.data % 16 // 8  # start the rows on a 16-byte boundary
        self.slots = raw[skip:skip + 12 * n].reshape(n, 12)
        at = np.arange(n, dtype=np.uint64) * np.uint64(96) + np.uint64(self.slots.ctypes.data)
        self.slots[:, 0], self.slots[:, 5] = at + np.uint64(40), at + np.uint64(64)
        template = np.random.PCG64(0)  # kept alive while its function pointers are read
        pointers = (ctypes.c_uint64 * 4).from_address(template.ctypes.bit_generator.value + 8)
        self.slots[:, 1:5] = list(pointers)
        self.exps, self.unis, self._at = np.empty((n, _BLOCK)), np.empty((n, _BLOCK)), at.tolist()
        self._exp_at, self._uni_at = (list(range(rows.ctypes.data, rows.ctypes.data + rows.nbytes,
                                                 8 * _BLOCK)) for rows in (self.exps, self.unis))
        _check_bank(self, old)


_bank = _Bank()


def _unvalidated(cls: type, **fields):
    """An instance of the frozen dataclass cls holding fields, built
    without running its __post_init__ checks; for values that already
    meet them by construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _check_horizon(T: float) -> None:
    if not (T > 0 and math.isfinite(T)):
        raise PreconditionError(f"T must be positive, got {T}")


def _check_chain(model: RateModel, T: float) -> None:
    _check_horizon(T)
    if death_rate(model, 0) != 0.0:
        raise PreconditionError(
            "simulation requires mu(0) = 0; this table model has mu(0) = "
            f"{death_rate(model, 0)}"
        )


def _state_row(model: RateModel, x: int) -> tuple[float, float, float, float]:
    """(eta, p_up, ln lambda, ln mu) of the chain at state x: eta(x),
    lambda(x)/eta(x) and the logs of the two jump rates, with ln 0 = -inf
    for the dead jump of functional_B."""
    lam = birth_rate(model, x)
    mu = death_rate(model, x)
    eta = lam + mu
    # u < lam/eta is exact at x=0: lam/eta == 1.0 and u < 1 always
    return eta, lam / eta, math.log(lam), math.log(mu) if mu else -math.inf


# ---------------------------------------------------------------------------
# the lane walker: many replicas at once, each on its own stream


class _Lanes:
    """Per-lane results of one block of lanes, in replica order.

    final and peak are the state at T and the largest state visited;
    jumps counts the jumps made.  below_zero marks lanes that a walk
    retiring negative lanes stopped at their first negative state (their
    final and peak then describe the path up to that state only).  When
    paths are kept, lane i's entries are times[start[i]:start[i+1]] and
    the states there: a head (0.0, 0), then each jump's time and the
    state it leads to, then a tail (T, final).  path(i) gives the jumps
    as lists of times and signs.
    """

    __slots__ = ("final", "peak", "jumps", "below_zero", "start", "times", "states")

    def __init__(self, n: int) -> None:
        self.final = np.zeros(n, dtype=np.int64)
        self.peak = np.zeros(n, dtype=np.int64)
        self.jumps = np.zeros(n, dtype=np.intp)
        self.below_zero = np.zeros(n, dtype=bool)

    def store_paths(self, groups: list, T: float) -> None:
        """Store the lanes' entries: lane i's head at start[i], its k-th
        jump at start[i] + 1 + k and its tail at start[i + 1] - 1.  A
        group (lanes, k, times, states) holds jumps k, k+1, ... of lanes
        row by row: their times and the state after each.  A row past a
        lane's last jump is not one of its jumps: it would land on or past
        the lane's tail."""
        self.start = np.zeros(self.jumps.size + 1, dtype=np.intp)
        np.cumsum(self.jumps + 2, out=self.start[1:])
        self.times = np.zeros(self.start[-1])
        self.states = np.zeros(self.start[-1], dtype=np.int64)
        tail = self.start[1:] - 1
        self.times[tail] = T
        self.states[tail] = self.final
        for lane, k, times, states in groups:
            at = self.start[lane] + (k + 1 + _ROWS[:len(states)])
            made = at < tail[lane]
            at = at[made]
            self.times[at] = times[made]
            self.states[at] = states[made]

    def path(self, i: int) -> tuple[list[float], list[int]]:
        """Lane i's jump times and signs as Python lists."""
        lo, hi = self.start[i], self.start[i + 1]
        return self.times[lo + 1:hi - 1].tolist(), np.diff(self.states[lo:hi - 1]).tolist()


class _StateTable:
    """The chain's per-state doubles, _state_row(model, x), as numpy columns.

    upto(top) gives the (eta, p_up, ln lambda, ln mu) columns for at least
    states 0..top.  They double whenever a state past their end is asked
    for (up to a table's end), so the rebuilds cost amortised O(1) per
    state.  A state the model cannot serve raises when it is first asked
    for.

    Called as rates_at(top), it gives the walk's (eta, p_up) columns for
    states 0..top.  States past a table's end read eta = inf and p_up =
    1/2, so a walk may step a lane there speculatively; refuse(x) raises
    the model's error for such a state, which the walk calls when a lane
    really enters it.
    """

    def __init__(self, model: RateModel) -> None:
        self._model = model
        self._rows: list[tuple] = []
        self._columns: tuple[np.ndarray, ...] = ()
        self._padded: tuple[np.ndarray, np.ndarray] = (np.empty(0), np.empty(0))

    def upto(self, top: int) -> tuple[np.ndarray, ...]:
        rows, model = self._rows, self._model
        if top >= len(rows):
            size = 2 * len(rows)
            if model.kind == "table":
                size = min(size, len(model.table))
            # rows are built in state order, so past a table's end the state
            # that raises is the one just outside it, where a walk from 0 leaves
            for s in range(len(rows), max(size, top + 1)):
                rows.append(_state_row(model, s))
            self._columns = tuple(np.array(rows).T.copy())
        return self._columns

    def __call__(self, top: int) -> tuple[np.ndarray, np.ndarray]:
        if top >= len(self._padded[0]):
            table = self._model.table
            eta, p_up = self.upto(top if table is None else min(top, len(table) - 1))[:2]
            if len(eta) <= top:
                past = max(top + 1, 2 * len(eta)) - len(eta)
                eta = np.concatenate((eta, np.full(past, math.inf)))
                p_up = np.concatenate((p_up, np.full(past, 0.5)))
            self._padded = (eta, p_up)
        return self._padded

    def refuse(self, x: int) -> None:
        """Raise the model's error for x, a state past the table's end."""
        _state_row(self._model, x)


def _zeta_rates(top):
    """rates_at of the reference walk: (eta, p_up) = (1, 1/2) as scalars
    for every state."""
    return 1.0, 0.5


def _running_sum(times: np.ndarray, dt: np.ndarray) -> None:
    """Fill rows 1.. of times with running sums from row 0:
    times[j + 1] = times[j] + dt[j].  Each lane (column) adds its holding
    times one at a time, in the order t += dt does, so every sum carries
    the bits of that loop.  (np.cumsum along the rows adds in the same
    order, but measured slower at the widths the walker uses.)"""
    for j in range(len(dt)):
        np.add(times[j], dt[j], out=times[j + 1])


# column offsets 0, 1, ..., _BLOCK - 1 as a column vector
_ROWS = np.arange(_BLOCK)[:, None]


def _walk_lanes(bank: _Bank, T: float, rates_at, keep_paths: bool, stop_below_zero: bool,
                columns: int = _FIRST_COLUMNS) -> _Lanes:
    """Event-driven paths from state 0 on [0, T], one lane per slot of
    bank (a keyed _Bank, or any object with its n, exps, unis, fill_exps
    and fill_unis), advanced together a group of jump columns at a time.

    rates_at(top) gives (eta, p_up) for states 0..top, as arrays indexed
    by state or as scalars.  A lane's holding time at x is exponential
    with rate eta, t += dt / eta, and its jump is up iff a uniform draw
    is below p_up.  A draw dt that does not move t forward in floating
    point (a zero draw among them) is drawn again, so jump times stay
    strictly increasing.  Lane i draws from slot i alone, into row i of
    bank.exps and bank.unis: a row of _BLOCK exponentials at the start
    and whenever its row runs out, and a row of _BLOCK uniforms at its
    first jump and then every _BLOCK jumps; the lanes due for a row are
    passed to bank.fill_exps or bank.fill_unis as one list.  A lane
    retires when its next jump time reaches T, or, with stop_below_zero,
    at its first negative state (after one more holding time, which
    draws only from its own slot).

    Every running lane has made the same k jumps and drawn its holding
    time for jump k.  A group of c = max(columns, k) columns (at most
    _COLUMNS) steps the states one jump at a time: a lookup of p_up, a
    compare, an add to the lane's count of up jumps.  Then it draws the
    c holding times that follow for all columns at once, and adds them
    to t one at a time (_running_sum), so the times carry the bits of
    t += dt / eta.  c never crosses a row of uniforms or any running
    lane's row of exponentials, and a lane whose holding time does not
    move t finishes its group one draw at a time, refilling its row at
    need, so each lane draws in the order a lane walked alone draws;
    the group width never changes a draw.  A lane
    may step past its end inside a group: only its jumps before its
    first holding time that reaches T count, and a state the model
    cannot serve (eta = inf, which never moves t) raises only where a
    lane really enters it.  Lanes that ended leave the arrays after
    their group.
    """
    n = bank.n
    bank.fill_exps(range(n))
    flat_exps = bank.exps.reshape(-1)
    out = _Lanes(n)
    groups = []
    lane = np.arange(n)
    base = lane * _BLOCK  # flat index of each running lane's rows
    epos = base.copy()  # flat index of its next exponential
    most = 0  # at least as many as any running lane has used of its row
    t = np.zeros(n)
    k = 0  # jumps made by every running lane
    ups = np.zeros(n, dtype=np.int64)  # up jumps of each lane: its state is 2*ups - k
    peak = np.zeros(n, dtype=np.int64)
    eta, p_up = rates_at(0)
    doubled = doubled_of = None
    # the states of a group's holding times, row by row; the first group
    # is the first holding time, at state 0
    states = np.zeros((1, n), dtype=np.int64)
    while True:
        c = len(states)
        dt = flat_exps[epos + _ROWS[:c]]
        dt /= eta if isinstance(eta, float) else eta[states]
        times = np.empty((c + 1, t.size))
        times[0] = t
        _running_sum(times, dt)
        epos += c
        most += c
        stalled = times[1:] <= times[:-1]
        if stalled.any():
            for j in stalled.any(axis=0).nonzero()[0].tolist():
                r = int(stalled[:, j].argmax())
                gone = times[1:r + 1, j] >= T
                if stop_below_zero:
                    gone |= states[:r, j] < 0
                if gone.any():
                    continue  # retired before its stall
                pos, end, now = int(epos[j]) - c + r, base[j] + _BLOCK, times[r, j]
                for r in range(r, c):
                    x = int(states[r, j])
                    at = eta if isinstance(eta, float) else eta[x]
                    if at == math.inf:
                        rates_at.refuse(x)
                    nxt = now
                    while not nxt > now:
                        if pos == end:
                            bank.fill_exps((int(lane[j]),))
                            pos = base[j]
                        nxt = now + flat_exps[pos] / at
                        pos += 1
                    times[r + 1, j] = now = nxt
                    if nxt >= T or stop_below_zero and x < 0:
                        break
                epos[j] = pos
                most = max(most, int(pos - base[j]))
        ended = times[1:] >= T
        if k and stop_below_zero:
            ended |= states < 0
        hit = ended.any(axis=0)
        i = hit.nonzero()[0]
        if k:  # a lane that ends at its first holding time keeps _Lanes' zeros
            if keep_paths:
                groups.append((lane, k - c, times[:-1], states))
            if i.size:
                row = ended[:, i].argmax(axis=0)
                done = lane[i]
                # row 0 holds the holding time after jump k - c
                out.jumps[done] = row + (k - c + 1)
                seen, each = states[:, i], np.arange(i.size)  # a copy: states is kept
                out.final[done] = seen[row, each]
                np.maximum.accumulate(seen, axis=0, out=seen)
                out.peak[done] = np.maximum(peak[i], seen[row, each])
                if stop_below_zero:
                    out.below_zero[done] = out.final[done] < 0
            np.maximum(peak, states.max(axis=0), out=peak)
        t = times[c]
        if i.size:
            if i.size == t.size:
                if keep_paths:
                    out.store_paths(groups, T)
                return out
            keep = (~hit).nonzero()[0]
            lane, base, epos, t, ups, peak = (
                lane[keep], base[keep], epos[keep], t[keep], ups[keep], peak[keep]
            )
        # the next group: jumps k..k+c-1 and the holding times after them
        col = k % _BLOCK
        if col == 0:
            bank.fill_unis(lane.tolist())
        if most == _BLOCK:
            full = np.flatnonzero(epos == base + _BLOCK)
            bank.fill_exps(lane[full].tolist())
            epos[full] = base[full]
            most = int((epos - base).max())
        c = min(_COLUMNS, max(columns, k), _BLOCK - col, _BLOCK - most)
        eta, p_up = rates_at(k + c)
        u = np.ascontiguousarray(bank.unis[lane, col:col + c].T)
        counts = np.empty((c, t.size), dtype=np.int64)
        if not isinstance(p_up, float) and doubled_of is not p_up:
            # doubled[len(p_up) - kk::2][ups] is p_up at state 2*ups - kk
            # after kk jumps (a chain's state is never negative)
            doubled, doubled_of = np.concatenate((p_up, p_up)), p_up
        for j in range(c):
            p = p_up if doubled is None else doubled[len(p_up) - k - j::2][ups]
            ups = np.add(ups, u[j] < p, out=counts[j])
        states = counts * 2
        states -= k + 1 + _ROWS[:c]
        k += c


def _lane_blocks(states: np.ndarray, T: float, rates_at, keep_paths: bool,
                 stop_below_zero: bool) -> Iterator[_Lanes]:
    """_walk_lanes over blocks of replicas, lane i of a block on this
    thread's slot i re-keyed to its replica's row of states (as
    _replica_states gives them).

    Blocks are _LANES wide and start with groups of _FIRST_COLUMNS jump
    columns; after the first block whose longest lane made more than
    _LONG_WALK jumps they are _WIDE_LANES wide and walk _COLUMNS columns
    a group.  Width and group only decide which lanes and jumps share a
    numpy call: every lane draws from its own state in _walk_lanes'
    order, so no draw depends on them.
    """
    width, columns, lo = _LANES, _FIRST_COLUMNS, 0
    while lo < len(states):
        block = states[lo:lo + width]
        lo += width
        lanes = _walk_lanes(_bank.keyed(block), T, rates_at, keep_paths, stop_below_zero, columns)
        if lanes.jumps.max() > _LONG_WALK:
            width, columns = _WIDE_LANES, _COLUMNS
        yield lanes


def _xi_lanes(model: RateModel, T: float, seed: int, start: int, stop: int,
              keep_paths: bool) -> Iterator[_Lanes]:
    """Chain replicas start..stop-1 on substreams (seed, r), a block of
    lanes at a time (see _lane_blocks)."""
    states = _replica_states(seed, start, stop)
    _check_chain(model, T)
    return _lane_blocks(states, T, _StateTable(model), keep_paths, False)


def _zeta_lanes(T: float, seed: int, start: int, stop: int) -> Iterator[_Lanes]:
    """Reference-walk replicas start..stop-1 with paths, each stopped at
    its first negative state, a block of lanes at a time."""
    states = _replica_states(seed, start, stop)
    _check_horizon(T)
    return _lane_blocks(states, T, _zeta_rates, True, True)


def _one_path(stream: RngStream, T: float, rates_at) -> Trajectory:
    """The path of stream's replica: a one-lane walk on slot 0, re-keyed
    to the state that stream.generator() starts from (its
    _replica_states row).  Times in (0, T) and signs of +-1 are what
    Trajectory checks, so it is built without rechecking."""
    r = stream.replica_index
    lanes = _walk_lanes(_bank.keyed(_replica_states(stream.seed, r, r + 1)), T, rates_at, True, False)
    times, signs = lanes.path(0)
    return _unvalidated(
        Trajectory, horizon=T, jump_times=tuple(times), jump_signs=tuple(signs), initial_state=0
    )


def simulate_xi(model: RateModel, T: float, stream: RngStream) -> Trajectory:
    """Exact simulation of the birth-death chain from state 0 on [0, T].

    At state x the holding time is exponential with rate eta(x) and the
    jump is up with probability lambda(x)/eta(x).  At x = 0 that
    probability is 1 (mu(0) = 0), so the walk can never leave the
    nonnegative integers.  The path is replica stream.replica_index of
    the lane walk the estimators run.
    """
    _check_chain(model, T)
    return _one_path(stream, T, _StateTable(model))


def simulate_zeta(T: float, stream: RngStream) -> Trajectory:
    """Reference walk on [0, T]: unit-rate jump epochs, fair +-1 signs."""
    _check_horizon(T)
    return _one_path(stream, T, _zeta_rates)


def in_path_space(traj: Trajectory) -> bool:
    """True iff the path starts at 0 and never goes negative."""
    if traj.initial_state != 0:
        return False
    x = 0
    for s in traj.jump_signs:
        x += s
        if x < 0:
            return False
    return True
