"""Rate models and exact simulation of the birth-death chain and its reference walk.

The chain xi lives on the nonnegative integers, starts at 0, jumps up at
rate lambda(x) and down at rate mu(x).  The reference walk zeta is the
symmetric continuous-time random walk on all integers with total jump
rate 1 and fair coin signs; it is the base measure for the
change-of-measure estimators in weights.py.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError

__all__ = [
    "RateModel",
    "Trajectory",
    "RngStream",
    "replica_streams",
    "birth_rate",
    "death_rate",
    "total_rate",
    "simulate_xi",
    "simulate_zeta",
    "in_path_space",
]

# draws fetched from the generator per block; amortizes numpy call overhead
_BLOCK = 128
# replicas the lockstep walker advances together; bounds its block arrays
_LANES = 256


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

    seed_words, when set, must be SeedSequence((seed, replica_index))
    .generate_state(4, np.uint64); replica_streams fills it from one
    vectorised pass per block of replicas, and generator() then skips
    the per-replica SeedSequence.  It takes no part in == or repr.
    """

    seed: int
    replica_index: int = 0
    seed_words: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (0 <= self.seed < 2**64):
            raise PreconditionError(f"seed must be a 64-bit integer, got {self.seed}")
        if self.replica_index < 0:
            raise PreconditionError(
                f"replica_index must be nonnegative, got {self.replica_index}"
            )

    def generator(self) -> np.random.Generator:
        if self.seed_words is None:
            key = np.random.SeedSequence((self.seed, self.replica_index))
        else:
            key = _seed_words_type()(self.seed_words)
        return np.random.Generator(np.random.PCG64(key))


@functools.cache
def _seed_words_type() -> type:
    """PCG64's seed source for precomputed SeedSequence output.

    Built on first use: its base class lives in numpy.random, which
    importing bdlab does not load, so exact-only runs never pay for it.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("_words",)

        def __init__(self, words: np.ndarray):
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise PreconditionError("precomputed seed words serve only 4 uint64 words")
            return self._words

    return SeedWords


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
# replicas whose seed words are derived in one pass (the estimators' chunk)
_WORDS_BLOCK = 4096


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


def _replica_words(seed: int, start: int, stop: int) -> Iterator[tuple[int, np.ndarray | None]]:
    """(r, SeedSequence((seed, r)) words) for r in start..stop-1.

    The pair (seed, start) is validated before any words are derived;
    every later index is larger, so no other pair needs checking.  Words
    come from one vectorised pass per block of _WORDS_BLOCK replicas;
    indices at or above 2**64 get None and keep the per-replica
    SeedSequence.
    """
    RngStream(seed, start)
    return _word_rows(seed, start, stop)


def _word_rows(seed: int, start: int, stop: int) -> Iterator[tuple[int, np.ndarray | None]]:
    for lo in range(start, stop, _WORDS_BLOCK):
        hi = min(lo + _WORDS_BLOCK, stop)
        rows = _seed_words(seed, lo, hi) if hi <= 2**64 else [None] * (hi - lo)
        yield from zip(range(lo, hi), rows)


def _unvalidated(cls: type, **fields):
    """An instance of the frozen dataclass cls holding fields, built
    without running its __post_init__ checks; for values that already
    meet them by construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def replica_streams(seed: int, start: int, stop: int) -> Iterator[RngStream]:
    """RngStream(seed, r) for r in start..stop-1, seed words derived per block.

    Each stream equals RngStream(seed, r) and draws the same bits; its
    SeedSequence words come from one vectorised pass over a block of
    _WORDS_BLOCK replicas instead of one SeedSequence per replica.
    Indices at or above 2**64 keep the per-replica SeedSequence.  The
    pair (seed, start) is validated once, so each stream is built
    without rerunning RngStream's checks.
    """
    for r, words in _replica_words(seed, start, stop):
        yield _unvalidated(RngStream, seed=seed, replica_index=r, seed_words=words)


def _jump_path(
    gen: np.random.Generator, T: float, rates_at: Callable[[int], tuple[float, float]]
) -> Trajectory:
    """Event-driven path from state 0 on [0, T], shared by simulate_xi and simulate_zeta.

    rates_at(x) gives (eta, p_up) at state x: the holding time there is
    exponential with rate eta, and the jump is up iff a uniform draw is
    below p_up.  Draws come from gen in blocks of _BLOCK, exponentials
    and uniforms each fetched when their last block runs out.  An
    exponential draw dt whose t + dt/eta does not move t forward in
    floating point (a zero draw among them) is drawn again, so jump
    times stay strictly increasing.  rates_at is called on entering each
    state, before its holding time is drawn, so it may raise for a state
    the path reaches.  Times in (0, T) and signs of +-1 are what
    Trajectory checks, so the path is built without rechecking them.
    """
    exps: list[float] = []
    unis: list[float] = []
    ei = ui = 0
    t = 0.0
    x = 0
    times: list[float] = []
    signs: list[int] = []
    eta, p_up = rates_at(0)
    while True:
        while True:
            if ei == len(exps):
                exps = gen.standard_exponential(_BLOCK).tolist()
                ei = 0
            t_next = t + exps[ei] / eta
            ei += 1
            if t_next > t:
                break
        t = t_next
        if t >= T:
            break
        if ui == len(unis):
            unis = gen.random(_BLOCK).tolist()
            ui = 0
        if unis[ui] < p_up:
            x += 1
            signs.append(1)
        else:
            x -= 1
            signs.append(-1)
        ui += 1
        times.append(t)
        eta, p_up = rates_at(x)
    return _unvalidated(
        Trajectory, horizon=T, jump_times=tuple(times), jump_signs=tuple(signs), initial_state=0
    )


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


def _state_rates(model: RateModel, x: int) -> tuple[float, float]:
    """(eta, p_up) of the chain at state x: eta(x) and lambda(x)/eta(x)."""
    lam = birth_rate(model, x)
    eta = lam + death_rate(model, x)
    # u < lam/eta is exact at x=0: lam/eta == 1.0 and u < 1 always
    return eta, lam / eta


def simulate_xi(model: RateModel, T: float, stream: RngStream) -> Trajectory:
    """Exact simulation of the birth-death chain from state 0 on [0, T].

    At state x the holding time is exponential with rate eta(x) and the
    jump is up with probability lambda(x)/eta(x).  At x = 0 that
    probability is 1 (mu(0) = 0), so the walk can never leave the
    nonnegative integers.  Each state's (eta, lambda/eta) is computed
    once per path, on its first visit.
    """
    _check_chain(model, T)
    # x moves by one per jump from 0 and never goes negative, so a state
    # not yet in the list is always the next one to append
    known: list[tuple[float, float]] = []

    def rates_at(x: int) -> tuple[float, float]:
        if x == len(known):
            known.append(_state_rates(model, x))
        return known[x]

    return _jump_path(stream.generator(), T, rates_at)


def _zeta_rates(x):
    """(eta, p_up) of the reference walk, for a state or an array of lanes."""
    return 1.0, 0.5


def simulate_zeta(T: float, stream: RngStream) -> Trajectory:
    """Reference walk on [0, T]: unit-rate jump epochs, fair +-1 signs."""
    _check_horizon(T)
    return _jump_path(stream.generator(), T, _zeta_rates)


# ---------------------------------------------------------------------------
# the lockstep walker: many replicas at once, each on its own stream


class _Lanes:
    """Per-lane results of one lockstep block, in replica order.

    final and peak are the state at T and the largest state visited;
    jumps counts the jumps made.  below_zero marks lanes that a walk
    retiring negative lanes stopped at their first negative state (their
    final and peak are then not meaningful).  When paths are kept, lane
    i's jumps are times[start[i]:start[i+1]] and the signs there; path(i)
    gives them as lists.
    """

    __slots__ = ("final", "peak", "jumps", "below_zero", "start", "times", "signs")

    def __init__(self, n: int) -> None:
        self.final = np.zeros(n, dtype=np.int64)
        self.peak = np.zeros(n, dtype=np.int64)
        self.jumps = np.zeros(n, dtype=np.intp)
        self.below_zero = np.zeros(n, dtype=bool)

    def store_paths(self, steps: list) -> None:
        """Store the jumps of steps, one (lanes, times, up flags) per
        step, lane by lane: lane i's k-th jump sits at start[i] + k."""
        self.start = np.zeros(self.jumps.size + 1, dtype=np.intp)
        np.cumsum(self.jumps, out=self.start[1:])
        self.times = np.empty(self.start[-1])
        self.signs = np.empty(self.start[-1], dtype=np.int8)
        for k, (lane, t, up) in enumerate(steps):
            at = self.start[lane] + k
            self.times[at] = t
            self.signs[at] = up
        self.signs += self.signs
        self.signs -= 1

    def path(self, i: int) -> tuple[list[float], list[int]]:
        """Lane i's jump times and signs as Python lists."""
        lo, hi = self.start[i], self.start[i + 1]
        return self.times[lo:hi].tolist(), self.signs[lo:hi].tolist()


class _ChainRates:
    """rates_at of the chain for an array of lane states.

    Per-state (eta, p_up) come from _state_rates, the doubles of the
    single-path kernel.  The arrays double whenever a lane passes their
    end (up to a table's end), so the rebuilds cost amortised O(1) per
    state.  A state the model cannot serve raises when a lane first
    reaches it.
    """

    def __init__(self, model: RateModel) -> None:
        self._model = model
        self._known: list[tuple[float, float]] = []
        self._eta = self._p_up = np.empty(0)

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        top = int(x.max())
        if top >= len(self._known):
            known, model = self._known, self._model
            size = 2 * len(known)
            if model.kind == "table":
                size = min(size, len(model.table))
            # lanes move by one state per jump, so past a table's end the
            # first state asked for is the one just outside it
            for s in range(len(known), max(size, top + 1)):
                known.append(_state_rates(model, s))
            self._eta, self._p_up = np.array(known).T.copy()
        return self._eta[x], self._p_up[x]


def _walk_lanes(gens: list, T: float, rates_at, keep_paths: bool, stop_below_zero: bool) -> _Lanes:
    """_jump_path for every generator of gens at once, in numpy lockstep.

    Lane i draws from gens[i] exactly what _jump_path draws from it: a
    row of _BLOCK exponentials at the start and whenever the lane's row
    runs out, a row of _BLOCK uniforms at its first jump and then every
    _BLOCK jumps, filled in place with out=, and the same redraw of a
    holding time that does not move t.  Each step applies _jump_path's
    arithmetic to every running lane; rates_at maps an array of lane
    states to their (eta, p_up), arrays or scalars.  A lane retires when
    its next jump time reaches T, or, with stop_below_zero, at its first
    negative state (after one more holding time, which draws only from
    its own generator).
    """
    n = len(gens)
    exps = np.empty((n, _BLOCK))
    unis = np.empty((n, _BLOCK))
    for gen, row in zip(gens, exps):
        gen.standard_exponential(out=row)
    flat_exps, flat_unis = exps.reshape(-1), unis.reshape(-1)
    out = _Lanes(n)
    steps = []
    lane = np.arange(n)
    base = lane * _BLOCK  # flat index of each running lane's rows
    epos = base.copy()  # flat index of its next exponential
    drawn = 0  # at least as many as any running lane has used of its row
    t = np.zeros(n)
    x = np.zeros(n, dtype=np.int64)
    peak = np.zeros(n, dtype=np.int64)
    eta, p_up = rates_at(x)
    k = 0  # jumps made by every running lane
    while True:
        if drawn == _BLOCK:
            for j in np.flatnonzero(epos == base + _BLOCK).tolist():
                gens[lane[j]].standard_exponential(out=exps[lane[j]])
                epos[j] = base[j]
            drawn = int((epos - base).max())
        t_next = t + flat_exps[epos] / eta
        epos += 1
        drawn += 1
        moved = t_next > t
        if np.count_nonzero(moved) < moved.size:
            rate = np.broadcast_to(eta, t.shape)
            for j in np.flatnonzero(~moved).tolist():
                while not t_next[j] > t[j]:
                    if epos[j] == base[j] + _BLOCK:
                        gens[lane[j]].standard_exponential(out=exps[lane[j]])
                        epos[j] = base[j]
                    t_next[j] = t[j] + flat_exps[epos[j]] / rate[j]
                    epos[j] += 1
            drawn = int((epos - base).max())
        t = t_next
        ended = t >= T
        if stop_below_zero:
            ended |= x < 0
        n_ended = np.count_nonzero(ended)
        if n_ended:
            done = lane[ended]
            out.jumps[done] = k
            out.final[done] = x[ended]
            out.peak[done] = peak[ended]
            if stop_below_zero:
                out.below_zero[done] = x[ended] < 0
            if n_ended == lane.size:
                if keep_paths:
                    out.store_paths(steps)
                return out
            running = ~ended
            lane, base, t, x, peak, epos = (
                lane[running], base[running], t[running], x[running], peak[running], epos[running]
            )
            eta, p_up = rates_at(x)
        col = k % _BLOCK
        if col == 0:
            for i in lane.tolist():
                gens[i].random(out=unis[i])
        up = flat_unis[base + col] < p_up
        x += up
        x += up
        x -= 1
        np.maximum(peak, x, out=peak)
        if keep_paths:
            steps.append((lane, t, up))
        k += 1
        eta, p_up = rates_at(x)


def _lane_blocks(words, seed: int, T: float, rates_at, keep_paths: bool,
                 stop_below_zero: bool) -> Iterator[_Lanes]:
    """_walk_lanes over blocks of _LANES replicas, each on its own PCG64
    built from its seed words (or SeedSequence((seed, r)) past 2**64)."""
    seed_words = _seed_words_type()
    Generator, PCG64, SeedSequence = np.random.Generator, np.random.PCG64, np.random.SeedSequence
    while block := list(itertools.islice(words, _LANES)):
        # the generators live only as long as their walk
        yield _walk_lanes(
            [Generator(PCG64(SeedSequence((seed, r)) if w is None else seed_words(w)))
             for r, w in block],
            T, rates_at, keep_paths, stop_below_zero,
        )


def _xi_lanes(model: RateModel, T: float, seed: int, start: int, stop: int,
              keep_paths: bool) -> Iterator[_Lanes]:
    """Chain replicas start..stop-1 on substreams (seed, r), _LANES at a time."""
    words = _replica_words(seed, start, stop)
    _check_chain(model, T)
    return _lane_blocks(words, seed, T, _ChainRates(model), keep_paths, False)


def _zeta_lanes(T: float, seed: int, start: int, stop: int) -> Iterator[_Lanes]:
    """Reference-walk replicas start..stop-1 with paths, each stopped at
    its first negative state, _LANES at a time."""
    words = _replica_words(seed, start, stop)
    _check_horizon(T)
    return _lane_blocks(words, seed, T, _zeta_rates, True, True)


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
