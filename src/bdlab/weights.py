"""Path functionals, the log change-of-measure weight, and the two estimators.

The chain's law is absolutely continuous with respect to the reference
walk's law on paths that stay nonnegative; the log density of a path u
with N jumps is

    log p(u) = T - A(u) + B(u) + N * ln 2

where A integrates the combined rate eta along the path and B sums the
log transition rates of the jumps actually taken.  Probabilities of path
events under the chain can therefore be estimated either directly
(simulate the chain, average the indicator) or by importance sampling
(simulate the walk, average indicator * exp(log density)).  All weight
accumulation happens in log space with a peak shift; reductions use
math.fsum so the result is independent of summation order.
"""

from __future__ import annotations

import atexit
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import PreconditionError
from .paths import PiecewiseFunction, _check_phi, _lane_l1_below, l1_distance, scale_path
from .process import (
    RateModel,
    Trajectory,
    _Lanes,
    _StateTable,
    _xi_lanes,
    _zeta_lanes,
    birth_rate,
    death_rate,
    in_path_space,
    total_rate,
)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "Estimate",
    "EventSpec",
    "count_jumps",
    "functional_A",
    "functional_B",
    "log_density",
    "importance_estimate",
    "direct_estimate",
    "terminal_states",
    "agreement_z",
]

_NEG_INF = float("-inf")

# replicas per chunk, the pool's unit of work (one submitted call, one
# result list); replica r draws from substream (seed, r) whichever chunk
# holds it, so no result depends on this size
_CHUNK = 4096


@dataclass(frozen=True)
class Estimate:
    """A log-space probability estimate with sampling diagnostics.

    log_value is -inf exactly when no replica contributed (n_hits = 0),
    in which case relative_std_error is +inf (no information) and
    max_weight_share is 0.  Otherwise relative_std_error is the sample
    standard deviation of the per-replica contributions divided by
    (mean * sqrt(n)), and max_weight_share is the largest single
    contribution's share of the total weight, a heavy-tail diagnostic.
    """

    log_value: float
    relative_std_error: float
    n_samples: int
    n_hits: int
    max_weight_share: float = 0.0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise PreconditionError(f"n_samples must be >= 1, got {self.n_samples}")
        if not 0 <= self.n_hits <= self.n_samples:
            raise PreconditionError(f"n_hits out of range: {self.n_hits}")
        if (self.log_value == _NEG_INF) != (self.n_hits == 0):
            raise PreconditionError("log_value must be -inf exactly when n_hits is 0")
        if not self.relative_std_error >= 0:
            raise PreconditionError("relative_std_error must be nonnegative")
        if not 0.0 <= self.max_weight_share <= 1.0:
            raise PreconditionError("max_weight_share must lie in [0, 1]")


@dataclass(frozen=True)
class EventSpec:
    """A path event, evaluated exactly on the scaled path of a trajectory.

    neighborhood: L1 ball of radius eps around a center profile (strict).
    level_cross: the running maximum of state/phi reaches a.
    terminal_window: final state/phi lands in [lo, hi].
    full_space: always true.
    """

    kind: str
    center: PiecewiseFunction | None = None
    eps: float | None = None
    a: float | None = None
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "neighborhood":
            if self.center is None or self.eps is None or not self.eps > 0:
                raise PreconditionError("neighborhood needs a center and eps > 0")
        elif self.kind == "level_cross":
            if self.a is None or not self.a > 0:
                raise PreconditionError("level_cross needs a > 0")
        elif self.kind == "terminal_window":
            if self.lo is None or self.hi is None or not 0 <= self.lo <= self.hi:
                raise PreconditionError("terminal_window needs 0 <= lo <= hi")
        elif self.kind != "full_space":
            raise PreconditionError(f"unknown event kind {self.kind!r}")

    @classmethod
    def neighborhood(cls, center: PiecewiseFunction, eps: float) -> "EventSpec":
        return cls(kind="neighborhood", center=center, eps=eps)

    @classmethod
    def level_cross(cls, a: float) -> "EventSpec":
        return cls(kind="level_cross", a=a)

    @classmethod
    def terminal_window(cls, lo: float, hi: float) -> "EventSpec":
        return cls(kind="terminal_window", lo=lo, hi=hi)

    @classmethod
    def full_space(cls) -> "EventSpec":
        return cls(kind="full_space")

    def occurs(self, traj: Trajectory, T: float, phi_of_T: float) -> bool:
        if self.kind == "full_space":
            return True
        if self.kind == "neighborhood":
            return self._near(scale_path(traj, T, phi_of_T))
        final = traj.final_state()
        peak = max(traj.states()) if self.kind == "level_cross" else final
        return self._state_test(final, peak, phi_of_T)

    def _state_test(self, final, peak, phi_of_T: float):
        """terminal_window or level_cross from the final state and the
        largest state visited; elementwise on arrays of lanes."""
        if self.kind == "terminal_window":
            s = final / phi_of_T
            return (self.lo <= s) & (s <= self.hi)
        return peak / phi_of_T >= self.a

    def _near(self, scaled: PiecewiseFunction) -> bool:
        return l1_distance(scaled, self.center) < self.eps

    def _lane_hits(self, lanes: _Lanes, T: float, phi_of_T: float) -> np.ndarray:
        """occurs for each lane of a block of lanes that stayed nonnegative;
        False for the others."""
        alive = ~lanes.below_zero
        if self.kind == "full_space":
            return alive
        if self.kind == "neighborhood":
            return alive & _lane_l1_below(lanes, T, phi_of_T, self.center, self.eps)
        return alive & self._state_test(lanes.final, lanes.peak, phi_of_T)


def count_jumps(traj: Trajectory) -> int:
    """N: number of jumps on [0, horizon]."""
    return len(traj.jump_signs)


def functional_A(model: RateModel, traj: Trajectory) -> float:
    """A = integral of eta(state(t)) dt over [0, horizon], exact per segment.

    eta is undefined below 0, so a path that visits a negative state is
    an error here; estimator code screens such paths out (they carry
    zero weight) before ever calling this.
    """
    x, t_prev = traj.initial_state, 0.0
    terms: list[float] = []
    for t, s in zip(traj.jump_times, traj.jump_signs):
        if x < 0:
            raise PreconditionError("eta undefined for negative states")
        terms.append(total_rate(model, x) * (t - t_prev))
        x += s
        t_prev = t
    if x < 0:
        raise PreconditionError("eta undefined for negative states")
    terms.append(total_rate(model, x) * (traj.horizon - t_prev))
    return math.fsum(terms)


def functional_B(model: RateModel, traj: Trajectory) -> float:
    """B = sum of log transition rates along the jumps; -inf on a dead jump.

    Each up-jump from x contributes ln lambda(x), each down-jump
    ln mu(x).  A down-jump from 0 has rate mu(0) = 0 under any
    simulatable model, so its log weight is -inf and the whole value is
    -inf (the path is unreachable for the chain).
    """
    x = traj.initial_state
    terms: list[float] = []
    for s in traj.jump_signs:
        if x < 0:
            raise PreconditionError("rates undefined for negative states")
        nu = birth_rate(model, x) if s > 0 else death_rate(model, x)
        if nu == 0.0:
            return _NEG_INF
        terms.append(math.log(nu))
        x += s
    return math.fsum(terms)


def log_density(model: RateModel, traj: Trajectory) -> float:
    """Log likelihood ratio of the chain's law to the walk's law on traj.

    Requires the trajectory to lie in the chain's path space (start at
    0, never negative); outside it the ratio is zero and callers should
    use that directly rather than call here.
    """
    if not in_path_space(traj):
        raise PreconditionError("log_density needs a path that stays nonnegative")
    return (
        traj.horizon
        - functional_A(model, traj)
        + functional_B(model, traj)
        + len(traj.jump_signs) * math.log(2.0)
    )


def _lane_log_weights(rates: _StateTable, lanes: _Lanes, hits: np.ndarray, T: float) -> list[float]:
    """log_density of each hit lane's path, bit for bit, and -inf for
    every other lane of a reference-walk block.

    A hit lane's kept entries run from its head (0.0, 0) through its
    jumps to its tail (T, final).  Each entry after the head has an A
    term: eta(x) times the time since the entry before, x the state of
    that entry.  Each jump has a B term: ln lambda(x), or ln mu(x) when
    its state is not above x.  eta, ln lambda and ln mu are columns 0, 2
    and 3 of rates, the chunk's _StateTable.  These are the doubles
    functional_A and functional_B add, and math.fsum is correctly
    rounded, so a lane's sums do not depend on the order of its terms.
    Rates are looked up only up to the hit lanes' peak, so a table model
    raises exactly when a hit lane leaves its table.
    """
    out = np.full(hits.size, _NEG_INF)
    jumps = lanes.jumps[hits]
    if jumps.size == 0:
        return out.tolist()
    entry = np.repeat(hits, lanes.jumps + 2)
    t, x = lanes.times[entry], lanes.states[entry]
    eta, _, ln_up, ln_down = rates.upto(int(lanes.peak[hits].max()))
    # one term per pair of adjacent entries; a lane at entries lo..hi-1 sums
    # a[lo:hi-1] and b[lo:hi-2] (its tail has no B term), so a pair from a
    # tail to the next lane's head is never summed
    before = x[:-1]
    a = (eta[before] * np.diff(t)).tolist()
    b = np.where(x[1:] > before, ln_up[before], ln_down[before]).tolist()
    fsum, ln2 = math.fsum, math.log(2.0)
    end = np.cumsum(jumps + 2)
    out[hits] = [
        T - fsum(a[lo:hi - 1]) + fsum(b[lo:hi - 2]) + n * ln2
        for lo, hi, n in zip((end - jumps - 2).tolist(), end.tolist(), jumps.tolist())
    ]
    return out.tolist()


# ---------------------------------------------------------------------------
# estimators


def _importance_chunk(args) -> list[float]:
    """Log weights for one contiguous block of importance replicas."""
    model, T, phi_of_T, event, seed, start, stop = args
    rates = _StateTable(model)
    out: list[float] = []
    for lanes in _zeta_lanes(T, seed, start, stop):
        out.extend(_lane_log_weights(rates, lanes, event._lane_hits(lanes, T, phi_of_T), T))
    return out


def _direct_chunk(args) -> list[float]:
    """Log indicator weights (0 or -inf) for one block of direct replicas."""
    model, T, phi_of_T, event, seed, start, stop = args
    out: list[float] = []
    for lanes in _xi_lanes(model, T, seed, start, stop, event.kind == "neighborhood"):
        hits = event._lane_hits(lanes, T, phi_of_T).tolist()
        out.extend(0.0 if hit else _NEG_INF for hit in hits)
    return out


def _terminal_chunk(args) -> list[int]:
    """Terminal states for one block of chain replicas."""
    model, T, seed, start, stop = args
    return [x for lanes in _xi_lanes(model, T, seed, start, stop, False) for x in lanes.final.tolist()]


# The process pool that every pooled _run_chunks call of this process
# shares.  It starts at the first pooled call and its workers are forked
# then, so they see the module state of that moment; Python's own exit
# hook for executors shuts it down when the interpreter exits.  The pool's
# modules (concurrent.futures.process, multiprocessing) are imported by
# _submit and _cancel, so a serial run never loads them.  The lock is
# reentrant because a live plan holds it while its thread's calls run.
_pool: ProcessPoolExecutor | None = None
_pool_size = 0
_pool_lock = threading.RLock()
# the calls whose chunks the pool holds, in call order, as (key, futures)
# pairs; only the thread that holds _pool_lock reads or changes it
_ahead: list = []


def _forget_pool() -> None:
    """In a forked child, the parent's pool, lock and submitted calls are
    not this process's."""
    global _pool, _pool_size, _pool_lock, _ahead
    _pool, _pool_size, _pool_lock, _ahead = None, 0, threading.RLock(), []


os.register_at_fork(after_in_child=_forget_pool)


def _drop_pool() -> None:
    """Shut the pool down, waiting for its manager thread and workers."""
    global _pool, _pool_size
    if _pool is not None:
        _pool_size = 0  # never reused, even if the wait below is interrupted
        _pool.shutdown(wait=True, cancel_futures=True)
        _pool = None


# The pool's modules are imported after this one, so at exit they are
# torn down first; a pool still held here then would be collected after
# them and its manager's callback would fail.  Drop it before teardown.
atexit.register(_drop_pool)


def _spans(n: int) -> list[tuple[int, int]]:
    return [(s, min(s + _CHUNK, n)) for s in range(0, n, _CHUNK)]


def _submit(keys, threads: int) -> None:
    """Hand the pool the chunks of each call in keys, a (worker, common, n)
    for each, in call order, and list each call's futures in _ahead.

    The largest call needs min(threads, chunks) workers: the live pool is
    kept when it has at least that many and at most threads; otherwise
    it is shut down and one of that size starts.
    """
    global _pool, _pool_size
    from concurrent.futures import ProcessPoolExecutor

    need = min(threads, max(len(_spans(n)) for _, _, n in keys))
    if not need <= _pool_size <= threads:
        _drop_pool()
        _pool, _pool_size = ProcessPoolExecutor(max_workers=need), need
    for worker, common, n in keys:
        _ahead.append(((worker, common, n), [_pool.submit(worker, common + span) for span in _spans(n)]))


def _cancel(exc: BaseException | None = None) -> None:
    """Cancel the listed chunks that have not started and empty _ahead.
    A dead worker or an interrupt (exc) also drops the pool, so the next
    call starts afresh; a chunk's own error leaves it as it is."""
    for _, futures in _ahead:
        for future in futures:
            future.cancel()
    _ahead.clear()
    if exc is not None:
        from concurrent.futures.process import BrokenProcessPool

        if isinstance(exc, BrokenProcessPool) or not isinstance(exc, Exception):
            _drop_pool()


def _run_chunks(worker, common, n: int, threads: int) -> list:
    """Map a chunk worker over replicas 0..n-1, serial or in processes.

    Chunk boundaries are fixed by _CHUNK alone and results are
    concatenated in chunk order, so the output is identical for any
    thread count.  A pooled call collects the head of _ahead; when that
    head is not this call, it first cancels every listed call and
    submits its own chunks (_submit sizes the pool).  On an error the
    listed chunks are cancelled (_cancel).
    """
    spans, out = _spans(n), []
    if threads <= 0 or len(spans) == 1:
        for span in spans:
            out.extend(worker(common + span))
        return out
    with _pool_lock:
        try:
            if not _ahead or _ahead[0][0] != (worker, common, n):
                _cancel()
                _submit([(worker, common, n)], threads)
            for future in _ahead[0][1]:
                out.extend(future.result())
        except BaseException as exc:
            _cancel(exc)
            raise
        del _ahead[0]
        return out


@contextmanager
def _planned(calls, threads: int):
    """Submit the chunks of a run of estimator calls before the first
    call is made, so the pool works on later calls while the caller
    reduces earlier ones.

    calls lists the calls in the order they will be made, each as the
    (worker, common, n) its _run_chunks receives, with phi_of_T at
    common[2].  The chunks of each call with more than one chunk are
    submitted in call order (_submit).  Planning never raises: it stops
    before the first call that fails _check_estimate, which raises in
    its own turn, and at a pool that refuses work.  The plan holds the
    pool lock for its life, so no other thread resizes or drops the pool
    under it; on exit it cancels the chunks no call collected (_cancel).
    """
    keys = []
    for worker, common, n in calls:
        try:
            _check_estimate(n, common[2])
        except PreconditionError:
            break
        if len(_spans(n)) > 1:
            keys.append((worker, common, n))
    if threads <= 0 or not keys:
        yield
        return
    with _pool_lock:
        try:
            try:
                _submit(keys, threads)
            except RuntimeError:  # a broken or shut-down pool
                pass
            yield
        except BaseException as exc:
            _cancel(exc)
            raise
        _cancel()


def _estimate_from_logw(logw: list[float]) -> Estimate:
    """Reduce per-replica log contributions to an Estimate, order-free."""
    n = len(logw)
    # a non-hit's exp(-inf) = 0.0 changes no exact sum and no max, so
    # only the hits are reduced
    hit_w = [w for w in logw if w != _NEG_INF]
    if not hit_w:
        return Estimate(
            log_value=_NEG_INF,
            relative_std_error=float("inf"),
            n_samples=n,
            n_hits=0,
            max_weight_share=0.0,
        )
    m = max(hit_w)
    shifted = [w - m for w in hit_w]
    s1 = math.fsum(math.exp(w) for w in shifted)
    s2 = math.fsum(math.exp(2.0 * w) for w in shifted)
    log_value = m + math.log(s1) - math.log(n)
    if n > 1:
        var_num = max(s2 - s1 * s1 / n, 0.0)
        rel_se = math.sqrt(var_num / (n - 1)) * math.sqrt(n) / s1
    else:
        rel_se = float("inf")
    return Estimate(
        log_value=log_value,
        relative_std_error=rel_se,
        n_samples=n,
        n_hits=len(hit_w),
        max_weight_share=1.0 / s1,
    )


def _check_estimate(n: int, phi_of_T: float) -> None:
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    _check_phi(phi_of_T)


def importance_estimate(
    model: RateModel,
    T: float,
    phi_of_T: float,
    event: EventSpec,
    n: int,
    seed: int,
    threads: int = 0,
) -> Estimate:
    """Estimate the chain probability of an event from n reference-walk replicas.

    Each replica contributes exp(log_density) if the walk path stays
    nonnegative and its scaled path satisfies the event, else 0.
    Deterministic given (seed, n): replica r always uses substream
    (seed, r) regardless of threads.
    """
    _check_estimate(n, phi_of_T)
    logw = _run_chunks(
        _importance_chunk, (model, T, phi_of_T, event, seed), n, threads
    )
    return _estimate_from_logw(logw)


def direct_estimate(
    model: RateModel,
    T: float,
    phi_of_T: float,
    event: EventSpec,
    n: int,
    seed: int,
    threads: int = 0,
) -> Estimate:
    """Plain Monte Carlo: simulate the chain n times, average the indicator."""
    _check_estimate(n, phi_of_T)
    logw = _run_chunks(_direct_chunk, (model, T, phi_of_T, event, seed), n, threads)
    return _estimate_from_logw(logw)


def terminal_states(
    model: RateModel, T: float, n: int, seed: int, threads: int = 0
) -> list[int]:
    """Final states of n chain replicas at time T; replica r uses substream (seed, r)."""
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    return _run_chunks(_terminal_chunk, (model, T, seed), n, threads)


def agreement_z(e1: Estimate, e2: Estimate) -> float:
    """Distance between two estimates in combined standard errors.

    Works in linear space: |p1 - p2| / sqrt(se1^2 + se2^2) with
    se = p * relative_std_error (0 when the estimate has no hits).
    Returns +inf when both standard errors are 0 and the values differ.
    """
    p1 = 0.0 if e1.log_value == _NEG_INF else math.exp(e1.log_value)
    p2 = 0.0 if e2.log_value == _NEG_INF else math.exp(e2.log_value)
    se1 = p1 * e1.relative_std_error if e1.n_hits else 0.0
    se2 = p2 * e2.relative_std_error if e2.n_hits else 0.0
    denom = math.hypot(se1, se2)
    diff = abs(p1 - p2)
    if denom == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / denom
