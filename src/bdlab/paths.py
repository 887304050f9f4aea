"""Piecewise functions on [0, 1]: scaled paths, L1 metric, variation, Jordan split.

Step mode encodes right-continuous step functions (the scaled-trajectory
picture); the value at t = 1 is the final segment's value, i.e. the left
limit there.  Linear mode encodes continuous piecewise-linear profiles.
Everything is exact on the breakpoint grid; no quadrature anywhere.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .errors import PreconditionError
from .process import Trajectory, _unvalidated

__all__ = [
    "PiecewiseFunction",
    "JordanPair",
    "scale_path",
    "l1_distance",
    "integral",
    "total_variation",
    "jordan_decompose",
    "left_limit_at_one",
    "neighborhood_contains",
]


@dataclass(frozen=True)
class PiecewiseFunction:
    """A finite-breakpoint function on [0, 1].

    breakpoints: 0 = t_0 < ... < t_n = 1.
    step mode: one value per segment [t_i, t_{i+1}), extended to include
    t = 1 on the last segment (len(values) == n).
    linear mode: one value per breakpoint, linear in between
    (len(values) == n + 1).
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in ("step", "linear"):
            raise PreconditionError(f"unknown mode {self.mode!r}")
        bp = self.breakpoints
        if len(bp) < 2 or bp[0] != 0.0 or bp[-1] != 1.0:
            raise PreconditionError("breakpoints must run from 0.0 to 1.0")
        for i in range(len(bp) - 1):
            if not bp[i] < bp[i + 1]:
                raise PreconditionError("breakpoints must be strictly increasing")
        want = len(bp) - 1 if self.mode == "step" else len(bp)
        if len(self.values) != want:
            raise PreconditionError(
                f"{self.mode} mode with {len(bp)} breakpoints needs {want} values, "
                f"got {len(self.values)}"
            )
        for v in self.values:
            if not math.isfinite(v):
                raise PreconditionError(f"values must be finite, got {v}")

    @classmethod
    def step(cls, breakpoints, values) -> "PiecewiseFunction":
        return cls(tuple(breakpoints), tuple(values), "step")

    @classmethod
    def linear(cls, breakpoints, values) -> "PiecewiseFunction":
        return cls(tuple(breakpoints), tuple(values), "linear")

    @classmethod
    def constant(cls, c: float, mode: str = "step") -> "PiecewiseFunction":
        if mode == "step":
            return cls((0.0, 1.0), (c,), "step")
        return cls((0.0, 1.0), (c, c), "linear")

    def segment_index(self, t: float) -> int:
        """Index i of the segment [t_i, t_{i+1}) containing t; t=1 maps to the last."""
        if not 0.0 <= t <= 1.0:
            raise PreconditionError(f"t must lie in [0, 1], got {t}")
        i = bisect_right(self.breakpoints, t) - 1
        return min(i, len(self.breakpoints) - 2)

    def value(self, t: float) -> float:
        """Pointwise value, right-continuous in step mode."""
        i = self.segment_index(t)
        if self.mode == "step":
            return self.values[i]
        t0, t1 = self.breakpoints[i], self.breakpoints[i + 1]
        w = (t - t0) / (t1 - t0)
        return self.values[i] * (1.0 - w) + self.values[i + 1] * w


@dataclass(frozen=True)
class JordanPair:
    """Minimal monotone decomposition f = plus - minus.

    plus carries f(0) plus the accumulated positive variation, minus the
    accumulated negative variation (so minus(0) = 0); both nondecreasing.
    """

    plus: PiecewiseFunction
    minus: PiecewiseFunction

    def __post_init__(self) -> None:
        if self.plus.breakpoints != self.minus.breakpoints:
            raise PreconditionError("components must share breakpoints")
        if self.plus.mode != self.minus.mode:
            raise PreconditionError("components must share mode")
        if self.minus.values[0] != 0.0:
            raise PreconditionError("minus component must start at 0")
        for comp in (self.plus, self.minus):
            for i in range(len(comp.values) - 1):
                if comp.values[i + 1] < comp.values[i]:
                    raise PreconditionError("components must be nondecreasing")


def scale_path(traj: Trajectory, T: float, phi_of_T: float) -> PiecewiseFunction:
    """The scaled path t -> state(t*T) / phi_of_T as a step function on [0, 1].

    Breakpoints are the jump times divided by T.  If two scaled jump
    times collide after rounding (or round up to 1.0), the collapsed
    segment keeps the later state.
    """
    if traj.horizon != T:
        raise PreconditionError(
            f"trajectory horizon {traj.horizon} does not match T = {T}"
        )
    _check_phi(phi_of_T)
    return _scaled_steps(traj.initial_state, traj.jump_times, traj.jump_signs, T, phi_of_T)


def _check_phi(phi_of_T: float) -> None:
    if not (phi_of_T > 0 and math.isfinite(phi_of_T)):
        raise PreconditionError(f"phi_of_T must be positive, got {phi_of_T}")


def _scaled_steps(x0: int, times, signs, T: float, phi_of_T: float) -> PiecewiseFunction:
    """scale_path of the path from x0 with these jumps on [0, T], for a
    positive finite phi_of_T and times in (0, T).

    Breakpoints start at 0.0, grow strictly and end at 1.0, with one
    finite value per segment, so the function is built without
    PiecewiseFunction's checks.
    """
    bps = [0.0]
    vals = [x0 / phi_of_T]
    x = x0
    for t, s in zip(times, signs):
        x += s
        b = t / T
        if b <= bps[-1] or b >= 1.0:
            vals[-1] = x / phi_of_T
        else:
            bps.append(b)
            vals.append(x / phi_of_T)
    bps.append(1.0)
    return _unvalidated(PiecewiseFunction, breakpoints=tuple(bps), values=tuple(vals), mode="step")


def l1_distance(f: PiecewiseFunction, g: PiecewiseFunction) -> float:
    """rho(f, g) = integral of |f - g| over [0, 1], exact.

    One merge walks both breakpoint lists with a pointer into each, so
    the cost is linear in their total length; a breakpoint the two share
    is one grid point.  On each merged-grid segment [u, v] both functions
    sit on a single segment of their own, so the difference is affine;
    if it changes sign inside [u, v] the integral splits at the interior
    root, so no quadrature error enters.  The pieces are summed exactly.
    """
    fb, fvals, f_step = f.breakpoints, f.values, f.mode == "step"
    gb, gvals, g_step = g.breakpoints, g.values, g.mode == "step"
    pieces: list[float] = []
    i = j = 0
    u = 0.0
    # a linear value at u is recomputed only where its segment starts;
    # elsewhere it is the previous piece's value at v, the same expression
    f_moved = g_moved = True
    fv = gv = 0.0
    while True:
        f1 = fb[i + 1]
        g1 = gb[j + 1]
        v = f1 if f1 < g1 else g1
        if f_step:
            fu = fv = fvals[i]
        else:
            f0 = fb[i]
            a, b = fvals[i], fvals[i + 1]
            if f_moved:
                w = (u - f0) / (f1 - f0)
                fu = a * (1.0 - w) + b * w
            else:
                fu = fv
            w = (v - f0) / (f1 - f0)
            fv = a * (1.0 - w) + b * w
        if g_step:
            gu = gv = gvals[j]
        else:
            g0 = gb[j]
            a, b = gvals[j], gvals[j + 1]
            if g_moved:
                w = (u - g0) / (g1 - g0)
                gu = a * (1.0 - w) + b * w
            else:
                gu = gv
            w = (v - g0) / (g1 - g0)
            gv = a * (1.0 - w) + b * w
        du = fu - gu
        dv = fv - gv
        width = v - u
        if du * dv >= 0.0:
            pieces.append(abs(du + dv) * 0.5 * width)
        else:
            # affine difference crosses zero at fraction r of the segment
            r = du / (du - dv)
            pieces.append((abs(du) * r + abs(dv) * (1.0 - r)) * 0.5 * width)
        if v == 1.0:
            return math.fsum(pieces)
        f_moved = f1 == v
        g_moved = g1 == v
        i += f_moved
        j += g_moved
        u = v


def integral(f: PiecewiseFunction) -> float:
    """Exact integral of f over [0, 1]."""
    bp = f.breakpoints
    if f.mode == "step":
        return math.fsum(
            f.values[i] * (bp[i + 1] - bp[i]) for i in range(len(bp) - 1)
        )
    return math.fsum(
        (f.values[i] + f.values[i + 1]) * 0.5 * (bp[i + 1] - bp[i])
        for i in range(len(bp) - 1)
    )


def total_variation(f: PiecewiseFunction) -> float:
    """Var f: sum of absolute increments across segments (or nodes)."""
    return math.fsum(
        abs(f.values[i + 1] - f.values[i]) for i in range(len(f.values) - 1)
    )


def jordan_decompose(f: PiecewiseFunction) -> JordanPair:
    """Split f into the minimal nondecreasing pair (plus, minus).

    plus accumulates f(0) plus the positive increments, minus the
    negative ones.  Adding a nonnegative term to a running float sum
    never decreases it, so both components are nondecreasing exactly,
    and plus - minus reproduces f up to accumulated rounding (well below
    the package-wide 1e-12 check tolerance).
    """
    vals = f.values
    plus = [vals[0]]
    minus = [0.0]
    for i in range(len(vals) - 1):
        inc = vals[i + 1] - vals[i]
        plus.append(plus[-1] + (inc if inc > 0.0 else 0.0))
        minus.append(minus[-1] + (-inc if inc < 0.0 else 0.0))
    return JordanPair(
        plus=PiecewiseFunction(f.breakpoints, tuple(plus), f.mode),
        minus=PiecewiseFunction(f.breakpoints, tuple(minus), f.mode),
    )


def left_limit_at_one(f: PiecewiseFunction) -> float:
    """f(1-): the final segment's value (step) or the node at 1 (linear)."""
    return f.values[-1]


def neighborhood_contains(
    center: PiecewiseFunction, candidate: PiecewiseFunction, eps: float
) -> bool:
    """True iff rho(center, candidate) < eps, strictly."""
    if not eps > 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    return l1_distance(center, candidate) < eps
