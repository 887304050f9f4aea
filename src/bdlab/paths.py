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

import numpy as np

from .errors import PreconditionError
from .process import Trajectory, _Lanes, _unvalidated

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
    segment keeps the later state.  The breakpoints then start at 0.0,
    grow strictly and end at 1.0, with one finite value per segment, so
    the function is built without PiecewiseFunction's checks.
    """
    if traj.horizon != T:
        raise PreconditionError(
            f"trajectory horizon {traj.horizon} does not match T = {T}"
        )
    _check_phi(phi_of_T)
    x = traj.initial_state
    bps = [0.0]
    vals = [x / phi_of_T]
    for t, s in zip(traj.jump_times, traj.jump_signs):
        x += s
        b = t / T
        if b <= bps[-1] or b >= 1.0:
            vals[-1] = x / phi_of_T
        else:
            bps.append(b)
            vals.append(x / phi_of_T)
    bps.append(1.0)
    return _unvalidated(PiecewiseFunction, breakpoints=tuple(bps), values=tuple(vals), mode="step")


def _check_phi(phi_of_T: float) -> None:
    if not (phi_of_T > 0 and math.isfinite(phi_of_T)):
        raise PreconditionError(f"phi_of_T must be positive, got {phi_of_T}")


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


# lanes per array pass of _lane_l1_pieces; larger slices hold more
# temporaries and were slower.  The verdicts of a 2,048-replica pass on the
# P=2, l=0.5, T=10 chain (3 rounds, median of 15 each, 2-vCPU VM) took
# 10.2/8.0/8.7/10.6 ms at 32/64/128/256 lanes
_L1_SLICE = 64


def _lane_l1_pieces(lanes: _Lanes, T: float, phi_of_T: float, center: PiecewiseFunction):
    """l1_distance's pieces for every lane of a block of lanes, bit for bit,
    _L1_SLICE lanes at a time.

    Yields (pieces, ends) per slice: the slice's k-th lane has the pieces
    pieces[ends[k]:ends[k+1]], at least one, all nonnegative, and
    math.fsum of them is l1_distance(scale_path(path_i, T, phi_of_T),
    center), path_i the Trajectory of lane i's jumps on [0, T].

    The block's paths are kept (see _Lanes): lane i's entries run from
    its head (0.0, 0) through its jumps to its tail (T, final).  Raw
    scaled times never decrease, so a jump opens a breakpoint exactly
    where it exceeds the scaled time of the entry before and stays below
    1.0, as in scale_path.  A lane's segments end at its opened jumps
    and at its tail (T/T is exactly 1.0), each keeps the state of the
    entry before its end, and each starts at its lane's previous end or
    at its head.  Each segment is split at the center's breakpoints that
    lie strictly inside it, and each piece is l1_distance's piece, with
    its expressions in its order: a linear center's value at u is the
    same expression l1_distance reuses from the previous piece.
    """
    cb = np.array(center.breakpoints)
    cv = np.array(center.values)
    linear = center.mode == "linear"
    for l0 in range(0, lanes.final.size, _L1_SLICE):
        start = lanes.start[l0:l0 + _L1_SLICE + 1]
        b = lanes.times[start[0]:start[-1]] / T
        head, tail = start[:-1] - start[0], start[1:] - start[0] - 1
        opened = np.zeros(b.size, dtype=bool)
        opened[1:] = (b[1:] > b[:-1]) & (b[1:] < 1.0)
        begins, ends = opened.copy(), opened
        begins[head] = ends[tail] = True
        end = np.flatnonzero(ends)
        u0, u1 = b[begins], b[end]
        level = lanes.states[start[0]:start[-1]][end - 1] / phi_of_T
        # lane i's segments sit at seg[i]..seg[i+1]-1
        seg = np.zeros(start.size, dtype=np.intp)
        seg[1:] = np.cumsum(ends)[tail]
        # split at center breakpoints strictly inside each segment
        lo = np.searchsorted(cb, u0, "right")
        splits = np.searchsorted(cb, u1, "left") - lo
        piece_of = np.zeros(seg[-1] + 1, dtype=np.intp)
        np.cumsum(splits + 1, out=piece_of[1:])
        owner = np.repeat(np.arange(seg[-1]), splits + 1)
        k = np.arange(piece_of[-1]) - piece_of[owner]
        j = lo[owner] - 1 + k  # the center's segment under each piece
        u = np.where(k == 0, u0[owner], cb[j])
        v = np.where(k == splits[owner], u1[owner], cb[j + 1])
        f = level[owner]
        if linear:
            g0, g1, a, bv = cb[j], cb[j + 1], cv[j], cv[j + 1]
            w = (u - g0) / (g1 - g0)
            gu = a * (1.0 - w) + bv * w
            w = (v - g0) / (g1 - g0)
            gv = a * (1.0 - w) + bv * w
        else:
            gu = gv = cv[j]
        du = f - gu
        dv = f - gv
        width = v - u
        pieces = np.abs(du + dv) * 0.5 * width
        cross = np.flatnonzero(du * dv < 0.0)
        du, dv = du[cross], dv[cross]
        r = du / (du - dv)
        pieces[cross] = (np.abs(du) * r + np.abs(dv) * (1.0 - r)) * 0.5 * width[cross]
        yield pieces, piece_of[seg]


# unit roundoff, and the smallest normal double
_U = 2.0**-53
_TINY = 2.0**-1022


def _lane_l1_below(lanes: _Lanes, T: float, phi_of_T: float, center: PiecewiseFunction,
                   eps: float) -> np.ndarray:
    """[d < eps for d in the lanes' L1 distances] as a bool array, with
    math.fsum only for the lanes whose numpy sum cannot decide.  A lane's
    distance is math.fsum of its _lane_l1_pieces, which is exact, so it
    does not depend on their order.

    Why the numpy sum decides the other lanes.  A lane's m pieces are
    doubles p_i >= 0 with exact sum s, and its distance is d = fsum =
    fl(s), so |d - s| <= u*s with u = 2**-53 (below 2**-1022, s is a
    multiple of 2**-1074 and exact).  Each floating addition is
    (a + b)(1 + delta) with |delta| <= u, subnormal results included, so
    adding nonnegative terms in any order gives S with |S - s| <= g*s,
    g = (m-1)u / (1 - (m-1)u) (Higham 2002, sec. 4.2), unless a partial
    sum overflowed and S is not finite.  (s itself stays below the
    largest double: a finite piece is at most half of it times the
    piece's width, and the widths sum to 1 within a few u.)  Hence

        |d - S| <= (u + g) * s <= (u + g) / (1 - g) * S <= (2m - 1/2) * u * S,

    the last step from g <= (4/3)(m-1)u and 1 - g >= 2/3 while
    (m+1)u <= 1/4, which holds for any piece count that fits in memory.
    The band is tol = max(fl(2(m+1)u * S), 2**-1022) >= 2(m+1)u*S*(1-u),
    which exceeds (2m - 1/2)*u*S.  Rounding is monotone and tol is a
    double, so fl(|S - eps|) > tol gives |S - eps| > tol >= |d - S|: d
    lies strictly on S's side of eps, and d < eps exactly when S < eps.
    The other lanes (inside the band, or S not finite) take math.fsum.
    """
    out = []
    for pieces, ends in _lane_l1_pieces(lanes, T, phi_of_T, center):
        s = np.add.reduceat(pieces, ends[:-1])
        tol = (np.diff(ends) + 1) * (2 * _U) * s
        np.maximum(tol, _TINY, out=tol)
        below = s < eps
        for k in np.flatnonzero(~(np.abs(s - eps) > tol)).tolist():
            below[k] = math.fsum(pieces[ends[k]:ends[k + 1]].tolist()) < eps
        out.append(below)
    return np.concatenate(out) if out else np.zeros(0, dtype=bool)


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
