"""Scaling regimes, the large-deviation rate functionals, and the exact terminal law.

Three closed scaling families are supported, classified by the limit of
ln(phi(T))/T: polynomial growth (limit 0, the subexponential regime),
pure exponential (limit k), and super-exponential (limit infinity).  The
normalizing function for log-probabilities is T*phi(T) in the
subexponential regime and phi(T)*ln(phi(T)) otherwise.

For the constant-birth / linear-death model the terminal state at time T
is exactly Poisson with mean a(T) = (P/Q)*(1 - exp(-Q*T)); that law is
the oracle behind every exact check in the harness.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import PreconditionError
from .paths import (
    PiecewiseFunction,
    integral,
    jordan_decompose,
    left_limit_at_one,
)

__all__ = [
    "ScalingFamily",
    "phi",
    "log_phi",
    "normalizer",
    "rate_sub",
    "rate_exp",
    "rate_super",
    "level_crossing_rate",
    "poisson_mean",
    "poisson_exact_log_pmf",
    "poisson_exact_log_tail",
    "poisson_log_window",
    "marginal_log_prob",
    "marginal_normalized_log_prob",
    "tilted_poisson_argmax",
]


@dataclass(frozen=True)
class ScalingFamily:
    """A parametric scaling function phi(T) with a decidable regime.

    poly(alpha):       phi(T) = T**alpha          -> regime SUB
    exponential(k):    phi(T) = exp(k*T)          -> regime EXP
    superexp(k, beta): phi(T) = exp(k*T**beta)    -> regime SUPER
    """

    family: str
    alpha: float | None = None
    k: float | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.family == "poly":
            if self.alpha is None or not self.alpha > 0:
                raise PreconditionError("poly needs alpha > 0")
            if self.k is not None or self.beta is not None:
                raise PreconditionError("poly takes only alpha")
        elif self.family == "exponential":
            if self.k is None or not self.k > 0:
                raise PreconditionError("exponential needs k > 0")
            if self.alpha is not None or self.beta is not None:
                raise PreconditionError("exponential takes only k")
        elif self.family == "superexp":
            if self.k is None or not self.k > 0:
                raise PreconditionError("superexp needs k > 0")
            if self.beta is None or not self.beta > 1:
                raise PreconditionError("superexp needs beta > 1")
            if self.alpha is not None:
                raise PreconditionError("superexp takes k and beta only")
        else:
            raise PreconditionError(f"unknown scaling family {self.family!r}")

    @classmethod
    def poly(cls, alpha: float) -> "ScalingFamily":
        return cls(family="poly", alpha=alpha)

    @classmethod
    def exponential(cls, k: float) -> "ScalingFamily":
        return cls(family="exponential", k=k)

    @classmethod
    def superexp(cls, k: float, beta: float) -> "ScalingFamily":
        return cls(family="superexp", k=k, beta=beta)

    @property
    def regime(self) -> str:
        """SUB, EXP or SUPER according to the limit of ln(phi(T))/T."""
        return {"poly": "SUB", "exponential": "EXP", "superexp": "SUPER"}[self.family]


def _check_T(T: float) -> None:
    if not (T > 0 and math.isfinite(T)):
        raise PreconditionError(f"T must be positive, got {T}")


def log_phi(family: ScalingFamily, T: float) -> float:
    """ln(phi(T)), computed without forming phi (safe for huge scalings)."""
    _check_T(T)
    if family.family == "poly":
        return family.alpha * math.log(T)
    if family.family == "exponential":
        return family.k * T
    return family.k * T**family.beta


def phi(family: ScalingFamily, T: float) -> float:
    """The scaling function phi(T); inf when it exceeds float range."""
    _check_T(T)
    if family.family == "poly":
        return T**family.alpha
    try:
        return math.exp(log_phi(family, T))
    except OverflowError:
        return float("inf")


def normalizer(family: ScalingFamily, T: float) -> float:
    """psi(T): T*phi(T) in SUB, phi(T)*ln(phi(T)) in EXP/SUPER.

    The EXP/SUPER form needs ln(phi) > 0; phi(T) <= 1 there would make
    the normalizer nonpositive and is rejected.
    """
    p = phi(family, T)
    if family.regime == "SUB":
        return T * p
    if p <= 1.0:
        raise PreconditionError(
            f"normalizer needs phi(T) > 1 in the {family.regime} regime, got {p}"
        )
    return p * log_phi(family, T)


def _check_nonnegative(f: PiecewiseFunction) -> None:
    if min(f.values) < 0:
        raise PreconditionError("profile must be nonnegative")


def rate_sub(f: PiecewiseFunction, Q: float, check_domain: bool = True) -> float:
    """Subexponential-regime rate: Q * integral of f.

    The formula is stated for profiles with f(0) = 0 and f > 0 on
    (0, 1]; when check_domain is set, profiles outside that class get a
    warning but the value is still returned (the formula extends
    naturally and the scans compare against it on step profiles).
    """
    if not Q > 0:
        raise PreconditionError(f"Q must be positive, got {Q}")
    _check_nonnegative(f)
    if check_domain and not _in_sub_domain(f):
        warnings.warn(
            "profile leaves the nominal domain (f(0) = 0 and f > 0 on (0, 1]); "
            "value returned anyway",
            stacklevel=2,
        )
    return Q * integral(f)


def _in_sub_domain(f: PiecewiseFunction) -> bool:
    # f(0) = 0 and f(t) > 0 for t > 0.  A step function with a
    # positive-length first segment at value 0 already violates the
    # second clause, so only the all-positive-after-0 shape passes.
    if f.values[0] != 0.0:
        return False
    if f.mode == "linear":
        return all(v > 0 for v in f.values[1:])
    return False


def rate_exp(f: PiecewiseFunction, Q: float, k: float, l: float) -> float:
    """Exponential-regime rate: (Q/k) * integral(f) + (1 - l) * plus-part end value."""
    if not Q > 0:
        raise PreconditionError(f"Q must be positive, got {Q}")
    if not k > 0:
        raise PreconditionError(f"k must be positive, got {k}")
    if not 0.0 <= l < 1.0:
        raise PreconditionError(f"l must lie in [0, 1), got {l}")
    _check_nonnegative(f)
    plus_end = left_limit_at_one(jordan_decompose(f).plus)
    return (Q / k) * integral(f) + (1.0 - l) * plus_end


def rate_super(f: PiecewiseFunction, l: float) -> float:
    """Super-exponential-regime rate: (1 - l) * plus-part end value."""
    if not 0.0 <= l < 1.0:
        raise PreconditionError(f"l must lie in [0, 1), got {l}")
    _check_nonnegative(f)
    return (1.0 - l) * left_limit_at_one(jordan_decompose(f).plus)


def level_crossing_rate(a: float, l: float) -> float:
    """Decay rate of the level-a crossing probability: (1 - l) * a."""
    if not a > 0:
        raise PreconditionError(f"a must be positive, got {a}")
    if not 0.0 <= l < 1.0:
        raise PreconditionError(f"l must lie in [0, 1), got {l}")
    return (1.0 - l) * a


# ---------------------------------------------------------------------------
# exact terminal law of the constant-birth / linear-death model


def _check_exact_law_params(P: float, Q: float, T: float) -> None:
    if not P > 0:
        raise PreconditionError(f"P must be positive, got {P}")
    if not Q > 0:
        raise PreconditionError(f"Q must be positive, got {Q}")
    _check_T(T)


def poisson_mean(P: float, Q: float, T: float) -> float:
    """a(T) = (P/Q) * (1 - exp(-Q*T)), the exact terminal mean."""
    _check_exact_law_params(P, Q, T)
    return (P / Q) * -math.expm1(-Q * T)


def poisson_exact_log_pmf(P: float, Q: float, T: float, x: int) -> float:
    """ln P(state at T equals x) for the constant-birth / linear-death chain.

    Factorials go through lgamma; nothing here is a truncation or an
    asymptotic expansion.
    """
    if x < 0 or x != int(x):
        raise PreconditionError(f"x must be a nonnegative integer, got {x}")
    a = poisson_mean(P, Q, T)
    return x * math.log(a) - a - math.lgamma(x + 1.0)


def _log_sum_exp(terms: list[float]) -> float:
    m = max(terms)
    if m == float("-inf"):
        return m
    return m + math.log(math.fsum(math.exp(t - m) for t in terms))


# Above 2**53 consecutive integers are no longer distinct doubles: pmf
# terms stop changing there, so a walk over states would never stop.
_MAX_STATE = 2**53
# Terms either walk of a window sum may take.  A walk from the mode takes
# about sqrt(120 a(T)) of them (1.1e5 at a(T) = 1e8, a few tenths of a
# second), so windows holding the mode are summed up to a(T) of about 1.4e8.
_MAX_WALK = 2**17
# Below this mean no walk reaches _MAX_WALK terms, so none is checked: k
# terms out from the start the pmf has fallen by at least
# k(k-1)/(2(a(T)+k)) e-folds, which exceeds 60 at k = _MAX_WALK.
_SHORT_WALK_MEAN = _MAX_WALK * (_MAX_WALK - 1) / 120 - _MAX_WALK


def poisson_log_window(P: float, Q: float, T: float, lo: float, hi: float) -> float:
    """ln P(lo <= state at T <= hi) for real bounds (hi may be inf), exact.

    The sum starts at the integer of the window nearest the pmf mode
    floor(a(T)) and walks outward one term at a time.  The pmf falls
    along both walks, so each one stops at the window edge or once a
    term sits 60 e-folds below the running peak, which bounds the
    discarded mass far beyond double resolution.  The number of terms
    does not grow with the position of the window, only with its reach
    into the bulk of the law.  An empty integer window gives -inf; a
    window that needs a state above 2**53 is refused, and so is the full
    support when the mode lies there.  A walk that would take more than
    _MAX_WALK terms is refused before any term is summed, which happens
    only for windows reaching into the bulk of a law with a(T) above
    about 1.4e8.  Otherwise the full support
    (lo <= 0, hi = inf) is exactly 0.0 without a sum, and no window
    exceeds 0.0: each pmf term subtracts numbers of size x*ln a(T), so
    at large a(T) a near-full window would otherwise read their rounding
    error above 0.
    """
    if math.isnan(lo) or math.isnan(hi):
        raise PreconditionError(f"window bounds must be numbers, got [{lo}, {hi}]")
    a = poisson_mean(P, Q, T)
    lo = max(lo, 0)
    # the point of [lo, hi] nearest the mode, then the integer beside it
    start = min(max(math.floor(a), lo), hi)
    if start > _MAX_STATE:
        raise PreconditionError(f"the window sum needs states above 2**53 ({start:g})")
    if lo == 0 and hi == math.inf:
        return 0.0
    start = math.ceil(start) if start == lo else math.floor(start)
    # the pmf falls along both walks from its peak at start, so a walk
    # outlasts _MAX_WALK terms exactly when the term that far out is in
    # the window and within 60 e-folds of the start's
    far_out = (start + _MAX_WALK, start - 1 - _MAX_WALK) if a > _SHORT_WALK_MEAN else ()
    for far in far_out:
        if lo <= far <= hi and poisson_exact_log_pmf(P, Q, T, far) >= (
            poisson_exact_log_pmf(P, Q, T, start) - 60.0
        ):
            raise PreconditionError(
                f"the window sum needs more than {_MAX_WALK} terms on one side "
                f"of state {start} (a(T) = {a:g})"
            )
    terms: list[float] = []
    peak = float("-inf")
    for x, step in ((start, 1), (start - 1, -1)):
        while lo <= x <= hi:
            if x > _MAX_STATE:
                raise PreconditionError("the window sum needs states above 2**53")
            lp = poisson_exact_log_pmf(P, Q, T, x)
            terms.append(lp)
            peak = max(peak, lp)
            if lp < peak - 60.0:
                break
            x += step
    return min(_log_sum_exp(terms), 0.0) if terms else float("-inf")


def poisson_exact_log_tail(P: float, Q: float, T: float, lo: int) -> float:
    """ln P(state at T >= lo), summed to full double precision."""
    if lo < 0:
        raise PreconditionError(f"lo must be nonnegative, got {lo}")
    return poisson_log_window(P, Q, T, lo, math.inf)


def marginal_log_prob(
    P: float,
    Q: float,
    family: ScalingFamily,
    T: float,
    a: float,
    eps: float,
) -> float:
    """ln P(state at T in [(a-eps)*phi, (a+eps)*phi]), exact.

    The window is the closed integer range [ceil((a-eps)*phi),
    floor((a+eps)*phi)], summed by poisson_log_window.  An empty integer
    window gives -inf.
    """
    if not a > 0:
        raise PreconditionError(f"a must be positive, got {a}")
    if not eps > 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    if a - eps < 0:
        raise PreconditionError(f"window needs a - eps >= 0, got {a - eps}")
    p = phi(family, T)
    if p <= 1.0:
        raise PreconditionError(f"needs phi(T) > 1, got {p}")
    if not math.isfinite(p):
        raise PreconditionError("phi(T) too large for an integer window")
    return poisson_log_window(P, Q, T, (a - eps) * p, (a + eps) * p)


def marginal_normalized_log_prob(
    P: float,
    Q: float,
    family: ScalingFamily,
    T: float,
    a: float,
    eps: float,
) -> float:
    """marginal_log_prob divided by phi(T)*ln(phi(T))."""
    raw = marginal_log_prob(P, Q, family, T, a, eps)
    psi = phi(family, T) * log_phi(family, T)
    if raw == float("-inf"):
        return raw
    return raw / psi


def tilted_poisson_argmax(C: float, T: float, family: ScalingFamily) -> int:
    """Argmax over 0 <= j <= floor(C*phi(T)) of the tilted Poisson weights.

    The weights are g_j = phi**j * exp(-T/2) * (T/2)**j / j!, with
    consecutive ratios g_{j+1}/g_j = phi*(T/2)/(j+1) >= T/(2*C) on the
    whole range.  For T > 2*C every ratio exceeds 1, so the maximum sits
    at the right edge floor(C*phi(T)); the value returned is that edge.
    """
    if not C > 0:
        raise PreconditionError(f"C must be positive, got {C}")
    _check_T(T)
    if not T > 2 * C:
        raise PreconditionError(f"needs T > 2C, got T = {T}, C = {C}")
    p = phi(family, T)
    if not math.isfinite(p):
        raise PreconditionError("phi(T) too large for an integer argmax")
    return math.floor(C * p)
