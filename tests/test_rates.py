"""Scaling families, rate functionals, and the exact terminal law."""

import importlib.util
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdlab import rates
from bdlab.errors import PreconditionError
from bdlab.paths import PiecewiseFunction
from bdlab.rates import (
    ScalingFamily,
    level_crossing_rate,
    log_phi,
    marginal_log_prob,
    marginal_normalized_log_prob,
    normalizer,
    phi,
    poisson_exact_log_pmf,
    poisson_exact_log_tail,
    poisson_log_window,
    poisson_mean,
    rate_exp,
    rate_sub,
    rate_super,
    tilted_poisson_argmax,
)

RAMP = PiecewiseFunction.linear((0.0, 1.0), (0.0, 1.0))
STEP_UP = PiecewiseFunction.step((0.0, 0.5, 1.0), (0.0, 1.0))
ZIGZAG = PiecewiseFunction.step((0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 2.0, 1.0, 3.0))
ZERO_LINEAR = PiecewiseFunction.constant(0.0, mode="linear")


# ---------------------------------------------------------------------------
# scaling families


def test_family_constructors_and_regimes():
    assert ScalingFamily.poly(1.5).regime == "SUB"
    assert ScalingFamily.exponential(0.3).regime == "EXP"
    assert ScalingFamily.superexp(0.3, 2.0).regime == "SUPER"


def test_family_validation():
    with pytest.raises(PreconditionError):
        ScalingFamily.poly(0.0)
    with pytest.raises(PreconditionError):
        ScalingFamily.exponential(-1.0)
    with pytest.raises(PreconditionError):
        ScalingFamily.superexp(1.0, 1.0)
    with pytest.raises(PreconditionError):
        ScalingFamily.superexp(0.0, 2.0)
    with pytest.raises(PreconditionError):
        ScalingFamily(family="poly", alpha=1.0, k=1.0)
    with pytest.raises(PreconditionError):
        ScalingFamily(family="gaussian", alpha=1.0)


def test_phi_and_log_phi_examples():
    assert phi(ScalingFamily.poly(1.0), 7.0) == 7.0
    assert phi(ScalingFamily.poly(0.5), 4.0) == 2.0
    assert phi(ScalingFamily.exponential(1.0), 3.0) == math.exp(3.0)
    assert phi(ScalingFamily.superexp(1.0, 2.0), 2.0) == math.exp(4.0)
    assert log_phi(ScalingFamily.poly(2.0), 10.0) == pytest.approx(2.0 * math.log(10.0))
    assert log_phi(ScalingFamily.superexp(0.5, 1.5), 4.0) == pytest.approx(4.0)


def test_phi_overflows_to_inf():
    # log_phi stays finite and exact where exp() would overflow
    assert phi(ScalingFamily.exponential(1.0), 1000.0) == float("inf")
    assert phi(ScalingFamily.superexp(1.0, 2.0), 27.0) == float("inf")
    assert log_phi(ScalingFamily.exponential(1.0), 1000.0) == 1000.0


def test_phi_rejects_bad_horizon():
    with pytest.raises(PreconditionError):
        phi(ScalingFamily.poly(1.0), 0.0)
    with pytest.raises(PreconditionError):
        log_phi(ScalingFamily.poly(1.0), -2.0)
    with pytest.raises(PreconditionError):
        phi(ScalingFamily.poly(1.0), float("inf"))


def test_regime_matches_growth_ratio_at_large_horizon():
    # the classifying limit of ln(phi)/T, probed at T = 1000
    T = 1000.0
    for alpha in (0.5, 1.0):
        assert log_phi(ScalingFamily.poly(alpha), T) / T < 0.01
    for k in (0.25, 1.0):
        assert log_phi(ScalingFamily.exponential(k), T) / T == k
    assert log_phi(ScalingFamily.superexp(0.5, 1.5), T) / T > 10.0


def test_normalizer_examples():
    assert normalizer(ScalingFamily.poly(1.0), 7.0) == 49.0
    assert normalizer(ScalingFamily.poly(0.5), 4.0) == 8.0
    assert math.isclose(
        normalizer(ScalingFamily.exponential(1.0), 3.0),
        60.256610769563004,
        rel_tol=1e-14,
    )
    assert math.isclose(
        normalizer(ScalingFamily.superexp(1.0, 2.0), 2.0),
        218.39260013257694,
        rel_tol=1e-14,
    )


def test_normalizer_rejects_phi_at_most_one_outside_sub():
    # exp(1e-300) rounds to 1.0, making phi * ln(phi) degenerate
    with pytest.raises(PreconditionError):
        normalizer(ScalingFamily.exponential(1e-300), 1.0)
    # SUB regime has no such restriction
    assert normalizer(ScalingFamily.poly(1.0), 0.5) == 0.25


# ---------------------------------------------------------------------------
# rate functionals


def test_rate_sub_examples():
    assert rate_sub(RAMP, 2.0) == 1.0
    assert rate_sub(ZERO_LINEAR, 5.0, check_domain=False) == 0.0


def test_rate_sub_warns_outside_nominal_domain():
    # step profiles and profiles that touch zero after t = 0 get the
    # warning, but the value is still the plain integral formula
    with pytest.warns(UserWarning, match="nominal domain"):
        v = rate_sub(PiecewiseFunction.constant(0.5), 1.0)
    assert v == 0.5
    with pytest.warns(UserWarning, match="nominal domain"):
        rate_sub(ZERO_LINEAR, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rate_sub(RAMP, 1.0)
        rate_sub(PiecewiseFunction.constant(0.5), 1.0, check_domain=False)


def test_rate_sub_validation():
    with pytest.raises(PreconditionError):
        rate_sub(RAMP, 0.0)
    with pytest.raises(PreconditionError):
        rate_sub(PiecewiseFunction.linear((0.0, 1.0), (0.0, -1.0)), 1.0)


def test_rate_exp_examples():
    assert rate_exp(ZERO_LINEAR, 1.0, 1.0, 0.0) == 0.0
    assert rate_exp(RAMP, 1.0, 1.0, 0.0) == 1.5
    assert rate_exp(STEP_UP, 2.0, 2.0, 0.5) == 1.0


def test_rate_exp_validation():
    with pytest.raises(PreconditionError):
        rate_exp(RAMP, 0.0, 1.0, 0.0)
    with pytest.raises(PreconditionError):
        rate_exp(RAMP, 1.0, 0.0, 0.0)
    with pytest.raises(PreconditionError):
        rate_exp(RAMP, 1.0, 1.0, 1.0)
    with pytest.raises(PreconditionError):
        rate_exp(PiecewiseFunction.linear((0.0, 1.0), (1.0, -0.5)), 1.0, 1.0, 0.0)


def test_rate_super_examples():
    assert rate_super(ZERO_LINEAR, 0.0) == 0.0
    assert rate_super(RAMP, 0.0) == 1.0
    # rises of 2 and 2, so the plus part ends at 4
    assert rate_super(ZIGZAG, 0.5) == 2.0


def test_rate_super_ignores_downward_motion():
    down = PiecewiseFunction.linear((0.0, 1.0), (3.0, 0.0))
    assert rate_super(down, 0.0) == 3.0  # plus part starts at f(0) and stays


def test_rate_super_positive_homogeneity():
    vals = (0.25, 1.75, 0.5, 2.25)
    bp = (0.0, 0.25, 0.5, 0.75, 1.0)
    f = PiecewiseFunction.step(bp, vals)
    for c in (0.5, 2.0, 4.0):
        g = PiecewiseFunction.step(bp, tuple(c * v for v in vals))
        for l in (0.0, 0.5):
            assert rate_super(g, l) == c * rate_super(f, l)


def test_level_crossing_rate():
    assert level_crossing_rate(0.5, 0.0) == 0.5
    assert level_crossing_rate(0.5, 0.5) == 0.25
    assert level_crossing_rate(2.0, 0.0) == 2.0
    with pytest.raises(PreconditionError):
        level_crossing_rate(0.0, 0.0)
    with pytest.raises(PreconditionError):
        level_crossing_rate(1.0, 1.0)


def test_rate_exp_dominates_rate_super():
    # the integral term is nonnegative, so EXP >= SUPER with equality
    # exactly when the profile integrates to zero
    for f in (RAMP, STEP_UP, ZIGZAG, ZERO_LINEAR):
        for l in (0.0, 0.5):
            lo = rate_super(f, l)
            hi = rate_exp(f, 1.0, 1.0, l)
            assert hi >= lo
            from bdlab.paths import integral

            assert (hi == lo) == (integral(f) == 0.0)


# ---------------------------------------------------------------------------
# exact terminal law


def test_poisson_mean_frozen_values():
    assert math.isclose(poisson_mean(1.0, 1.0, 5.0), 0.9932620530009145, rel_tol=1e-15)
    assert math.isclose(poisson_mean(2.0, 0.5, 10.0), 3.973048212003658, rel_tol=1e-15)


def test_poisson_mean_saturates():
    # a(T) increases to P/Q
    assert poisson_mean(2.0, 0.5, 200.0) == 4.0
    assert poisson_mean(1.0, 1.0, 0.5) < poisson_mean(1.0, 1.0, 1.0) < 1.0


def test_poisson_mean_validation():
    with pytest.raises(PreconditionError):
        poisson_mean(0.0, 1.0, 1.0)
    with pytest.raises(PreconditionError):
        poisson_mean(1.0, -1.0, 1.0)
    with pytest.raises(PreconditionError):
        poisson_mean(1.0, 1.0, 0.0)


def test_log_pmf_at_zero_is_minus_mean():
    for P, Q, T in ((1.0, 1.0, 3.0), (2.0, 0.5, 10.0), (0.5, 2.0, 1.0)):
        assert poisson_exact_log_pmf(P, Q, T, 0) == -poisson_mean(P, Q, T)


def test_log_pmf_saturated_horizon():
    # at T = 50 the mean is 1 up to ~2e-22, so ln pmf(1) = ln(a) - a is -1
    assert abs(poisson_exact_log_pmf(1.0, 1.0, 50.0, 1) + 1.0) < 1e-12


def test_log_pmf_rejects_bad_state():
    with pytest.raises(PreconditionError):
        poisson_exact_log_pmf(1.0, 1.0, 1.0, -1)
    with pytest.raises(PreconditionError):
        poisson_exact_log_pmf(1.0, 1.0, 1.0, 1.5)


def test_pmf_battery_normalization_and_mean():
    # mass sums to 1 and the first moment recovers a(T)
    for P in (0.5, 1.0, 2.0):
        for Q in (0.5, 1.0, 2.0):
            for T in (1.0, 5.0):
                a = poisson_mean(P, Q, T)
                probs = [
                    math.exp(poisson_exact_log_pmf(P, Q, T, x)) for x in range(200)
                ]
                assert abs(math.fsum(probs) - 1.0) < 1e-12
                mean = math.fsum(x * p for x, p in enumerate(probs))
                assert abs(mean - a) < 1e-9


def test_log_tail_frozen_values():
    # far-tail anchors at unit rates: lo = ceil(0.5 * e**T)
    assert math.isclose(
        poisson_exact_log_tail(1.0, 1.0, 6.0, 202), -875.3374846870785, rel_tol=1e-12
    )
    assert math.isclose(
        poisson_exact_log_tail(1.0, 1.0, 9.0, 4052), -29614.397845749372, rel_tol=1e-12
    )
    assert math.isclose(
        poisson_exact_log_tail(1.0, 1.0, 12.0, 81378),
        -838759.7453896309,
        rel_tol=1e-12,
    )


def test_log_tail_moderate_value_against_direct_sum():
    got = poisson_exact_log_tail(2.0, 0.5, 10.0, 8)
    assert math.isclose(got, -3.004872102868094, rel_tol=1e-12)
    direct = math.log(
        math.fsum(
            math.exp(poisson_exact_log_pmf(2.0, 0.5, 10.0, x)) for x in range(8, 300)
        )
    )
    assert math.isclose(got, direct, rel_tol=1e-13)


def test_log_tail_from_zero_is_total_mass():
    assert abs(poisson_exact_log_tail(1.0, 1.0, 3.0, 0)) < 1e-12
    with pytest.raises(PreconditionError):
        poisson_exact_log_tail(1.0, 1.0, 3.0, -1)


@pytest.mark.parametrize("P", [1e8, 1e10])
def test_log_tail_from_zero_is_exactly_zero_at_large_mean(P):
    # the window sum read +1.0e-7 at P = 1e8 and took seconds at P = 1e10
    start = time.perf_counter()
    assert poisson_exact_log_tail(P, 1.0, 50.0, 0) == 0.0
    assert time.perf_counter() - start < 0.1


def test_near_full_window_is_never_positive():
    assert poisson_log_window(1e8, 1.0, 50.0, 0, 2e8) <= 0.0


def test_window_refuses_a_walk_past_the_term_budget():
    # a walk from the mode of a(T) = 1e12 would take about 1.1e7 terms
    a = poisson_mean(1e12, 1.0, 50.0)
    for window in ((0, a), (0, 2 * a), (a, math.inf), (a - 1e6, a + 1e6)):
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match="terms on one side"):
            poisson_log_window(1e12, 1.0, 50.0, *window)
        assert time.perf_counter() - start < 1.0
    # the full support is still exactly 0.0, and a narrow window near the
    # mode or a window far in the tail is a short walk at any a(T)
    assert poisson_log_window(1e12, 1.0, 50.0, 0, math.inf) == 0.0
    narrow = poisson_log_window(1e12, 1.0, 50.0, a - 50, a + 50)
    # 101 terms of the normal density; each pmf term subtracts numbers of
    # size 2.7e13 here, so it carries a rounding error of about 1e-2
    assert narrow == pytest.approx(math.log(101) - 0.5 * math.log(2 * math.pi * a), abs=1e-2)
    far = a + 2000 * math.sqrt(a)
    assert poisson_log_window(1e12, 1.0, 50.0, far, math.inf) < -1e6
    # below _SHORT_WALK_MEAN the check is skipped: no walk from the mode
    # reaches _MAX_WALK terms there
    a = rates._SHORT_WALK_MEAN
    mode = poisson_exact_log_pmf(a, 1.0, 50.0, math.floor(a))
    for far in (math.floor(a) + rates._MAX_WALK, math.floor(a) - 1 - rates._MAX_WALK):
        assert poisson_exact_log_pmf(a, 1.0, 50.0, far) < mode - 60.0


# ---------------------------------------------------------------------------
# marginal window probabilities


EXP_ONE = ScalingFamily.exponential(1.0)
SUP_12 = ScalingFamily.superexp(1.0, 2.0)


def test_marginal_frozen_values_exponential_scaling():
    want = {
        5.0: (-190.01066784893996, -0.2560563618453981),
        8.0: (-7264.342344163613, -0.30461442159457736),
        11.0: (-217562.54104243018, -0.33033313305965545),
        12.0: (-656477.5849813058, -0.336128140610434),
    }
    for T, (raw, norm) in want.items():
        got_raw = marginal_log_prob(1.0, 1.0, EXP_ONE, T, 0.5, 0.1)
        got_norm = marginal_normalized_log_prob(1.0, 1.0, EXP_ONE, T, 0.5, 0.1)
        assert math.isclose(got_raw, raw, rel_tol=1e-12)
        assert math.isclose(got_norm, norm, rel_tol=1e-12)


def test_marginal_frozen_values_superexp_scaling():
    want = {
        1.5: -0.22580867744223135,
        2.0: -0.24037758735017498,
        2.5: -0.28556044912139145,
    }
    for T, norm in want.items():
        got = marginal_normalized_log_prob(1.0, 1.0, SUP_12, T, 0.5, 0.1)
        assert math.isclose(got, norm, rel_tol=1e-12)


def test_marginal_normalized_gap_shrinks_toward_limit():
    # normalized values sit above -(a - eps) and decrease in T
    limit = -(0.5 - 0.1)
    vals = [
        marginal_normalized_log_prob(1.0, 1.0, EXP_ONE, T, 0.5, 0.1)
        for T in (5.0, 8.0, 11.0, 12.0)
    ]
    for v in vals:
        assert v > limit
    for earlier, later in zip(vals, vals[1:]):
        assert later < earlier


def test_marginal_empty_window_is_minus_inf():
    # at T = 0.5 the integer window [ceil(.499 phi), floor(.501 phi)] is empty
    raw = marginal_log_prob(1.0, 1.0, EXP_ONE, 0.5, 0.5, 0.001)
    assert raw == float("-inf")
    assert marginal_normalized_log_prob(1.0, 1.0, EXP_ONE, 0.5, 0.5, 0.001) == float(
        "-inf"
    )


def test_marginal_full_window_has_all_mass():
    assert abs(marginal_log_prob(1.0, 1.0, EXP_ONE, 3.0, 1.0, 1.0)) < 1e-12


def test_marginal_validation():
    with pytest.raises(PreconditionError):
        marginal_log_prob(1.0, 1.0, EXP_ONE, 3.0, 0.0, 0.1)
    with pytest.raises(PreconditionError):
        marginal_log_prob(1.0, 1.0, EXP_ONE, 3.0, 0.5, 0.0)
    with pytest.raises(PreconditionError):
        marginal_log_prob(1.0, 1.0, EXP_ONE, 3.0, 0.1, 0.2)
    # phi must exceed 1 for a nonempty integer lattice to make sense
    with pytest.raises(PreconditionError):
        marginal_log_prob(1.0, 1.0, ScalingFamily.poly(1.0), 0.5, 0.5, 0.1)
    # and must stay representable
    with pytest.raises(PreconditionError):
        marginal_log_prob(1.0, 1.0, SUP_12, 30.0, 0.5, 0.1)


# ---------------------------------------------------------------------------
# tilted argmax


def test_tilted_argmax_examples():
    # T > 2C pushes the maximizer to the right edge floor(C * phi)
    assert tilted_poisson_argmax(0.5, 3.0, EXP_ONE) == 10
    assert tilted_poisson_argmax(1.0, 10.0, ScalingFamily.poly(1.0)) == 10


def test_tilted_argmax_validation():
    with pytest.raises(PreconditionError):
        tilted_poisson_argmax(0.0, 3.0, EXP_ONE)
    with pytest.raises(PreconditionError):
        tilted_poisson_argmax(2.0, 4.0, EXP_ONE)  # needs T > 2C
    with pytest.raises(PreconditionError):
        tilted_poisson_argmax(1.0, 30.0, SUP_12)  # phi overflows


@st.composite
def argmax_cases(draw):
    kind = draw(st.sampled_from(["poly", "exponential", "superexp"]))
    if kind == "poly":
        family = ScalingFamily.poly(draw(st.floats(0.5, 2.0)))
    elif kind == "exponential":
        family = ScalingFamily.exponential(draw(st.floats(0.05, 0.5)))
    else:
        family = ScalingFamily.superexp(
            draw(st.floats(0.05, 0.2)), draw(st.floats(1.1, 1.5))
        )
    C = draw(st.floats(0.1, 2.0))
    T = draw(st.floats(2.002 * C, 12.0))
    return family, C, T


@settings(max_examples=100, deadline=None)
@given(argmax_cases())
def test_tilted_argmax_contract(case):
    family, C, T = case
    j_max = math.floor(C * phi(family, T))
    got = tilted_poisson_argmax(C, T, family)
    assert got == j_max
    # recompute the scan independently over the whole candidate range
    js = np.arange(j_max + 1, dtype=np.float64)
    logs = (
        js * log_phi(family, T)
        - T / 2.0
        + js * math.log(T / 2.0)
        - np.array([math.lgamma(j + 1.0) for j in range(j_max + 1)])
    )
    assert int(np.argmax(logs)) == got


# ---------------------------------------------------------------------------
# the window primitive against the full-window sum it replaced

ROOT = Path(__file__).resolve().parents[1]


def reference_log_window(P, Q, T, lo, hi):
    """Every pmf term of the integer window, reduced by max and fsum.

    For hi = inf this is the upward tail loop: it runs from lo past the
    mean until a term sits 60 e-folds below the running peak.
    """
    x = max(math.ceil(lo), 0)
    if math.isinf(hi):
        a = poisson_mean(P, Q, T)
        terms, peak = [], -math.inf
        while True:
            lp = poisson_exact_log_pmf(P, Q, T, x)
            terms.append(lp)
            peak = max(peak, lp)
            if x > a and lp < peak - 60.0:
                break
            x += 1
    else:
        terms = [poisson_exact_log_pmf(P, Q, T, y) for y in range(x, math.floor(hi) + 1)]
    if not terms:
        return -math.inf
    m = max(terms)
    return m + math.log(math.fsum(math.exp(t - m) for t in terms))


def load_module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def exact_windows(cfg):
    """(P, Q, T, lo, hi) of every exact window or tail a config evaluates."""
    model = cfg.get("model", {})
    if model.get("kind") != "canonical" or model.get("l") != 0.0 or "scaling" not in cfg:
        return []
    family = ScalingFamily(**cfg["scaling"])
    P, Q = model["P"], model["Q"]
    out = []
    for T in cfg["t_grid"]:
        p = phi(family, T)
        event = cfg.get("event") or {}
        if event.get("kind") == "terminal_window":
            out.append((P, Q, T, event["lo"] * p, event["hi"] * p))
        elif "eps" in cfg:
            out.append((P, Q, T, (cfg["a"] - cfg["eps"]) * p, (cfg["a"] + cfg["eps"]) * p))
        elif "a" in cfg:
            out.append((P, Q, T, math.ceil(cfg["a"] * p), math.inf))
    return out


def test_window_equals_full_sum_on_shipped_and_bench_inputs():
    configs = [json.loads(f.read_text()) for f in sorted((ROOT / "configs").glob("*.json"))]
    bench = load_module(ROOT / "bench" / "workloads.py")
    configs += list(bench.EXACT.values()) + [bench.SMALL_T]
    windows = [w for cfg in configs for w in exact_windows(cfg)]
    # marginal exp/superexp, level-cross, small-T terminal windows
    assert len(windows) >= 30
    for w in windows:
        assert poisson_log_window(*w) == reference_log_window(*w), w


@st.composite
def window_cases(draw):
    P = draw(st.floats(0.1, 500.0))
    Q = draw(st.floats(0.1, 4.0))
    T = draw(st.floats(0.05, 13.0))
    a = draw(st.floats(0.05, 3.0))
    eps = draw(st.floats(0.0, 1.0)) * a
    if draw(st.booleans()):
        phi_ = poisson_mean(P, Q, T) / a  # the window is centred on the mean
    else:
        phi_ = draw(st.floats(1.0, 2000.0))
    lo, hi = (a - eps) * phi_, (a + eps) * phi_
    if draw(st.booleans()):
        hi = math.inf
    return P, Q, T, lo, hi


@settings(max_examples=200, deadline=None)
@given(window_cases())
def test_window_matches_full_sum(case):
    got = poisson_log_window(*case)
    # a log-probability is at most 0; near a full window the list sum can
    # read its rounding error above it, where the code under test clamps
    want = min(reference_log_window(*case), 0.0)
    if want == -math.inf:
        assert got == want
    else:
        # relative on the log value, and on the probability near log 0
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


def test_window_edges_and_empty_windows():
    a = poisson_mean(2.0, 0.5, 10.0)
    assert poisson_log_window(2.0, 0.5, 10.0, -5.0, math.inf) == poisson_log_window(
        2.0, 0.5, 10.0, 0, math.inf
    )
    assert abs(poisson_log_window(2.0, 0.5, 10.0, 0, math.inf)) < 1e-12
    assert poisson_log_window(2.0, 0.5, 10.0, 3.2, 3.9) == -math.inf
    assert poisson_log_window(2.0, 0.5, 10.0, 5.0, 4.0) == -math.inf
    # 0 * phi with phi = inf
    with pytest.raises(PreconditionError):
        poisson_log_window(2.0, 0.5, 10.0, math.nan, math.inf)
    # a window of one state below, at and above the mode is that pmf term
    for x in (0, math.floor(a), 12):
        assert poisson_log_window(2.0, 0.5, 10.0, x, x) == poisson_exact_log_pmf(
            2.0, 0.5, 10.0, x
        )


def test_window_refuses_states_above_two_to_the_53():
    big = 2**53
    with pytest.raises(PreconditionError):
        poisson_log_window(1.0, 1.0, 3.0, big + 1, math.inf)
    with pytest.raises(PreconditionError):
        poisson_log_window(1.0, 1.0, 3.0, math.inf, math.inf)
    # the mode itself lies above 2**53
    with pytest.raises(PreconditionError):
        poisson_log_window(4.0 * big, 1.0, 50.0, 0, math.inf)
    # the walk from 2**53 would step past it
    with pytest.raises(PreconditionError):
        poisson_log_window(1.0, 1.0, 3.0, big, math.inf)
    # a window ending below 2**53 is summed however far out it lies
    assert poisson_log_window(1.0, 1.0, 3.0, big - 10, big) < -1e17
