"""Experiment orchestration: configs, scans, estimator cross-checks, result tables.

Every run function takes an ExperimentConfig and returns a Table.  Scan
tables (marginal, level-cross, consistency) use the fixed ten-column
result schema; the terminal-law check has its own columns because its
rows carry distances, not log-probabilities.  Output is deterministic:
given the same config and seed the emitted bytes are identical, with or
without worker processes, and nothing time- or host-dependent is ever
written.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, PreconditionError
from .paths import (
    PiecewiseFunction,
    integral,
    jordan_decompose,
    left_limit_at_one,
)
from .process import RateModel, RngStream, simulate_xi, simulate_zeta
from .rates import (
    ScalingFamily,
    level_crossing_rate,
    marginal_log_prob,
    normalizer,
    phi,
    poisson_exact_log_pmf,
    poisson_exact_log_tail,
    poisson_log_window,
    poisson_mean,
    rate_exp,
    rate_sub,
    rate_super,
)
from .weights import (
    EventSpec,
    Estimate,
    agreement_z,
    direct_estimate,
    importance_estimate,
    _run_chunks,
)

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "Table",
    "RESULT_COLUMNS",
    "derive_seed",
    "profile_from_dict",
    "profile_to_dict",
    "run_poisson_check",
    "run_marginal_ldp_scan",
    "run_consistency_check",
    "run_level_cross_scan",
    "run_simulate",
    "run_rate_eval",
    "emit_results",
    "parse_results",
    "write_results",
]

_NEG_INF = float("-inf")

RESULT_COLUMNS = (
    "T",
    "phi",
    "psi",
    "log_prob",
    "normalized",
    "predicted",
    "rel_se",
    "n_hits",
    "max_weight_share",
    "flag",
)

POISSON_CHECK_COLUMNS = ("T", "n", "a_T", "tv_distance", "chi2_stat", "chi2_dof", "flag")

# fixed column typing for parsing emitted tables back
_INT_COLUMNS = {"n", "n_hits", "chi2_dof", "state"}
_STR_COLUMNS = {"flag", "regime"}


@dataclass(frozen=True)
class ResultRow:
    """One row of the ten-column result schema."""

    T: float
    phi: float
    psi: float
    log_prob: float
    normalized: float
    predicted: float
    rel_se: float
    n_hits: int
    max_weight_share: float
    flag: str

    def __post_init__(self) -> None:
        # normalized and predicted may be -inf but never nan/+inf
        for name in ("normalized", "predicted"):
            v = getattr(self, name)
            if math.isnan(v) or v == float("inf"):
                raise PreconditionError(f"{name} must be finite or -inf, got {v}")

    def astuple(self) -> tuple:
        return (
            self.T,
            self.phi,
            self.psi,
            self.log_prob,
            self.normalized,
            self.predicted,
            self.rel_se,
            self.n_hits,
            self.max_weight_share,
            self.flag,
        )


@dataclass(frozen=True)
class Table:
    """A column-named result table plus reproduction metadata.

    meta carries the config echo and seed; it is emitted by the JSON
    format only, so the CSV data section stays byte-stable and minimal.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise PreconditionError("row width does not match columns")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs: model, scaling, grid, event, sampling, output.

    samples has one entry per grid point (a scalar in the config file is
    broadcast).  Unknown keys in a config file are errors, not silently
    ignored defaults.
    """

    model: RateModel
    t_grid: tuple[float, ...]
    samples: tuple[int, ...]
    seed: int
    scaling: ScalingFamily | None = None
    event: EventSpec | None = None
    a: float | None = None
    eps: float | None = None
    mc_check_T: float | None = None
    mc_check_n: int | None = None
    out: str | None = None
    format: str = "csv"
    threads: int = 0

    def __post_init__(self) -> None:
        if not self.t_grid:
            raise PreconditionError("t_grid must be nonempty")
        prev = 0.0
        for T in self.t_grid:
            if not (T > prev and math.isfinite(T)):
                raise PreconditionError(
                    "t_grid must be strictly increasing positive reals"
                )
            prev = T
        if len(self.samples) != len(self.t_grid):
            raise PreconditionError("samples must have one entry per t_grid point")
        for n in self.samples:
            if n < 1:
                raise PreconditionError(f"sample counts must be >= 1, got {n}")
        if not (0 <= self.seed < 2**64):
            raise PreconditionError(f"seed must be a 64-bit integer, got {self.seed}")
        if self.format not in ("csv", "json"):
            raise PreconditionError(f"format must be csv or json, got {self.format!r}")
        if self.threads < 0:
            raise PreconditionError(f"threads must be >= 0, got {self.threads}")
        if self.a is not None and not self.a > 0:
            raise PreconditionError(f"a must be positive, got {self.a}")
        if self.eps is not None and not self.eps > 0:
            raise PreconditionError(f"eps must be positive, got {self.eps}")
        if (self.mc_check_T is None) != (self.mc_check_n is None):
            raise PreconditionError("mc_check needs both T and n")
        if self.mc_check_T is not None and not self.mc_check_T > 0:
            raise PreconditionError("mc_check T must be positive")
        if self.mc_check_n is not None and self.mc_check_n < 1:
            raise PreconditionError("mc_check n must be >= 1")

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_dict(cls, d: dict, base_dir: str | None = None) -> "ExperimentConfig":
        _check_keys(
            d,
            required={"model", "t_grid", "samples", "seed"},
            optional={
                "scaling",
                "event",
                "a",
                "eps",
                "mc_check",
                "out",
                "format",
                "threads",
            },
            where="config",
        )
        try:
            model = _model_from_dict(d["model"], base_dir)
            scaling = (
                _scaling_from_dict(d["scaling"]) if d.get("scaling") is not None else None
            )
            event = (
                _event_from_dict(d["event"], base_dir)
                if d.get("event") is not None
                else None
            )
            t_grid = tuple(float(T) for T in d["t_grid"])
            raw_samples = d["samples"]
            if isinstance(raw_samples, (int, float)):
                samples = (int(raw_samples),) * len(t_grid)
            else:
                samples = tuple(int(n) for n in raw_samples)
            mc = d.get("mc_check")
            if mc is not None:
                _check_keys(mc, required={"T", "n"}, optional=set(), where="mc_check")
            return cls(
                model=model,
                scaling=scaling,
                t_grid=t_grid,
                samples=samples,
                event=event,
                a=float(d["a"]) if d.get("a") is not None else None,
                eps=float(d["eps"]) if d.get("eps") is not None else None,
                mc_check_T=float(mc["T"]) if mc is not None else None,
                mc_check_n=int(mc["n"]) if mc is not None else None,
                seed=int(d["seed"]),
                out=d.get("out"),
                format=d.get("format", "csv"),
                threads=int(d.get("threads", 0)),
            )
        except PreconditionError as exc:
            raise ConfigError(str(exc)) from exc
        except (TypeError, ValueError, KeyError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc

    def to_dict(self) -> dict:
        d: dict = {"model": _model_to_dict(self.model)}
        if self.scaling is not None:
            d["scaling"] = _scaling_to_dict(self.scaling)
        d["t_grid"] = list(self.t_grid)
        d["samples"] = list(self.samples)
        if self.event is not None:
            d["event"] = _event_to_dict(self.event)
        if self.a is not None:
            d["a"] = self.a
        if self.eps is not None:
            d["eps"] = self.eps
        if self.mc_check_T is not None:
            d["mc_check"] = {"T": self.mc_check_T, "n": self.mc_check_n}
        d["seed"] = self.seed
        if self.out is not None:
            d["out"] = self.out
        d["format"] = self.format
        d["threads"] = self.threads
        return d

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        import os

        with open(path, "r", encoding="utf-8") as fh:
            try:
                d = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(d, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        return cls.from_dict(d, base_dir=os.path.dirname(os.path.abspath(path)))


def _check_keys(d: dict, required: set, optional: set, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    keys = set(d)
    missing = required - keys
    if missing:
        raise ConfigError(f"{where} is missing keys: {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {sorted(unknown)}")


def _model_from_dict(d: dict, base_dir: str | None) -> RateModel:
    _check_keys(d, required={"kind"}, optional={"P", "Q", "l", "entries", "path"}, where="model")
    if d["kind"] == "canonical":
        _check_keys(d, required={"kind", "P", "Q", "l"}, optional=set(), where="model")
        return RateModel(kind="canonical", P=float(d["P"]), Q=float(d["Q"]), l=float(d["l"]))
    if d["kind"] == "table":
        if "entries" in d:
            _check_keys(d, required={"kind", "entries"}, optional=set(), where="model")
            entries = d["entries"]
        elif "path" in d:
            _check_keys(d, required={"kind", "path"}, optional=set(), where="model")
            entries = _load_json_file(_resolve(d["path"], base_dir), "rate table")
        else:
            raise ConfigError("table model needs 'entries' or 'path'")
        table = tuple((float(lam), float(mu)) for lam, mu in entries)
        return RateModel(kind="table", table=table)
    raise ConfigError(f"unknown model kind {d['kind']!r}")


def _model_to_dict(model: RateModel) -> dict:
    if model.kind == "canonical":
        return {"kind": "canonical", "P": model.P, "Q": model.Q, "l": model.l}
    return {"kind": "table", "entries": [list(e) for e in model.table]}


def _scaling_from_dict(d: dict) -> ScalingFamily:
    _check_keys(d, required={"family"}, optional={"alpha", "k", "beta"}, where="scaling")
    fam = d["family"]
    if fam == "poly":
        _check_keys(d, required={"family", "alpha"}, optional=set(), where="scaling")
        return ScalingFamily.poly(float(d["alpha"]))
    if fam == "exponential":
        _check_keys(d, required={"family", "k"}, optional=set(), where="scaling")
        return ScalingFamily.exponential(float(d["k"]))
    if fam == "superexp":
        _check_keys(d, required={"family", "k", "beta"}, optional=set(), where="scaling")
        return ScalingFamily.superexp(float(d["k"]), float(d["beta"]))
    raise ConfigError(f"unknown scaling family {fam!r}")


def _scaling_to_dict(s: ScalingFamily) -> dict:
    if s.family == "poly":
        return {"family": "poly", "alpha": s.alpha}
    if s.family == "exponential":
        return {"family": "exponential", "k": s.k}
    return {"family": "superexp", "k": s.k, "beta": s.beta}


def _event_from_dict(d: dict, base_dir: str | None) -> EventSpec:
    _check_keys(
        d,
        required={"kind"},
        optional={"eps", "a", "lo", "hi", "profile"},
        where="event",
    )
    kind = d["kind"]
    if kind == "full_space":
        _check_keys(d, required={"kind"}, optional=set(), where="event")
        return EventSpec.full_space()
    if kind == "level_cross":
        _check_keys(d, required={"kind", "a"}, optional=set(), where="event")
        return EventSpec.level_cross(float(d["a"]))
    if kind == "terminal_window":
        _check_keys(d, required={"kind", "lo", "hi"}, optional=set(), where="event")
        return EventSpec.terminal_window(float(d["lo"]), float(d["hi"]))
    if kind == "neighborhood":
        _check_keys(d, required={"kind", "eps", "profile"}, optional=set(), where="event")
        prof = d["profile"]
        if isinstance(prof, str):
            prof = _load_json_file(_resolve(prof, base_dir), "profile")
        return EventSpec.neighborhood(profile_from_dict(prof), float(d["eps"]))
    raise ConfigError(f"unknown event kind {kind!r}")


def _event_to_dict(e: EventSpec) -> dict:
    if e.kind == "full_space":
        return {"kind": "full_space"}
    if e.kind == "level_cross":
        return {"kind": "level_cross", "a": e.a}
    if e.kind == "terminal_window":
        return {"kind": "terminal_window", "lo": e.lo, "hi": e.hi}
    return {"kind": "neighborhood", "eps": e.eps, "profile": profile_to_dict(e.center)}


def _resolve(path: str, base_dir: str | None) -> str:
    import os

    if base_dir and not os.path.isabs(path):
        return os.path.join(base_dir, path)
    return path


def _load_json_file(path: str, what: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{what} file {path} is not valid JSON: {exc}")


def profile_from_dict(d: dict) -> PiecewiseFunction:
    """Parse a profile: {"mode": "step"|"linear", "points": [[t, value], ...]}.

    step mode: each pair is (segment start, segment value); the final
    segment implicitly runs to t = 1, so no pair has t = 1.
    linear mode: pairs are the interpolation nodes and must span 0 to 1.
    """
    _check_keys(d, required={"mode", "points"}, optional=set(), where="profile")
    mode = d["mode"]
    try:
        pts = [(float(t), float(v)) for t, v in d["points"]]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"profile points must be (t, value) pairs: {exc}")
    if not pts:
        raise ConfigError("profile needs at least one point")
    ts = [t for t, _ in pts]
    vs = [v for _, v in pts]
    try:
        if mode == "step":
            return PiecewiseFunction.step(tuple(ts) + (1.0,), tuple(vs))
        if mode == "linear":
            return PiecewiseFunction.linear(tuple(ts), tuple(vs))
    except PreconditionError as exc:
        raise ConfigError(f"bad profile: {exc}") from exc
    raise ConfigError(f"unknown profile mode {mode!r}")


def profile_to_dict(f: PiecewiseFunction) -> dict:
    if f.mode == "step":
        points = [[t, v] for t, v in zip(f.breakpoints[:-1], f.values)]
    else:
        points = [[t, v] for t, v in zip(f.breakpoints, f.values)]
    return {"mode": f.mode, "points": points}


def derive_seed(seed: int, *tags: int) -> int:
    """A 64-bit seed for a tagged sub-experiment, stable across runs."""
    ss = np.random.SeedSequence((seed,) + tuple(tags))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _require_exact_law(model: RateModel, what: str) -> None:
    if not model.exact_law_available:
        raise PreconditionError(
            f"{what} needs the closed-form terminal law, which requires a "
            "canonical model with l = 0"
        )


def _require_scaling(config: ExperimentConfig, what: str) -> ScalingFamily:
    if config.scaling is None:
        raise ConfigError(f"{what} needs a 'scaling' entry in the config")
    return config.scaling


def _require_scan_targets(config: ExperimentConfig, what: str) -> tuple[float, float]:
    if config.a is None:
        raise ConfigError(f"{what} needs 'a' in the config")
    return config.a, config.eps if config.eps is not None else 0.0


# ---------------------------------------------------------------------------
# runs


def _final_chunk(args) -> list[float]:
    """Terminal states for one block of chain replicas (floats for uniformity)."""
    model, T, seed, start, stop = args
    return [
        float(simulate_xi(model, T, RngStream(seed, r)).final_state())
        for r in range(start, stop)
    ]


def _collect_finals(model, T, n, seed, threads) -> list[int]:
    vals = _run_chunks(_final_chunk, (model, T, seed), n, threads)
    return [int(v) for v in vals]


def run_poisson_check(config: ExperimentConfig) -> Table:
    """Empirical terminal histogram vs the exact law, per grid point.

    Reports the total-variation distance (1/2 sum of |empirical -
    exact|) and a chi-square statistic with bins pooled to expected
    count >= 5.
    """
    _require_exact_law(config.model, "the terminal-law check")
    P, Q = config.model.P, config.model.Q
    rows = []
    for i, T in enumerate(config.t_grid):
        n = config.samples[i]
        finals = _collect_finals(
            config.model, T, n, derive_seed(config.seed, 0, i), config.threads
        )
        counts: dict[int, int] = {}
        for x in finals:
            counts[x] = counts.get(x, 0) + 1
        a = poisson_mean(P, Q, T)
        # exact pmf out to where both the law and the sample are exhausted
        x_max = max(counts)
        pmf = []
        cum = 0.0
        x = 0
        while x <= x_max or (cum < 1.0 - 1e-13 and x < x_max + 10_000):
            p = math.exp(poisson_exact_log_pmf(P, Q, T, x))
            pmf.append(p)
            cum += p
            x += 1
        tv_terms = [abs(counts.get(j, 0) / n - pj) for j, pj in enumerate(pmf)]
        tail = max(1.0 - math.fsum(pmf), 0.0)
        tv = 0.5 * (math.fsum(tv_terms) + tail)
        chi2, dof = _chi_square(counts, pmf, n)
        rows.append((T, n, a, tv, chi2, dof, ""))
    return Table(
        columns=POISSON_CHECK_COLUMNS,
        rows=tuple(rows),
        meta={"config": config.to_dict(), "seed": config.seed},
    )


def _chi_square(counts: dict[int, int], pmf: list[float], n: int) -> tuple[float, int]:
    """Pearson statistic with bins pooled left-to-right to expected >= 5."""
    bins: list[tuple[float, float]] = []
    acc_o, acc_e = 0.0, 0.0
    for x, p in enumerate(pmf):
        acc_o += counts.get(x, 0)
        acc_e += n * p
        if acc_e >= 5.0:
            bins.append((acc_o, acc_e))
            acc_o, acc_e = 0.0, 0.0
    # whatever remains (including mass beyond the enumerated range)
    rest_o = n - math.fsum(o for o, _ in bins) - acc_o
    rest_e = n - math.fsum(e for _, e in bins) - acc_e
    acc_o += rest_o
    acc_e += rest_e
    if bins and acc_e < 5.0:
        o, e = bins.pop()
        acc_o += o
        acc_e += e
    bins.append((acc_o, acc_e))
    stat = math.fsum((o - e) ** 2 / e for o, e in bins if e > 0)
    return stat, max(len(bins) - 1, 1)


def run_marginal_ldp_scan(config: ExperimentConfig) -> Table:
    """Exact normalized log-probability of the terminal window, per grid point.

    No Monte Carlo: each row is a closed-form summation.  The predicted
    column is the limiting value -a.
    """
    _require_exact_law(config.model, "the marginal scan")
    scaling = _require_scaling(config, "the marginal scan")
    if scaling.regime == "SUB":
        raise PreconditionError(
            "the marginal scan needs an exponential or superexp scaling family"
        )
    a, eps = _require_scan_targets(config, "the marginal scan")
    if config.eps is None:
        raise ConfigError("the marginal scan needs 'eps' in the config")
    P, Q = config.model.P, config.model.Q
    rows = []
    for T in config.t_grid:
        p = phi(scaling, T)
        psi = normalizer(scaling, T)
        raw = marginal_log_prob(P, Q, scaling, T, a, eps)
        if raw == _NEG_INF:
            row = ResultRow(
                T=T,
                phi=p,
                psi=psi,
                log_prob=_NEG_INF,
                normalized=_NEG_INF,
                predicted=-a,
                rel_se=0.0,
                n_hits=0,
                max_weight_share=0.0,
                flag="empty_window",
            )
        else:
            row = ResultRow(
                T=T,
                phi=p,
                psi=psi,
                log_prob=raw,
                normalized=raw / psi,
                predicted=-a,
                rel_se=0.0,
                n_hits=0,
                max_weight_share=0.0,
                flag="exact",
            )
        rows.append(row.astuple())
    return Table(
        columns=RESULT_COLUMNS,
        rows=tuple(rows),
        meta={"config": config.to_dict(), "seed": config.seed},
    )


def _estimate_row(
    T: float,
    p: float,
    psi: float,
    est: Estimate,
    predicted: float,
    flag: str,
) -> tuple:
    normalized = est.log_value / psi if est.log_value != _NEG_INF else _NEG_INF
    return ResultRow(
        T=T,
        phi=p,
        psi=psi,
        log_prob=est.log_value,
        normalized=normalized,
        predicted=predicted,
        rel_se=est.relative_std_error,
        n_hits=est.n_hits,
        max_weight_share=est.max_weight_share,
        flag=flag,
    ).astuple()


def run_consistency_check(config: ExperimentConfig) -> Table:
    """Cross-validate the two estimators and the change-of-measure identity.

    Per grid point: a full-space importance row (its true value is
    exactly 1, so the normalization verdict checks |log| against 4
    relative standard errors), then a direct and an importance row for
    the configured event with a cross-agreement verdict at 3 combined
    standard errors.  The predicted column holds the exact reference
    when the closed-form law gives one, otherwise the companion
    estimator's normalized value; the flag records what was compared.
    """
    scaling = _require_scaling(config, "the consistency check")
    if any(T > 5 for T in config.t_grid):
        warnings.warn(
            "consistency checks are meant for small T (<= 5); importance "
            "weights degenerate quickly beyond that",
            stacklevel=2,
        )
    model = config.model
    rows = []
    for i, T in enumerate(config.t_grid):
        n = config.samples[i]
        p = phi(scaling, T)
        psi = normalizer(scaling, T)
        full = importance_estimate(
            model, T, p, EventSpec.full_space(), n, derive_seed(config.seed, 1, i, 0),
            config.threads,
        )
        ok = abs(full.log_value) <= 4.0 * full.relative_std_error
        rows.append(
            _estimate_row(
                T, p, psi, full, 0.0,
                f"event=full_space;method=importance;normalization_{'ok' if ok else 'fail'}",
            )
        )
        event = config.event
        if event is None or event.kind == "full_space":
            continue
        est_d = direct_estimate(
            model, T, p, event, n, derive_seed(config.seed, 1, i, 1), config.threads
        )
        est_i = importance_estimate(
            model, T, p, event, n, derive_seed(config.seed, 1, i, 2), config.threads
        )
        z = agreement_z(est_d, est_i)
        verdict = "agree_ok" if z <= 3.0 else "agree_fail"
        ref = None
        if event.kind == "terminal_window" and model.exact_law_available:
            raw_ref = poisson_log_window(model.P, model.Q, T, event.lo * p, event.hi * p)
            ref = raw_ref / psi if raw_ref != _NEG_INF else _NEG_INF
        ref_tag = "exact" if ref is not None else "companion"
        d_norm = est_d.log_value / psi if est_d.log_value != _NEG_INF else _NEG_INF
        i_norm = est_i.log_value / psi if est_i.log_value != _NEG_INF else _NEG_INF
        rows.append(
            _estimate_row(
                T, p, psi, est_d,
                ref if ref is not None else i_norm,
                f"event={event.kind};method=direct;ref={ref_tag};z={z:.2f};{verdict}",
            )
        )
        rows.append(
            _estimate_row(
                T, p, psi, est_i,
                ref if ref is not None else d_norm,
                f"event={event.kind};method=importance;ref={ref_tag};z={z:.2f};{verdict}",
            )
        )
    return Table(
        columns=RESULT_COLUMNS,
        rows=tuple(rows),
        meta={"config": config.to_dict(), "seed": config.seed},
    )


def run_level_cross_scan(config: ExperimentConfig) -> Table:
    """Normalized exact tail anchor for the level-crossing event, per grid point.

    The terminal tail P(state at T >= a*phi) is a lower bound for the
    crossing probability and shares its decay rate (1 - l) * a; rows are
    exact.  An optional small-T Monte Carlo row estimates the crossing
    probability directly and records whether it dominates the exact
    tail within 3 binomial standard errors.
    """
    _require_exact_law(config.model, "the level-cross scan")
    scaling = _require_scaling(config, "the level-cross scan")
    a, _ = _require_scan_targets(config, "the level-cross scan")
    model = config.model
    predicted = -level_crossing_rate(a, model.l)
    rows = []
    for T in config.t_grid:
        p = phi(scaling, T)
        if not math.isfinite(p):
            raise PreconditionError(f"phi({T}) too large for an integer tail bound")
        psi = normalizer(scaling, T)
        lo = math.ceil(a * p)
        raw = poisson_exact_log_tail(model.P, model.Q, T, lo)
        rows.append(
            ResultRow(
                T=T,
                phi=p,
                psi=psi,
                log_prob=raw,
                normalized=raw / psi,
                predicted=predicted,
                rel_se=0.0,
                n_hits=0,
                max_weight_share=0.0,
                flag="exact;anchor=terminal_tail",
            ).astuple()
        )
    if config.mc_check_T is not None:
        T0 = config.mc_check_T
        n0 = config.mc_check_n
        p0 = phi(scaling, T0)
        psi0 = normalizer(scaling, T0)
        est = direct_estimate(
            model, T0, p0, EventSpec.level_cross(a), n0,
            derive_seed(config.seed, 2, 0), config.threads,
        )
        tail0 = math.exp(poisson_exact_log_tail(model.P, model.Q, T0, math.ceil(a * p0)))
        # dominance test against the known tail: the MC crossing frequency
        # may not sit more than 3 null standard errors below it
        se0 = math.sqrt(tail0 * (1.0 - tail0) / n0)
        p_hat = math.exp(est.log_value) if est.log_value != _NEG_INF else 0.0
        dominates = p_hat >= tail0 - 3.0 * se0
        rows.append(
            _estimate_row(
                T0, p0, psi0, est, predicted,
                f"mc_sup;dominates_tail_{'ok' if dominates else 'fail'}",
            )
        )
    return Table(
        columns=RESULT_COLUMNS,
        rows=tuple(rows),
        meta={"config": config.to_dict(), "seed": config.seed},
    )


def run_simulate(config: ExperimentConfig, process: str = "xi") -> Table:
    """One trajectory per grid point in plot-ready (T, t, state) rows.

    Rows include the start point (t = 0) and a closing row at t = T
    repeating the final state, so a step plot spans the whole horizon.
    """
    if process not in ("xi", "zeta"):
        raise ConfigError(f"process must be xi or zeta, got {process!r}")
    rows = []
    for i, T in enumerate(config.t_grid):
        stream = RngStream(derive_seed(config.seed, 3, i), 0)
        if process == "xi":
            traj = simulate_xi(config.model, T, stream)
        else:
            traj = simulate_zeta(T, stream)
        x = traj.initial_state
        rows.append((T, 0.0, x))
        for t, s in zip(traj.jump_times, traj.jump_signs):
            x += s
            rows.append((T, t, x))
        rows.append((T, T, x))
    return Table(
        columns=("T", "t", "state"),
        rows=tuple(rows),
        meta={"config": config.to_dict(), "seed": config.seed},
    )


def run_rate_eval(config: ExperimentConfig, profile: PiecewiseFunction) -> Table:
    """Evaluate the configured regime's rate functional on a profile."""
    scaling = _require_scaling(config, "rate evaluation")
    model = config.model
    regime = scaling.regime
    if regime == "SUB":
        value = rate_sub(profile, model.Q)
    elif regime == "EXP":
        value = rate_exp(profile, model.Q, scaling.k, model.l)
    else:
        value = rate_super(profile, model.l)
    plus_end = left_limit_at_one(jordan_decompose(profile).plus)
    return Table(
        columns=("regime", "rate_value", "integral_f", "fplus_end"),
        rows=((regime, value, integral(profile), plus_end),),
        meta={"config": config.to_dict(), "seed": config.seed},
    )


# ---------------------------------------------------------------------------
# emission


def _fmt_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    if v == _NEG_INF:
        return "-inf"
    return repr(float(v))


def emit_results(table: Table, fmt: str) -> str:
    """Serialize a table; CSV is the bare data section, JSON adds the config echo.

    Minus infinity is written as the literal "-inf" in both formats
    (JSON has no float infinities).  Output contains nothing run-dependent,
    so equal tables give equal bytes.
    """
    if not table.rows:
        raise PreconditionError("refusing to emit an empty table")
    if fmt == "csv":
        lines = [",".join(table.columns)]
        for row in table.rows:
            lines.append(",".join(_fmt_cell(v) for v in row))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "columns": list(table.columns),
            "rows": [
                [("-inf" if v == _NEG_INF and not isinstance(v, str) else v) for v in row]
                for row in table.rows
            ],
            "config": table.meta.get("config"),
            "seed": table.meta.get("seed"),
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ConfigError(f"format must be csv or json, got {fmt!r}")


def _parse_cell(column: str, text_or_value):
    if column in _STR_COLUMNS:
        return str(text_or_value)
    if isinstance(text_or_value, str) and text_or_value == "-inf":
        return _NEG_INF
    if column in _INT_COLUMNS:
        return int(text_or_value)
    return float(text_or_value)


def parse_results(text: str, fmt: str) -> Table:
    """Parse emit_results output back into a Table (meta only from JSON)."""
    if fmt == "csv":
        lines = [ln for ln in text.splitlines() if ln]
        columns = tuple(lines[0].split(","))
        rows = tuple(
            tuple(_parse_cell(c, cell) for c, cell in zip(columns, ln.split(",")))
            for ln in lines[1:]
        )
        return Table(columns=columns, rows=rows, meta={})
    if fmt == "json":
        payload = json.loads(text)
        columns = tuple(payload["columns"])
        rows = tuple(
            tuple(_parse_cell(c, cell) for c, cell in zip(columns, row))
            for row in payload["rows"]
        )
        meta = {"config": payload.get("config"), "seed": payload.get("seed")}
        return Table(columns=columns, rows=rows, meta=meta)
    raise ConfigError(f"format must be csv or json, got {fmt!r}")


def write_results(table: Table, path: str, fmt: str) -> None:
    """Emit and write to path; I/O failures surface with the path attached."""
    text = emit_results(table, fmt)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
