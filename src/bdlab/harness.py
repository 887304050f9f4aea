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
import os
import warnings
from dataclasses import dataclass, field, fields
from operator import attrgetter

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
    terminal_states,
    _direct_chunk,
    _importance_chunk,
    _planned,
)

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "Table",
    "RESULT_COLUMNS",
    "derive_seed",
    "load_profile",
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
        """The field values in RESULT_COLUMNS order, not copied."""
        return _row_values(self)


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))
_row_values = attrgetter(*RESULT_COLUMNS)


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
        if self.out is not None and not isinstance(self.out, str):
            raise PreconditionError(f"out must be a path, got {self.out!r}")
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
            required=("model", "t_grid", "samples", "seed"),
            optional=("scaling", "event", "a", "eps", "mc_check", "out", "format", "threads"),
            where="config",
        )

        def if_set(key, decode):
            return decode(d[key]) if d.get(key) is not None else None

        try:
            t_grid = tuple(_number(T) for T in d["t_grid"])
            raw_samples = d["samples"]
            if isinstance(raw_samples, (list, tuple)):
                samples = tuple(_count(n) for n in raw_samples)
            else:
                samples = (_count(raw_samples),) * len(t_grid)
            mc = d.get("mc_check")
            if mc is not None:
                _check_keys(mc, ("T", "n"), "mc_check")
            return cls(
                model=_from_dict("model", d["model"], base_dir),
                scaling=if_set("scaling", lambda v: _from_dict("scaling", v, base_dir)),
                t_grid=t_grid,
                samples=samples,
                event=if_set("event", lambda v: _from_dict("event", v, base_dir)),
                a=if_set("a", _number),
                eps=if_set("eps", _number),
                mc_check_T=_number(mc["T"]) if mc is not None else None,
                mc_check_n=_count(mc["n"]) if mc is not None else None,
                seed=_count(d["seed"]),
                out=d.get("out"),
                format=d.get("format", "csv"),
                threads=_count(d.get("threads", 0)),
            )
        except PreconditionError as exc:
            raise ConfigError(str(exc)) from exc
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc

    def to_dict(self) -> dict:
        d: dict = {"model": _to_dict("model", self.model)}
        if self.scaling is not None:
            d["scaling"] = _to_dict("scaling", self.scaling)
        d["t_grid"] = list(self.t_grid)
        d["samples"] = list(self.samples)
        if self.event is not None:
            d["event"] = _to_dict("event", self.event)
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
        d = _load_json_file(path, "config")
        if not isinstance(d, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        return cls.from_dict(d, base_dir=os.path.dirname(os.path.abspath(path)))


def _check_keys(d: dict, required, where: str, optional=()) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"{where} is missing keys: {sorted(missing)}")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {sorted(unknown)}")


def _number(v) -> float:
    """A finite JSON number as a float; booleans, strings, NaN and infinities are refused."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"expected a finite number, got {v!r}")
    return float(v)


def _count(v) -> int:
    """A JSON integer, or a float with an integral value such as 1e5."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"expected an integer count, got {v!r}")
    return v


def _resolve(path: str, base_dir: str | None) -> str:
    if os.path.isabs(path) or not base_dir:
        return path
    return os.path.join(base_dir, path)


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
    Coordinates must be finite JSON numbers, as config float keys are.
    """
    _check_keys(d, required=("mode", "points"), where="profile")
    mode = d["mode"]
    try:
        pts = [(_number(t), _number(v)) for t, v in d["points"]]
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


def load_profile(path: str) -> PiecewiseFunction:
    """Read a profile JSON file (see profile_from_dict)."""
    return profile_from_dict(_load_json_file(path, "profile"))


def _decode_entries(entries, base_dir=None) -> tuple[tuple[float, float], ...]:
    return tuple((_number(lam), _number(mu)) for lam, mu in entries)


def _decode_rate_file(path, base_dir: str | None) -> tuple[tuple[float, float], ...]:
    return _decode_entries(_load_json_file(_resolve(path, base_dir), "rate table"))


def _decode_profile(v, base_dir: str | None) -> PiecewiseFunction:
    """An inline profile, or the path of a profile file."""
    return load_profile(_resolve(v, base_dir)) if isinstance(v, str) else profile_from_dict(v)


# Each tagged config part: its tag key, its type, and for each tag value the
# kind's other keys in emission order.  A kind takes exactly these keys, all
# of them required.
_SCHEMA = {
    "model": ("kind", RateModel, {"canonical": ("P", "Q", "l"), "table": ("entries",)}),
    "scaling": (
        "family",
        ScalingFamily,
        {"poly": ("alpha",), "exponential": ("k",), "superexp": ("k", "beta")},
    ),
    "event": (
        "kind",
        EventSpec,
        {
            "full_space": (),
            "level_cross": ("a",),
            "terminal_window": ("lo", "hi"),
            "neighborhood": ("eps", "profile"),
        },
    ),
}

# Keys that are not a float field of the same name: key -> (field,
# decode(value, base_dir), encode(field value)).  A table model may name a
# JSON file by "path" in place of "entries"; the config echo is inline.
_CODECS = {
    "entries": ("table", _decode_entries, lambda t: [list(e) for e in t]),
    "path": ("table", _decode_rate_file, None),
    "profile": ("center", _decode_profile, profile_to_dict),
}


def _codec(key: str):
    return _CODECS.get(key, (key, lambda v, _: _number(v), lambda v: v))


def _from_dict(part: str, d: dict, base_dir: str | None):
    tag_key, cls, kinds = _SCHEMA[part]
    if not isinstance(d, dict):
        raise ConfigError(f"{part} must be a JSON object")
    tag = d.get(tag_key)
    if tag_key in d and tag not in kinds:
        raise ConfigError(f"unknown {part} {tag_key} {tag!r}")
    keys = ("path",) if tag == "table" and "path" in d else kinds.get(tag, ())
    _check_keys(d, required=(tag_key,) + keys, where=part)
    fields = {tag_key: tag}
    for key in keys:
        name, decode, _ = _codec(key)
        fields[name] = decode(d[key], base_dir)
    return cls(**fields)


def _to_dict(part: str, obj) -> dict:
    tag_key, _, kinds = _SCHEMA[part]
    tag = getattr(obj, tag_key)
    d = {tag_key: tag}
    for key in kinds[tag]:
        name, _, encode = _codec(key)
        d[key] = encode(getattr(obj, name))
    return d


def derive_seed(seed: int, *tags: int) -> int:
    """A 64-bit seed for a tagged sub-experiment, stable across runs."""
    ss = np.random.SeedSequence((seed,) + tuple(tags))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _table(config: ExperimentConfig, columns: tuple[str, ...], rows) -> Table:
    """A run's table; its meta echoes the config and seed for the JSON format."""
    return Table(
        columns=columns,
        rows=tuple(rows),
        meta={"config": config.to_dict(), "seed": config.seed},
    )


def _normalized(raw: float, psi: float) -> float:
    return raw / psi if raw != _NEG_INF else _NEG_INF


def _require_exact_law(model: RateModel, what: str) -> None:
    if not model.exact_law_available:
        raise PreconditionError(
            f"{what} needs the closed-form terminal law, which requires a "
            "canonical model with l = 0"
        )


def _require(config: ExperimentConfig, key: str, what: str):
    """An optional config entry that this run cannot do without."""
    if getattr(config, key) is None:
        raise ConfigError(f"{what} needs {key!r} in the config")
    return getattr(config, key)


# ---------------------------------------------------------------------------
# runs


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
        finals = terminal_states(
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
    return _table(config, POISSON_CHECK_COLUMNS, rows)


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
    scaling = _require(config, "scaling", "the marginal scan")
    if scaling.regime == "SUB":
        raise PreconditionError(
            "the marginal scan needs an exponential or superexp scaling family"
        )
    a = _require(config, "a", "the marginal scan")
    eps = _require(config, "eps", "the marginal scan")
    P, Q = config.model.P, config.model.Q
    rows = []
    for T in config.t_grid:
        p = phi(scaling, T)
        psi = normalizer(scaling, T)
        raw = marginal_log_prob(P, Q, scaling, T, a, eps)
        flag = "empty_window" if raw == _NEG_INF else "exact"
        rows.append(_row(T, p, psi, raw, -a, flag))
    return _table(config, RESULT_COLUMNS, rows)


def _row(T: float, p: float, psi: float, log_prob: float, predicted: float, flag: str,
         est: Estimate | None = None) -> tuple:
    """A result row.  A closed-form row (est None) has no replicas, so no
    standard error, no hits and no weight share."""
    diag = (0.0, 0, 0.0) if est is None else (
        est.relative_std_error, est.n_hits, est.max_weight_share)
    normalized = _normalized(log_prob, psi)
    return ResultRow(T, p, psi, log_prob, normalized, predicted, *diag, flag).astuple()


def _verdict(check: str, ok: bool | None, *parts: str) -> str:
    """A verdict flag: the parts, then check_ok, check_fail or (ok None, a
    check that could not have failed) check_inconclusive, joined by ';'."""
    state = "inconclusive" if ok is None else "ok" if ok else "fail"
    return ";".join(parts + (f"{check}_{state}",))


def run_consistency_check(config: ExperimentConfig) -> Table:
    """Cross-validate the two estimators and the change-of-measure identity.

    Per grid point: a full-space importance row (its true value is
    exactly 1, so the normalization verdict checks |log| against 4
    relative standard errors), then a direct and an importance row for
    the configured event with a cross-agreement verdict at 3 combined
    standard errors.  The predicted column holds the exact reference
    when the closed-form law gives one, otherwise the companion
    estimator's normalized value; the flag records what was compared.
    With threads > 0 the chunks of every call are handed to the pool
    before the first call, in call order, so the workers run ahead while
    this process reduces the calls one by one.
    """
    scaling = _require(config, "scaling", "the consistency check")
    if any(T > 5 for T in config.t_grid):
        warnings.warn(
            "consistency checks are meant for small T (<= 5); importance "
            "weights degenerate quickly beyond that",
            stacklevel=2,
        )
    model, event, n = config.model, config.event, config.samples
    full_space = EventSpec.full_space()
    tags = (0, 1, 2) if event is not None and event.kind != "full_space" else (0,)
    # one entry per estimator call, in call order: per grid point the
    # full-space importance estimate (tag 0), then the event's direct
    # (tag 1) and importance (tag 2) estimates
    calls = [
        (i, T, phi(scaling, T), full_space if tag == 0 else event, tag,
         derive_seed(config.seed, 1, i, tag))
        for i, T in enumerate(config.t_grid)
        for tag in tags
    ]
    plan = [
        (_direct_chunk if tag == 1 else _importance_chunk, (model, T, p, target, seed), n[i])
        for i, T, p, target, tag, seed in calls
    ]
    rows = []
    with _planned(plan, config.threads):
        for i, T, p, target, tag, seed in calls:
            psi = normalizer(scaling, T)
            estimator = direct_estimate if tag == 1 else importance_estimate
            est = estimator(model, T, p, target, n[i], seed, config.threads)
            if tag == 0:
                ok = abs(est.log_value) <= 4.0 * est.relative_std_error
                flag = _verdict("normalization", ok, "event=full_space", "method=importance")
                rows.append(_row(T, p, psi, est.log_value, 0.0, flag, est))
                continue
            if tag == 1:
                est_d = est
                continue
            est_i = est
            z = agreement_z(est_d, est_i)
            ref = None
            if event.kind == "terminal_window" and model.exact_law_available:
                raw_ref = poisson_log_window(model.P, model.Q, T, event.lo * p, event.hi * p)
                ref = _normalized(raw_ref, psi)
            parts = (f"ref={'companion' if ref is None else 'exact'}", f"z={z:.2f}")
            for method, est, other in (("direct", est_d, est_i), ("importance", est_i, est_d)):
                predicted = _normalized(other.log_value, psi) if ref is None else ref
                flag = _verdict("agree", z <= 3.0, f"event={event.kind}", f"method={method}", *parts)
                rows.append(_row(T, p, psi, est.log_value, predicted, flag, est))
    return _table(config, RESULT_COLUMNS, rows)


def run_level_cross_scan(config: ExperimentConfig) -> Table:
    """Normalized exact tail anchor for the level-crossing event, per grid point.

    The terminal tail P(state at T >= a*phi) is a lower bound for the
    crossing probability and shares its decay rate (1 - l) * a; rows are
    exact.  An optional small-T Monte Carlo row estimates the crossing
    probability directly and records whether it dominates the exact
    tail within 3 binomial standard errors; when that threshold is not
    above 0, no frequency can fail it and the row is inconclusive.
    """
    _require_exact_law(config.model, "the level-cross scan")
    scaling = _require(config, "scaling", "the level-cross scan")
    a = _require(config, "a", "the level-cross scan")
    model = config.model
    predicted = -level_crossing_rate(a, model.l)
    rows = []
    for T in config.t_grid:
        p = phi(scaling, T)
        if not math.isfinite(p):
            raise PreconditionError(f"phi({T}) too large for an integer tail bound")
        psi = normalizer(scaling, T)
        raw = poisson_exact_log_tail(model.P, model.Q, T, math.ceil(a * p))
        rows.append(_row(T, p, psi, raw, predicted, "exact;anchor=terminal_tail"))
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
        threshold = tail0 - 3.0 * math.sqrt(tail0 * (1.0 - tail0) / n0)
        p_hat = math.exp(est.log_value) if est.log_value != _NEG_INF else 0.0
        ok = None if threshold <= 0.0 else p_hat >= threshold
        flag = _verdict("dominates_tail", ok, "mc_sup")
        rows.append(_row(T0, p0, psi0, est.log_value, predicted, flag, est))
    return _table(config, RESULT_COLUMNS, rows)


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
    return _table(config, ("T", "t", "state"), rows)


def run_rate_eval(config: ExperimentConfig, profile: PiecewiseFunction) -> Table:
    """Evaluate the configured regime's rate functional on a profile."""
    scaling = _require(config, "scaling", "rate evaluation")
    model = config.model
    regime = scaling.regime
    if regime == "SUB":
        value = rate_sub(profile, model.Q)
    elif regime == "EXP":
        value = rate_exp(profile, model.Q, scaling.k, model.l)
    else:
        value = rate_super(profile, model.l)
    plus_end = left_limit_at_one(jordan_decompose(profile).plus)
    return _table(
        config,
        ("regime", "rate_value", "integral_f", "fplus_end"),
        [(regime, value, integral(profile), plus_end)],
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

    Infinities are written as the literals "inf" and "-inf" in both
    formats; JSON has no float infinities, so there they are strings.
    Output contains nothing run-dependent, so equal tables give equal
    bytes.
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
                [(_fmt_cell(v) if isinstance(v, float) and math.isinf(v) else v) for v in row]
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
    if isinstance(text_or_value, str) and text_or_value in ("inf", "-inf"):
        return float(text_or_value)
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
