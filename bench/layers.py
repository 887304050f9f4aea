"""Where spans go, the layer sweep, and the per-layer metrics built from spans.

Call level (always on, also with tracing off): one span per estimator
call and per exact-law call, from which call latencies come.  Layer
level (traced runs only) adds spans at every module boundary named in
README.md: stream setup, draw blocks, simulation, event tests,
log_density, path scaling and L1 distance, and counts pmf terms of the
exact sums.

A workload reports a layer's per-layer metric from its own spans.  A
layer it never calls (say, stream setup on exact_law_scan) is measured
by the layer sweep: a short fixed set of direct calls into every layer,
run once after the traced passes, whose spans carry pass id 0.
"""

from __future__ import annotations

import math

import numpy as np

from bdlab import harness, paths, process, rates, weights

from tracer import Tracer, TracedGenerator, self_ns

ESTIMATORS = ("weights.importance_estimate", "weights.direct_estimate")
EXACT_CALLS = ("rates.marginal_log_prob", "rates.log_tail", "rates.tilted_argmax")
CALL_NAMES = ESTIMATORS + EXACT_CALLS
EVENT_KINDS = ("terminal_window", "level_cross", "neighborhood")
# horizons whose exact-law costs are per-layer metrics (all are reported)
MARGINAL_T = (10.0, 14.0)
TILTED_T = (10.0,)
# every module namespace that may bind a wrapped function: a name is
# wrapped wherever it is bound, so a call is seen whichever module makes it
MODULES = (process, paths, rates, weights, harness)


def _estimate_count(est) -> int:
    # estimator spans carry both the replica count and the hits
    return (est.n_samples << 32) | est.n_hits


def _estimator_name(base: str):
    # a call with threads > 0 (the 7th positional argument) goes to the
    # pool; its per-replica work is in worker processes, out of sight
    return lambda a: base + ".pooled" if len(a) > 6 and a[6] > 0 else base


def _t_name(base: str, T: float) -> str:
    return f"{base}.T{T:g}"


def _wrap_all(tracer: Tracer, attr: str, name, count=None) -> None:
    for module in MODULES:
        if hasattr(module, attr):
            tracer.wrap(module, attr, name, count)


def instrument(tracer: Tracer, layers: bool) -> None:
    """Install the call-level wrappers, and the layer-level ones if asked."""
    for attr, base in zip(("importance_estimate", "direct_estimate"), ESTIMATORS):
        _wrap_all(tracer, attr, _estimator_name(base), _estimate_count)
    _wrap_all(tracer, "emit_results", "harness.emit", lambda s: len(s.encode("utf-8")))
    _wrap_all(tracer, "tilted_poisson_argmax", lambda a: _t_name("rates.tilted_argmax", a[1]))

    pmf_calls = [0]
    if layers:
        pmf = rates.poisson_exact_log_pmf

        def counted_pmf(*args):
            pmf_calls[0] += 1
            return pmf(*args)

        counted_pmf.__wrapped__ = pmf
        tracer.replace(rates, "poisson_exact_log_pmf", counted_pmf)

    def with_terms(name_of, fn):
        # the span's count is the number of pmf terms the call evaluated
        def counted(*args):
            c0 = pmf_calls[0]
            return fn(*args), pmf_calls[0] - c0

        spanned = tracer.spanned(counted, name_of, lambda out: out[1])

        def wrapper(*args):
            return spanned(*args)[0]

        wrapper.__wrapped__ = fn
        return wrapper

    for attr, name_of in (
        ("marginal_log_prob", lambda a: _t_name("rates.marginal_log_prob", a[3])),
        ("poisson_exact_log_tail", lambda a: _t_name("rates.log_tail", a[2])),
    ):
        for module in MODULES:
            if hasattr(module, attr):
                tracer.replace(module, attr, with_terms(name_of, getattr(module, attr)))
    if not layers:
        return

    block_id = tracer.name_id("process.draw_block")
    setup = tracer.spanned(process.RngStream.generator, "process.stream_setup")

    def traced_generator(self):
        return TracedGenerator(setup(self), tracer, block_id)

    tracer.replace(process.RngStream, "generator", traced_generator)
    jumps = lambda traj: len(traj.jump_signs)  # noqa: E731
    _wrap_all(tracer, "simulate_xi", "process.simulate_xi", jumps)
    _wrap_all(tracer, "simulate_zeta", "process.simulate_zeta", jumps)
    tracer.wrap(weights.EventSpec, "occurs", lambda a: f"weights.event_test.{a[0].kind}", int)
    _wrap_all(tracer, "log_density", "weights.log_density")
    _wrap_all(tracer, "scale_path", "paths.scale_path", lambda f: len(f.values))
    _wrap_all(tracer, "l1_distance", "paths.l1_distance")


SWEEP_SEED = 20_211_209
SWEEP_REPLICAS = 256
# replicas of the sweep's one serial estimator call
SWEEP_ESTIMATE_N = 2048
PMF_CALLS = 4000


def sweep(tracer: Tracer) -> None:
    """Direct serial calls into every layer, traced under pass id 0."""
    tracer.pass_id = 0
    canonical = process.RateModel(kind="canonical", P=1.0, Q=1.0, l=0.0)
    chain = process.RateModel(kind="canonical", P=2.0, Q=1.0, l=0.5)
    exp1 = rates.ScalingFamily.exponential(1.0)
    window = weights.EventSpec.terminal_window(0.0, 0.2)
    center = paths.PiecewiseFunction.linear((0.0, 1.0), (0.0, 0.3))
    long_events = (weights.EventSpec.neighborhood(center, 0.5), weights.EventSpec.level_cross(0.8))

    for r in range(SWEEP_REPLICAS):
        gen = process.RngStream(SWEEP_SEED, r).generator()
        gen.standard_exponential(128).tolist()
        gen.random(128).tolist()
    for r in range(SWEEP_REPLICAS):
        traj = process.simulate_zeta(3.0, process.RngStream(SWEEP_SEED, r))
        window.occurs(traj, 3.0, rates.phi(exp1, 3.0))
        if process.in_path_space(traj):
            weights.log_density(canonical, traj)
    for r in range(SWEEP_REPLICAS // 4):
        traj = process.simulate_xi(chain, 10.0, process.RngStream(SWEEP_SEED, r))
        for event in long_events:
            event.occurs(traj, 10.0, 10.0)

    weights.importance_estimate(
        canonical, 1.0, rates.phi(exp1, 1.0), weights.EventSpec.full_space(),
        SWEEP_ESTIMATE_N, SWEEP_SEED, 0,
    )
    for T in MARGINAL_T:
        rates.marginal_log_prob(1.0, 1.0, exp1, T, 0.5, 0.1)
    rates.poisson_exact_log_tail(1.0, 1.0, 12.0, math.ceil(0.5 * rates.phi(exp1, 12.0)))
    for T in TILTED_T:
        rates.tilted_poisson_argmax(1.0, T, exp1)
    pmf = getattr(rates.poisson_exact_log_pmf, "__wrapped__", rates.poisson_exact_log_pmf)
    token = tracer.open()
    for x in range(PMF_CALLS):
        pmf(1.0, 1.0, 10.0, x)
    tracer.close(tracer.name_id("rates.pmf"), token, PMF_CALLS)
    harness.emit_results(harness.Table(("T", "argmax"), ((10.0, 1),)), "csv")


class Spans:
    """Numpy view of a finished trace with lookups by span name."""

    def __init__(self, tracer: Tracer):
        self.tab = tracer.table()
        self.self_ns = self_ns(self.tab)
        self.dur_ns = self.tab["end_ns"] - self.tab["start_ns"]
        self.names = tracer.names

    def select(self, name: str, prefix: bool = False, sweep: bool | None = None) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if (n.startswith(name) if prefix else n == name)]
        mask = np.isin(self.tab["name"], ids)
        if sweep is True:
            mask &= self.tab["pass_id"] == 0
        elif sweep is False:
            mask &= self.tab["pass_id"] != 0
        return mask

    def source(self, name: str, prefix: bool = False) -> tuple[np.ndarray, str]:
        """Workload spans of a layer, or the sweep's when the workload has none."""
        own = self.select(name, prefix, sweep=False)
        if own.any():
            return own, "workload"
        return self.select(name, prefix, sweep=True), "sweep"

    def pass_counts(self, pass_id: int) -> dict[str, tuple[int, int]]:
        """(spans, summed count) per name within one pass."""
        m = self.tab["pass_id"] == pass_id
        out = {}
        for nid in np.unique(self.tab["name"][m]):
            sel = m & (self.tab["name"] == nid)
            out[self.names[nid]] = (int(sel.sum()), int(self.tab["count"][sel].sum()))
        return out


def per_layer(spans: Spans, setup: dict) -> tuple[dict, dict]:
    """Per-layer metrics as {name: (value, unit)}, and the source of each."""
    out: dict[str, tuple[float, str]] = {}
    src: dict[str, str] = {}
    count, dur, self_time = spans.tab["count"], spans.dur_ns, spans.self_ns

    def layer(name: str, prefix: bool = False) -> tuple[np.ndarray, str]:
        m, where = spans.source(name, prefix)
        if not m.any():
            raise RuntimeError(f"no spans named {name!r}: the sweep no longer reaches it")
        return m, where

    def put(metric: str, value: float, unit: str, where: str) -> None:
        out[metric] = (float(value), unit)
        src[metric] = where

    def mean_time(metric, name, unit="us", prefix=False) -> tuple[np.ndarray, str]:
        m, where = layer(name, prefix)
        put(metric, dur[m].mean() * {"us": 1e-3, "ms": 1e-6}[unit], unit, where)
        return m, where

    mean_time("process.stream_setup_us", "process.stream_setup")
    blocks, _ = mean_time("process.draw_block_us", "process.draw_block")
    sims, where = layer("process.simulate_", prefix=True)
    n_sim = int(sims.sum())
    in_sim = np.isin(spans.tab["parent"][blocks], spans.tab["span_id"][sims])
    put("process.draw_blocks_per_replica", in_sim.sum() / n_sim, "count", where)
    put("process.jumps_per_replica", count[sims].sum() / n_sim, "count", where)
    # simulate minus its stream setup and draw blocks
    put("process.jump_loop_us", self_time[sims].mean() * 1e-3, "us", where)
    mean_time("process.simulate_xi_us", "process.simulate_xi")
    mean_time("process.simulate_zeta_us", "process.simulate_zeta")

    for kind in EVENT_KINDS:
        mean_time(f"weights.event_test_us.{kind}", f"weights.event_test.{kind}")
    mean_time("weights.log_density_us", "weights.log_density")
    # serial calls only (exact names): a ".pooled" call has no children here
    est = spans.select(ESTIMATORS[0]) | spans.select(ESTIMATORS[1])
    own = est & (spans.tab["pass_id"] != 0)
    where = "workload" if own.any() else "sweep"
    est = own if own.any() else est
    n = int((count[est] >> 32).sum())
    put("weights.hit_ratio", (count[est] & 0xFFFFFFFF).sum() / n, "ratio", where)
    put("weights.reduction_us_per_replica", self_time[est].sum() * 1e-3 / n, "us", where)

    m, where = mean_time("paths.scale_path_us", "paths.scale_path")
    put("paths.segments_per_path", count[m].mean(), "count", where)
    mean_time("paths.l1_distance_us", "paths.l1_distance")

    for T in MARGINAL_T:
        m, where = mean_time(
            _t_name("rates.marginal_log_prob_ms", T), _t_name("rates.marginal_log_prob", T), "ms"
        )
        put(_t_name("rates.window_terms", T), count[m].mean(), "count", where)
    m, where = mean_time("rates.log_tail_ms", "rates.log_tail", "ms", prefix=True)
    put("rates.tail_terms", count[m].mean(), "count", where)
    for T in TILTED_T:
        mean_time(_t_name("rates.tilted_argmax_ms", T), _t_name("rates.tilted_argmax", T), "ms")
    m, where = layer("rates.pmf")
    put("rates.pmf_us", dur[m].sum() * 1e-3 / count[m].sum(), "us", where)

    m, where = mean_time("harness.emit_ms", "harness.emit", "ms")
    put("harness.csv_bytes", count[m].mean(), "count", where)
    put("harness.config_load_ms", setup["config_load_ms"], "ms", "setup probe")
    put("cli.import_s", setup["import_s"], "s", "setup probe")
    return out, src
