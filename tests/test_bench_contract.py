"""The names and signatures the benchmark's traced runs rely on.

A traced run of bench/run.py wraps bdlab's public functions by name,
sweeps every layer once, and builds its per-layer metrics from the
spans; it fails when a wrapped name is gone, when a sweep call no longer
fits its signature, or when the spans of two traced passes differ or
nest badly.  These tests run that machinery in process on small inputs
(bench/ is read, never changed), and check that serial runs never load
the process-pool modules.
"""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from bdlab import harness, process, weights
from bdlab.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import layers  # noqa: E402
import tracer  # noqa: E402

# per-layer metrics that bench/run.py adds itself, outside layers.per_layer
RUN_METRICS = {"trace.overhead_s", "weights.verdicts_failed"}


def _attributes() -> dict:
    """Every attribute the wrappers may replace, by (owner, name)."""
    owners = (*layers.MODULES, process.RngStream, weights.EventSpec)
    return {(owner, k): v for owner in owners for k, v in vars(owner).items()}


def test_layer_sweep_reaches_every_per_layer_metric():
    before = _attributes()
    tr = tracer.Tracer()
    layers.instrument(tr, layers=True)
    try:
        layers.sweep(tr)
    finally:
        tr.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    metrics, source = layers.per_layer(layers.Spans(tr), {"config_load_ms": 0.0, "import_s": 0.0})
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    want = {m["name"] for m in declared} - RUN_METRICS
    assert want <= metrics.keys()
    assert all(math.isfinite(metrics[name][0]) for name in want)
    assert source.keys() == metrics.keys()


def test_traced_pooled_passes_repeat_their_spans(no_pool):
    cfg = ExperimentConfig.from_dict(
        {
            "model": {"kind": "canonical", "P": 1.0, "Q": 1.0, "l": 0.0},
            "scaling": {"family": "exponential", "k": 1.0},
            "t_grid": [1.0],
            "samples": 8192,
            "event": {"kind": "terminal_window", "lo": 0.0, "hi": 0.2},
            "seed": 3,
            "threads": 2,
        }
    )
    tr = tracer.Tracer()
    layers.instrument(tr, layers=True)
    pass_name = tr.name_id("pass")
    try:
        for pass_id in (1, 2):
            tr.pass_id = pass_id
            token = tr.open()
            # as bench/run.py does, call through the module attribute
            harness.emit_results(harness.run_consistency_check(cfg), "csv")
            tr.close(pass_name, token)
    finally:
        tr.uninstall()
    spans = layers.Spans(tr)
    first = spans.pass_counts(1)
    assert "weights.importance_estimate.pooled" in first
    assert spans.pass_counts(2) == first
    assert tracer.nesting_errors(spans.tab) == 0


SERIAL_THEN_POOLED = textwrap.dedent(
    """
    import ctypes
    import sys

    import bdlab.cli
    import bdlab.weights

    # hold bdlab.weights past the collection pass of interpreter exit, as
    # a live test session does: it is then torn down after the later
    # imported pool modules, with its pool still alive unless dropped
    ctypes.pythonapi.Py_IncRef(ctypes.py_object(bdlab.weights))
    from bdlab.harness import ExperimentConfig, run_marginal_ldp_scan
    from bdlab.process import RateModel
    from bdlab.weights import EventSpec, importance_estimate

    model = RateModel(kind="canonical", P=1.0, Q=1.0, l=0.0)
    window = EventSpec.terminal_window(0.0, 0.5)
    serial = importance_estimate(model, 1.0, 2.0, window, 8192, 3, 0)
    run_marginal_ldp_scan(ExperimentConfig.from_dict({
        "model": {"kind": "canonical", "P": 1.0, "Q": 1.0, "l": 0.0},
        "scaling": {"family": "exponential", "k": 1.0},
        "t_grid": [5.0, 6.0], "samples": 1, "seed": 1, "a": 0.5, "eps": 0.1,
    }))
    loaded = [m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules]
    assert loaded == [], loaded
    assert importance_estimate(model, 1.0, 2.0, window, 8192, 3, 2) == serial
    assert "concurrent.futures.process" in sys.modules
    """
)


def test_serial_runs_never_import_the_pool():
    """Serial estimates and exact scans leave the pool's modules unloaded;
    the first pooled call loads them and returns the serial result, and
    the process exits with its pool alive and writes nothing to stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, "-c", SERIAL_THEN_POOLED], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")

