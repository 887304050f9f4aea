"""bdlab benchmark: one workload in a closed loop, its metrics and its checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: bdlab is imported from that checkout's
src/, and scratch files go to .bench_out/ in it.  One caller process
runs passes back to back for S seconds (a closed loop); only
pooled_small_T starts workers, at most 2 at a time.  A Monte Carlo
workload run on another seed than the recorded one also makes one pass
on the recorded seed, whose output is pinned bit for bit.  With --trace 0 the
report holds the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  See
README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PROBE_TIMEOUT_S = 60
# Time of the host anchor at the reference host speed, the fast mode of
# the 2-vCPU VM this benchmark was tuned on.  Pass and call times are scaled
# by ANCHOR_REF_MS / (anchor time around the measurement); see README.md.
ANCHOR_REF_MS = 12.0
# Set-up is mostly process start and imports, which the anchor loop does
# not track.  Its own anchor is a child process that imports numpy and
# nothing of bdlab; STARTUP_REF_S is that child's time at the reference
# host speed.
STARTUP_ANCHOR = ("-c", "import numpy")
STARTUP_REF_S = 0.25


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must be a 64-bit unsigned integer")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _import_bdlab() -> None:
    """Import bdlab from this checkout's src/, never from anywhere else."""
    if not (SRC / "bdlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no bdlab sources in {SRC}; run from a bdlab checkout")
    sys.path.insert(0, str(SRC))
    import bdlab

    if Path(bdlab.__file__).resolve().parent != (SRC / "bdlab").resolve():
        raise SystemExit(f"error: imported bdlab from {bdlab.__file__}, not from {SRC}")


def anchor_ms(repeats: int = 8) -> float:
    """Mean time of the host anchor: a fixed loop shaped like bdlab's hot path.

    Each of its 150 replicas seeds a numpy generator through SeedSequence,
    draws one block of 128 exponentials and 128 uniforms, walks a jump
    loop over Python floats and builds tuples, the same mix of work as a
    Monte Carlo replica.  It is written here and never imports bdlab, so
    a change to the package cannot change it; its time measures how fast
    the shared host runs at that moment.  About 0.1 s in all, so that a
    short burst on the host does not decide it.
    """
    import numpy as np

    t0 = perf_counter()
    for _ in range(repeats):
        for r in range(150):
            gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((12345, r))))
            exps = gen.standard_exponential(128).tolist()
            unis = gen.random(128).tolist()
            t, x, jumps = 0.0, 0, []
            for e, u in zip(exps, unis):
                t += e / (1.0 + x)
                if t >= 10.0:
                    break
                x = max(x + (1 if u < 0.6 else -1), 0)
                jumps.append((t, x))
            math.fsum(a * b for a, b in jumps)
    return (perf_counter() - t0) * 1e3 / repeats


def _quantiles(values, n: int) -> list[float]:
    """Cut points of values into n groups, interpolating between samples."""
    return statistics.quantiles(values, n=n, method="inclusive")


class SetupProbes:
    """Set-up time, from child processes started between the passes.

    The host's speed comes in phases of a few seconds, so the probes are
    spread over the measured loop instead of run back to back, and their
    median samples several phases.  One warm-up probe runs first and is
    not counted.  Each probe is bracketed by the start-up anchor, and its
    time is scaled to the reference host speed by their mean.
    """

    def __init__(self, workload_name: str, paths: dict) -> None:
        self.cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload_name]
        self.cmd += [f"{k}={p}" for k, p in paths.items()]
        self.runs: list[tuple[float, float, float, float]] = []
        self._probe()
        self.start(0.0)

    @staticmethod
    def _startup_anchor() -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, *STARTUP_ANCHOR], cwd=ROOT, check=True,
                       timeout=PROBE_TIMEOUT_S)
        return perf_counter() - t0

    def _probe(self) -> tuple[float, float, float, float]:
        before = self._startup_anchor()
        t0 = perf_counter()
        proc = subprocess.run(
            self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        got = json.loads(proc.stdout.splitlines()[-1])
        setup = got["ready"] - t0
        scaled = setup * 2 * STARTUP_REF_S / (before + self._startup_anchor())
        return scaled, setup, got["import_s"], got["config_load_ms"]

    def start(self, seconds: float) -> None:
        """Spread the probes evenly over the next `seconds`."""
        self.t0, self.step = perf_counter(), seconds / SETUP_PROBES

    def between_passes(self) -> float:
        """Run the probes that are due; returns the time they took."""
        t = perf_counter()
        while len(self.runs) < SETUP_PROBES:
            if perf_counter() < self.t0 + len(self.runs) * self.step:
                break
            self.runs.append(self._probe())
        return perf_counter() - t

    def result(self) -> dict:
        while len(self.runs) < SETUP_PROBES:
            self.runs.append(self._probe())
        med = [statistics.median(r[k] for r in self.runs) for k in range(4)]
        raw = [r[1] for r in self.runs]
        return {
            "setup_s": med[0], "import_s": med[2], "config_load_ms": med[3],
            "probes": [{"setup_s": r[0], "raw_s": r[1]} for r in self.runs],
            "note": f"setup_s over {len(raw)} probes: raw median {med[1]:.6g} s, "
            f"range {min(raw):.6g}-{max(raw):.6g} s",
        }


class Runner:
    def __init__(self, args):
        import numpy as np

        from bdlab import harness
        import layers
        import tracer
        import workloads

        self.np, self.harness, self.layers, self.tracer, self.workloads = (
            np, harness, layers, tracer, workloads,
        )
        self.args = args
        self.workload = workloads.WORKLOADS[args.workload]
        self.expected = json.loads((BENCH / "expected.json").read_text())
        self.passes: list[dict] = []
        self.notes: list[str] = []
        self.source: dict[str, str] = {}
        # printed in the report, not part of the result line
        self.report: dict[str, tuple[float, str]] = {}
        self.setup: dict = {}
        self.verdict_failures = 0

    # -- inputs and set-up -------------------------------------------------

    def write_configs(self, workload, seed: int) -> dict[str, Path]:
        d = OUT / "configs" / workload.name
        d.mkdir(parents=True, exist_ok=True)
        paths = {}
        for key, cfg in workload.configs(seed).items():
            paths[key] = d / f"{key}-seed{seed}.json"
            paths[key].write_text(json.dumps(cfg, indent=1) + "\n")
        return paths

    def load(self, paths) -> dict:
        return {k: self.harness.ExperimentConfig.load(str(p)) for k, p in paths.items()}

    # -- the closed loop ---------------------------------------------------

    def run_passes(self, workload, cfgs, seed, tr, t_end, min_passes, kind,
                   probes=None) -> list[dict]:
        """Passes back to back until t_end (perf_counter); each pass's anchor
        is the mean of the anchor times just before and just after it.
        Set-up probes due between passes run there, and t_end moves on by
        the time they took."""
        pass_nid = tr.name_id("pass")
        done = []
        last = 0.0
        anchor = anchor_ms()
        while len(done) < min_passes or perf_counter() + last <= t_end:
            tr.pass_id = len(self.passes) + 1
            token = tr.open()
            t0 = perf_counter()
            try:
                csv, err = workload.run_pass(cfgs), None
            except Exception:  # a failed operation: recorded, the loop goes on
                csv, err = None, traceback.format_exc()
                print(err, file=sys.stderr)
            last = perf_counter() - t0
            tr.close(pass_nid, token)
            before, anchor = anchor, anchor_ms()
            rec = {
                "id": tr.pass_id, "kind": kind, "seed": seed, "wall_s": last, "csv": csv,
                "error": err,
                "scale": 2 * ANCHOR_REF_MS / (before + anchor),
            }
            self.passes.append(rec)
            done.append(rec)
            if probes is not None:
                t_end += probes.between_passes()
        return done

    # -- checks ------------------------------------------------------------

    def check_passes(self) -> None:
        """Mark each pass failed if it raised or its CSV fails a check.

        Every pass on the run's seed, serial reference passes included,
        must emit the same CSV bytes as the first such pass with output.
        """
        good = [p for p in self.passes if p["csv"] is not None]
        verdicts = {
            key: self.workload.check(*key, self.expected)
            for key in {(p["csv"], p["seed"]) for p in good}
        }
        first = next((p for p in good if p["seed"] == self.args.seed), None)
        for p in self.passes:
            if p["csv"] is None:
                p["failed"] = ["raised " + p["error"].strip().splitlines()[-1]]
                continue
            p["failed"] = list(verdicts[p["csv"], p["seed"]])
            if p["seed"] == self.args.seed and p["csv"] != first["csv"]:
                p["failed"].append(f"CSV differs from the CSV of pass {first['id']}")

    @staticmethod
    def flags(passes) -> list[str]:
        """Verdict flags (the last CSV column) of the first pass with output."""
        for p in passes:
            if p["csv"] is not None:
                return [ln.rsplit(",", 1)[-1] for ln in p["csv"].splitlines()[1:]]
        return []

    # -- end-to-end metrics ------------------------------------------------

    def end_to_end(self, spans, measured, setup) -> dict:
        np, L = self.np, self.layers
        ok = [p for p in measured if p["csv"] is not None]
        if not ok:
            raise SystemExit("error: every pass raised; nothing to measure")
        scale = {p["id"]: p["scale"] for p in ok}
        in_pass = np.isin(spans.tab["pass_id"], list(scale))
        calls = np.zeros_like(in_pass)
        for name in L.CALL_NAMES:
            calls |= in_pass & spans.select(name, prefix=True)
        # span durations at the reference host speed
        dur = spans.dur_ns * np.array([scale.get(int(i), 0.0) for i in spans.tab["pass_id"]])
        # every pass makes the same calls in the same order: the latency of
        # call k is its median over the passes, and the percentiles are
        # taken over those per-call medians, so they do not depend on how
        # many passes fit in the run
        order = np.lexsort((spans.tab["start_ns"][calls], spans.tab["pass_id"][calls]))
        per_pass = dur[calls][order].reshape(len(ok), -1) * 1e-6
        lat_ms = np.median(per_pass, axis=0).tolist()
        est = calls & spans.select("weights.", prefix=True)
        if est.any():
            ops_per_s = int((spans.tab["count"][est] >> 32).sum()) / (dur[est].sum() * 1e-9)
            op = "replicas"
        else:
            ops_per_s = int(calls.sum()) / (dur[calls].sum() * 1e-9)
            op = "exact-law calls"
        raw = [p["wall_s"] for p in ok]
        walls = [p["wall_s"] * p["scale"] for p in ok]
        self.notes.append(
            f"{len(ok)} passes; raw wall median {statistics.median(raw):.6g} s, quartiles "
            + ", ".join(f"{q:.6g}" for q in _quantiles(raw, 4))
            + f" s; host speed factor median {statistics.median(p['scale'] for p in ok):.4g}"
        )
        self.notes.append(
            f"{per_pass.size} calls timed ({per_pass.shape[1]} per pass); ops are {op}"
        )
        return {
            "wall_s": (statistics.median(walls), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "call_p50_ms": (statistics.median(lat_ms), "ms"),
            "call_p90_ms": (_quantiles(lat_ms, 10)[-1], "ms"),
            "setup_s": (setup["setup_s"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    # -- the run -----------------------------------------------------------

    def run(self) -> dict:
        a, L, T, W = self.args, self.layers, self.tracer, self.workloads
        paths = self.write_configs(self.workload, a.seed)
        probes = SetupProbes(self.workload.name, paths)
        cfgs = self.load(paths)
        tr = T.Tracer()
        L.instrument(tr, layers=False)
        if self.workload.seeded and a.seed != W.RECORDED_SEED:
            # every output bit on the recorded seed is pinned in
            # expected.json; the checks on other seeds are statistical
            rec = W.RECORDED_SEED
            rec_cfgs = self.load(self.write_configs(self.workload, rec))
            self.run_passes(self.workload, rec_cfgs, rec, tr, 0.0, 1, "recorded seed")
        budget = a.seconds / 2 if a.trace else a.seconds
        t_end = perf_counter() + budget
        probes.start(budget)
        measured = self.run_passes(
            self.workload, cfgs, a.seed, tr, t_end, MIN_PASSES, "untraced", probes
        )
        setup = self.setup = probes.result()
        self.notes.append(setup["note"])
        serial = []
        if self.workload.name == "pooled_small_T":
            # the serial workload on the same inputs: check_passes requires
            # its CSV to equal the pooled one byte for byte
            ref = W.WORKLOADS["importance_small_T"]
            ref_cfgs = self.load(self.write_configs(ref, a.seed))
            serial = self.run_passes(ref, ref_cfgs, a.seed, tr, 0.0, 2 if a.trace else 1, "serial")
        tr.uninstall()
        if a.trace:
            traced_tr = T.Tracer()
            L.instrument(traced_tr, layers=True)
            t_end = perf_counter() + a.seconds / 2
            traced = self.run_passes(
                self.workload, cfgs, a.seed, traced_tr, t_end, MIN_TRACED_PASSES, "traced"
            )
            L.sweep(traced_tr)
            traced_tr.uninstall()
        self.check_passes()
        self.verdict_failures = sum(1 for f in self.flags(measured) if f.endswith("_fail"))
        if not a.trace:
            return self.end_to_end(L.Spans(tr), measured, setup)
        return self.per_layer(
            L.Spans(tr), L.Spans(traced_tr), traced_tr, measured, serial, traced, setup
        )

    # -- per-layer metrics -------------------------------------------------

    def per_layer(self, calls, spans, traced_tr, untraced, serial, traced, setup):
        L, T = self.layers, self.tracer
        metrics, self.source = L.per_layer(spans, setup)

        # counts must repeat exactly across the passes of one seed
        counts = [spans.pass_counts(p["id"]) for p in traced]
        diff = sorted(k for k in counts[0] if any(c.get(k) != counts[0][k] for c in counts))
        bad = T.nesting_errors(spans.tab)
        for p in traced:
            if diff:
                p["failed"].append(f"counts differ between traced passes: {diff}")
            if bad:
                p["failed"].append(f"{bad} spans lie outside their parent or overlap a sibling")

        overhead = _scaled_wall(traced) - _scaled_wall(untraced)
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["weights.verdicts_failed"] = (float(self.verdict_failures), "count")
        self.source["trace.overhead_s"] = self.source["weights.verdicts_failed"] = "workload"
        self.pool(calls, untraced, serial)
        self.ledger(spans, traced)
        self.account(calls, spans, untraced, traced, overhead)
        path = OUT / f"trace-{self.workload.name}.npz"
        self.np.savez_compressed(
            path, names=self.np.array(traced_tr.names), self_ns=spans.self_ns, **spans.tab
        )
        self.notes.append(f"spans written to {path.relative_to(ROOT)}")
        return metrics

    def pool(self, calls, untraced, serial) -> None:
        """Pool metrics from the untraced pooled and serial passes.

        Only pooled_small_T starts a process pool, so they are printed in
        its report and are not among the per-layer metrics of every run.
        """
        if not serial:
            self.notes.append(
                "weights.pool_dispatch_s and weights.pool_efficiency not measured: "
                "this workload starts no process pool"
            )
            return
        serial_s, pooled_s = _scaled_wall(serial), _scaled_wall(untraced)
        first = calls.tab["pass_id"] == untraced[0]["id"]
        n_calls = int((first & calls.select("weights.", prefix=True)).sum())
        self.report["weights.pool_dispatch_s"] = ((pooled_s - serial_s / 2.0) / n_calls, "s")
        self.report["weights.pool_efficiency"] = (serial_s / (2.0 * pooled_s), "ratio")

    def ledger(self, spans, traced) -> None:
        """Self time per span name over the traced passes."""
        np = self.np
        m = np.isin(spans.tab["pass_id"], [p["id"] for p in traced])
        total = {}
        for nid in np.unique(spans.tab["name"][m]):
            sel = m & (spans.tab["name"] == nid)
            total[spans.names[nid]] = (
                float(spans.self_ns[sel].sum()) * 1e-9 / len(traced), int(sel.sum()) // len(traced)
            )
        whole = sum(v[0] for v in total.values())
        self.notes.append("self time per traced pass (s), share of it, spans per pass:")
        for name, (s, n) in sorted(total.items(), key=lambda kv: -kv[1][0]):
            self.notes.append(f"  {name:<40} {s:10.6f} {s / whole:7.2%} {n:9d}")

    def account(self, calls, spans, untraced, traced, overhead) -> None:
        """Check that the traced self times account for the untraced wall.

        A pass's self time is the part of it outside bdlab's calls.  The
        layer wrappers all sit inside those calls, so the traced self
        times below the pass span, less the tracing overhead, must come
        back to the time the untraced passes spent inside the calls: the
        residual is the change of the time outside them.  The traced
        passes fail when it exceeds the overhead, say when a layer's
        calls are made outside the call-level spans or when tracing
        changes the work of a pass.  Times are at reference host speed.
        """
        def inside(sp, passes) -> float:
            """Median over passes of the time inside the pass's child spans."""
            values = []
            for p in passes:
                root = (sp.tab["pass_id"] == p["id"]) & (sp.tab["parent"] == 0)
                values.append(float((sp.dur_ns[root] - sp.self_ns[root]).sum()) * p["scale"] * 1e-9)
            return statistics.median(values)

        u_in, t_in = inside(calls, untraced), inside(spans, traced)
        residual = t_in - overhead - u_in
        ok = abs(residual) <= abs(overhead)
        self.notes.append(
            f"accounting: traced self time below the pass {t_in:.6f} s - tracing overhead "
            f"{overhead:.6f} s = {t_in - overhead:.6f} s against {u_in:.6f} s untraced inside "
            f"calls of an untraced wall {_scaled_wall(untraced):.6f} s; residual {residual:+.6f} s "
            f"({'within' if ok else 'OUTSIDE'} the overhead)"
        )
        if not ok:
            for p in traced:
                p["failed"].append(
                    f"traced self times miss the untraced wall by {residual:+.6f} s, "
                    f"more than the tracing overhead {overhead:.6f} s"
                )


def _scaled_wall(passes) -> float:
    """Median pass wall at the reference host speed."""
    return statistics.median(p["wall_s"] * p["scale"] for p in passes)


def _env(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
        "anchor_ms": anchor_ms(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _import_bdlab()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = _env(args)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    runner = Runner(args)
    metrics = runner.run()
    env["loadavg_end"] = os.getloadavg()
    env["anchor_ms_end"] = anchor_ms()
    print(f"# end: loadavg={env['loadavg_end']} anchor_ms={env['anchor_ms_end']:.4g}")

    failed = sum(1 for p in runner.passes if p["failed"])
    attempted = len(runner.passes)
    for p in runner.passes:
        for msg in p["failed"]:
            print(f"FAILED pass {p['id']} ({p['kind']}): {msg}")
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} passes)")
    if args.trace == 0:
        print(f"verdict flags not ok: {runner.verdict_failures} (statistical; see README.md)")
    for name, (value, unit) in metrics.items():
        tag = f"  [{runner.source[name]}]" if name in runner.source else ""
        print(f"{name:<44} {value:.6g} {unit}{tag}")
    for name, (value, unit) in runner.report.items():
        print(f"{name:<44} {value:.6g} {unit}  [report only]")
    if args.trace == 0:
        # the same numbers under the other names README.md gives them
        if args.workload == "exact_law_scan":
            for q in ("p50", "p90"):
                print(f"{'exact_call_' + q + '_ms':<44} {metrics['call_' + q + '_ms'][0]:.6g} ms")
        else:
            print(f"{'replicas_per_s':<44} {metrics['ops_per_s'][0]:.6g} 1/s")
    for line in runner.notes:
        print("# " + line)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, env=env, passes=[
        {k: p[k] for k in ("id", "kind", "wall_s", "scale", "failed")} for p in runner.passes
    ], setup_probes=runner.setup["probes"])
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
