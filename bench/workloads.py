"""The benchmark's workloads: inputs made from a seed, one pass, and its checks.

A pass is one time-to-verified-result: it calls bdlab's public run and
estimator functions on the generated configs and returns the emitted
CSV.  Every call goes through a module attribute looked up at call
time, so the wrappers of trace.py see it.  Checks compare a pass's CSV
with values recorded in expected.json and with what the exact law says;
they return one message per failed check.
"""

from __future__ import annotations

import hashlib
import math

from bdlab import harness, process, rates, weights

# Seed whose CSV digests and verdict flags are pinned in expected.json.
RECORDED_SEED = 0

CANONICAL = {"kind": "canonical", "P": 1.0, "Q": 1.0, "l": 0.0}
EXP1 = {"family": "exponential", "k": 1.0}

# Both small-T workloads: zeta paths of 1-3 jumps, so fixed per-replica
# costs dominate.  8192 samples make two 4096-replica chunks, the least
# that sends an estimator call to the process pool.
SMALL_T = {
    "model": CANONICAL,
    "scaling": EXP1,
    "t_grid": [1.0, 2.0, 3.0],
    "samples": 8192,
    "event": {"kind": "terminal_window", "lo": 0.0, "hi": 0.2},
}

# No closed form (l > 0); about 60 jumps per replica on [0, 10].
LONG_PATH = {
    "model": {"kind": "canonical", "P": 2.0, "Q": 1.0, "l": 0.5},
    "scaling": {"family": "poly", "alpha": 1.0},
    "t_grid": [10.0],
    "samples": 2048,
    "event": {
        "kind": "neighborhood",
        "eps": 0.5,
        "profile": {"mode": "linear", "points": [[0.0, 0.0], [1.0, 0.3]]},
    },
    "a": 0.8,
}

EXACT = {
    "marginal_exp": {
        "model": CANONICAL,
        "scaling": EXP1,
        "t_grid": [float(T) for T in range(5, 15)],
        "samples": 1,
        "a": 0.5,
        "eps": 0.1,
    },
    # the shipped super-exponential grid
    "marginal_superexp": {
        "model": CANONICAL,
        "scaling": {"family": "superexp", "k": 1.0, "beta": 2.0},
        "t_grid": [1.5, 2.0, 2.5],
        "samples": 1,
        "a": 0.5,
        "eps": 0.1,
    },
    "level_cross": {
        "model": CANONICAL,
        "scaling": EXP1,
        "t_grid": [6.0, 9.0, 12.0],
        "samples": 1,
        "a": 0.5,
    },
}
TILTED_C = 1.0
TILTED_T = [float(T) for T in range(3, 11)]

# Verdict thresholds of harness.run_consistency_check, recomputed here.
AGREE_Z = 3.0
NORMALIZATION_SE = 4.0
# Tolerance, in binomial standard errors, of a direct estimate against
# its reference probability.
DIRECT_SIGMAS = 5.0


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    name = ""
    # first simulated replica for the set-up probe: "zeta", "xi" or None
    first = None
    # whether the output depends on the seed, so that a run on another
    # seed also makes one pass on RECORDED_SEED to check its digest
    seeded = True

    def configs(self, seed: int) -> dict[str, dict]:
        """Config files (as dicts) that this workload loads, made from seed."""
        raise NotImplementedError

    def run_pass(self, cfgs: dict) -> str:
        """One pass over the loaded configs; returns the CSV it emits."""
        raise NotImplementedError

    def check(self, csv: str, seed: int, expected: dict) -> list[str]:
        return []


def _rows(csv: str) -> list[list[str]]:
    return [ln.split(",") for ln in csv.splitlines()[1:] if ln]


def _flags(csv: str) -> list[str]:
    return [r[-1] for r in _rows(csv)]


def _p(log_prob: str) -> float:
    return 0.0 if log_prob == "-inf" else math.exp(float(log_prob))


class ImportanceSmallT(Workload):
    name = "importance_small_T"
    first = "zeta"
    threads = 0

    def configs(self, seed):
        return {"consistency": dict(SMALL_T, seed=seed, threads=self.threads)}

    def run_pass(self, cfgs):
        table = harness.run_consistency_check(cfgs["consistency"])
        return harness.emit_results(table, "csv")

    def check(self, csv, seed, expected):
        errors = []
        rows = _rows(csv)
        if len(rows) != 9:
            return [f"expected 9 rows, got {len(rows)}"]
        n = SMALL_T["samples"]
        for i in range(0, 9, 3):
            full, direct, imp = rows[i : i + 3]
            T = full[0]
            # full space: the exact value is 1, verdict is |log| <= 4 rel_se
            ok = abs(float(full[3])) <= NORMALIZATION_SE * float(full[6])
            if full[-1].endswith("_ok") != ok:
                errors.append(f"T={T}: normalization flag disagrees with its row")
            # the flag's z must be agreement_z of the two rows
            p1, p2 = _p(direct[3]), _p(imp[3])
            se1 = p1 * float(direct[6]) if int(direct[7]) else 0.0
            se2 = p2 * float(imp[6]) if int(imp[7]) else 0.0
            den = math.hypot(se1, se2)
            z = abs(p1 - p2) / den if den else (0.0 if p1 == p2 else math.inf)
            for row in (direct, imp):
                if f"z={z:.2f};" not in row[-1] or row[-1].endswith("agree_ok") != (z <= AGREE_Z):
                    errors.append(f"T={T}: agreement flag {row[-1]!r} disagrees with z={z:.4f}")
            # the exact reference column is seed-free and pinned bit for bit
            want = expected["small_T_exact_predicted"][T]
            for row in (direct, imp):
                if row[5] != want:
                    errors.append(f"T={T}: exact reference {row[5]} != recorded {want}")
            # the direct estimator is binomial: it must sit near the exact law
            p_exact = math.exp(float(want) * float(full[2]))
            sd = math.sqrt(p_exact * (1.0 - p_exact) / n)
            if abs(p1 - p_exact) > DIRECT_SIGMAS * sd + 1.0 / n:
                errors.append(f"T={T}: direct estimate {p1} is off the exact law {p_exact}")
        if seed == RECORDED_SEED:
            bad = [f for f in _flags(csv) if not f.endswith("_ok")]
            if bad:
                errors.append(f"verdicts on the recorded seed not ok: {bad}")
            if sha256(csv) != expected["digests"]["small_T"]:
                errors.append("CSV digest differs from the recorded one")
        return errors


class PooledSmallT(ImportanceSmallT):
    name = "pooled_small_T"
    threads = 2


class DirectLongPath(Workload):
    name = "direct_long_path"
    first = "xi"

    def configs(self, seed):
        return {"long_path": dict(LONG_PATH, seed=seed)}

    def run_pass(self, cfgs):
        cfg = cfgs["long_path"]
        T = cfg.t_grid[0]
        p = rates.phi(cfg.scaling, T)
        psi = rates.normalizer(cfg.scaling, T)
        events = (
            (cfg.event, -rates.rate_sub(cfg.event.center, cfg.model.Q)),
            (weights.EventSpec.level_cross(cfg.a), -rates.level_crossing_rate(cfg.a, cfg.model.l)),
        )
        rows = []
        for event, predicted in events:
            est = weights.direct_estimate(cfg.model, T, p, event, cfg.samples[0], cfg.seed)
            rows.append(
                harness.ResultRow(
                    T=T,
                    phi=p,
                    psi=psi,
                    log_prob=est.log_value,
                    normalized=est.log_value / psi if est.n_hits else -math.inf,
                    predicted=predicted,
                    rel_se=est.relative_std_error,
                    n_hits=est.n_hits,
                    max_weight_share=est.max_weight_share,
                    flag=f"event={event.kind};method=direct",
                ).astuple()
            )
        table = harness.Table(columns=harness.RESULT_COLUMNS, rows=tuple(rows))
        return harness.emit_results(table, "csv")

    def check(self, csv, seed, expected):
        errors = []
        rows = _rows(csv)
        if len(rows) != 2:
            return [f"expected 2 rows, got {len(rows)}"]
        n = LONG_PATH["samples"]
        for row in rows:
            kind = row[-1].split(";")[0].split("=")[1]
            ref = expected["long_path_reference"][kind]
            p_hat = int(row[7]) / n
            if abs(_p(row[3]) - p_hat) > 1e-12:
                errors.append(f"{kind}: log_prob does not match n_hits/n")
            # binomial spread at n plus the reference's own standard error
            sd = math.sqrt(ref["p"] * (1.0 - ref["p"]) / n)
            if abs(p_hat - ref["p"]) > DIRECT_SIGMAS * (sd + ref["se"]) + 1.0 / n:
                errors.append(f"{kind}: estimate {p_hat} is off the reference {ref['p']}")
        if seed == RECORDED_SEED and sha256(csv) != expected["digests"]["long_path"]:
            errors.append("CSV digest differs from the recorded one")
        return errors


class ExactLawScan(Workload):
    name = "exact_law_scan"
    seeded = False

    def configs(self, seed):
        # no random draws: the seed only fills the required config key
        return {k: dict(v, seed=seed) for k, v in EXACT.items()}

    def run_pass(self, cfgs):
        parts = [
            harness.emit_results(harness.run_marginal_ldp_scan(cfgs["marginal_exp"]), "csv"),
            harness.emit_results(harness.run_marginal_ldp_scan(cfgs["marginal_superexp"]), "csv"),
            harness.emit_results(harness.run_level_cross_scan(cfgs["level_cross"]), "csv"),
        ]
        family = cfgs["marginal_exp"].scaling
        rows = tuple(
            (TILTED_C, T, rates.tilted_poisson_argmax(TILTED_C, T, family)) for T in TILTED_T
        )
        parts.append(harness.emit_results(harness.Table(("C", "T", "argmax"), rows), "csv"))
        return "".join(parts)

    def check(self, csv, seed, expected):
        want = expected["exact_law_scan_csv"]
        got = csv.splitlines()
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return [f"exact row {i} differs: {g!r} != recorded {w!r}"]
        if len(got) != len(want):
            return [f"exact table has {len(got)} lines, recorded {len(want)}"]
        return []


WORKLOADS = {
    w.name: w for w in (ImportanceSmallT(), PooledSmallT(), DirectLongPath(), ExactLawScan())
}


def first_replica(workload: Workload, cfgs: dict) -> None:
    """The first replica or row a workload produces, for the set-up probe."""
    if workload.first == "zeta":
        cfg = cfgs["consistency"]
        process.simulate_zeta(cfg.t_grid[0], process.RngStream(cfg.seed, 0))
    elif workload.first == "xi":
        cfg = cfgs["long_path"]
        process.simulate_xi(cfg.model, cfg.t_grid[0], process.RngStream(cfg.seed, 0))
    else:
        cfg = cfgs["marginal_exp"]
        rates.marginal_log_prob(
            cfg.model.P, cfg.model.Q, cfg.scaling, cfg.t_grid[0], cfg.a, cfg.eps
        )
