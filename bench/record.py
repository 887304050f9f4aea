"""Write expected.json: the values the benchmark's correctness checks pin.

    python3 bench/record.py

Records the exact_law_scan CSV, the seed-free exact reference column of
the small-T tables, the CSV digests of the MC workloads on
workloads.RECORDED_SEED, and reference probabilities for the two
direct_long_path events from REFERENCE_N replicas on a seed no run
uses.  Rerun only when the program's output is meant to change, and say
why where the change is recorded.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from bdlab import harness, rates, weights  # noqa: E402

import workloads as W  # noqa: E402

REFERENCE_N = 1 << 17
REFERENCE_SEED = 2**63 + 12_345


def _load(workload, seed):
    return {
        k: harness.ExperimentConfig.from_dict(d) for k, d in workload.configs(seed).items()
    }


def main() -> int:
    small = W.WORKLOADS["importance_small_T"]
    small_csv = small.run_pass(_load(small, W.RECORDED_SEED))
    rows = [ln.split(",") for ln in small_csv.splitlines()[1:]]
    exact_ref = {r[0]: r[5] for r in rows if "ref=exact" in r[-1]}

    long_path = W.WORKLOADS["direct_long_path"]
    long_csv = long_path.run_pass(_load(long_path, W.RECORDED_SEED))

    exact = W.WORKLOADS["exact_law_scan"]
    exact_csv = exact.run_pass(_load(exact, W.RECORDED_SEED))

    cfg = _load(long_path, REFERENCE_SEED)["long_path"]
    T = cfg.t_grid[0]
    p = rates.phi(cfg.scaling, T)
    reference = {}
    for event in (cfg.event, weights.EventSpec.level_cross(cfg.a)):
        est = weights.direct_estimate(cfg.model, T, p, event, REFERENCE_N, REFERENCE_SEED, 2)
        q = est.n_hits / REFERENCE_N
        reference[event.kind] = {"p": q, "se": math.sqrt(q * (1.0 - q) / REFERENCE_N)}

    expected = {
        "recorded_seed": W.RECORDED_SEED,
        "digests": {"small_T": W.sha256(small_csv), "long_path": W.sha256(long_csv)},
        "small_T_exact_predicted": exact_ref,
        "long_path_reference": dict(reference, n=REFERENCE_N, seed=REFERENCE_SEED),
        "exact_law_scan_csv": exact_csv.splitlines(),
    }
    (BENCH / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
