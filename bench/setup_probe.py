"""Set-up probe: import bdlab, load a workload's configs, make its first replica or row.

run.py starts this as a child process and reads one JSON line from it:
the monotonic clock when the first replica or row was ready (the parent
subtracts its own clock at spawn, so interpreter start is included),
the import time of bdlab and the config load time.

    python3 bench/setup_probe.py WORKLOAD KEY=CONFIG.json [KEY=CONFIG.json ...]
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = perf_counter()
    from bdlab import harness

    t1 = perf_counter()
    import workloads

    t2 = perf_counter()
    cfgs = {}
    for arg in argv[1:]:
        key, path = arg.split("=", 1)
        cfgs[key] = harness.ExperimentConfig.load(path)
    t3 = perf_counter()
    workloads.first_replica(workloads.WORKLOADS[argv[0]], cfgs)
    ready = perf_counter()
    print(json.dumps({"ready": ready, "import_s": t1 - t0, "config_load_ms": (t3 - t2) * 1e3}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
