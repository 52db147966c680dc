"""Fixed-work benchmark of fo2words: one workload per run, one caller, one thread.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: decide-rankers, games-hierarchy, formulas-solver, cli (see README.md).
The run happens in a fresh worker process (worker.py) that imports fo2words
from this checkout's src/, so caches and peak memory never carry over between
runs. Set-up (import plus input generation) is then repeated in five further
fresh processes and its median reported. Every time is scaled to the host's
reference speed (calibrate.py). With --trace 0 the last line of output
holds the end-to-end metrics; with --trace 1 the per-layer metrics of a
separate, traced run. Exits 1 when an output is wrong, 2 when the checkout
has no fo2words to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate
from workloads import CALIBRATION, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5


# str hashes are salted per process unless this is set, and the salt decides
# whether two letters share a slot in a small set: set(text) over {a,b} then
# takes 2-2.5x as long, in about one process in eight. shrink builds such sets
# in a quadratic loop, so its cost would change from run to run. With 0 the
# letters a, b and c fall in distinct slots, as for most salts. The CLI
# commands inherit it.
HASH_SEED = "0"


def _worker(argv: list[str], timeout: float) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT,
                          env=dict(os.environ, PYTHONHASHSEED=HASH_SEED),
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: worker {argv} exited {done.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "fo2words" / "__init__.py").is_file():
        print(f"error: no fo2words package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    run = _worker(argv + ["--trace", str(args.trace)], timeout=150)
    for error in run["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in run["metrics"].items()}
    if not args.trace:
        setups = []
        for _ in range(SETUP_RUNS):
            before = calibrate.sample(CALIBRATION[args.workload])
            setup_s = _worker(argv + ["--setup-only"], timeout=20)["setup_s"]
            setups.append(setup_s / math.sqrt(before * calibrate.sample(CALIBRATION[args.workload])))
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
