"""One run of one workload in a fresh process: set-up, the timed operations,
then the check of every output. Prints one JSON object as its last line.

Started by run.py; ``--setup-only`` stops after set-up and reports its time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import selftest
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _probe(argv: list[str], env: dict, runs: int = 5) -> tuple[list[float], list[str]]:
    """Run a small python command `runs` times; return the wall time and the stdout of each run."""
    walls, outs = [], []
    for _ in range(runs):
        t = time.perf_counter()
        done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        walls.append(time.perf_counter() - t)
        if done.returncode != 0:
            raise RuntimeError(f"probe {argv} failed: {done.stderr}")
        outs.append(done.stdout.strip())
    return walls, outs


def cli_probes() -> dict:
    """Interpreter start and `import fo2words.cli` in fresh processes, as the CLI pays them."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    walls, _ = _probe(["-c", "pass"], env)
    _, outs = _probe(
        ["-c", "import time; t = time.perf_counter(); import fo2words.cli; print(time.perf_counter() - t)"], env)
    return {
        "cli.interpreter_s": (statistics.median(walls), "s"),
        "cli.import_s": (statistics.median(float(o) for o in outs), "s"),
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    # set-up: import fo2words from this checkout and generate the inputs
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import fo2words as api

    if not Path(api.__file__).resolve().is_relative_to(ROOT):
        print(f"error: imported fo2words from {api.__file__}, outside {ROOT}", file=sys.stderr)
        return 2
    workdir = ROOT / "perfbench" / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, args.seconds, api, ROOT, workdir, bool(args.trace))
        if args.setup_only:
            print(json.dumps({"setup_s": time.perf_counter() - start}))
            return 0
        return _measure(args, api, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, api, ops) -> int:
    selftest.run(api)
    if args.workload == "cli" and not args.trace:
        # the CLI subprocesses must import this checkout too
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        _, outs = _probe(["-c", "import fo2words; print(fo2words.__file__)"], env, runs=1)
        if not Path(outs[0]).resolve().is_relative_to(ROOT):
            print(f"error: CLI imports fo2words from {outs[0]}", file=sys.stderr)
            return 2
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(api)

    # untraced runs sample the host's speed between operations (calibrate.py)
    clock = None if tracer else calibrate.Clock(workloads.CALIBRATION[args.workload])
    results, timings, errors = [], [], []
    failed = 0
    for i, op in enumerate(ops):
        span = tracer.request_span(i, op.kind) if tracer else contextlib.nullcontext()
        token = clock.before() if clock else 0
        t = time.perf_counter()
        try:
            with span:
                result = op.run()
        except Exception as e:  # every operation is attempted; a failure is counted and reported
            timings.append((time.perf_counter() - t, token, False))
            failed += 1
            results.append(None)
            if type(e).__name__ != op.fault:
                errors.append(f"{op.kind}: {type(e).__name__}: {e}")
            continue
        timings.append((time.perf_counter() - t, token, True))
        results.append((result,))  # wrapped, so that a None result is not taken for a failure
    if clock:
        clock.close()

    if tracer:
        with tracer.request_span(len(ops), "layer-probe"):
            workloads.layer_probe(api)
        tracer.uninstall()  # the checks below are not part of the traced work
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" and not args.trace else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss * 1024 / 1e6

    for op, result in zip(ops, results):
        if result is None:
            continue
        try:
            op.check(result[0])
        except Exception as e:  # a wrong or malformed output fails the run, whatever its form
            errors.append(f"{op.kind}: {type(e).__name__}: {e}")
            if len(errors) == 1:
                traceback.print_exc(file=sys.stderr)

    out = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": failed,
        "errors": errors[:10],
    }
    if clock:
        scaled = [(clock.scale(dt, token), ok) for dt, token, ok in timings]
        latencies = [dt for dt, ok in scaled if ok]
        out["metrics"] = {
            "ops_per_s": ((len(ops) - failed) / sum(dt for dt, _ in scaled), "ops/s"),
            "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "op_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1000, "ms"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        wall = sum(dt for dt, _, _ in timings)
        print(f"unscaled ops_per_s {(len(ops) - failed) / wall:.4g}, host slowdown median "
              f"{statistics.median(clock.factors):.3f} over {len(clock.factors)} samples", file=sys.stderr)
    else:
        out["metrics"] = {**tracer.metrics(), **cli_probes()}
        trace_file = ROOT / "perfbench" / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.dump()))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
