"""Benchmark of promptrefine: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see ``workloads.py``):

    train_prompt    training.train_on_datasets on bench-A data, 2 epochs a unit
    train_baseline  baseline.train_baseline, 45 epochs a unit
    gradcheck       cli.main(["gradcheck", ...]) on a small standard-path model

The set-up child process runs SETUP_REPEATS times; ``setup_s`` is the
median of its wall times, from process start to exit, so interpreter
start and package import count as set-up.  A fresh measuring process then
runs units for S seconds.  With ``--trace 0`` the last line of standard
output holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics from a run that alternates untraced and traced units.
The line before it is a JSON detail record: the environment, each
timing's median, tail percentile and sample count, each share's base, and
the checks that failed.  Scratch files go under ``.bench_work/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("train_prompt", "train_baseline", "gradcheck")
SETUP_REPEATS = 5
TIME_LIMIT_S = 170        # the whole run, set-up included
# One thread for BLAS: with the interpreter's own thread the measuring
# process stays within the machine's cores, and results stay bitwise stable.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}


class BenchError(RuntimeError):
    pass


def child(args: list, deadline: float) -> tuple[dict, float]:
    """Run child.py to completion; return its last stdout line and wall time."""
    env = dict(os.environ, **CHILD_ENV)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[:2]} did not finish in time") from exc
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args[:2]} exited with {proc.returncode}")
    return json.loads(lines[-1]), wall


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    deadline = time.monotonic() + TIME_LIMIT_S
    WORK.mkdir(exist_ok=True)
    inputs = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(inputs, ignore_errors=True)
            setups.append(child(["setup", workload, str(seed), str(inputs)], deadline))
        manifests = [m for m, _ in setups]
        checks = []
        if any(m["digests"] != manifests[0]["digests"] for m in manifests):
            checks.append("set-up wrote different inputs on repeats at one seed")
        timings = {key: statistics.median(mf["timings"][key] for mf in manifests)
                   for key in manifests[-1]["timings"]}
        (inputs / "manifest.json").write_text(json.dumps(dict(manifests[-1], timings=timings)))
        m, _ = child(["measure", workload, str(seed), str(inputs), str(seconds),
                      "1" if trace else "0", str(WORK / f"spans-{workload}.json")], deadline)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    setup_s = statistics.median(wall for _, wall in setups)
    checks += [f"unit {f['unit']}: {'; '.join(f['problems'])}" for f in m["failures"]]
    failed = m["failed"]
    result = {"correct": not checks and failed == 0, "attempted": m["attempted"],
              "failed": failed}
    if trace:
        result["metrics"] = m["per_layer"]
    else:
        result["metrics"] = {
            "items_per_s": {"value": m["items_per_s"], "unit": "items/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": m["peak_rss_mb"], "unit": "MiB"},
        }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": dict(m["env"], nproc=len(os.sched_getaffinity(0)),
                    blas_threads=CHILD_ENV["OPENBLAS_NUM_THREADS"]),
        "setup": {"wall_s": [wall for _, wall in setups],
                  "timings": [mf["timings"] for mf in manifests]},
        "items_per_unit": m["items_per_unit"],
        "unit_ms": m["unit_ms"],
        "checks_failed": checks[:10],
    }
    if trace:
        detail.update(traced_unit_ms=m["traced_unit_ms"], **m["detail"])
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "promptrefine" / "__init__.py").is_file():
        print(f"no promptrefine source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
