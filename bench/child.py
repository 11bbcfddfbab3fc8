"""The benchmark's child processes; ``run.py`` starts them, one at a time.

    python3 bench/child.py setup   WORKLOAD SEED DIR
    python3 bench/child.py measure WORKLOAD SEED DIR SECONDS TRACE SPANS_OUT

``setup`` writes the workload's inputs under DIR.  ``measure`` runs in a
fresh process, so its peak resident set is that of the measured work
alone: it loads the inputs, makes one untimed reference run, then runs
units until SECONDS have passed.  With TRACE 1 it alternates untraced
and traced units, and writes the traced units' spans to SPANS_OUT.  Each
prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import promptrefine  # noqa: E402

if Path(promptrefine.__file__).resolve().parent != ROOT / "src" / "promptrefine":
    sys.exit(f"promptrefine imported from {promptrefine.__file__}, not from this checkout")

from promptrefine import data  # noqa: E402

import hooks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, setup  # noqa: E402

MIN_UNITS = 3          # timed units per untraced run, however long a unit takes
MIN_TRACED_PAIRS = 2   # untraced + traced unit pairs per traced run


def _threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def measure(workload: str, seed: int, inputs: Path, seconds: float, trace: bool,
            spans_out: Path) -> dict:
    manifest = json.loads((inputs / "manifest.json").read_text())
    tracer = spans.Tracer()
    layer_hooks = hooks.Hooks(tracer)
    load = (tracer.wrap("data.load_features", data.load_features, hooks.file_bytes) if trace
            else data.load_features)
    wl = WORKLOADS[workload](inputs, manifest, load)
    times = {False: [], True: []}   # unit wall times in ms, by traced
    failures = []
    attempted = 0
    ref = wl.run()   # untimed; every timed unit must reproduce it

    min_units = 2 * MIN_TRACED_PAIRS if trace else MIN_UNITS
    deadline = time.perf_counter() + seconds
    while attempted < min_units or time.perf_counter() < deadline:
        traced = trace and attempted % 2 == 1
        wrap = (lambda fn: tracer.wrap(wl.entry, fn)) if traced else (lambda fn: fn)
        if traced:
            layer_hooks.install()
        t0 = time.perf_counter()
        try:
            problems = wl.check(wl.run(wrap), ref)
        except Exception as exc:  # a failed unit is counted, and the run goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        finally:
            times[traced].append((time.perf_counter() - t0) * 1e3)
            layer_hooks.remove()
        attempted += 1
        if problems:
            failures.append({"unit": attempted, "traced": traced, "problems": problems})
    untraced_ms, traced_ms = times[False], times[True]

    result = {
        "attempted": attempted, "failed": len(failures), "failures": failures[:5],
        "items_per_unit": wl.items, "unit_ms": spans.summarize(untraced_ms),
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "threads": _threads()},
    }
    if trace:
        quality = {k: ref[k] for k in ("map_total", "map_tail") if k in ref}
        metrics, detail = hooks.layer_metrics(tracer.spans, traced_ms, untraced_ms,
                                              manifest["timings"], quality)
        result.update(per_layer={name: {"value": metrics[name], "unit": unit}
                                 for name, unit in hooks.UNITS.items()},
                      detail=detail, traced_unit_ms=spans.summarize(traced_ms))
        spans_out.parent.mkdir(parents=True, exist_ok=True)
        spans_out.write_text(json.dumps({"workload": workload, "seed": seed,
                                         "fields": spans.Span._fields, "spans": tracer.spans}))
    else:
        result["items_per_s"] = statistics.median(wl.items / (t / 1e3) for t in untraced_ms)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def main(argv) -> int:
    cmd, workload, seed, directory = argv[0], argv[1], int(argv[2]), Path(argv[3])
    if cmd == "setup":
        manifest = setup(workload, seed, directory)
        (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))
        out = manifest
    else:
        out = measure(workload, seed, directory, float(argv[4]), argv[5] == "1", Path(argv[6]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
