"""Traced runs: wrap each layer's public functions from outside, and turn
the recorded spans into the per-layer metrics.

Each wrapper replaces a function at the name its caller looks it up by —
``training.forward_batch`` rather than ``model.forward_batch``, because
``training`` imported the name — so the program itself is unchanged and
the wrappers come off again after every traced unit.
"""

from __future__ import annotations

import gc
import os
import statistics

from promptrefine import autodiff, baseline, cli, model, training

from spans import children, nearest_rank, parent_name, self_time, summarize

EVAL_PARENT = "training.score_dataset"
TRAIN_LOOPS = ("training.train_on_datasets", "baseline.train_baseline")
FORWARD_STAGES = ("project_features", "init_prompts", "vsi_forward", "classify")

# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
UNITS = {
    "autodiff.backward.ms_p50": "ms",
    "autodiff.backward.ms_p90": "ms",
    "autodiff.nodes_per_step": "count",
    "autodiff.grad_check.f_ms_p50": "ms",
    "autodiff.grad_check.f_calls": "count",
    "model.forward_batch.ms_p50": "ms",
    "model.forward_batch.ms_p90": "ms",
    "model.forward_batch.eval_ms_per_sample": "ms",
    **{f"model.{stage}.share": "share" for stage in FORWARD_STAGES},
    "losses.loss.ms_p50": "ms",
    "losses.loss.share": "share",
    "training.step.ms_p50": "ms",
    "training.step.ms_p90": "ms",
    "training.Adam.step.ms_p50": "ms",
    "training.score_dataset.share": "share",
    "training.score_dataset.samples_per_s": "1/s",
    "training.save_checkpoint.ms_p50": "ms",
    "training.save_checkpoint.bytes": "bytes",
    "training.untraced_share": "share",
    "metrics.map_report.ms_p50": "ms",
    "metrics.map_report.share": "share",
    "metrics.map_total": "mAP",
    "metrics.map_tail": "mAP",
    "data.generate_synthetic_lt.s": "s",
    "data.save_features.ms": "ms",
    "data.load_features.ms": "ms",
    "data.load_features.mb_per_s": "MB/s",
    "baseline.baseline_forward_batch.ms_p50": "ms",
    "baseline.baseline_forward_batch.share": "share",
    "cli.main.self_ms": "ms",
    "python.gc.share": "share",
    "python.gc.full_per_unit": "count",
    "trace.overhead_share": "share",
}


def _n_samples(args, kwargs, result):
    return {"n": len(args[0])}


def _n_dataset(args, kwargs, result):
    return {"n": len(args[1])}


def file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


class Hooks:
    """Installs the wrappers on ``install()`` and restores every original
    on ``remove()``.  Counts Tensor constructions while installed."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.tensors = 0
        self._saved = []
        self._step = None       # (start, tensors, parent) from Adam.zero_grad
        self._gc_start = None

    def _on_gc(self, phase, info) -> None:
        """Cyclic garbage collections, as derived spans: a pause inside a
        layer's call is that layer's time, so it must not cut its self time."""
        if phase == "start":
            self._gc_start = self.tracer.clock()
        elif self._gc_start is not None:
            self.tracer.add("python.gc", self._gc_start, self.tracer.clock(),
                            self.tracer.current(), generation=info["generation"])
            self._gc_start = None

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr, name, after=None) -> None:
        self._patch(owner, attr, self.tracer.wrap(name, vars(owner)[attr], after))

    def install(self) -> None:
        tr = self.tracer
        self._span(training, "forward_batch", "model.forward_batch", _n_samples)
        for stage in FORWARD_STAGES:
            self._span(model, stage, f"model.{stage}")
        self._span(training, "score_dataset", "training.score_dataset", _n_dataset)
        self._span(training, "save_checkpoint", "training.save_checkpoint", file_bytes)
        self._span(cli, "run_gradcheck", "training.run_gradcheck")
        for owner in (training, baseline):
            self._span(owner, "map_report", "metrics.map_report")
        self._span(baseline, "baseline_forward_batch", "baseline.baseline_forward_batch",
                   _n_samples)
        self._span(autodiff, "backward", "autodiff.backward")

        grad_check = tr.wrap("autodiff.grad_check", vars(autodiff)["grad_check"])
        self._patch(autodiff, "grad_check",
                    lambda f, *a, **k: grad_check(tr.wrap("autodiff.grad_check.f", f), *a, **k))

        for owner in (training, baseline):
            get_loss = vars(owner)["get_loss"]
            self._patch(owner, "get_loss",
                        lambda *a, _get=get_loss, **k: tr.wrap("losses.loss", _get(*a, **k)))

        # A training step runs from Adam.zero_grad to the end of Adam.step.
        zero_grad = tr.wrap("training.Adam.zero_grad", vars(training.Adam)["zero_grad"])
        adam_step = tr.wrap("training.Adam.step", vars(training.Adam)["step"])

        def traced_zero_grad(opt):
            self._step = (tr.clock(), self.tensors, tr.current())
            zero_grad(opt)

        def traced_step(opt):
            adam_step(opt)
            if self._step is not None:
                start, tensors, parent = self._step
                self._step = None
                tr.add("training.step", start, tr.clock(), parent,
                       nodes=self.tensors - tensors)

        self._patch(training.Adam, "zero_grad", traced_zero_grad)
        self._patch(training.Adam, "step", traced_step)

        init = vars(autodiff.Tensor)["__init__"]

        def counting_init(t, *a, **k):
            self.tensors += 1
            init(t, *a, **k)

        self._patch(autodiff.Tensor, "__init__", counting_init)
        gc.callbacks.append(self._on_gc)

    def remove(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._step = self._gc_start = None


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(spans, unit_ms, untraced_unit_ms, setup_timings, quality) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of the traced units.

    ``unit_ms`` are the traced units' wall times, the base of every share
    of unit time; ``untraced_unit_ms`` are the untraced units' times from
    the same process; ``setup_timings`` are the set-up's own timings,
    medians over its repeats.  Returns (metrics, detail): ``metrics`` maps each
    per-layer metric name to a number (0 where the workload never enters
    the layer), ``detail`` gives each timing's median, tail percentile and
    sample count, and each share's base.
    """
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    kids = children(spans)
    timings, shares, m = {}, {}, {}

    def idx(name):
        return by_name.get(name, [])

    def ms(idxs):
        return [spans[i].duration * 1e3 for i in idxs]

    def median(values):
        return statistics.median(values) if values else 0

    def timing(key, values, p90=False):
        """Median (and p90 when asked) in the metrics; the summary in detail."""
        timings[key] = summarize(values)
        m[f"{key}_p50" if key.endswith("_ms") else f"{key}.ms_p50"] = median(values)
        if p90:
            m[f"{key}.ms_p90"] = nearest_rank(values, 90) if values else 0.0

    def share(key, part_ms, base_name, base_ms):
        shares[key] = {"value": part_ms / base_ms if base_ms else 0.0,
                       "base": base_name, "base_ms": base_ms}
        m[key] = shares[key]["value"]

    def attr_sum(idxs, attr):
        return sum(spans[i].attrs[attr] for i in idxs)

    # autodiff
    timing("autodiff.backward", ms(idx("autodiff.backward")), p90=True)
    m["autodiff.nodes_per_step"] = median([spans[i].attrs["nodes"] for i in idx("training.step")])
    timing("autodiff.grad_check.f_ms", ms(idx("autodiff.grad_check.f")))
    m["autodiff.grad_check.f_calls"] = median(
        [sum(1 for k in kids.get(i, ()) if spans[k].name == "autodiff.grad_check.f")
         for i in idx("autodiff.grad_check")])

    # model: forwards made by score_dataset are evaluation, the rest training
    forwards = idx("model.forward_batch")
    eval_fw = [i for i in forwards if parent_name(spans, i) == EVAL_PARENT]
    train_fw = [i for i in forwards if parent_name(spans, i) != EVAL_PARENT]
    timing("model.forward_batch", ms(train_fw), p90=True)
    eval_samples = attr_sum(eval_fw, "n")
    m["model.forward_batch.eval_ms_per_sample"] = (
        sum(ms(eval_fw)) / eval_samples if eval_samples else 0.0)
    for stage in FORWARD_STAGES:
        share(f"model.{stage}.share", sum(ms(idx(f"model.{stage}"))),
              "model.forward_batch time", sum(ms(forwards)))

    # losses, training, metrics, baseline
    timing("training.step", ms(idx("training.step")), p90=True)
    for name in ("losses.loss", "training.Adam.step", "training.save_checkpoint",
                 "metrics.map_report", "baseline.baseline_forward_batch"):
        timing(name, ms(idx(name)))
    for name in ("losses.loss", "training.score_dataset", "metrics.map_report",
                 "baseline.baseline_forward_batch"):
        share(f"{name}.share", sum(ms(idx(name))), "traced unit wall time", sum(unit_ms))
    scored = idx("training.score_dataset")
    m["training.score_dataset.samples_per_s"] = (
        attr_sum(scored, "n") / (sum(ms(scored)) / 1e3) if scored else 0.0)
    m["training.save_checkpoint.bytes"] = median(
        [spans[i].attrs["bytes"] for i in idx("training.save_checkpoint")])
    loops = [i for name in TRAIN_LOOPS for i in idx(name)]
    share("training.untraced_share", sum(self_time(spans, i, kids) for i in loops) * 1e3,
          "training loop span time", sum(ms(loops)))

    # data: the measuring process's own reads of its input files, and set-up
    loads = idx("data.load_features")
    timings["data.load_features"] = summarize(ms(loads))
    m["data.load_features.ms"] = median(ms(loads))
    m["data.load_features.mb_per_s"] = (
        attr_sum(loads, "bytes") / 1e6 / (sum(ms(loads)) / 1e3) if loads else 0.0)
    m["data.generate_synthetic_lt.s"] = setup_timings.get("generate_s", 0.0)
    m["data.save_features.ms"] = setup_timings.get("save_features_ms", 0.0)

    # cli: its own time, without the library calls it makes
    cli_self = [self_time(spans, i, kids) * 1e3 for i in idx("cli.main")]
    timings["cli.main.self"] = summarize(cli_self)
    m["cli.main.self_ms"] = median(cli_self)

    # the interpreter's cyclic garbage collector, which pauses every layer
    pauses = idx("python.gc")
    share("python.gc.share", sum(ms(pauses)), "traced unit wall time", sum(unit_ms))
    m["python.gc.full_per_unit"] = (
        sum(1 for i in pauses if spans[i].attrs["generation"] == 2) / len(unit_ms))

    # tracing itself
    untraced = statistics.median(untraced_unit_ms)
    share("trace.overhead_share", statistics.median(unit_ms) - untraced,
          "untraced unit median", untraced)

    m["metrics.map_total"] = quality.get("map_total", 0.0)
    m["metrics.map_tail"] = quality.get("map_tail", 0.0)
    return m, {"timings": timings, "shares": shares}
