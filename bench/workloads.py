"""The benchmark's three workloads: how each makes its inputs from a seed,
what one operation (a *unit*) is, and how a unit's outputs are checked.

Shapes follow bench A of the acceptance suite (``tests/test_acceptance.py``):
20 classes crowded into 8-dimensional prototypes, co-occurrence 0.5, the
prompt model at d=32 with 4 heads and an FFN of 64, batch 32, ASL.

Every unit is deterministic at a seed, so each one is checked for equality
against a reference run made before timing starts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from pathlib import Path

from promptrefine import baseline, cli, data, training
from promptrefine.model import ModelDims, init_model

BENCH_A_GEN = dict(c=20, v=8, d0=8, n_max=775, pareto_exponent=0.89,
                   pareto_ramp=0.047, co_occurrence_strength=0.5, noise_sigma=0.4,
                   test_per_class=30)
BENCH_A_DIMS = dict(d0=8, d=32, v=8, c=20, heads=4, ffn=64, tau=0.5)
BENCH_A_TRAIN = dict(batch_size=32, learning_rate=3e-3, weight_decay=1e-4)
ASL = {"name": "asl", "gamma_pos": 0.0, "gamma_neg": 4.0, "mu": 0.05}

TRAIN_EPOCHS = 2          # per train_prompt unit; each epoch also evaluates and checkpoints
BASELINE_EPOCHS = 45      # the acceptance protocol
GRADCHECK_DIMS = dict(d0=8, d=16, v=6, c=4, heads=2, ffn=32, tau=0.5)


def _train_config(seed: int, epochs: int) -> training.TrainConfig:
    return training.TrainConfig(
        dims=ModelDims(**BENCH_A_DIMS), loss=dict(ASL),
        embedding={"mode": "random", "path": None, "m": 8, "seed": seed},
        epochs=epochs, seed=seed, **BENCH_A_TRAIN)


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# set-up: inputs from the seed, written to files
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs under ``out`` and return a manifest with
    the number of work items in one unit, the set-up's own timings, and a
    digest of every file it wrote."""
    out.mkdir(parents=True, exist_ok=True)
    timings = {}
    if workload == "gradcheck":
        cfg = training.TrainConfig(
            dims=ModelDims(**GRADCHECK_DIMS), loss=dict(ASL),
            embedding={"mode": "random", "path": None, "m": 6, "seed": seed},
            epochs=1, batch_size=2, learning_rate=1e-3, seed=seed)
        (out / "config.json").write_text(json.dumps(cfg.to_dict(), sort_keys=True))
        embedding = data.embedding_provider("random", c=cfg.dims.c, m=6, seed=seed)
        params = init_model(cfg.dims, embedding, seed=seed)
        items = sum(p.data.size for p in params.learnable().values())
    else:
        gen_cfg = data.GeneratorConfig(seed=seed, **BENCH_A_GEN)
        (train_ds, test_ds), timings["generate_s"] = _timed(data.generate_synthetic_lt, gen_cfg)
        save_s = 0.0
        for name, ds in (("train.cprf", train_ds), ("test.cprf", test_ds)):
            _, dt = _timed(data.save_features, ds, out / name)
            save_s += dt
        timings["save_features_ms"] = save_s * 1e3
        epochs = TRAIN_EPOCHS if workload == "train_prompt" else BASELINE_EPOCHS
        items = len(train_ds) * epochs
    digests = {p.name: _digest(p) for p in sorted(out.iterdir()) if p.is_file()}
    return {"workload": workload, "seed": seed, "items": items, "timings": timings,
            "digests": digests}


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------

def _identity(fn):
    return fn


class Workload:
    """One workload's inputs, loaded in the measuring process.

    ``entry`` names the public API a unit calls.  ``run(wrap)`` performs
    one unit, calling that API as ``wrap(api)(...)`` so a traced run can
    record it as a span, and returns the unit's outputs.  ``check``
    compares them with a reference run's and returns a list of failures,
    empty when the unit was correct.
    """

    entry = ""

    def __init__(self, inputs: Path, manifest: dict, load):
        self.inputs = inputs
        self.seed = manifest["seed"]
        self.items = manifest["items"]   # work items per unit

    def run(self, wrap=_identity) -> dict:
        raise NotImplementedError

    def check(self, out: dict, ref: dict) -> list:
        failures = []
        for key in ("map_total", "map_tail"):
            value = out.get(key)
            if value is None or not math.isfinite(value):
                failures.append(f"{key} is not finite: {value!r}")
            elif value != ref[key]:
                failures.append(f"{key} {value!r} differs from reference {ref[key]!r}")
        return failures


class TrainPrompt(Workload):
    entry = "training.train_on_datasets"

    def __init__(self, inputs, manifest, load):
        super().__init__(inputs, manifest, load)
        self.train_ds = load(inputs / "train.cprf")
        self.test_ds = load(inputs / "test.cprf")
        self.cfg = _train_config(self.seed, TRAIN_EPOCHS)

    def run(self, wrap=_identity) -> dict:
        result = wrap(training.train_on_datasets)(self.cfg, self.train_ds, self.test_ds,
                                                  self.inputs / "runs")
        report = result.final_report
        return {"map_total": report.map_total, "map_tail": report.map_tail,
                "checkpoint": _digest(result.final_checkpoint)}

    def check(self, out, ref):
        failures = super().check(out, ref)
        if out["checkpoint"] != ref["checkpoint"]:
            failures.append("final checkpoint bytes differ from the reference run's")
        return failures


class TrainBaseline(Workload):
    entry = "baseline.train_baseline"

    def __init__(self, inputs, manifest, load):
        super().__init__(inputs, manifest, load)
        self.train_ds = load(inputs / "train.cprf")
        self.test_ds = load(inputs / "test.cprf")

    def run(self, wrap=_identity) -> dict:
        params, report = wrap(baseline.train_baseline)(
            self.train_ds, self.test_ds, loss_name="asl", epochs=BASELINE_EPOCHS,
            seed=self.seed, **BENCH_A_TRAIN)
        weights = hashlib.sha256(params.w.data.tobytes() + params.b.data.tobytes()).hexdigest()
        return {"map_total": report.map_total, "map_tail": report.map_tail,
                "weights": weights}

    def check(self, out, ref):
        failures = super().check(out, ref)
        if out["weights"] != ref["weights"]:
            failures.append("trained weights differ from the reference run's")
        return failures


class Gradcheck(Workload):
    entry = "cli.main"

    def __init__(self, inputs, manifest, load):
        super().__init__(inputs, manifest, load)
        self.argv = ["gradcheck", "--config", str(inputs / "config.json")]

    def run(self, wrap=_identity) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = wrap(cli.main)(self.argv)
        return {"rc": rc, "stdout": out.getvalue()}

    def check(self, out, ref):
        if out["rc"] != 0:
            return [f"gradcheck failed (exit {out['rc']}): {out['stdout'].strip()}"]
        if out["stdout"] != ref["stdout"]:
            return ["gradcheck output differs from the reference run's"]
        return []


WORKLOADS = {"train_prompt": TrainPrompt, "train_baseline": TrainBaseline,
             "gradcheck": Gradcheck}
