"""The wrappers in ``hooks.py`` on a tiny training run: where spans nest,
what the per-layer metrics read, and that the hooks leave the program's
results and functions as they found them."""

import gc
import json
from pathlib import Path

import hooks
from promptrefine import autodiff, data, training
from promptrefine.model import ModelDims
from spans import Tracer, parent_name

TRAIN_DS, TEST_DS = data.generate_synthetic_lt(
    data.GeneratorConfig(c=4, v=3, d0=4, n_max=12, test_per_class=3, seed=0))
CFG = training.TrainConfig(
    dims=ModelDims(d0=4, d=8, v=3, c=4, heads=2, ffn=8),
    embedding={"mode": "random", "path": None, "m": 5, "seed": 0},
    epochs=2, batch_size=8, seed=0)


def test_spans_nest_at_the_callers_names_and_hooks_come_off(tmp_path):
    originals = (training.forward_batch, autodiff.backward, training.Adam.step,
                 autodiff.Tensor.__init__, list(gc.callbacks))
    tracer = Tracer()
    layer_hooks = hooks.Hooks(tracer)
    layer_hooks.install()
    try:
        traced = tracer.wrap("training.train_on_datasets", training.train_on_datasets)(
            CFG, TRAIN_DS, TEST_DS, tmp_path / "traced")
    finally:
        layer_hooks.remove()
    assert (training.forward_batch, autodiff.backward, training.Adam.step,
            autodiff.Tensor.__init__, gc.callbacks) == originals

    spans = tracer.spans
    parents = {(s.name, parent_name(spans, i)) for i, s in enumerate(spans)}
    for pair in [("model.forward_batch", "training.train_on_datasets"),
                 ("model.forward_batch", "training.score_dataset"),
                 ("model.vsi_forward", "model.forward_batch"),
                 ("losses.loss", "training.train_on_datasets"),
                 ("autodiff.backward", "training.train_on_datasets"),
                 ("training.step", "training.train_on_datasets"),
                 ("training.save_checkpoint", "training.train_on_datasets")]:
        assert pair in parents

    steps = [s for s in spans if s.name == "training.step"]
    assert len(steps) == CFG.epochs * -(-len(TRAIN_DS) // CFG.batch_size)
    assert all(s.derived and s.attrs["nodes"] > 0 for s in steps)

    unit_ms = [spans[0].duration * 1e3]
    metrics, detail = hooks.layer_metrics(spans, unit_ms, unit_ms, {}, {})
    assert set(metrics) == set(hooks.UNITS)
    assert metrics["training.save_checkpoint.bytes"] == Path(traced.final_checkpoint).stat().st_size
    assert metrics["training.score_dataset.samples_per_s"] > 0
    assert metrics["model.forward_batch.eval_ms_per_sample"] > 0
    assert 0 < sum(metrics[f"model.{s}.share"] for s in hooks.FORWARD_STAGES) <= 1
    assert 0 < metrics["training.untraced_share"] < 1
    assert metrics["trace.overhead_share"] == 0
    assert detail["shares"]["losses.loss.share"]["base"] == "traced unit wall time"

    plain = training.train_on_datasets(CFG, TRAIN_DS, TEST_DS, tmp_path / "plain")
    assert (Path(plain.final_checkpoint).read_bytes()
            == Path(traced.final_checkpoint).read_bytes())


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == hooks.UNITS
