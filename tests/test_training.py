"""Tests for the optimizer, checkpoints, and the training loop."""

import dataclasses
import errno
import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from promptrefine import autodiff as ad
from promptrefine import baseline, cli, training
from promptrefine.data import (
    FileFormatError,
    FileTruncatedError,
    FileVersionError,
    GeneratorConfig,
    LongTailDataset,
    embedding_provider,
    generate_synthetic_lt,
    read_container,
    save_embeddings,
    save_features,
    split_groups,
    write_container,
)
from promptrefine.losses import get_loss
from promptrefine.model import ModelDims, forward_batch, init_model
from promptrefine.training import (
    Adam,
    Checkpoint,
    CheckpointMismatchError,
    GRADCHECK_BATCH,
    TrainConfig,
    checkpoint_tensors,
    evaluate,
    load_checkpoint,
    restore,
    run_gradcheck,
    save_checkpoint,
    score_dataset,
    train,
    train_on_datasets,
)


def tiny_config(**over):
    defaults = dict(
        dims=ModelDims(d0=5, d=8, v=4, c=6, heads=2, ffn=12, tau=0.5),
        loss={"name": "asl", "gamma_pos": 0.0, "gamma_neg": 4.0, "mu": 0.05},
        embedding={"mode": "random", "path": None, "m": 7, "seed": 0},
        epochs=2, batch_size=8, learning_rate=1e-3, weight_decay=1e-4, seed=0,
    )
    defaults.update(over)
    return TrainConfig(**defaults)


def tiny_data(seed=0, c=6, v=4, d0=5, n_max=30):
    cfg = GeneratorConfig(c=c, v=v, d0=d0, n_max=n_max, seed=seed,
                          pareto_exponent=1.0, co_occurrence_strength=0.2,
                          noise_sigma=0.5, test_per_class=5)
    return generate_synthetic_lt(cfg)


class TestAdam:
    def adam_oracle(self, g_seq, lr, wd, x0):
        """Straight-line Adam on one scalar parameter."""
        b1, b2, eps = 0.9, 0.999, 1e-8
        m = v = 0.0
        x = x0
        for t, g in enumerate(g_seq, start=1):
            g = g + wd * x
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        return x

    def test_matches_scalar_oracle(self):
        p = ad.parameter(np.array([0.7]))
        adam = Adam({"x": p}, learning_rate=0.01, weight_decay=0.05)
        gs = [0.3, -1.2, 0.4, 0.9, -0.2]
        for g in gs:
            p.grad = np.array([g], dtype=np.float64)
            adam.step()
            p.grad = None
        # the oracle takes the raw gradients and adds wd * x itself
        expected = self.adam_oracle(gs, lr=0.01, wd=0.05, x0=0.7)
        np.testing.assert_allclose(p.data[0], expected, rtol=1e-14)

    def test_first_step_is_signed_lr(self):
        # with zero weight decay the very first update is -lr * sign(g)
        # up to the eps softening
        p = ad.parameter(np.array([1.0, -2.0, 0.5]))
        adam = Adam({"x": p}, learning_rate=0.1, weight_decay=0.0)
        p.grad = np.array([0.3, -0.7, 1.9])
        adam.step()
        np.testing.assert_allclose(
            p.data, [1.0 - 0.1, -2.0 + 0.1, 0.5 - 0.1], atol=1e-6)

    def test_skips_frozen_tensors(self):
        frozen = ad.constant(np.ones(3))
        live = ad.parameter(np.ones(3))
        adam = Adam({"a": frozen, "b": live}, learning_rate=0.1)
        assert "a" not in adam.params and "b" in adam.params

    def test_two_runs_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(5)
            p = ad.parameter(rng.standard_normal((4, 3)))
            adam = Adam({"w": p}, learning_rate=3e-3, weight_decay=1e-2)
            for _ in range(20):
                p.grad = rng.standard_normal((4, 3))
                adam.step()
            return p.data.copy()

        a, b = run(), run()
        assert a.tobytes() == b.tobytes()

    def test_non_finite_gradient_is_refused_before_any_state_changes(self):
        rng = np.random.default_rng(2)
        params = {"a": ad.parameter(rng.standard_normal(3)),
                  "b": ad.parameter(rng.standard_normal((2, 2)))}
        adam = Adam(params, learning_rate=1e-2, weight_decay=1e-2)
        for p in params.values():
            p.grad = rng.standard_normal(p.shape)
        adam.step()

        def state():
            arrays = [*adam.m.values(), *adam.v.values(), *(p.data for p in params.values())]
            return adam.t, [a.tobytes() for a in arrays]

        before = state()
        params["a"].grad = rng.standard_normal(3)
        params["b"].grad = np.array([[0.1, np.nan], [0.2, 0.3]])
        with pytest.raises(ad.NonFiniteError, match=re.escape("gradients are not finite: ['b']")):
            adam.step()
        assert state() == before

    @staticmethod
    def assert_owns_storage(adam, params):
        """Every learnable tensor's data and moments are views into the
        optimizer's three vectors; every frozen tensor is outside them."""
        for name, p in params.items():
            if not p.requires_grad:
                assert not np.shares_memory(p.data, adam.theta), name
                continue
            assert np.shares_memory(p.data, adam.theta), name
            assert np.shares_memory(adam.m[name], adam.m_flat), name
            assert np.shares_memory(adam.v[name], adam.v_flat), name
            assert adam.m[name].shape == adam.v[name].shape == p.shape, name

    def test_owns_the_storage_as_three_vectors(self):
        rng = np.random.default_rng(4)
        params = {"w": ad.parameter(rng.standard_normal((4, 3))),
                  "frozen": ad.constant(rng.standard_normal(2)),
                  "b": ad.parameter(rng.standard_normal(5)),
                  "g": ad.parameter(rng.standard_normal((2, 3, 2)))}
        before = {name: p.data for name, p in params.items()}
        adam = Adam(params, learning_rate=1e-2)
        self.assert_owns_storage(adam, params)
        for name, p in params.items():
            assert p.data.tobytes() == before[name].tobytes(), name
        assert params["frozen"].data is before["frozen"]
        assert adam.theta.tobytes() == np.concatenate(
            [before[n].ravel() for n in ("w", "b", "g")]).tobytes()
        assert adam.m_flat.shape == adam.v_flat.shape == adam.theta.shape == (29,)

    def test_restore_builds_the_store_and_round_trips_the_checkpoint(self, tmp_path):
        train_ds, test_ds = tiny_data()
        result = train_on_datasets(tiny_config(epochs=1), train_ds, test_ds, tmp_path / "run")
        ckpt = load_checkpoint(result.final_checkpoint)
        params, adam = restore(ckpt)
        self.assert_owns_storage(adam, params.all_tensors())
        assert params.embedding.data is ckpt.tensors["embedding.W"]
        tensors = checkpoint_tensors(params, adam)
        assert tensors.keys() == ckpt.tensors.keys()
        for name, a in tensors.items():
            assert a.tobytes() == ckpt.tensors[name].tobytes(), name

    def test_grad_check_probes_write_through_the_views(self):
        rng = np.random.default_rng(6)
        params = {"w": ad.parameter(rng.standard_normal((3, 2))),
                  "b": ad.parameter(rng.standard_normal(2))}
        x = ad.constant(rng.standard_normal((4, 3)))
        adam = Adam(params, learning_rate=1e-2)
        theta = adam.theta.tobytes()
        seen = []

        def f():
            seen.append(adam.theta.copy())
            z = ad.linear(x, params["w"], params["b"])
            return ad.inner_sum([ad.mul(z, z)], [np.ones(z.shape)])

        result = ad.grad_check(f, params, eps=1e-6)
        assert result.max_rel_error < 1e-6 and result.n_entries == 8
        assert adam.theta.tobytes() == theta
        assert sum(not np.array_equal(s, adam.theta) for s in seen) == 2 * 8

    def test_several_tensors_match_the_per_tensor_loop_bitwise(self):
        """200 steps over three shapes with weight decay, one tensor without
        a gradient on some steps, against Adam written out per tensor."""
        rng = np.random.default_rng(8)
        shapes = {"w": (4, 3), "b": (5,), "g": (2, 3, 2)}
        init = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        grads = [{name: None if name == "b" and step % 3 == 0 else rng.standard_normal(shape)
                  for name, shape in shapes.items()} for step in range(200)]
        lr, wd, b1, b2, eps = 3e-3, 1e-2, 0.9, 0.999, 1e-8

        x = {name: a.copy() for name, a in init.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        for t, step_grads in enumerate(grads, start=1):
            for name in shapes:
                g = step_grads[name] if step_grads[name] is not None else np.zeros(shapes[name])
                g = g + wd * x[name]
                m[name] = b1 * m[name] + (1.0 - b1) * g
                v[name] = b2 * v[name] + (1.0 - b2) * g * g
                x[name] -= lr * (m[name] / (1.0 - b1 ** t)) / (np.sqrt(v[name] / (1.0 - b2 ** t))
                                                               + eps)

        params = {name: ad.parameter(a.copy()) for name, a in init.items()}
        adam = Adam(params, learning_rate=lr, weight_decay=wd)
        for step_grads in grads:
            for name, p in params.items():
                p.grad = step_grads[name]
            adam.step()
        for name, p in params.items():
            assert p.data.tobytes() == x[name].tobytes(), name
            assert adam.m[name].tobytes() == m[name].tobytes(), name
            assert adam.v[name].tobytes() == v[name].tobytes(), name


class TestTrainConfig:
    def test_round_trip(self):
        cfg = tiny_config()
        again = TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again.to_dict() == cfg.to_dict()

    def test_defaults(self):
        cfg = TrainConfig(dims=ModelDims(d0=4, d=8, v=3, c=5, heads=2, ffn=8))
        assert cfg.epochs == 30
        assert cfg.batch_size == 32
        assert cfg.learning_rate == 5e-5
        assert cfg.weight_decay == 1e-4
        assert cfg.loss["name"] == "asl"

    def test_rejects_unknown_keys(self):
        d = tiny_config().to_dict()
        d["learning_rte"] = 0.1
        with pytest.raises(ValueError, match=re.escape("unknown keys ['learning_rte']")):
            TrainConfig.from_dict(d)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            tiny_config(epochs=0)
        with pytest.raises(ValueError):
            tiny_config(learning_rate=0.0)
        with pytest.raises(ValueError):
            tiny_config(loss={"name": "hinge"})
        with pytest.raises(ValueError):
            tiny_config(embedding={"mode": "glove"})


def checkpoint_meta(**over):
    """Checkpoint metadata for two classes that load_checkpoint accepts,
    with the given keys replaced."""
    meta = {"config": tiny_config().to_dict(), "epoch": 0, "history": [],
            "adam": {"t": 0, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
            "class_names": ["a", "b"], "groups": ["head", "tail"],
            "class_counts": [150, 3], "data_sha256": "0" * 64}
    meta.update(over)
    return meta


# A checkpoint of fixed np.arange tensors and fixed metadata, and the sha256
# of the file save_checkpoint writes for it.  No training and no BLAS is
# involved, so the bytes depend on no platform; a change of the checkpoint
# format shows here.
GOLDEN_CONFIG = {"dims": {"d0": 3, "d": 4, "v": 2, "c": 2, "heads": 2, "ffn": 5, "tau": 0.5},
                 "loss": {"name": "asl", "gamma_pos": 0.0, "gamma_neg": 4.0, "mu": 0.05},
                 "embedding": {"mode": "random", "path": None, "m": 3, "seed": 0},
                 "epochs": 2, "batch_size": 8, "learning_rate": 0.001, "weight_decay": 0.0001,
                 "seed": 0, "literal_equations": False}
GOLDEN_SHA256 = "f49eeacb3f6454ba7bf5d7c35f35353ecfc46c4b3ae0c1fe0bd6dfd71abb9c76"


def golden_checkpoint() -> Checkpoint:
    return Checkpoint(
        config=TrainConfig.from_dict(GOLDEN_CONFIG), epoch=0,
        history=[{"epoch": 0, "train_loss": 0.6931471805599453, "map_total": 0.5,
                  "map_head": 0.75, "map_medium": None, "map_tail": 0.25}],
        adam={"t": 3, **Adam.SCALARS}, class_names=["cat", "dog"], groups=["head", "tail"],
        class_counts=[150, 3], data_sha256="0123456789abcdef" * 4,
        tensors={"projection.b": np.arange(4.0) - 1.5,
                 "embedding.W": np.arange(6.0).reshape(2, 3) / 4,
                 "adam.v.projection.b": np.arange(4.0) / 64,
                 "adam.m.projection.b": np.arange(4.0) / 8})


def write_checkpoint_file(p, meta, arrays=(), payload=b"", header=None):
    """A version-2 CPRC container built byte by byte, not through
    data.write_container: header entries ``arrays``, the given metadata,
    then ``payload``.  ``header`` replaces the JSON header's bytes."""
    if header is None:
        header = json.dumps({"arrays": list(arrays), "meta": meta}).encode("utf-8")
    p.write_bytes(b"CPRC" + (2).to_bytes(4, "little") + len(header).to_bytes(4, "little")
                  + header + payload)
    return p


# Values the config schema refuses, each with the key path and message the
# refusal names.  json.dumps writes inf as the JSON token Infinity.
SCHEMA_CASES = [
    (("literal_equations",), "false", "literal_equations",
     "literal_equations must be true or false, got 'false'"),
    (("epochs",), 2.9, "epochs", "epochs must be an int >= 1, got 2.9"),
    (("batch_size",), True, "batch_size", "batch_size must be an int >= 1, got True"),
    (("dims", "tau"), True, "dims.tau", "dims.tau must be a finite number, got True"),
    (("dims", "c"), 5.7, "dims.c", "dims.c must be an int >= 1, got 5.7"),
    (("learning_rate",), "1e-3", "learning_rate",
     "learning_rate must be a finite number > 0, got '1e-3'"),
    (("learning_rate",), float("inf"), "learning_rate",
     "learning_rate must be a finite number > 0, got inf"),
    (("loss", "gammma_neg"), 2.0, "loss.gammma_neg", "unknown keys ['loss.gammma_neg']"),
    (("loss", "mu"), "0.1", "loss.mu", "loss.mu must be a finite number in [0, 1), got '0.1'"),
    (("loss", "gamma"), 2.0, "loss.gamma", "unknown keys ['loss.gamma']"),
    (("loss",), {"name": "bce", "gamma": 2.0}, "loss.gamma", "unknown keys ['loss.gamma']"),
    (("loss",), None, "loss", "loss must be an object, got None"),
    (("loss",), [["name", "asl"]], "loss", "loss must be an object, got [['name', 'asl']]"),
    (("embedding", "sede"), 1, "embedding.sede", "unknown keys ['embedding.sede']"),
    (("embedding", "m"), 4.5, "embedding.m", "embedding.m must be an int >= 1, got 4.5"),
    (("embedding", "seed"), 1.9, "embedding.seed",
     "embedding.seed must be an int >= 0, got 1.9"),
    (("embedding",), {"mode": "file", "m": 7}, "embedding.path",
     "missing keys ['embedding.path']"),
    (("dims", "extra"), 1, "dims.extra", "unknown keys ['dims.extra']"),
]


class TestConfigSchema:
    @pytest.mark.parametrize("keys, value, key_path, message", SCHEMA_CASES, ids=[
        "literal-str", "epochs-float", "batch-bool", "tau-bool", "classes-float",
        "lr-str", "lr-infinity", "loss-typo", "mu-str", "gamma-under-asl",
        "gamma-under-bce", "loss-null", "loss-pairs", "embedding-typo",
        "embedding-m-float", "embedding-seed-float", "file-without-path", "dims-extra"])
    def test_refusal_names_the_key_path(self, tmp_path, keys, value, key_path, message):
        d = tiny_config().to_dict()
        target = d
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = value
        text = json.dumps(d)
        with pytest.raises(ValueError) as info:
            TrainConfig.from_dict(json.loads(text))
        assert str(info.value) == message
        assert key_path in message

        # The checkpoint's config echo is checked by the same spec, under
        # "config", and the refusal names the file.  The container's JSON
        # reader refuses the Infinity token before the schema sees it.
        p = write_checkpoint_file(tmp_path / "echo.cprc",
                                  checkpoint_meta(config=json.loads(text)))
        with pytest.raises(FileFormatError, match=re.escape(str(p))) as info:
            load_checkpoint(p)
        if "Infinity" in text:
            assert "Infinity is not a JSON number" in str(info.value)
        else:
            assert message.replace(key_path, f"config.{key_path}", 1) in str(info.value)

    def test_partial_sections_take_the_one_default(self):
        cfg = TrainConfig.from_dict({**tiny_config().to_dict(), "loss": {"name": "focal"},
                                     "embedding": {"mode": "file", "path": "e.cpre"}})
        assert cfg.loss == {"name": "focal", "gamma": 2.0}
        assert cfg.embedding == {"mode": "file", "path": "e.cpre", "m": None, "seed": 0}
        assert TrainConfig(dims=tiny_config().dims).to_dict() == {
            "dims": {"d0": 5, "d": 8, "v": 4, "c": 6, "heads": 2, "ffn": 12, "tau": 0.5},
            "loss": {"name": "asl", "gamma_pos": 0.0, "gamma_neg": 4.0, "mu": 0.05},
            "embedding": {"mode": "random", "path": None, "m": 16, "seed": 0},
            "epochs": 30, "batch_size": 32, "learning_rate": 5e-5, "weight_decay": 1e-4,
            "seed": 0, "literal_equations": False}

    def test_an_int_is_stored_as_a_float(self):
        d = {**tiny_config().to_dict(), "learning_rate": 1, "weight_decay": 0}
        cfg = TrainConfig.from_dict(d)
        assert type(cfg.learning_rate) is float and type(cfg.weight_decay) is float

    def test_readme_config_block_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```json\n(.*?)```", readme, re.S)
        assert block is not None, "README.md has no JSON config block"
        cfg = TrainConfig.from_dict(json.loads(block.group(1)))
        assert cfg.to_dict() == TrainConfig.from_dict(cfg.to_dict()).to_dict()


class TestCheckpointRoundTrip:
    def _train_small(self, tmp_path, **over):
        cfg = tiny_config(**over)
        train_ds, test_ds = tiny_data()
        result = train_on_datasets(cfg, train_ds, test_ds, tmp_path / "run")
        return cfg, result

    def test_params_round_trip_bitwise(self, tmp_path):
        _, result = self._train_small(tmp_path)
        ckpt = load_checkpoint(result.final_checkpoint)
        params, _ = restore(ckpt)
        for name, p in result.params.all_tensors().items():
            stored = params.all_tensors()[name]
            assert p.data.tobytes() == stored.data.tobytes(), name

    def test_save_load_save_identical_bytes(self, tmp_path):
        _, result = self._train_small(tmp_path)
        src = result.final_checkpoint
        ckpt = load_checkpoint(src)
        params, adam = restore(ckpt)
        dst = tmp_path / "again.cprc"
        save_checkpoint(dst, dataclasses.replace(ckpt, adam={"t": adam.t, **Adam.SCALARS},
                                                 tensors=checkpoint_tensors(params, adam)))
        with open(src, "rb") as fh:
            original = fh.read()
        assert dst.read_bytes() == original

    def test_bad_magic_version_truncation(self, tmp_path):
        _, result = self._train_small(tmp_path)
        blob = open(result.final_checkpoint, "rb").read()
        p = tmp_path / "x.cprc"
        p.write_bytes(b"WHAT" + blob[4:])
        with pytest.raises(FileFormatError, match="magic"):
            load_checkpoint(p)
        p.write_bytes(blob[:4] + (9).to_bytes(4, "little") + blob[8:])
        with pytest.raises(FileVersionError):
            load_checkpoint(p)
        p.write_bytes(blob[:-10])
        with pytest.raises(FileTruncatedError):
            load_checkpoint(p)

    def test_oversize_shape_is_a_format_error(self, tmp_path):
        """Dims whose product overflows 64 bits must not wrap to a small or
        negative byte count."""
        p = write_checkpoint_file(tmp_path / "huge.cprc", checkpoint_meta(),
                                  arrays=[["x", "<f8", [2**32 - 1, 2**32 - 1]]],
                                  payload=bytes(16))
        with pytest.raises(FileTruncatedError, match=f"needed {8 * (2**32 - 1) ** 2} bytes"):
            load_checkpoint(p)

    @pytest.mark.parametrize("header, meta, message", [
        (b'{"arrays":[["\xff","<f8",[1]]],"meta":{}}', None, "header is not UTF-8 JSON"),
        (None, {}, "missing keys ['config', 'epoch', 'history', 'adam', 'class_names', "
                    "'groups', 'class_counts', 'data_sha256']"),
        (None, [], "'meta' object"),
        (None, {"config": {**tiny_config().to_dict(), "dims": {"d0": 5, "d": 8}},
                **{k: v for k, v in checkpoint_meta().items() if k != "config"}},
         "missing keys ['config.dims.v', 'config.dims.c', 'config.dims.heads', "
         "'config.dims.ffn']"),
        (None, checkpoint_meta(class_names=5), "class_names must be a list, got 5"),
        (None, checkpoint_meta(class_names=["a", 3]), "class_names[1] must be a string, got 3"),
        (None, checkpoint_meta(groups=["head", "huge"]),
         "groups[1] must be one of ['head', 'medium', 'tail'], got 'huge'"),
        (None, checkpoint_meta(groups=["head"]),
         "groups must have 2 entries, one per class name, got ['head']"),
        (None, checkpoint_meta(class_counts=[3, -1]), "class_counts[1] must be an int >= 0, got -1"),
        (None, checkpoint_meta(class_counts=[3, 1.5]), "class_counts[1] must be an int >= 0, got 1.5"),
        (None, checkpoint_meta(class_counts=[True, 3]), "class_counts[0] must be an int >= 0, got True"),
        (None, checkpoint_meta(class_counts=[3]),
         "class_counts must have 2 entries, one per class name, got [3]"),
        (None, checkpoint_meta(history={"epoch": 0}), "history must be a list, got {'epoch': 0}"),
        (None, checkpoint_meta(history=[1]), "history[0] must be an object, got 1"),
        (None, checkpoint_meta(data_sha256=5), "data_sha256 must be a 64-character"),
        (None, checkpoint_meta(data_sha256="abc"), "data_sha256 must be a 64-character"),
        (None, checkpoint_meta(epoch=1.5), "epoch must be an int >= 0, got 1.5"),
        (None, checkpoint_meta(epoch=True), "epoch must be an int >= 0, got True"),
        (None, checkpoint_meta(adam={"t": "3", "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}),
         "adam.t must be an int >= 0, got '3'"),
        (None, checkpoint_meta(adam={"t": 3, "beta1": 0.9, "beta2": None, "eps": 1e-8}),
         "adam.beta2 must be a finite number, got None"),
        (None, checkpoint_meta(adam={"t": 3, "beta1": 0.9, "beta2": 0.999, "eps": []}),
         "adam.eps must be a finite number, got []"),
        (None, checkpoint_meta(tensors={}), "unknown keys ['tensors']"),
        (None, checkpoint_meta(epochs=3), "unknown keys ['epochs']"),
    ], ids=["non-utf8-name", "empty-metadata", "list-metadata", "dims-missing-keys",
            "class-names-int", "class-name-not-str", "group-unknown-tag",
            "groups-short", "count-negative", "count-float", "count-bool",
            "counts-short", "history-dict", "history-entry-int", "sha-int",
            "sha-short", "epoch-float", "epoch-bool", "adam-t-str", "adam-beta-none",
            "adam-eps-list", "tensors-key", "unknown-key"])
    def test_malformed_checkpoint_is_a_format_error(self, tmp_path, header, meta, message):
        p = write_checkpoint_file(tmp_path / "bad.cprc", meta, header=header)
        with pytest.raises(FileFormatError, match=re.escape(str(p))) as info:
            load_checkpoint(p)
        assert message in str(info.value)

    def test_golden_bytes(self, tmp_path):
        p = tmp_path / "golden.cprc"
        save_checkpoint(p, golden_checkpoint())
        assert hashlib.sha256(p.read_bytes()).hexdigest() == GOLDEN_SHA256
        loaded, golden = load_checkpoint(p), golden_checkpoint()
        assert dataclasses.replace(loaded, tensors={}) == dataclasses.replace(golden, tensors={})
        assert {n: a.tolist() for n, a in loaded.tensors.items()} == {
            n: a.tolist() for n, a in golden.tensors.items()}

    @pytest.mark.parametrize("name", ["groups", "class_counts"])
    def test_per_class_lists_must_match_class_names(self, tmp_path, name):
        """Built directly or changed after it was built, a checkpoint whose
        per-class list is short is refused, and save writes no file."""
        golden = golden_checkpoint()
        message = f"{name} must have 2 entries, one per class name"
        with pytest.raises(ValueError, match=message):
            Checkpoint(**{**vars(golden), name: getattr(golden, name)[:1]})
        setattr(golden, name, getattr(golden, name)[:1])
        with pytest.raises(ValueError, match=message):
            save_checkpoint(tmp_path / "short.cprc", golden)
        assert list(tmp_path.iterdir()) == []

    def test_valid_metadata_loads(self, tmp_path):
        ckpt = load_checkpoint(write_checkpoint_file(tmp_path / "meta.cprc",
                                                     checkpoint_meta()))
        assert (ckpt.class_names, ckpt.groups, ckpt.class_counts) == (
            ["a", "b"], ["head", "tail"], [150, 3])

    def test_metadata_echo(self, tmp_path):
        cfg, result = self._train_small(tmp_path)
        ckpt = load_checkpoint(result.final_checkpoint)
        assert ckpt.config.to_dict() == cfg.to_dict()
        assert ckpt.epoch == cfg.epochs - 1
        assert len(ckpt.history) == cfg.epochs
        assert ckpt.groups == load_groups_helper()
        assert len(ckpt.class_names) == cfg.dims.c

    def test_missing_tensor_detected(self, tmp_path):
        _, result = self._train_small(tmp_path)
        ckpt = load_checkpoint(result.final_checkpoint)
        del ckpt.tensors["projection.w"]
        with pytest.raises(CheckpointMismatchError, match="projection.w"):
            restore(ckpt)


def load_groups_helper():
    train_ds, _ = tiny_data()
    return split_groups(train_ds.class_counts)


class TestTrainingLoop:
    def test_two_runs_bitwise_identical(self, tmp_path):
        cfg = tiny_config()
        train_ds, test_ds = tiny_data()
        r1 = train_on_datasets(cfg, train_ds, test_ds, tmp_path / "a")
        r2 = train_on_datasets(cfg, train_ds, test_ds, tmp_path / "b")
        assert r1.history == r2.history
        for name, p in r1.params.all_tensors().items():
            assert p.data.tobytes() == r2.params.all_tensors()[name].data.tobytes()
        a = open(r1.final_checkpoint, "rb").read()
        b = open(r2.final_checkpoint, "rb").read()
        assert a == b

    @pytest.mark.parametrize("literal, nodes", [(False, 23), (True, 18)])
    def test_one_training_step_builds_a_fixed_number_of_tensors(self, monkeypatch,
                                                                 literal, nodes):
        """Queries and every stage after attention run on the prompt rows
        only, and attention is one node.  Per step: projection 2, prompt
        net 3, broadcast 1, [F; P] 1, q/k/v 3, attention 1, feed-forward 3,
        classifier 3, loss 1; the standard path adds the output map, two
        residuals and two norms."""
        from promptrefine.data import embedding_provider
        from promptrefine.losses import get_loss
        from promptrefine.model import init_model
        train_ds, _ = tiny_data()
        emb = embedding_provider("random", c=6, m=7, seed=0,
                                 class_names=train_ds.class_names)
        params = init_model(tiny_config().dims, emb, seed=0, literal_equations=literal)
        adam = Adam(params.learnable(), 1e-3, 1e-4)
        built = []
        init = vars(ad.Tensor)["__init__"]

        def counting_init(t, *a, **k):
            built.append(t)
            init(t, *a, **k)

        monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
        training.run_epoch(train_ds, 0, 0, len(train_ds),
                           lambda batch: forward_batch(batch, params), get_loss("asl"), adam)
        assert len(built) == nodes

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        cfg = tiny_config(epochs=4)
        train_ds, test_ds = tiny_data()
        full = train_on_datasets(cfg, train_ds, test_ds, tmp_path / "full")

        part = train_on_datasets(tiny_config(epochs=2), train_ds, test_ds,
                                 tmp_path / "part")
        # the first two epochs' checkpoints agree up to the config echo,
        # so resume from the 4-epoch config's own epoch-1 checkpoint
        resumed = train_on_datasets(
            cfg, train_ds, test_ds, tmp_path / "resumed",
            resume_from=tmp_path / "full" / "checkpoint_epoch_001.cprc")
        assert resumed.history == full.history
        a = open(full.final_checkpoint, "rb").read()
        b = open(resumed.final_checkpoint, "rb").read()
        assert a == b
        # epoch shuffles are keyed by (seed, epoch), not by total epochs,
        # so the shorter run's history is a prefix of the longer run's
        assert part.history == full.history[:2]

    def test_resume_reads_only_the_checkpoint(self, tmp_path, monkeypatch):
        """A file-embedding run resumes from its checkpoint alone: with the
        embedding file deleted, the resumed run still ends in the
        uninterrupted run's bytes, and never builds a model of its own."""
        train_ds, test_ds = tiny_data()
        emb_path = tmp_path / "emb.cpre"
        save_embeddings(train_ds.class_names,
                        np.random.default_rng(5).standard_normal((train_ds.c, 7)), emb_path)
        cfg = tiny_config(epochs=2, embedding={"mode": "file", "path": str(emb_path)})
        full = train_on_datasets(cfg, train_ds, test_ds, tmp_path / "full")
        emb_path.unlink()
        built = []
        for name in ("embedding_provider", "init_model"):
            monkeypatch.setattr(training, name, lambda *a, _n=name, _f=getattr(training, name),
                                **k: built.append(_n) or _f(*a, **k))
        resumed = train_on_datasets(
            cfg, train_ds, test_ds, tmp_path / "resumed",
            resume_from=tmp_path / "full" / "checkpoint_epoch_000.cprc")
        assert built == []
        assert resumed.history == full.history
        assert (Path(resumed.final_checkpoint).read_bytes()
                == Path(full.final_checkpoint).read_bytes())

    def test_resume_rejects_different_config(self, tmp_path):
        cfg = tiny_config(epochs=2)
        train_ds, test_ds = tiny_data()
        r = train_on_datasets(cfg, train_ds, test_ds, tmp_path / "run")
        other = tiny_config(epochs=3, learning_rate=2e-3)
        with pytest.raises(CheckpointMismatchError, match="different config"):
            train_on_datasets(other, train_ds, test_ds, tmp_path / "run2",
                              resume_from=r.final_checkpoint)

    def test_resume_rejects_different_training_data(self, tmp_path):
        cfg = tiny_config(epochs=3)
        train_ds, test_ds = tiny_data()
        other_train, _ = tiny_data(seed=1)
        train_on_datasets(cfg, train_ds, test_ds, tmp_path / "run")
        with pytest.raises(CheckpointMismatchError, match="different training data"):
            train_on_datasets(cfg, other_train, test_ds, tmp_path / "run2",
                              resume_from=tmp_path / "run" / "checkpoint_epoch_000.cprc")

    def test_resume_rejects_other_class_names(self, tmp_path):
        """The same arrays under other names are other training data: the
        resume is refused, naming the checkpoint, and writes nothing."""
        cfg = tiny_config(epochs=2)
        train_ds, test_ds = tiny_data()
        train_on_datasets(cfg, train_ds, test_ds, tmp_path / "run")
        names = [f"other_{i}" for i in range(train_ds.c)]
        renamed = [LongTailDataset(ds.features, ds.labels, names) for ds in (train_ds, test_ds)]
        resume_from = tmp_path / "run" / "checkpoint_epoch_000.cprc"
        with pytest.raises(CheckpointMismatchError,
                           match=re.escape(f"{resume_from}: class names differ")):
            train_on_datasets(cfg, *renamed, tmp_path / "run2", resume_from=resume_from)
        assert list((tmp_path / "run2").glob("*.cprc")) == []

    def test_restore_refuses_a_class_name_count_other_than_dims_c(self, tmp_path):
        cfg = tiny_config(epochs=1)
        train_ds, test_ds = tiny_data()
        train_on_datasets(cfg, train_ds, test_ds, tmp_path / "run")
        tensors, meta = read_container(tmp_path / "run" / "checkpoint_final.cprc",
                                       training.CHECKPOINT_MAGIC, training.CHECKPOINT_SCHEMA)
        for name in ("class_names", "groups", "class_counts"):
            meta[name] = meta[name][:-1]
        edited = tmp_path / "edited.cprc"
        write_container(edited, training.CHECKPOINT_MAGIC, tensors, meta)
        with pytest.raises(CheckpointMismatchError, match="5 class names, dims.c = 6"):
            restore(load_checkpoint(edited))

    def test_restore_refuses_a_checkpoint_without_the_embedding(self, tmp_path):
        train_ds, test_ds = tiny_data()
        train_on_datasets(tiny_config(epochs=1), train_ds, test_ds, tmp_path / "run")
        tensors, meta = read_container(tmp_path / "run" / "checkpoint_final.cprc",
                                       training.CHECKPOINT_MAGIC, training.CHECKPOINT_SCHEMA)
        del tensors["embedding.W"]
        edited = tmp_path / "edited.cprc"
        write_container(edited, training.CHECKPOINT_MAGIC, tensors, meta)
        with pytest.raises(CheckpointMismatchError, match="checkpoint is missing embedding.W"):
            restore(load_checkpoint(edited))

    def test_evaluate_refuses_a_feature_file_with_other_class_names(self, tmp_path):
        train_ds, test_ds = tiny_data()
        r = train_on_datasets(tiny_config(epochs=1), train_ds, test_ds, tmp_path / "run")
        renamed = tmp_path / "renamed.cprf"
        save_features(LongTailDataset(test_ds.features, test_ds.labels,
                                      [f"other_{i}" for i in range(test_ds.c)]), renamed)
        with pytest.raises(CheckpointMismatchError,
                           match=re.escape(f"{renamed}: class names differ from the checkpoint's")):
            evaluate(r.final_checkpoint, renamed)

    @pytest.mark.parametrize("key, value", [("beta1", 0.5), ("beta2", 0.99), ("eps", 1e-3)])
    def test_resume_refuses_other_adam_scalars(self, tmp_path, key, value):
        cfg = tiny_config(epochs=2)
        train_ds, test_ds = tiny_data()
        train_on_datasets(cfg, train_ds, test_ds, tmp_path / "run")
        tensors, meta = read_container(tmp_path / "run" / "checkpoint_epoch_000.cprc",
                                       training.CHECKPOINT_MAGIC, training.CHECKPOINT_SCHEMA)
        meta["adam"][key] = value
        edited = tmp_path / "edited.cprc"
        write_container(edited, training.CHECKPOINT_MAGIC, tensors, meta)
        save_features(test_ds, tmp_path / "test.cprf")
        with pytest.raises(CheckpointMismatchError, match=f"adam.{key} = {value!r}"):
            evaluate(edited, tmp_path / "test.cprf")
        with pytest.raises(CheckpointMismatchError, match=f"adam.{key} = {value!r}"):
            train_on_datasets(cfg, train_ds, test_ds, tmp_path / "run2", resume_from=edited)

    @pytest.mark.parametrize("name, shape, message", [
        ("interaction.w_typo", (3, 3), r"unknown tensors \['interaction.w_typo'\]"),
        ("adam.m.ghost", (2,), r"unknown tensors \['adam.m.ghost'\]"),
        ("adam.v.projection.b", None, "missing tensor adam.v.projection.b"),
        ("adam.m.projection.b", (1,), r"tensor adam.m.projection.b has shape \(1,\)"),
    ], ids=["extra-model-tensor", "extra-moment", "missing-moment", "misshapen-moment"])
    def test_eval_and_resume_refuse_other_tensors(self, tmp_path, name, shape, message):
        cfg = tiny_config(epochs=2)
        train_ds, test_ds = tiny_data()
        train_on_datasets(cfg, train_ds, test_ds, tmp_path / "run")
        tensors, meta = read_container(tmp_path / "run" / "checkpoint_epoch_000.cprc",
                                       training.CHECKPOINT_MAGIC, training.CHECKPOINT_SCHEMA)
        if shape is None:
            del tensors[name]
        else:
            tensors[name] = np.zeros(shape)
        edited = tmp_path / "edited.cprc"
        write_container(edited, training.CHECKPOINT_MAGIC, tensors, meta)
        save_features(test_ds, tmp_path / "test.cprf")
        with pytest.raises(CheckpointMismatchError, match=message):
            evaluate(edited, tmp_path / "test.cprf")
        with pytest.raises(CheckpointMismatchError, match=message):
            train_on_datasets(cfg, train_ds, test_ds, tmp_path / "run2", resume_from=edited)

    def test_history_metrics_present_and_finite(self, tmp_path):
        cfg = tiny_config()
        train_ds, test_ds = tiny_data()
        r = train_on_datasets(cfg, train_ds, test_ds, tmp_path / "run")
        assert len(r.history) == cfg.epochs
        for h in r.history:
            assert set(h) == {"epoch", "train_loss", "map_total", "map_head",
                              "map_medium", "map_tail"}
            assert np.isfinite(h["train_loss"])
            assert h["map_total"] is None or 0.0 <= h["map_total"] <= 1.0

    def test_loss_decreases(self, tmp_path):
        cfg = tiny_config(epochs=5, learning_rate=2e-3)
        train_ds, test_ds = tiny_data(n_max=40)
        r = train_on_datasets(cfg, train_ds, test_ds, tmp_path / "run")
        assert r.history[-1]["train_loss"] < r.history[0]["train_loss"]

    def test_non_finite_loss_names_epoch_and_batch(self, tmp_path, monkeypatch):
        """Both trainers share the epoch loop and its non-finite check."""
        def nan_loss(name, loss_cfg=None):
            return lambda s, y: ad.inner_sum([s], [np.full(s.shape, np.nan)])

        monkeypatch.setattr(training, "get_loss", nan_loss)
        monkeypatch.setattr(baseline, "get_loss", nan_loss)
        train_ds, test_ds = tiny_data()
        with pytest.raises(ad.NonFiniteError, match="epoch 0 batch 0"):
            train_on_datasets(tiny_config(), train_ds, test_ds, tmp_path / "run")
        with pytest.raises(ad.NonFiniteError, match="epoch 0 batch 0"):
            baseline.train_baseline(train_ds, test_ds, epochs=1)

    def test_non_finite_scores_name_epoch_and_batch(self, tmp_path, monkeypatch):
        """A NaN score stops training at its batch, before the backward
        can carry it into the weights."""
        calls = []

        def nan_in_batch_1(features, params):
            scores = forward_batch(features, params)
            if len(calls) == 1:
                scores.data[0, 0] = np.nan
            calls.append(len(features))
            return scores

        monkeypatch.setattr(training, "forward_batch", nan_in_batch_1)
        train_ds, test_ds = tiny_data()
        with pytest.raises(ad.NonFiniteError,
                           match=r"scores are not finite: \[nan\] at epoch 0 batch 1"):
            train_on_datasets(tiny_config(), train_ds, test_ds, tmp_path / "run")
        assert len(calls) == 2

    def test_non_finite_gradient_names_the_parameter_epoch_and_batch(self, tmp_path,
                                                                       monkeypatch):
        """A NaN gradient stops training at its batch, before Adam applies
        it, and no checkpoint is written."""
        from promptrefine.model import init_model
        built, calls = [], []
        backward = ad.backward

        def nan_after_batch_1(loss):
            backward(loss)
            if len(calls) == 1:
                built[0].tensors["interaction.b_ffn_in"].grad[0] = np.nan
            calls.append(1)

        monkeypatch.setattr(training, "init_model",
                            lambda *a, **k: built.append(init_model(*a, **k)) or built[0])
        monkeypatch.setattr(ad, "backward", nan_after_batch_1)
        train_ds, test_ds = tiny_data()
        with pytest.raises(ad.NonFiniteError, match=re.escape(
                "gradients are not finite: ['interaction.b_ffn_in'] at epoch 0 batch 1")):
            train_on_datasets(tiny_config(), train_ds, test_ds, tmp_path / "run")
        assert not (tmp_path / "run" / "checkpoint_epoch_000.cprc").exists()

    def test_dimension_mismatch_rejected(self, tmp_path):
        cfg = tiny_config(dims=ModelDims(d0=5, d=8, v=4, c=9, heads=2, ffn=12))
        train_ds, test_ds = tiny_data()  # c = 6
        with pytest.raises(ValueError, match="classes"):
            train_on_datasets(cfg, train_ds, test_ds, tmp_path / "run")

    def test_features_must_match_config_dims(self, tmp_path):
        train_ds, test_ds = tiny_data(v=5)   # the config expects v = 4
        with pytest.raises(ValueError, match=re.escape(
                "data features are (5, 5), config dims expect (4, 5)")):
            train_on_datasets(tiny_config(), train_ds, test_ds, tmp_path / "run")

    def test_resume_from_the_last_epoch_trains_no_epoch(self, tmp_path, monkeypatch):
        """Resuming from the last epoch's checkpoint runs no epoch, reports
        the uninterrupted run's history and final scores, and writes its
        final checkpoint byte for byte."""
        cfg = tiny_config()
        train_ds, test_ds = tiny_data()
        full = train_on_datasets(cfg, train_ds, test_ds, tmp_path / "full")

        def no_epoch(*args):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr(training, "run_epoch", no_epoch)
        resumed = train_on_datasets(
            cfg, train_ds, test_ds, tmp_path / "resumed",
            resume_from=tmp_path / "full" / f"checkpoint_epoch_{cfg.epochs - 1:03d}.cprc")
        assert resumed.history == full.history
        assert resumed.final_report.to_dict() == full.final_report.to_dict()
        assert (Path(resumed.final_checkpoint).read_bytes()
                == Path(full.final_checkpoint).read_bytes())

    @pytest.mark.parametrize("trainer", ["prompt", "baseline"])
    @pytest.mark.parametrize("other_test, message", [
        (lambda test: LongTailDataset(test.features, test.labels,
                                      [f"other_{i}" for i in range(6)]),
         "test split class names differ from the training split's"),
        (lambda test: tiny_data(c=7)[1], "test split has 7 classes, training split has 6"),
        (lambda test: tiny_data(v=5)[1],
         "test split features are (v, d0) = (5, 5), training split's are (4, 5)"),
    ], ids=["class-names", "class-count", "tokens"])
    def test_test_split_must_match_training_split(self, tmp_path, monkeypatch, trainer,
                                                  other_test, message):
        """Both trainers refuse the test split before the first epoch."""
        def no_epoch(*args):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr(training, "run_epoch", no_epoch)
        monkeypatch.setattr(baseline, "run_epoch", no_epoch)
        train_ds, test_ds = tiny_data()
        with pytest.raises(ValueError, match=re.escape(message)):
            if trainer == "prompt":
                train_on_datasets(tiny_config(), train_ds, other_test(test_ds), tmp_path / "run")
            else:
                baseline.train_baseline(train_ds, other_test(test_ds), epochs=1)

    def test_file_based_train_and_evaluate(self, tmp_path):
        train_ds, test_ds = tiny_data()
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        save_features(train_ds, data_dir / "train.cprf")
        save_features(test_ds, data_dir / "test.cprf")
        cfg = tiny_config()
        r = train(cfg, data_dir, tmp_path / "out")
        report = evaluate(r.final_checkpoint, data_dir / "test.cprf")
        assert report.to_dict() == r.final_report.to_dict()


class TestUntrainedScores:
    def test_untrained_map_near_prevalence_baseline(self):
        # an untrained model scores roughly at chance; mean AP under random
        # ranking is about the positive prevalence per class
        from promptrefine.model import init_model
        from promptrefine.data import embedding_provider

        train_ds, test_ds = tiny_data(n_max=50)
        cfg = tiny_config()
        emb = embedding_provider("random", c=6, m=7, seed=0,
                                 class_names=train_ds.class_names)
        params = init_model(cfg.dims, emb, seed=0)
        scores = score_dataset(params, test_ds)
        from promptrefine.metrics import map_report
        report = map_report(scores, test_ds.labels, split_groups(train_ds.class_counts))
        prevalence = test_ds.labels.mean()
        assert abs(report.map_total - prevalence) < 0.15

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("literal", [False, True])
    def test_chunking_invariance(self, monkeypatch, literal, heads):
        train_ds, test_ds = tiny_data()
        cfg = tiny_config(dims=ModelDims(d0=5, d=8, v=4, c=6, heads=heads, ffn=12))
        from promptrefine.model import init_model
        from promptrefine.data import embedding_provider
        emb = embedding_provider("random", c=6, m=7, seed=0,
                                 class_names=train_ds.class_names)
        params = init_model(cfg.dims, emb, seed=0, literal_equations=literal)
        monkeypatch.setattr(training, "EVAL_CHUNK", 3)
        a = score_dataset(params, test_ds)
        monkeypatch.setattr(training, "EVAL_CHUNK", 100)
        b = score_dataset(params, test_ds)
        assert a.tobytes() == b.tobytes()


    def test_scoring_keeps_no_graph(self):
        """score_dataset runs under no_grad, so its traced peak on one chunk
        stays under half that of the same forward built with gradients."""
        _, test_ds = tiny_data(n_max=60)
        from promptrefine.model import init_model
        from promptrefine.data import embedding_provider
        emb = embedding_provider("random", c=6, m=7, seed=0,
                                 class_names=test_ds.class_names)
        params = init_model(tiny_config().dims, emb, seed=0)
        assert len(test_ds) < training.EVAL_CHUNK
        # Run both forwards once untraced, so one-time costs such as the
        # first GELU's scipy.special import fall outside the traced window
        # and the test does not depend on which tests ran before it.
        score_dataset(params, test_ds)
        forward_batch(test_ds.features, params)

        def traced_peak(fn):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                fn()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        scored = traced_peak(lambda: score_dataset(params, test_ds))
        built = traced_peak(lambda: forward_batch(test_ds.features, params).data)
        assert scored < 0.5 * built, (scored, built)

    def test_scoring_one_bench_a_chunk_peaks_under_15_mib(self):
        """score_dataset over one full EVAL_CHUNK of bench-A shaped samples
        (d=32, 4 heads, 20 classes, 8 tokens) keeps its traced numpy peak
        under 15 MiB: attention works on views of its operands, and GELU
        and layer norm work in place."""
        from promptrefine.data import embedding_provider
        from promptrefine.model import init_model
        rng = np.random.default_rng(11)
        n = training.EVAL_CHUNK
        labels = np.zeros((n, 20), dtype=np.uint8)
        labels[np.arange(n), rng.integers(0, 20, n)] = 1
        ds = LongTailDataset(rng.standard_normal((n, 8, 8)), labels,
                             [f"class{i}" for i in range(20)])
        params = init_model(ModelDims(d0=8, d=32, v=8, c=20, heads=4, ffn=64),
                            embedding_provider("random", c=20, m=8, seed=11), seed=11)
        # warm both forwards, as test_scoring_keeps_no_graph does
        score_dataset(params, ds)
        forward_batch(ds.features[:32], params)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            score_dataset(params, ds)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 15 * 2**20, peak / 2**20


class TestAtomicWrites:
    """Each writer goes through a temp file and os.replace: a write that
    fails part-way leaves the old file as it was and no temp file."""

    @staticmethod
    def _write_checkpoint(path):
        cfg = tiny_config()
        train_ds, _ = tiny_data()
        from promptrefine.data import embedding_provider
        from promptrefine.model import init_model
        emb = embedding_provider("random", c=6, m=7, seed=0,
                                 class_names=train_ds.class_names)
        params = init_model(cfg.dims, emb, seed=0)
        adam = Adam(params.learnable(), cfg.learning_rate)
        save_checkpoint(path, Checkpoint(
            config=cfg, epoch=0, history=[], adam={"t": adam.t, **Adam.SCALARS},
            class_names=train_ds.class_names, groups=split_groups(train_ds.class_counts),
            class_counts=train_ds.class_counts.tolist(), data_sha256="0" * 64,
            tensors=checkpoint_tensors(params, adam)))

    @staticmethod
    def _write_features(path):
        save_features(tiny_data()[0], path)

    @staticmethod
    def _write_embeddings(path):
        save_embeddings(["a", "b"], np.ones((2, 3)), path)

    @pytest.fixture(scope="class", autouse=True)
    def eval_inputs(self, request, tmp_path_factory):
        """A checkpoint and a test split for ``_write_report`` to read, made
        before ``write_bytes`` is patched and outside each test's directory."""
        d = tmp_path_factory.mktemp("eval-inputs")
        self._write_checkpoint(d / "model.cprc")
        save_features(tiny_data()[1], d / "test.cprf")
        request.cls.eval_dir = d

    @classmethod
    def _write_report(cls, path):
        args = cli.build_parser().parse_args([
            "eval", "--checkpoint", str(cls.eval_dir / "model.cprc"),
            "--data", str(cls.eval_dir / "test.cprf"), "--report", str(path)])
        args.func(args)

    @pytest.mark.parametrize("writer", ["_write_checkpoint", "_write_features",
                                        "_write_embeddings", "_write_report"])
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, writer):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old contents")
        real_write_bytes = Path.write_bytes

        def half_then_fail(self, data):
            real_write_bytes(self, data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_bytes", half_then_fail)
        with pytest.raises(OSError, match="No space"):
            getattr(self, writer)(target)
        monkeypatch.undo()
        assert target.read_bytes() == b"old contents"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

        getattr(self, writer)(target)
        assert target.read_bytes() != b"old contents"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


class TestGradcheckEntry:
    def test_small_model_passes(self):
        cfg = tiny_config(dims=ModelDims(d0=4, d=8, v=3, c=4, heads=2, ffn=8),
                          embedding={"mode": "random", "path": None, "m": 5, "seed": 1})
        report = run_gradcheck(cfg, eps=1e-5)
        assert isinstance(report, ad.GradCheckResult)
        assert type(report.max_rel_error) is float
        assert report.max_rel_error < 1e-4, f"max rel error {report.max_rel_error:.2e}"
        assert report.n_entries > 0

    def test_passes_when_a_drawn_label_row_is_empty(self):
        # At these dims seed 3 draws no positive for the first sample, so
        # run_gradcheck gives that row one before the loss sees it.
        dims = ModelDims(d0=4, d=8, v=3, c=4, heads=2, ffn=8)
        rng = np.random.default_rng(3)
        rng.standard_normal((GRADCHECK_BATCH, dims.v, dims.d0))
        assert not (rng.uniform(size=(GRADCHECK_BATCH, dims.c)) < 0.4)[0].any()
        cfg = tiny_config(dims=dims, seed=3,
                          embedding={"mode": "random", "path": None, "m": 5, "seed": 1})
        report = run_gradcheck(cfg, eps=1e-5)
        assert report.max_rel_error < 1e-4, f"max rel error {report.max_rel_error:.2e}"

    def test_refuses_oversized_model(self):
        cfg = tiny_config(dims=ModelDims(d0=64, d=128, v=8, c=32, heads=4, ffn=256),
                          embedding={"mode": "random", "path": None, "m": 64, "seed": 0})
        with pytest.raises(ValueError, match="capped"):
            run_gradcheck(cfg)

    def test_detects_injected_backward_bug(self, monkeypatch):
        # A checker that never fails is worthless: scale gelu's backward by
        # 0.1% and the report must blow past tolerance by orders of magnitude.
        true_gelu = ad.gelu

        def buggy_gelu(x):
            out = true_gelu(x)
            real_bw = out._backward

            def _bw(g):
                real_bw(g * 1.001)

            out._backward = _bw
            return out

        monkeypatch.setattr(ad, "gelu", buggy_gelu)
        cfg = tiny_config(dims=ModelDims(d0=4, d=8, v=3, c=4, heads=2, ffn=8),
                          embedding={"mode": "random", "path": None, "m": 5, "seed": 1})
        report = run_gradcheck(cfg, eps=1e-5)
        assert report.max_rel_error > 1e-3

    @staticmethod
    def full_forward_check(cfg, eps=1e-5):
        """The check as one ``grad_check`` over the whole forward, at the
        point ``run_gradcheck`` settles to: the same model, batch, labels
        and settle steps, built here without its stages."""
        dims = cfg.dims
        rng = np.random.default_rng(cfg.seed)
        embedding = embedding_provider(**cfg.embedding, c=dims.c)
        params = init_model(dims, embedding, seed=cfg.seed,
                            literal_equations=cfg.literal_equations)
        features = rng.standard_normal((GRADCHECK_BATCH, dims.v, dims.d0))
        labels = (rng.uniform(size=(GRADCHECK_BATCH, dims.c)) < 0.4).astype(np.uint8)
        for i in range(GRADCHECK_BATCH):
            if labels[i].sum() == 0:
                labels[i, int(rng.integers(dims.c))] = 1
        loss_fn = get_loss(cfg.loss["name"], cfg.loss)

        def bare():
            return loss_fn(forward_batch(features, params), labels)

        adam = Adam(params.learnable(), learning_rate=1e-2)
        for _ in range(training.GRADCHECK_SETTLE_STEPS):
            adam.zero_grad()
            loss = bare()
            if float(loss.data) < training.GRADCHECK_SETTLE_LOSS:
                break
            ad.backward(loss)
            adam.step()
        return ad.grad_check(bare, params.learnable(), eps=eps, floor=training.GRADCHECK_FLOOR)

    @pytest.mark.parametrize("literal", [False, True])
    @pytest.mark.parametrize("loss", ["asl", "bce", "focal"])
    def test_staged_probes_equal_one_check_over_the_whole_forward(self, loss, literal):
        cfg = tiny_config(dims=ModelDims(d0=4, d=8, v=3, c=4, heads=2, ffn=8),
                          loss={"name": loss}, literal_equations=literal,
                          embedding={"mode": "random", "path": None, "m": 5, "seed": 1})
        report = run_gradcheck(cfg, eps=1e-5)
        oracle = self.full_forward_check(cfg, eps=1e-5)
        assert report.max_rel_error == oracle.max_rel_error
        assert (report.worst_param, report.n_entries) == (oracle.worst_param, oracle.n_entries)

    def test_held_stages_do_not_hide_a_bug_upstream_of_them(self, monkeypatch):
        # concat_rows scales the gradient reaching the tokens F by 1.001.  F is
        # held fixed for every tensor after the projection, so only the
        # projection's probes, which run the whole forward, can see it.  The
        # projection is linear in F's gradient, so its entries read the
        # defect in full: 0.001 / 1.001, ten times the CLI's tolerance.
        true_concat = ad.concat_rows

        def buggy_concat(a, b):
            out = true_concat(a, b)
            real_bw, n = out._backward, a.shape[-2]
            if real_bw is not None:
                out._backward = lambda g: real_bw(
                    np.concatenate([g[..., :n, :] * 1.001, g[..., n:, :]], axis=-2))
            return out

        monkeypatch.setattr(ad, "concat_rows", buggy_concat)
        cfg = tiny_config(dims=ModelDims(d0=4, d=8, v=3, c=4, heads=2, ffn=8),
                          embedding={"mode": "random", "path": None, "m": 5, "seed": 1})
        report = run_gradcheck(cfg, eps=1e-5)
        assert report.max_rel_error == pytest.approx(0.001 / 1.001, rel=1e-3)
        assert report.worst_param.startswith("projection.")

    def test_a_tensor_probed_from_a_stage_that_does_not_read_it_is_refused(self, monkeypatch):
        # w_q probed from the feed-forward sublayer would read zero on both
        # sides and pass unchecked
        monkeypatch.setattr(training, "GRADCHECK_FEED_FORWARD",
                            training.GRADCHECK_FEED_FORWARD + ("interaction.w_q",))
        cfg = tiny_config(dims=ModelDims(d0=4, d=8, v=3, c=4, heads=2, ffn=8),
                          embedding={"mode": "random", "path": None, "m": 5, "seed": 1})
        with pytest.raises(RuntimeError, match=r"interaction\.w_q's feed_forward gradient"):
            run_gradcheck(cfg, eps=1e-5)
