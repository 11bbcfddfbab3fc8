"""Tests for the mean-pooled linear baseline."""

import numpy as np
import pytest
from scipy.special import expit

from promptrefine import autodiff as ad
from promptrefine.baseline import (
    baseline_forward_batch,
    init_baseline,
    score_baseline,
    train_baseline,
)
from promptrefine.data import GeneratorConfig, generate_synthetic_lt, split_groups
from promptrefine.losses import get_loss
from promptrefine.metrics import map_report
from promptrefine.training import Adam, run_epoch


def tiny_data(seed=0, c=6, v=4, d0=5, n_max=40):
    cfg = GeneratorConfig(c=c, v=v, d0=d0, n_max=n_max, seed=seed,
                          pareto_exponent=1.0, co_occurrence_strength=0.2,
                          noise_sigma=0.4, test_per_class=6)
    return generate_synthetic_lt(cfg)


class TestForward:
    def test_matches_plain_numpy_oracle(self):
        rng = np.random.default_rng(5)
        params = init_baseline(d0=5, c=4, seed=5)
        feats = [rng.standard_normal((3, 5)) for _ in range(6)]

        got = baseline_forward_batch(feats, params).data

        pooled = np.stack([f.mean(axis=0) for f in feats])
        want = expit(pooled @ params.w.data + params.b.data)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_pools_a_fancy_indexed_batch_like_per_sample_means(self):
        """Pooling the (B, v, d0) batch over axis 1 gives, byte for byte,
        the stack of each sample's token mean."""
        train_ds, _ = tiny_data()
        params = init_baseline(d0=5, c=6, seed=0)
        idx = np.array([7, 0, 3, 3, 12])
        batch = train_ds.features[idx]
        pooled = np.stack([train_ds.features[i].mean(axis=0) for i in idx])
        assert batch.mean(axis=1).tobytes() == pooled.tobytes()
        with pytest.raises(ad.ShapeError, match=r"\(B, v, d0\)"):
            baseline_forward_batch(batch[0], params)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        params = init_baseline(d0=5, c=4, seed=11)
        feats = [rng.standard_normal((3, 5)) for _ in range(4)]
        labels = (rng.uniform(size=(4, 4)) < 0.5).astype(float)
        loss_fn = get_loss("bce", None)

        def f():
            return loss_fn(baseline_forward_batch(feats, params), labels)

        result = ad.grad_check(f, params.learnable(), eps=1e-5)
        assert result.max_rel_error < 1e-6, result.worst_param


class TestTraining:
    def test_deterministic(self):
        train_ds, test_ds = tiny_data(seed=3)
        p1, r1 = train_baseline(train_ds, test_ds, epochs=2,
                                learning_rate=1e-3, seed=4)
        p2, r2 = train_baseline(train_ds, test_ds, epochs=2,
                                learning_rate=1e-3, seed=4)
        assert p1.w.data.tobytes() == p2.w.data.tobytes()
        assert p1.b.data.tobytes() == p2.b.data.tobytes()
        assert r1.to_dict() == r2.to_dict()

    def test_learns_above_untrained_scores(self):
        train_ds, test_ds = tiny_data(seed=8)
        untrained = map_report(
            score_baseline(init_baseline(5, 6, seed=2), test_ds),
            test_ds.labels, split_groups(train_ds.class_counts))
        _, trained = train_baseline(train_ds, test_ds, epochs=10,
                                    learning_rate=1e-2, seed=2)
        assert trained.map_total > untrained.map_total + 0.15

    def test_one_training_step_builds_four_tensors(self, monkeypatch):
        """The pooled features, linear, sigmoid and the one-node loss: a
        step through ``run_epoch`` builds nothing else."""
        train_ds, _ = tiny_data()
        params = init_baseline(5, 6, seed=0)
        adam = Adam(params.learnable(), 1e-3, 1e-4)
        built = []
        init = vars(ad.Tensor)["__init__"]

        def counting_init(t, *a, **k):
            built.append(t)
            init(t, *a, **k)

        monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
        run_epoch(train_ds, 0, 0, len(train_ds),
                  lambda batch: baseline_forward_batch(batch, params), get_loss("asl"), adam)
        assert len(built) == 4
