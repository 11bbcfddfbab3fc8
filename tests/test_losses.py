"""Loss-function tests: frozen scalar values, degeneration identities,
batch-reduction semantics, and gradient behavior at the margin kink."""

import math

import numpy as np
import pytest

from promptrefine import autodiff as ad
from promptrefine.losses import ASLConfig, asl, bce, focal, get_loss


def asl_oracle(s: np.ndarray, y: np.ndarray, gamma_pos: float, gamma_neg: float,
               mu: float, eps: float = 1e-8) -> float:
    """Straight-line reimplementation: plain python over flat arrays."""
    s = np.atleast_2d(s)
    y = np.atleast_2d(y)
    total = 0.0
    for r in range(s.shape[0]):
        for j in range(s.shape[1]):
            if y[r, j] == 1:
                total -= (1 - s[r, j]) ** gamma_pos * math.log(max(s[r, j], eps))
            else:
                m = max(s[r, j] - mu, 0.0)
                total -= m ** gamma_neg * math.log(max(1 - m, eps))
    return total / s.shape[0]


class TestFrozenScalars:
    def test_negative_branch_worked_example(self):
        """y=0, s=0.2, mu=0.05, gamma_neg=4 -> 8.22752e-05 (6 sig digits)."""
        cfg = ASLConfig(gamma_pos=0.0, gamma_neg=4.0, mu=0.05)
        loss = asl(ad.constant(np.array([0.2])), np.array([0.0]), cfg)
        assert float(loss.data) == pytest.approx(8.22752e-05, rel=5e-6)

    def test_focal_positive_branch_worked_example(self):
        """y=1, s=0.9, gamma=2 -> 1.05361e-03 (6 sig digits)."""
        loss = focal(ad.constant(np.array([0.9])), np.array([1.0]), gamma=2.0)
        assert float(loss.data) == pytest.approx(1.05361e-03, rel=5e-6)

    def test_negative_at_or_below_margin_contributes_exactly_zero(self):
        cfg = ASLConfig(gamma_pos=0.0, gamma_neg=4.0, mu=0.05)
        for s_val in (0.01, 0.05):
            loss = asl(ad.constant(np.array([s_val])), np.array([0.0]), cfg)
            assert float(loss.data) == 0.0


class TestDegenerationIdentity:
    def test_asl_zeroed_equals_bce_equals_focal_zero(self):
        """With gamma_pos = gamma_neg = mu = 0, all three losses coincide
        (checked on 1000 random score/label draws)."""
        rng = np.random.default_rng(42)
        cfg = ASLConfig(gamma_pos=0.0, gamma_neg=0.0, mu=0.0)
        for _ in range(1000):
            c = int(rng.integers(1, 12))
            s_val = rng.uniform(0.001, 0.999, size=c)
            y = (rng.random(c) < 0.4).astype(float)
            a = float(asl(ad.constant(s_val), y, cfg).data)
            b = float(bce(ad.constant(s_val), y).data)
            f = float(focal(ad.constant(s_val), y, gamma=0.0).data)
            assert abs(a - b) <= 1e-12
            assert abs(b - f) <= 1e-12

    @pytest.mark.parametrize("loss, knobs", [
        (lambda s, y: asl(s, y, ASLConfig()), (0.0, 4.0, 0.05)),
        (bce, (0.0, 0.0, 0.0)),
        (lambda s, y: focal(s, y, gamma=2.0), (2.0, 2.0, 0.0)),
    ], ids=["asl", "bce", "focal"])
    def test_matches_straight_line_oracle(self, loss, knobs):
        rng = np.random.default_rng(11)
        for _ in range(100):
            r, c = int(rng.integers(1, 5)), int(rng.integers(1, 8))
            s_val = rng.uniform(0.001, 0.999, size=(r, c))
            y = (rng.random((r, c)) < 0.5).astype(float)
            got = float(loss(ad.constant(s_val), y).data)
            want = asl_oracle(s_val, y, *knobs)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


class TestBatchReduction:
    def test_batch_loss_is_mean_of_per_sample_sums(self):
        rng = np.random.default_rng(5)
        s_val = rng.uniform(0.01, 0.99, size=(6, 7))
        y = (rng.random((6, 7)) < 0.3).astype(float)
        y[:, 0] = 1.0  # ensure a positive per row
        batched = float(asl(ad.constant(s_val), y).data)
        per_sample = [float(asl(ad.constant(s_val[i]), y[i]).data) for i in range(6)]
        assert batched == pytest.approx(np.mean(per_sample), rel=1e-13)

    def test_single_sample_vector_equals_one_row_matrix(self):
        rng = np.random.default_rng(6)
        s_val = rng.uniform(0.01, 0.99, size=5)
        y = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
        v = float(asl(ad.constant(s_val), y).data)
        m = float(asl(ad.constant(s_val[None, :]), y[None, :]).data)
        assert v == m


class TestGradients:
    @pytest.mark.parametrize("make_loss", [
        lambda s, y: asl(s, y, ASLConfig()),
        lambda s, y: bce(s, y),
        lambda s, y: focal(s, y, gamma=2.0),
    ])
    def test_gradient_wrt_scores_matches_finite_differences(self, make_loss):
        rng = np.random.default_rng(42)
        # random interior scores plus points just above and below the margin
        s_val = np.concatenate([
            rng.uniform(0.1, 0.9, size=8),
            [0.05 - 1e-3, 0.05 + 1e-3],
        ])
        y = (rng.random(10) < 0.5).astype(float)
        s = ad.parameter(s_val)
        result = ad.grad_check(lambda: make_loss(s, y), {"s": s}, eps=1e-7)
        assert result.max_rel_error < 1e-6

    def test_gradient_is_exactly_zero_at_the_margin_kink(self):
        cfg = ASLConfig(gamma_pos=0.0, gamma_neg=4.0, mu=0.05)
        s = ad.parameter(np.array([0.05]))
        loss = asl(s, np.array([0.0]), cfg)
        ad.backward(loss)
        np.testing.assert_array_equal(s.grad_or_zeros(), np.zeros(1))

    def test_loss_finite_at_saturated_scores(self):
        """eps-clamping keeps the loss finite at s = 0 and s = 1 exactly."""
        y = np.array([1.0, 0.0, 1.0, 0.0])
        s = ad.constant(np.array([0.0, 1.0, 1.0, 0.0]))
        for loss in (asl(s, y), bce(s, y), focal(s, y)):
            assert loss.is_finite()


class TestValidationAndRegistry:
    def test_shape_mismatch_raises(self):
        with pytest.raises(ad.ShapeError):
            asl(ad.constant(np.zeros(3)), np.zeros(4))

    def test_non_binary_labels_raise(self):
        with pytest.raises(ValueError, match="binary"):
            asl(ad.constant(np.full(3, 0.5)), np.array([0.0, 0.5, 1.0]))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ASLConfig(gamma_neg=-1.0)
        with pytest.raises(ValueError):
            ASLConfig(mu=1.0)

    def test_get_loss_resolves_all_names(self):
        rng = np.random.default_rng(1)
        s_val = rng.uniform(0.1, 0.9, size=4)
        y = np.array([1.0, 0.0, 0.0, 1.0])
        for name, keys in (("asl", {"gamma_pos": 0.0, "gamma_neg": 4.0, "mu": 0.05}),
                           ("bce", {}), ("focal", {"gamma": 2.0})):
            fn = get_loss(name, keys)
            assert float(fn(ad.constant(s_val), y).data) > 0.0

    def test_get_loss_unknown_name_raises(self):
        with pytest.raises(ValueError, match="loss.name must be one of"):
            get_loss("hinge")

    def test_get_loss_asl_honours_config_values(self):
        s_val = np.array([0.2])
        y = np.array([0.0])
        fn = get_loss("asl", {"gamma_pos": 0.0, "gamma_neg": 4.0, "mu": 0.05})
        assert float(fn(ad.constant(s_val), y).data) == pytest.approx(8.22752e-05, rel=5e-6)
        plain = get_loss("asl", {"gamma_pos": 0.0, "gamma_neg": 0.0, "mu": 0.0})
        want = float(bce(ad.constant(s_val), y).data)
        assert float(plain(ad.constant(s_val), y).data) == pytest.approx(want, abs=1e-15)
