"""Loss-function tests: frozen scalar values, degeneration identities,
batch-reduction semantics, and the fused node's closed-form gradient at
the margin kink, below the clamp floors and across focusing exponents."""

import math
import warnings

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


def oracle_grad(s_val: np.ndarray, y: np.ndarray, cfg: ASLConfig, step: float = 1e-7):
    """Central differences of ``asl_oracle`` with respect to the scores."""
    g = np.zeros_like(s_val)
    for i in np.ndindex(s_val.shape):
        up, down = s_val.copy(), s_val.copy()
        up[i] += step
        down[i] -= step
        knobs = (cfg.gamma_pos, cfg.gamma_neg, cfg.mu, cfg.eps)
        g[i] = (asl_oracle(up, y, *knobs) - asl_oracle(down, y, *knobs)) / (2 * step)
    return g


def node_grad(s_val: np.ndarray, y: np.ndarray, cfg: ASLConfig) -> np.ndarray:
    s = ad.parameter(s_val.copy())
    ad.backward(asl(s, y, cfg))
    return s.grad_or_zeros()


# gamma 0 makes a branch's focusing factor the constant 1, gamma 1 is the
# plain linear factor, and 0.5 is a fractional power with an infinite
# slope at base 0.
FUSED_CFGS = [ASLConfig(0.0, 0.0, 0.0), ASLConfig(1.0, 1.0, 0.05),
              ASLConfig(0.5, 0.5, 0.2), ASLConfig(0.0, 4.0, 0.05), ASLConfig(2.0, 0.5, 0.1)]
CFG_IDS = ["gamma0", "gamma1", "gamma0.5", "asl", "mixed"]


class TestFusedNode:
    @pytest.mark.parametrize("cfg", FUSED_CFGS, ids=CFG_IDS)
    @pytest.mark.parametrize("shape", [(9,), (3, 7)], ids=["vector", "matrix"])
    def test_gradient_matches_finite_differences_of_the_oracle(self, cfg, shape):
        rng = np.random.default_rng(8)
        s_val = rng.uniform(0.02, 0.98, size=shape)
        s_val[np.abs(s_val - cfg.mu) < 1e-3] += 2e-3   # keep the probes off the kink
        y = (rng.random(shape) < 0.5).astype(float)
        np.testing.assert_allclose(node_grad(s_val, y, cfg), oracle_grad(s_val, y, cfg),
                                   rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("gamma_neg", [0.0, 0.5, 1.0, 4.0])
    @pytest.mark.parametrize("shape", [(4,), (2, 2)], ids=["vector", "matrix"])
    def test_zero_gradient_at_and_below_the_margin(self, gamma_neg, shape):
        """A negative scored at the kink (s == mu) or below it gets exactly 0."""
        cfg = ASLConfig(0.0, gamma_neg, 0.2)
        s_val = np.array([0.2, 0.2, 0.1, 0.0]).reshape(shape)
        np.testing.assert_array_equal(node_grad(s_val, np.zeros(shape), cfg), np.zeros(shape))

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("shape", [(4,), (2, 2)], ids=["vector", "matrix"])
    def test_clamp_floors_pass_no_log_gradient(self, gamma, shape):
        """Below its floor a branch's log is the constant log(eps): the
        gradient is what its focusing factor alone gives, exactly 0 for
        gamma 0, and it matches finite differences of the oracle."""
        cfg = ASLConfig(gamma, gamma, 0.0, eps=0.01)
        # s < eps on a positive; 1 - m < eps on a negative (m = s, mu = 0)
        s_val = np.array([0.005, 0.002, 0.995, 0.999]).reshape(shape)
        y = np.array([1.0, 1.0, 0.0, 0.0]).reshape(shape)
        got = node_grad(s_val, y, cfg)
        rows = s_val.shape[0] if s_val.ndim == 2 else 1
        b = s_val.reshape(-1)
        slope_pos = gamma * (1 - b[:2]) ** (gamma - 1)
        slope_neg = gamma * b[2:] ** (gamma - 1)
        want = -np.concatenate([-slope_pos * math.log(0.01), slope_neg * math.log(0.01)]) / rows
        np.testing.assert_allclose(got.reshape(-1), want, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(got, oracle_grad(s_val, y, cfg, step=1e-5),
                                   rtol=1e-6, atol=1e-9)
        if gamma == 0.0:
            np.testing.assert_array_equal(got, np.zeros(shape))

    def test_fractional_gamma_at_saturated_scores_warns_nothing(self):
        """s exactly 0 and 1 on both branches: the slope of a fractional
        power is only taken where its base is > 0, so no 0**(gamma - 1)."""
        s_val = np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]])
        y = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cfg in (ASLConfig(0.5, 3.0, 0.2), ASLConfig(0.5, 0.5, 0.0)):
                s = ad.parameter(s_val.copy())
                loss = asl(s, y, cfg)
                ad.backward(loss)
                assert loss.is_finite() and np.isfinite(s.grad).all()

    def test_each_call_builds_one_tensor(self, monkeypatch):
        """The loss is one graph node: no constants, no intermediates."""
        built = []
        init = vars(ad.Tensor)["__init__"]

        def counting_init(t, *a, **k):
            built.append(t)
            init(t, *a, **k)

        s = ad.parameter(np.full((3, 4), 0.3))
        y = np.eye(3, 4)
        monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
        for loss in (lambda: asl(s, y), lambda: bce(s, y), lambda: focal(s, y)):
            built.clear()
            out = loss()
            assert built == [out]


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
