"""Tests for the reverse-mode engine.

Every derived expectation is computed by an independent oracle living in
this file (triple-loop matmul, scalar math, central finite differences)
rather than by the engine under test.
"""

import math

import numpy as np
import pytest

from promptrefine import autodiff as ad


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive triple-loop matrix product, no numpy dot involved."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def swap_last(t):
    """Transpose of the last two axes, whatever the rank."""
    axes = list(range(t.data.ndim))
    axes[-2], axes[-1] = axes[-1], axes[-2]
    return ad.transpose(t, tuple(axes))


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        up = f(x)
        flat[i] = saved - eps
        down = f(x)
        flat[i] = saved
        gf[i] = (up - down) / (2 * eps)
    return g


class TestForwardValues:
    def test_matmul_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            m, k, n = rng.integers(1, 7, size=3)
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            got = ad.matmul(ad.constant(a), ad.constant(b)).data
            np.testing.assert_allclose(got, matmul_oracle(a, b), rtol=1e-13)

    def test_matmul_shape_mismatch_names_both_shapes(self):
        a = ad.constant(np.zeros((2, 3)))
        b = ad.constant(np.zeros((4, 2)))
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            ad.matmul(a, b)

    def test_gelu_known_values(self):
        # gelu(0) = 0; gelu(x) = x * Phi(x) with Phi the standard normal CDF.
        x = np.array([0.0, 1.0, -1.0, 3.0, -3.0])
        phi = np.array([0.5 * (1 + math.erf(v / math.sqrt(2))) for v in x])
        got = ad.gelu(ad.constant(x)).data
        np.testing.assert_allclose(got, x * phi, rtol=0, atol=1e-15)
        assert got[0] == 0.0

    def test_sigmoid_complement_symmetry(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(50) * 5
        s_pos = ad.sigmoid(ad.constant(x)).data
        s_neg = ad.sigmoid(ad.constant(-x)).data
        np.testing.assert_allclose(s_pos + s_neg, np.ones_like(x), rtol=0, atol=1e-15)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        s = ad.sigmoid(ad.constant(np.array([-1e4, 1e4]))).data
        assert np.isfinite(s).all()
        assert s[0] == 0.0 or s[0] < 1e-300
        assert s[1] == 1.0

    def test_softmax_rows_sum_to_one_and_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 9)) * 10
        s = ad.softmax_rows(ad.constant(x)).data
        np.testing.assert_allclose(s.sum(axis=1), np.ones(6), rtol=0, atol=1e-14)
        shifted = ad.softmax_rows(ad.constant(x + 123.0)).data
        np.testing.assert_allclose(s, shifted, rtol=1e-12)

    def test_softmax_scalar_oracle(self):
        # softmax([0, ln 3]) = [1/4, 3/4], computed by hand.
        s = ad.softmax_rows(ad.constant(np.array([[0.0, math.log(3.0)]]))).data
        np.testing.assert_allclose(s, [[0.25, 0.75]], rtol=1e-14)

    def test_layer_norm_rows_standardizes(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 8)) * 3 + 2
        gain = ad.constant(np.ones(8))
        bias = ad.constant(np.zeros(8))
        y = ad.layer_norm_rows(ad.constant(x), gain, bias, eps=1e-12).data
        np.testing.assert_allclose(y.mean(axis=1), np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(y.var(axis=1), np.ones(4), rtol=1e-9)

    def test_concat_slice_round_trips(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((2, 4))
        z = ad.concat_rows(ad.constant(a), ad.constant(b))
        np.testing.assert_array_equal(ad.slice_rows(z, 0, 3).data, a)
        np.testing.assert_array_equal(ad.slice_rows(z, 3, 5).data, b)
        # leading axes ride along: rows are axis -2 of every slice
        a3 = rng.standard_normal((2, 3, 4))
        b3 = rng.standard_normal((2, 2, 4))
        z3 = ad.concat_rows(ad.constant(a3), ad.constant(b3))
        assert z3.shape == (2, 5, 4)
        np.testing.assert_array_equal(ad.slice_rows(z3, 0, 3).data, a3)
        np.testing.assert_array_equal(ad.slice_rows(z3, 3, 5).data, b3)
        with pytest.raises(ad.ShapeError):
            ad.concat_rows(ad.constant(a3), ad.constant(b))

    def test_validity_check_flags_non_finite(self):
        assert ad.constant(np.array([1.0, 2.0])).is_finite()
        assert not ad.constant(np.array([1.0, np.nan])).is_finite()
        assert not ad.constant(np.array([np.inf])).is_finite()


class TestBackward:
    def test_linear_function_grad_check_is_essentially_exact(self):
        """Central differences are exact for linear maps up to roundoff."""
        rng = np.random.default_rng(42)
        w = ad.parameter(rng.standard_normal((4, 3)))
        x = ad.constant(rng.standard_normal((5, 4)))
        coeffs = rng.standard_normal((5, 3))

        def f():
            return ad.inner_sum([ad.matmul(x, w)], [coeffs])

        result = ad.grad_check(f, {"w": w}, eps=1e-5)
        assert result.max_rel_error < 1e-9

    def test_matmul_gradients_match_finite_differences(self):
        """2-d, a 2-d weight applied to every slice of a 3-d input (its
        gradient sums over the slices), and slice-by-slice 3-d products."""
        rng = np.random.default_rng(0)
        for a_shape, b_shape in [((3, 4), (4, 2)), ((2, 3, 4), (4, 2)),
                                 ((2, 3, 4), (2, 4, 5))]:
            a_val = rng.standard_normal(a_shape)
            b_val = rng.standard_normal(b_shape)
            w = rng.standard_normal(np.matmul(a_val, b_val).shape)
            a = ad.parameter(a_val.copy())
            b = ad.parameter(b_val.copy())
            loss = ad.inner_sum([ad.matmul(a, b)], [w])
            ad.backward(loss)

            na = numeric_grad(lambda v: ((v @ b_val) * w).sum(), a_val)
            nb = numeric_grad(lambda v: ((a_val @ v) * w).sum(), b_val)
            np.testing.assert_allclose(a.grad, na, rtol=1e-6, atol=1e-9)
            np.testing.assert_allclose(b.grad, nb, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("op", [
        lambda t: ad.gelu(t),
        lambda t: ad.sigmoid(t),
        lambda t: ad.softmax_rows(t),
        lambda t: ad.reshape(ad.gelu(t), t.shape[::-1]),
        lambda t: ad.add(ad.sigmoid(t), ad.mul(t, t)),
        lambda t: ad.scale(ad.mul(t, ad.sigmoid(t)), -0.7),
        lambda t: ad.matmul(t, swap_last(ad.gelu(t))),
        lambda t: ad.sum_rows(ad.mul(t, ad.gelu(t))),
        lambda t: ad.broadcast_batch(ad.gelu(t), 3),
        lambda t: ad.slice_rows(ad.concat_rows(t, ad.gelu(t)), 1, 5),
        lambda t: ad.transpose(ad.gelu(t), tuple(range(1, t.data.ndim)) + (0,)),
    ])
    def test_elementwise_chains_match_finite_differences(self, op):
        rng = np.random.default_rng(9)
        x_val = rng.standard_normal((4, 6))
        weights = rng.standard_normal(op(ad.constant(x_val)).shape)

        x = ad.parameter(x_val)

        def f():
            return ad.inner_sum([op(x)], [weights])

        result = ad.grad_check(f, {"x": x}, eps=1e-6)
        assert result.max_rel_error < 1e-6

        # the same chain on a 3-d stack of matrices, checked like matmul above
        x3_val = rng.standard_normal((2, 4, 6))
        w3 = rng.standard_normal(op(ad.constant(x3_val)).shape)
        x3 = ad.parameter(x3_val.copy())
        ad.backward(ad.inner_sum([op(x3)], [w3]))
        num = numeric_grad(lambda v: (op(ad.constant(v)).data * w3).sum(), x3_val)
        np.testing.assert_allclose(x3.grad, num, rtol=1e-6, atol=1e-9)

    def test_layer_norm_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        x = ad.parameter(rng.standard_normal((3, 5)))
        gain = ad.parameter(rng.standard_normal(5))
        bias = ad.parameter(rng.standard_normal(5))
        sel = rng.standard_normal((3, 5))

        def f():
            return ad.inner_sum([ad.layer_norm_rows(x, gain, bias)], [sel])

        result = ad.grad_check(f, {"x": x, "gain": gain, "bias": bias}, eps=1e-6)
        assert result.max_rel_error < 1e-6

        # a 3-d stack, where the (5,) gain and bias are shared by every
        # slice and their gradients sum over the slices
        vals = {"x": rng.standard_normal((2, 3, 5)), "gain": rng.standard_normal(5),
                "bias": rng.standard_normal(5)}
        sel3 = rng.standard_normal((2, 3, 5))

        def value(**override):
            v = {**vals, **override}
            y = ad.layer_norm_rows(*(ad.constant(v[k]) for k in ("x", "gain", "bias")))
            return (y.data * sel3).sum()

        ts = {k: ad.parameter(v.copy()) for k, v in vals.items()}
        ad.backward(ad.inner_sum([ad.layer_norm_rows(ts["x"], ts["gain"], ts["bias"])],
                                 [sel3]))
        for k, v in vals.items():
            num = numeric_grad(lambda arr, k=k: value(**{k: arr}), v.copy())
            np.testing.assert_allclose(ts[k].grad, num, rtol=1e-6, atol=1e-9, err_msg=k)

    def test_slice_backward_scatters_into_zero_block(self):
        x = ad.parameter(np.arange(12.0).reshape(4, 3))
        loss = ad.inner_sum([ad.slice_rows(x, 1, 3)], [np.ones((2, 3))])
        ad.backward(loss)
        expected = np.zeros((4, 3))
        expected[1:3] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_multi_use_gradient_is_sum_of_single_site_gradients(self):
        """Using a tensor at k sites accumulates the sum of the k per-site
        gradients, where each per-site gradient is measured by detaching
        the other uses."""
        rng = np.random.default_rng(17)
        w_val = rng.standard_normal((3, 3))
        m = rng.standard_normal((3, 3))

        def build(use_a, use_b):
            w = ad.parameter(w_val.copy())
            a = w if use_a else w.detach()
            b = w if use_b else w.detach()
            out = ad.add(ad.matmul(a, ad.constant(m)), ad.mul(b, b))
            ad.backward(ad.inner_sum([out], [np.ones((3, 3))]))
            return w.grad_or_zeros()

        g_both = build(True, True)
        g_a = build(True, False)
        g_b = build(False, True)
        np.testing.assert_allclose(g_both, g_a + g_b, rtol=0, atol=1e-12)

    def test_unreachable_parameter_gets_zero_gradient(self):
        used = ad.parameter(np.ones((2, 2)))
        unused = ad.parameter(np.ones((2, 2)))
        ad.backward(ad.inner_sum([ad.mul(used, used)], [np.ones((2, 2))]))
        np.testing.assert_array_equal(unused.grad_or_zeros(), np.zeros((2, 2)))

    def test_backward_is_bitwise_deterministic(self):
        rng = np.random.default_rng(33)
        vals = [rng.standard_normal((4, 4)) for _ in range(3)]

        def run():
            p = ad.parameter(vals[0].copy())
            z = ad.matmul(ad.gelu(p), ad.constant(vals[1]))
            z = ad.softmax_rows(ad.add(z, ad.constant(vals[2])))
            ad.backward(ad.inner_sum([ad.mul(z, z)], [np.ones((4, 4))]))
            return p.grad.copy()

        g1, g2 = run(), run()
        np.testing.assert_array_equal(g1, g2)

    def test_detach_blocks_gradient_flow(self):
        w = ad.parameter(np.ones((2, 2)))
        out = ad.inner_sum([ad.mul(w.detach(), w.detach())], [np.ones((2, 2))])
        ad.backward(out)
        assert w.grad is None

    def test_non_scalar_loss_raises_shape_error(self):
        w = ad.parameter(np.ones((2, 2)))
        with pytest.raises(ad.ShapeError):
            ad.backward(ad.mul(w, w))

    def test_grad_check_rejects_zero_eps(self):
        w = ad.parameter(np.ones(2))
        with pytest.raises(ValueError):
            ad.grad_check(lambda: ad.inner_sum([w], [np.ones(2)]), {"w": w}, eps=0.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply")
    def test_grad_check_reports_non_finite_with_param_name(self):
        w = ad.parameter(np.array([1.0]))

        def f():
            # finite at w = 1, past the largest float once w is perturbed
            return ad.inner_sum([ad.scale(w, 1e300)], [np.ones(1)])

        with pytest.raises(ad.NonFiniteError, match="w"):
            ad.grad_check(f, {"w": w}, eps=1e9)


class TestGraphSemantics:
    def test_gradients_accumulate_across_batch_concat(self):
        """Gradient of a mean over concatenated rows hits every source."""
        rng = np.random.default_rng(13)
        parts = [ad.parameter(rng.standard_normal((1, 4))) for _ in range(3)]
        stacked = ad.concat_rows(*parts)
        ad.backward(ad.inner_sum([stacked], [np.full((3, 4), 1.0 / 12)]))
        for p in parts:
            np.testing.assert_allclose(p.grad, np.full((1, 4), 1.0 / 12), rtol=1e-15)

    def test_add_rowvec_bias_gradient_sums_over_rows(self):
        for shape in [(5, 3), (2, 5, 3)]:
            x = ad.constant(np.zeros(shape))
            b = ad.parameter(np.zeros(3))
            ad.backward(ad.inner_sum([ad.add_rowvec(x, b)], [np.ones(shape)]))
            np.testing.assert_array_equal(b.grad, np.full(3, x.size / 3))


def _graph_chain(x, w, gain, bias):
    """A chain through most primitives, ending in a scalar."""
    z = ad.layer_norm_rows(ad.gelu(ad.matmul(x, w)), gain, bias)
    s = ad.softmax_rows(ad.scale(z, 0.5))
    return ad.inner_sum([ad.mul(ad.sigmoid(z), s)], [np.full(s.shape, 1.0 / s.size)])


class TestGraphMemory:
    def _params(self):
        rng = np.random.default_rng(71)
        return (ad.parameter(rng.standard_normal((2, 3, 4))),
                ad.parameter(rng.standard_normal((4, 5))),
                ad.parameter(rng.standard_normal(5)),
                ad.parameter(rng.standard_normal(5)))

    def test_no_grad_outputs_keep_no_graph_and_the_same_bits(self):
        params = self._params()
        built = _graph_chain(*params)
        with ad.no_grad():
            bare = _graph_chain(*params)
            mid = ad.gelu(params[0])
        assert built.requires_grad and built._parents
        for t in (bare, mid):
            assert not t.requires_grad
            assert t._parents == () and t._backward is None
        assert bare.data.tobytes() == built.data.tobytes()

    def test_no_grad_nests_and_is_restored_after_an_exception(self):
        x = ad.parameter(np.ones(3))
        with ad.no_grad():
            with ad.no_grad():
                assert not ad.gelu(x).requires_grad
            assert not ad.gelu(x).requires_grad
        assert ad.gelu(x).requires_grad
        with pytest.raises(KeyError):
            with ad.no_grad():
                raise KeyError("inside")
        assert ad.gelu(x).requires_grad

    def test_backward_frees_the_graph_and_keeps_held_grads(self):
        x, w, gain, bias = self._params()
        hidden = ad.gelu(ad.matmul(x, w))
        loss = ad.inner_sum([ad.mul(ad.layer_norm_rows(hidden, gain, bias), hidden)],
                            [np.full(hidden.shape, 1.0 / hidden.size)])
        ad.backward(loss)
        assert loss._parents == () and hidden._parents == ()
        assert hidden.grad is not None and w.grad is not None
        w_grad = w.grad.copy()
        with pytest.raises(ad.GraphFreedError, match="already freed"):
            ad.backward(loss)
        # a new loss built on a freed node fails before depositing anything
        with pytest.raises(ad.GraphFreedError):
            ad.backward(ad.inner_sum([hidden, w], [np.ones(hidden.shape), np.ones(w.shape)]))
        assert w.grad.tobytes() == w_grad.tobytes()

    def test_inner_sum_value_and_gradients_match_finite_differences(self):
        rng = np.random.default_rng(29)
        vals = [rng.standard_normal((3, 4)), rng.standard_normal(5)]
        ws = [rng.standard_normal((3, 4)), rng.standard_normal(5)]
        xs = [ad.parameter(v.copy()) for v in vals]
        out = ad.inner_sum(xs, ws)
        assert out.shape == ()
        np.testing.assert_allclose(
            out.data, sum((v * w).sum() for v, w in zip(vals, ws)), rtol=1e-14)
        g = rng.standard_normal(5)
        ad.backward(ad.inner_sum([ad.gelu(ad.scale(ad.broadcast_batch(out, 5), 0.3))], [g]))

        def value(i, arr):
            parts = [ad.constant(arr if j == i else v) for j, v in enumerate(vals)]
            s = ad.inner_sum(parts, ws)
            return (ad.gelu(ad.scale(ad.broadcast_batch(s, 5), 0.3)).data * g).sum()

        for i, v in enumerate(vals):
            num = numeric_grad(lambda arr, i=i: value(i, arr), v.copy())
            np.testing.assert_allclose(xs[i].grad, num, rtol=1e-6, atol=1e-9)
        with pytest.raises(ad.ShapeError):
            ad.inner_sum(xs, [ws[0], np.ones(4)])
