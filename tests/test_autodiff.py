"""Tests for the reverse-mode engine.

Every derived expectation is computed by an independent oracle living in
this file (triple-loop matrix product, scalar math, central finite differences)
rather than by the engine under test.
"""

import math
import re

import numpy as np
import pytest
from scipy.special import erf

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


def times(t, c: float):
    """``t`` times the number ``c``, as a product with a constant array."""
    return ad.mul(t, ad.constant(np.full(t.shape, c)))


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
            got = ad.linear(ad.constant(a), ad.constant(b)).data
            np.testing.assert_allclose(got, matmul_oracle(a, b), rtol=1e-13)

    def test_linear_matches_triple_loop_oracle_with_and_without_bias(self):
        """Every leading-axis slice gets the weight, and the bias on each row."""
        rng = np.random.default_rng(43)
        x = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((4, 5))
        bias = rng.standard_normal(5)
        plain = ad.linear(ad.constant(x), ad.constant(w)).data
        biased = ad.linear(ad.constant(x), ad.constant(w), ad.constant(bias)).data
        for i in range(2):
            want = matmul_oracle(x[i], w)
            np.testing.assert_allclose(plain[i], want, rtol=1e-13)
            np.testing.assert_allclose(biased[i], want + bias, rtol=1e-13)

    def test_matmul_shape_mismatch_names_both_shapes(self):
        a = ad.constant(np.zeros((2, 3)))
        b = ad.constant(np.zeros((4, 2)))
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            ad.linear(a, b)

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((2, 3, 4), (2, 4, 5), None),   # a stack of weights is not a weight
        ((4,), (4, 5), None),           # x needs a row axis
        ((3, 4), (4, 5), (4,)),         # the bias must be as long as the output
        ((3, 4), (4, 5), (1, 5)),
    ])
    def test_linear_refuses_bad_shapes_and_names_them(self, x_shape, w_shape, b_shape):
        x, w = ad.constant(np.zeros(x_shape)), ad.constant(np.zeros(w_shape))
        b = None if b_shape is None else ad.constant(np.zeros(b_shape))
        named = b_shape if b_shape is not None else w_shape
        with pytest.raises(ad.ShapeError, match=re.escape(str(named))):
            ad.linear(x, w, b)

    @pytest.mark.parametrize("op, shapes", [
        (ad.add, [(2, 3), (3, 2)]),
        (ad.mul, [(2, 3), (2, 3, 1)]),
        (lambda x: ad.broadcast_batch(x, 0), [(2, 3)]),
        (ad.layer_norm_rows, [(2, 3), (2,), (3,)]),   # gain is not as long as the last axis
        (ad.layer_norm_rows, [(2, 3), (3,), (1, 3)]),   # neither is the bias
        (ad.layer_norm_rows, [(), (1,), (1,)]),   # a 0-d input has no last axis
        (ad.sum_rows, [()]),
    ], ids=["add", "mul", "broadcast-0", "ln-gain", "ln-bias", "ln-0d", "sum-rows-0d"])
    def test_ops_refuse_bad_shapes_and_name_them(self, op, shapes):
        named = ".*".join(re.escape(str(shape)) for shape in shapes)
        with pytest.raises(ad.ShapeError, match=named):
            op(*(ad.constant(np.zeros(shape)) for shape in shapes))

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
        np.testing.assert_array_equal(z.data[:3], a)
        np.testing.assert_array_equal(z.data[3:], b)
        # leading axes ride along: rows are axis -2 of every slice
        a3 = rng.standard_normal((2, 3, 4))
        b3 = rng.standard_normal((2, 2, 4))
        z3 = ad.concat_rows(ad.constant(a3), ad.constant(b3))
        assert z3.shape == (2, 5, 4)
        np.testing.assert_array_equal(z3.data[:, :3], a3)
        np.testing.assert_array_equal(z3.data[:, 3:], b3)
        with pytest.raises(ad.ShapeError):
            ad.concat_rows(ad.constant(a3), ad.constant(b))


class TestBackward:
    def test_linear_function_grad_check_is_essentially_exact(self):
        """Central differences are exact for linear maps up to roundoff."""
        rng = np.random.default_rng(42)
        w = ad.parameter(rng.standard_normal((4, 3)))
        x = ad.constant(rng.standard_normal((5, 4)))
        coeffs = rng.standard_normal((5, 3))

        def f():
            return ad.inner_sum([ad.linear(x, w)], [coeffs])

        result = ad.grad_check(f, {"w": w}, eps=1e-5)
        assert result.max_rel_error < 1e-9

    def test_matmul_gradients_match_finite_differences(self):
        """2-d, and a 2-d weight applied to every slice of a 3-d input (its
        gradient sums over the slices)."""
        rng = np.random.default_rng(0)
        for a_shape, b_shape in [((3, 4), (4, 2)), ((2, 3, 4), (4, 2))]:
            a_val = rng.standard_normal(a_shape)
            b_val = rng.standard_normal(b_shape)
            w = rng.standard_normal(np.matmul(a_val, b_val).shape)
            a = ad.parameter(a_val.copy())
            b = ad.parameter(b_val.copy())
            loss = ad.inner_sum([ad.linear(a, b)], [w])
            ad.backward(loss)

            na = numeric_grad(lambda v: ((v @ b_val) * w).sum(), a_val)
            nb = numeric_grad(lambda v: ((a_val @ v) * w).sum(), b_val)
            np.testing.assert_allclose(a.grad, na, rtol=1e-6, atol=1e-9)
            np.testing.assert_allclose(b.grad, nb, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("op", [
        lambda t: ad.gelu(t),
        lambda t: ad.sigmoid(t),
        lambda t: ad.attention(t, ad.gelu(t), t, 2),
        lambda t: ad.add(ad.sigmoid(t), ad.mul(t, t)),
        lambda t: times(ad.mul(t, ad.sigmoid(t)), -0.7),
        lambda t: ad.sum_rows(ad.mul(t, ad.gelu(t))),
        lambda t: ad.broadcast_batch(ad.gelu(t), 3),
        lambda t: ad.concat_rows(ad.concat_rows(t, ad.gelu(t)), ad.sigmoid(t)),
        lambda t: ad.attention(ad.sigmoid(t), ad.concat_rows(t, ad.gelu(t)),
                               ad.concat_rows(t, t), 3),
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

    def test_multi_use_gradient_is_sum_of_single_site_gradients(self):
        """Using a tensor at k sites accumulates the sum of the k per-site
        gradients, where each per-site gradient is measured by making the
        other uses constants of the same value."""
        rng = np.random.default_rng(17)
        w_val = rng.standard_normal((3, 3))
        m = rng.standard_normal((3, 3))

        def build(use_a, use_b):
            w = ad.parameter(w_val.copy())
            a = w if use_a else ad.constant(w_val)
            b = w if use_b else ad.constant(w_val)
            out = ad.add(ad.linear(a, ad.constant(m)), ad.mul(b, b))
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
            z = ad.linear(ad.gelu(p), ad.constant(vals[1]))
            z = ad.add(z, ad.constant(vals[2]))
            z = ad.attention(z, z, p, 2)
            ad.backward(ad.inner_sum([ad.mul(z, z)], [np.ones((4, 4))]))
            return p.grad.copy()

        g1, g2 = run(), run()
        np.testing.assert_array_equal(g1, g2)

    def test_non_scalar_loss_raises_shape_error(self):
        w = ad.parameter(np.ones((2, 2)))
        with pytest.raises(ad.ShapeError):
            ad.backward(ad.mul(w, w))

    def test_backward_of_a_loss_that_needs_no_gradient_deposits_nothing(self):
        w, x = ad.parameter(np.ones(2)), ad.constant(np.ones(2))
        with ad.no_grad():
            detached = ad.inner_sum([w], [np.ones(2)])
        for loss in (ad.inner_sum([x], [np.ones(2)]), detached):
            assert ad.backward(loss) is None
            assert loss.grad is None
        assert w.grad is None and x.grad is None

    def test_grad_check_refuses_a_non_finite_starting_loss_after_one_call(self):
        w = ad.parameter(np.ones(2))
        calls = []

        def f():
            calls.append(1)
            return ad.inner_sum([w], [np.array([1.0, np.nan])])

        with pytest.raises(ad.NonFiniteError, match="loss is not finite"):
            ad.grad_check(f, {"w": w})
        assert len(calls) == 1 and w.grad is None

    def test_grad_check_rejects_zero_eps(self):
        # a floor of 0 or below is refused the same way
        w = ad.parameter(np.ones(2))
        for name, value in (("eps", 0.0), ("floor", 0.0), ("floor", -1.0)):
            with pytest.raises(ValueError, match=f"{name} must be a finite number > 0"):
                ad.grad_check(lambda: ad.inner_sum([w], [np.ones(2)]), {"w": w},
                              **{name: value})

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_grad_check_refuses_an_eps_that_is_not_finite(self, eps):
        # a floor of the same value is refused the same way
        w = ad.parameter(np.ones(2))
        for name in ("eps", "floor"):
            with pytest.raises(ValueError, match=f"{name} must be a finite number > 0"):
                ad.grad_check(lambda: ad.inner_sum([w], [np.ones(2)]), {"w": w},
                              **{name: eps})

    @pytest.mark.parametrize("shape", [(1,), (1, 1)])
    def test_grad_check_takes_a_size_one_loss_of_any_rank(self, shape):
        w = ad.parameter(np.full(shape, 0.5))
        result = ad.grad_check(lambda: times(ad.mul(w, w), 2.0), {"w": w})
        assert result.n_entries == 1 and result.max_rel_error < 1e-9

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply")
    def test_grad_check_reports_non_finite_with_param_name(self):
        w = ad.parameter(np.array([1.0]))

        def f():
            # finite at w = 1, past the largest float once w is perturbed
            return ad.inner_sum([times(w, 1e300)], [np.ones(1)])

        with pytest.raises(ad.NonFiniteError, match="w"):
            ad.grad_check(f, {"w": w}, eps=1e9)

    @pytest.mark.parametrize("error, suffix", [
        (ad.NonFiniteError, " while perturbing w[1]"),
        (ValueError, ""),
    ])
    def test_grad_check_restores_the_entry_a_probe_raises_on(self, error, suffix):
        w = ad.parameter(np.array([1.0, 2.0]))

        def f():
            # refuses its input once w[1] moves up, as asl refuses a NaN score
            if w.data[1] > 2.0:
                raise error("scores are not finite: [nan]")
            return ad.inner_sum([w], [np.ones(2)])

        with pytest.raises(error) as raised:
            ad.grad_check(f, {"w": w})
        assert str(raised.value) == "scores are not finite: [nan]" + suffix
        assert w.data.tolist() == [1.0, 2.0]

    def test_grad_check_probes_a_parameter_whose_data_is_not_contiguous(self):
        # w's data is a transposed view: a probe through a reshaped copy of it
        # would never reach the loss, and every entry would read error 1.
        rng = np.random.default_rng(4)
        x = ad.constant(rng.standard_normal((3, 4)))
        w = ad.parameter(rng.standard_normal((5, 4)).T)
        before = w.data.copy()
        assert not w.data.flags.c_contiguous
        weights = rng.standard_normal((3, 5))
        result = ad.grad_check(lambda: ad.inner_sum([ad.linear(x, w)], [weights]), {"w": w})
        assert result.n_entries == 20 and result.max_rel_error < 1e-8
        assert np.array_equal(w.data, before)


class TestGradCheckFloor:
    """``grad_check(..., floor=...)`` divides each entry's difference by
    ``max(|analytic|, |numeric|, floor)``."""

    def test_a_correct_op_checked_with_a_floor_passes(self):
        rng = np.random.default_rng(5)
        x = ad.parameter(rng.standard_normal((3, 5)))
        gain = ad.parameter(rng.standard_normal(5))
        bias = ad.parameter(rng.standard_normal(5))
        sel = rng.standard_normal((3, 5))

        def f():
            return ad.inner_sum([ad.gelu(ad.layer_norm_rows(x, gain, bias))], [sel])

        result = ad.grad_check(f, {"x": x, "gain": gain, "bias": bias}, eps=1e-6, floor=1e-5)
        assert result.n_entries == 25 and result.max_rel_error < 1e-6

    def test_a_floor_does_not_mask_a_backward_defect(self):
        # gelu with its backward scaled by 1.001, minus an exact gelu: the
        # true objective is flat, so the analytic gradient is the defect
        # alone, and a floor of the size run_gradcheck uses must not hide it.
        def buggy_gelu(t):
            out = ad.gelu(t)
            real_bw = out._backward
            out._backward = lambda g: real_bw(g * 1.001)
            return out

        rng = np.random.default_rng(8)
        x = ad.parameter(rng.standard_normal((4, 6)))
        weights = rng.standard_normal((4, 6))

        def f():
            return ad.inner_sum([ad.add(buggy_gelu(x), times(ad.gelu(x), -1.0))], [weights])

        result = ad.grad_check(f, {"x": x}, eps=1e-6, floor=1e-5)
        assert result.max_rel_error > 1e-3

    def test_reported_error_is_the_floored_relative_difference(self):
        # A large constant term makes the probes' subtraction noise ~1e-7,
        # and near-zero weights give entries whose gradient is below both
        # floors, so the floor decides their error.
        rng = np.random.default_rng(21)
        x = ad.parameter(rng.standard_normal((3, 4)))
        weights = rng.standard_normal((3, 4))
        weights[:, 1] = 1e-9
        offset = ad.constant(np.full((3, 4), 1e3))

        def f():
            return ad.inner_sum([ad.gelu(x), offset], [weights, np.ones((3, 4))])

        x.grad = None
        ad.backward(f())
        a = x.grad.copy()
        n = numeric_grad(lambda _: f().data.item(), x.data, eps=1e-6)
        errors = {}
        for floor in (1e-8, 1e-5):
            rel = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
            result = ad.grad_check(f, {"x": x}, eps=1e-6, floor=floor)
            assert result.max_rel_error == pytest.approx(rel.max(), rel=1e-12)
            assert result.worst_param == f"x[{int(rel.argmax())}]"
            errors[floor] = result.max_rel_error
        assert errors[1e-5] < errors[1e-8]


class TestGraphSemantics:
    def test_gradients_accumulate_across_batch_concat(self):
        """Gradient of a mean over concatenated rows hits every source."""
        rng = np.random.default_rng(13)
        parts = [ad.parameter(rng.standard_normal((1, 4))) for _ in range(3)]
        stacked = ad.concat_rows(ad.concat_rows(parts[0], parts[1]), parts[2])
        ad.backward(ad.inner_sum([stacked], [np.full((3, 4), 1.0 / 12)]))
        for p in parts:
            np.testing.assert_allclose(p.grad, np.full((1, 4), 1.0 / 12), rtol=1e-15)

    def test_linear_bias_gradient_sums_over_leading_axes(self):
        """With an identity weight the output is x + b, so b's gradient is
        the output gradient summed over every row of every slice."""
        rng = np.random.default_rng(19)
        for shape in [(5, 3), (2, 5, 3)]:
            x = ad.parameter(rng.standard_normal(shape))
            b = ad.parameter(np.zeros(3))
            g = rng.standard_normal(shape)
            ad.backward(ad.inner_sum([ad.linear(x, ad.constant(np.eye(3)), b)], [g]))
            np.testing.assert_allclose(b.grad, g.reshape(-1, 3).sum(axis=0), rtol=1e-14)
            np.testing.assert_array_equal(x.grad, g)


def attention_oracle(q, k, v, heads):
    """Per-slice, per-head loop over plain numpy: softmax(q_h k_h^T / sqrt(dh)) v_h."""
    *lead, nq, d = q.shape
    dh = d // heads
    q2, k2, v2 = (x.reshape(-1, *x.shape[-2:]) for x in (q, k, v))
    out = np.zeros(q2.shape)
    for i in range(q2.shape[0]):
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            scores = q2[i][:, cols] @ k2[i][:, cols].T / math.sqrt(dh)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            out[i][:, cols] = (e / e.sum(axis=1, keepdims=True)) @ v2[i][:, cols]
    return out.reshape(q.shape)


def attention_weights(q, k, heads):
    """Each head's attention weights, read off as the output for values
    that are one identity matrix per head; the width must be heads * nk."""
    nk = k.shape[-2]
    v = np.broadcast_to(np.tile(np.eye(nk), (1, heads)), k.shape[:-2] + (nk, heads * nk))
    return ad.attention(ad.constant(q), ad.constant(k), ad.constant(v), heads).data


class TestAttention:
    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("frozen", [None, "q", "k", "v"])
    def test_gradients_match_finite_differences(self, heads, lead, frozen):
        rng = np.random.default_rng(heads * 10 + len(lead))
        shapes = {"q": lead + (3, 8), "k": lead + (5, 8), "v": lead + (5, 8)}
        ts = {n: (ad.constant if n == frozen else ad.parameter)(rng.standard_normal(sh))
              for n, sh in shapes.items()}
        weights = rng.standard_normal(shapes["q"])

        def f():
            return ad.inner_sum([ad.attention(ts["q"], ts["k"], ts["v"], heads)], [weights])

        result = ad.grad_check(f, ts, eps=1e-6)
        assert result.max_rel_error < 1e-6, result
        assert result.n_entries == sum(t.data.size for t in ts.values() if t.requires_grad)
        if frozen is not None:
            assert ts[frozen].grad is None

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_forward_matches_per_head_loop(self, heads, lead):
        rng = np.random.default_rng(heads + 7 * len(lead))
        q = rng.standard_normal(lead + (4, 8))
        k = rng.standard_normal(lead + (6, 8))
        v = rng.standard_normal(lead + (6, 8))
        got = ad.attention(ad.constant(q), ad.constant(k), ad.constant(v), heads).data
        np.testing.assert_allclose(got, attention_oracle(q, k, v, heads), rtol=1e-12,
                                   atol=1e-14)

    @pytest.mark.parametrize("heads", [1, 3])
    def test_weights_rows_sum_to_one_and_shift_invariance(self, heads):
        rng = np.random.default_rng(3)
        q = rng.standard_normal((2, 6, 9 * heads)) * 10
        k = rng.standard_normal((2, 9, 9 * heads)) * 10
        s = attention_weights(q, k, heads)
        np.testing.assert_allclose(s.reshape(2, 6, heads, 9).sum(axis=-1),
                                   np.ones((2, 6, heads)), rtol=0, atol=1e-14)
        # one vector added to every key shifts each score row by a constant
        shifted = attention_weights(q, k + rng.standard_normal(9 * heads) * 10, heads)
        np.testing.assert_allclose(s, shifted, rtol=1e-12)

    def test_weights_scalar_oracle(self):
        # scores [0, ln 3] give weights [1/4, 3/4], computed by hand.
        root2 = math.sqrt(2.0)
        s = attention_weights(np.array([[root2, 0.0]]),
                              np.array([[0.0, 0.0], [math.log(3.0), 0.0]]), 1)
        np.testing.assert_allclose(s, [[0.25, 0.75]], rtol=1e-14)

    @pytest.mark.parametrize("q_shape, k_shape, v_shape, heads", [
        ((3, 4), (5, 4), (6, 4), 1),        # keys and values disagree
        ((3, 4), (5, 4), (5, 2), 1),
        ((3, 6), (5, 6), (5, 6), 4),        # width does not split into the heads
        ((3, 4), (5, 4), (5, 4), 0),
        ((2, 3, 4), (3, 5, 4), (3, 5, 4), 2),   # leading axes differ
        ((3, 4), (2, 5, 4), (2, 5, 4), 2),
        ((3, 4), (5, 2), (5, 2), 1),        # queries and keys differ in width
        ((4,), (5, 4), (5, 4), 1),
    ])
    def test_shape_errors(self, q_shape, k_shape, v_shape, heads):
        q, k, v = (ad.parameter(np.zeros(sh)) for sh in (q_shape, k_shape, v_shape))
        with pytest.raises(ad.ShapeError):
            ad.attention(q, k, v, heads)


def copied_heads_attention(q, k, v, heads, g):
    """Attention and its q, k, v gradients for output gradient ``g``, with
    every head copied out to a contiguous array and the products merged
    back by a copy: the arithmetic the engine's strided views must keep
    bit for bit."""
    *lead, nq, d = q.shape
    nk, dh = k.shape[-2], d // heads
    c = 1.0 / math.sqrt(dh)

    def split(x, n):
        return np.swapaxes(x.reshape(*lead, n, heads, dh), -3, -2).copy()

    def merge(x):
        return np.swapaxes(x, -3, -2).reshape(*lead, x.shape[-2], d)

    qh, vh, gh = split(q, nq), split(v, nk), split(g, nq)
    kt = np.swapaxes(split(k, nk), -1, -2).copy()
    s = qh @ kt
    s *= c
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    da = gh @ np.swapaxes(vh, -1, -2)
    da -= (da * s).sum(axis=-1, keepdims=True)
    da *= s
    da *= c
    return (merge(s @ vh), merge(da @ np.swapaxes(kt, -1, -2)),
            merge(np.swapaxes(np.swapaxes(qh, -1, -2) @ da, -1, -2)),
            merge(np.swapaxes(s, -1, -2) @ gh))


def with_extremes(rng, shape):
    """Standard normal draws of ``shape`` whose first three entries are 0, 8 and -8."""
    x = rng.standard_normal(shape) * 3
    x.reshape(-1)[:3] = [0.0, 8.0, -8.0]
    return x


class TestBitwiseOracles:
    """attention, gelu and layer_norm_rows allocate less than the plain
    expressions below, and must compute the same bits, forward and
    backward."""

    @staticmethod
    def _run(op, arrays, g):
        ts = [ad.parameter(a.copy()) for a in arrays]
        out = op(*ts)
        ad.backward(ad.inner_sum([out], [g]))   # the output's gradient is g itself
        return [out.data] + [t.grad for t in ts]

    @staticmethod
    def _assert_bytes_equal(got, want):
        for i, (a, b) in enumerate(zip(got, want, strict=True)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), i

    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_attention_matches_copied_heads(self, heads, batch):
        rng = np.random.default_rng(100 + heads * 10 + batch)
        # bench-A shapes: 20 prompt queries over 8 + 20 keys, width 32
        q, g = (rng.standard_normal((batch, 20, 32)) for _ in range(2))
        k, v = (rng.standard_normal((batch, 28, 32)) for _ in range(2))
        got = self._run(lambda *ts: ad.attention(*ts, heads), (q, k, v), g)
        self._assert_bytes_equal(got, copied_heads_attention(q, k, v, heads, g))

    @pytest.mark.parametrize("shape", [(7,), (3, 20, 64)])
    def test_gelu_matches_the_plain_expression(self, shape):
        rng = np.random.default_rng(len(shape))
        x, g = with_extremes(rng, shape), rng.standard_normal(shape)
        e = erf(x * (1.0 / math.sqrt(2.0)))
        pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
        want = [0.5 * x * (1.0 + e), g * (0.5 * (1.0 + e) + x * pdf)]
        self._assert_bytes_equal(self._run(ad.gelu, (x,), g), want)

    @pytest.mark.parametrize("shape", [(7,), (3, 20, 32)])
    def test_layer_norm_matches_the_plain_expression(self, shape):
        rng = np.random.default_rng(10 + len(shape))
        x, g = with_extremes(rng, shape), rng.standard_normal(shape)
        gain, bias = rng.standard_normal(shape[-1]), rng.standard_normal(shape[-1])
        n, eps = shape[-1], 1e-5
        xhat = x - x.sum(axis=-1, keepdims=True) / n
        istd = 1.0 / np.sqrt((xhat ** 2).sum(axis=-1, keepdims=True) / n + eps)
        xhat *= istd
        dxhat = g * gain
        term = (n * dxhat - dxhat.sum(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
        want = [xhat * gain + bias, term * (istd / n),
                (g * xhat).reshape(-1, n).sum(axis=0), g.reshape(-1, n).sum(axis=0)]
        got = self._run(lambda *ts: ad.layer_norm_rows(*ts, eps=eps), (x, gain, bias), g)
        self._assert_bytes_equal(got, want)


def _graph_chain(x, w, gain, bias):
    """A chain through most primitives, ending in a scalar."""
    z = ad.layer_norm_rows(ad.gelu(ad.linear(x, w)), gain, bias)
    s = ad.attention(times(z, 0.5), z, z, 1)
    return ad.inner_sum([ad.mul(ad.sigmoid(z), s)], [np.full(s.shape, 1.0 / s.data.size)])


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
        hidden = ad.gelu(ad.linear(x, w))
        loss = ad.inner_sum([ad.mul(ad.layer_norm_rows(hidden, gain, bias), hidden)],
                            [np.full(hidden.shape, 1.0 / hidden.data.size)])
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
        ad.backward(ad.inner_sum([ad.gelu(times(ad.broadcast_batch(out, 5), 0.3))], [g]))

        def value(i, arr):
            parts = [ad.constant(arr if j == i else v) for j, v in enumerate(vals)]
            s = ad.inner_sum(parts, ws)
            return (ad.gelu(times(ad.broadcast_batch(s, 5), 0.3)).data * g).sum()

        for i, v in enumerate(vals):
            num = numeric_grad(lambda arr, i=i: value(i, arr), v.copy())
            np.testing.assert_allclose(xs[i].grad, num, rtol=1e-6, atol=1e-9)
        with pytest.raises(ad.ShapeError):
            ad.inner_sum(xs, [ws[0], np.ones(4)])
