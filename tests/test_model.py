"""Model tests.

The key oracle is ``forward_oracle``: a straight-line numpy transcription
of the forward pass that never touches the autodiff engine.  Everything
the engine computes is checked against it.
"""

import re

import numpy as np
import pytest
from scipy.special import erf

from promptrefine import autodiff as ad
from promptrefine import model as mdl
from promptrefine.losses import ASLConfig, asl, bce


def make_model(seed=0, c=4, v=3, d0=5, d=8, heads=2, ffn=6, m=5, literal=False):
    rng = np.random.default_rng(seed + 999)
    emb = ad.constant(rng.standard_normal((c, m)))
    dims = mdl.ModelDims(d0=d0, d=d, v=v, c=c, heads=heads, ffn=ffn)
    return mdl.init_model(dims, emb, seed=seed, literal_equations=literal)


# --- straight-line oracle ---------------------------------------------------

def gelu_np(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def softmax_np(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def ln_np(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def forward_oracle(features, params, literal):
    pi = {name.split(".")[1]: t.data for name, t in params.tensors.items()
          if name.startswith("prompt_init.")}
    it = {name.split(".")[1]: t.data for name, t in params.tensors.items()
          if name.startswith("interaction.")}
    F = features @ params.tensors["projection.w"].data + params.tensors["projection.b"].data
    P = gelu_np(params.embedding.data @ pi["w1"] + pi["b1"]) @ pi["w2"] + pi["b2"]
    Z = np.vstack([F, P])
    d = P.shape[1]
    if literal:
        q = P @ it["w_q"]
        k = Z @ it["w_k"]
        vv = Z @ it["w_v"]
        a = softmax_np(q @ k.T / np.sqrt(d))
        refined = gelu_np((a @ vv) @ it["w_ffn_in"] + it["b_ffn_in"]) \
            @ it["w_ffn_out"] + it["b_ffn_out"]
    else:
        q = Z @ it["w_q"]
        k = Z @ it["w_k"]
        vv = Z @ it["w_v"]
        heads = params.dims.heads
        dh = d // heads
        outs = []
        for h in range(heads):
            sl = slice(h * dh, (h + 1) * dh)
            a = softmax_np(q[:, sl] @ k[:, sl].T / np.sqrt(dh))
            outs.append(a @ vv[:, sl])
        z1 = ln_np(Z + np.hstack(outs) @ it["w_attn_out"], it["ln1_gain"], it["ln1_bias"])
        ffn = gelu_np(z1 @ it["w_ffn_in"] + it["b_ffn_in"]) @ it["w_ffn_out"] + it["b_ffn_out"]
        z2 = ln_np(z1 + ffn, it["ln2_gain"], it["ln2_bias"])
        refined = z2[features.shape[0]:]
    logits = (refined * P).sum(axis=1)
    return 1.0 / (1.0 + np.exp(-logits))


class TestShapesAndInit:
    def test_prompt_hidden_width_is_half_the_joint_width(self):
        """tau = 0.5 with d = 512 gives a 256-wide prompt hidden layer."""
        dims = mdl.ModelDims(d0=8, d=512, v=2, c=3, heads=8, ffn=16, tau=0.5)
        assert dims.t == 256
        rng = np.random.default_rng(0)
        emb = ad.constant(rng.standard_normal((3, 7)))
        params = mdl.init_model(dims, emb, seed=1)
        assert params.tensors["prompt_init.w1"].shape == (7, 256)
        assert params.tensors["prompt_init.w2"].shape == (256, 512)

    def test_init_is_seed_deterministic(self):
        a = make_model(seed=5)
        b = make_model(seed=5)
        for name, t in a.learnable().items():
            np.testing.assert_array_equal(t.data, b.learnable()[name].data, err_msg=name)
        c = make_model(seed=6)
        assert any((t.data != c.learnable()[n].data).any()
                   for n, t in a.learnable().items() if t.data.size > 1)

    def test_biases_zero_gains_one_weights_bounded(self):
        params = make_model(seed=3)
        assert (params.tensors["projection.b"].data == 0).all()
        assert (params.tensors["interaction.ln1_gain"].data == 1).all()
        assert (params.tensors["interaction.ln2_bias"].data == 0).all()
        w = params.tensors["projection.w"]
        assert np.abs(w.data).max() <= 1.0 / np.sqrt(params.dims.d0)

    def test_param_shapes_lists_the_learnable_tensors_in_draw_order(self):
        params = make_model(c=4, d0=5, d=8, ffn=6, m=5)
        table = mdl.param_shapes(params.dims, 5)
        assert list(table) == list(params.learnable())
        assert table["prompt_init.w1"] == ((5, 4), 5)
        assert table["interaction.w_ffn_out"] == ((6, 8), 6)
        assert table["interaction.ln1_gain"] == ((8,), "ones")
        assert [n for n, (_, init) in table.items() if not isinstance(init, str)] == [
            "projection.w", "prompt_init.w1", "prompt_init.w2", "interaction.w_q",
            "interaction.w_k", "interaction.w_v", "interaction.w_attn_out",
            "interaction.w_ffn_in", "interaction.w_ffn_out"]

    def test_params_are_checked_against_the_table(self):
        params = make_model()
        tensors = dict(params.tensors)
        tensors["interaction.w_q"] = ad.parameter(np.zeros((8, 4)))
        with pytest.raises(ad.ShapeError, match=r"interaction.w_q must be \(8, 8\)"):
            mdl.ModelParams(params.dims, params.embedding, tensors)
        del tensors["interaction.w_q"]
        with pytest.raises(ValueError, match="model tensors must be"):
            mdl.ModelParams(params.dims, params.embedding, tensors)
        with pytest.raises(ValueError, match="embedding has 4 classes, dims.c = 5"):
            mdl.init_model(mdl.ModelDims(d0=5, d=8, v=3, c=5, heads=2, ffn=6),
                           params.embedding, seed=0)

    @pytest.mark.parametrize("embedding, error, message", [
        (ad.constant(np.zeros(4)), ad.ShapeError, r"embedding must be 2-d, got \(4,\)"),
        (ad.constant(np.zeros((3, 5))), ValueError, "embedding has 3 classes, dims.c = 4"),
        (ad.parameter(np.zeros((4, 5))), ValueError, "frozen"),
    ], ids=["not-2d", "wrong-rows", "requires-grad"])
    def test_params_refuse_a_bad_embedding(self, embedding, error, message):
        params = make_model()
        with pytest.raises(error, match=message):
            mdl.ModelParams(params.dims, embedding, params.tensors)

    def test_dims_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            mdl.ModelDims(d0=4, d=10, v=2, c=2, heads=3, ffn=4)
        with pytest.raises(ValueError, match="hidden width"):
            mdl.ModelDims(d0=4, d=2, v=2, c=2, heads=1, ffn=4, tau=0.1)

    @pytest.mark.parametrize("stage, shapes", [
        ("vsi_forward", [(2, 3, 8), (1, 4, 8)]),   # leading axes differ
        ("vsi_forward", [(3, 8), (4, 6)]),   # widths differ
        ("classify", [(2, 4, 8), (4, 8)]),
        ("classify", [(4, 8), (3, 8)]),
    ], ids=["vsi-lead", "vsi-width", "classify-lead", "classify-rows"])
    def test_stages_refuse_mismatched_shapes_and_name_both(self, stage, shapes):
        """The first op of each stage, concat_rows or mul, does the refusing."""
        a, b = (ad.constant(np.zeros(shape)) for shape in shapes)
        args = (a, b, make_model()) if stage == "vsi_forward" else (a, b)
        named = ".*".join(re.escape(str(shape)) for shape in shapes)
        with pytest.raises(ad.ShapeError, match=named):
            getattr(mdl, stage)(*args)

    def test_feature_shape_error_names_shapes(self):
        params = make_model()
        with pytest.raises(ad.ShapeError):
            mdl.forward_batch(np.zeros((7, 7))[None], params)


class TestForwardValues:
    @pytest.mark.parametrize("literal", [False, True])
    def test_forward_matches_straight_line_oracle(self, literal):
        rng = np.random.default_rng(42)
        for seed in range(4):
            params = make_model(seed=seed, literal=literal)
            features = rng.standard_normal((params.dims.v, params.dims.d0))
            got = mdl.forward_batch(features[None], params).data[0]
            want = forward_oracle(features, params, literal)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_scores_are_probabilities(self):
        rng = np.random.default_rng(1)
        params = make_model(seed=2)
        s = mdl.forward_batch(rng.standard_normal((3, 5))[None], params).data[0]
        assert s.shape == (4,)
        assert ((s > 0) & (s < 1)).all()

    def test_classify_scalar_oracle(self):
        """classify is sigmoid of the per-row dot product and involves no
        cross-class mixing."""
        refined = ad.constant(np.array([[1.0, 2.0], [0.5, -1.0]]))
        initial = ad.constant(np.array([[3.0, -1.0], [2.0, 2.0]]))
        s = mdl.classify(refined, initial).data
        want = 1.0 / (1.0 + np.exp(-np.array([1.0, -1.0])))
        np.testing.assert_allclose(s, want, rtol=1e-15)

    def test_literal_and_standard_paths_differ(self):
        """The same seed gives the same weights, so only the path differs."""
        rng = np.random.default_rng(8)
        features = rng.standard_normal((3, 5))
        s_std = mdl.forward_batch(features[None], make_model(seed=4)).data
        s_lit = mdl.forward_batch(features[None], make_model(seed=4, literal=True)).data
        assert not np.allclose(s_std, s_lit)

    def test_prompt_initialization_ignores_everything_but_embedding(self):
        """Same weights -> bitwise-identical prompts, call after call."""
        params = make_model(seed=9)
        p1 = mdl.init_prompts(params).data
        p2 = mdl.init_prompts(params).data
        np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("literal", [False, True])
    def test_forward_batch_matches_per_sample_forward(self, literal, heads):
        rng = np.random.default_rng(12)
        params = make_model(seed=10, heads=heads, literal=literal)
        feats = [rng.standard_normal((3, 5)) for _ in range(4)]
        batched = mdl.forward_batch(feats, params).data
        singles = np.concatenate([mdl.forward_batch(f[None], params).data for f in feats])
        assert batched.tobytes() == singles.tobytes()

    @pytest.mark.parametrize("literal", [False, True])
    def test_graph_size_does_not_grow_with_the_batch(self, literal):
        """One graph per batch: the Tensors built for 8 samples are exactly
        as many as for 1."""
        rng = np.random.default_rng(3)
        params = make_model(seed=1, literal=literal)
        feats = [rng.standard_normal((3, 5)) for _ in range(8)]

        def tensors_built(batch):
            start = ad.constant(0.0)._seq
            mdl.forward_batch(batch, params)
            return ad.constant(0.0)._seq - start

        assert tensors_built(feats[:1]) == tensors_built(feats)


class TestPermutationEquivariance:
    @pytest.mark.parametrize("literal", [False, True])
    def test_permuting_classes_permutes_scores(self, literal):
        """No positional information touches the class axis: permuting the
        embedding rows permutes the per-class scores identically."""
        rng = np.random.default_rng(42)
        params = make_model(seed=7, literal=literal)
        features = rng.standard_normal((params.dims.v, params.dims.d0))
        base = mdl.forward_batch(features[None], params).data[0]

        perm = rng.permutation(params.dims.c)
        emb_p = ad.constant(params.embedding.data[perm])
        permuted_params = mdl.ModelParams(
            dims=params.dims, embedding=emb_p, tensors=params.tensors,
            literal_equations=literal)
        permuted = mdl.forward_batch(features[None], permuted_params).data[0]
        np.testing.assert_allclose(permuted, base[perm], rtol=0, atol=1e-10)


class TestDualPathGradients:
    def test_decomposition_total_equals_sum_of_routes(self):
        rng = np.random.default_rng(42)
        for seed in range(8):
            c = int(rng.integers(2, 6))
            heads = int(rng.choice([1, 2]))
            params = make_model(seed=seed, c=c, v=int(rng.integers(1, 5)),
                                d0=int(rng.integers(2, 7)), d=4 * heads,
                                heads=heads, ffn=int(rng.integers(2, 9)),
                                m=int(rng.integers(2, 7)))
            features = rng.standard_normal((params.dims.v, params.dims.d0))
            labels = (rng.random(c) < 0.5).astype(float)
            g_total, g_direct, g_via = mdl.dual_path_grads(
                features, labels, params, lambda s, y: asl(s, y, ASLConfig()))
            np.testing.assert_allclose(g_total, g_direct + g_via, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("literal", [False, True])
    def test_total_is_bitwise_the_sum_of_routes(self, literal):
        """One backward: the prompts' gradient is the sum of the two
        routes' gradients, exactly."""
        rng = np.random.default_rng(6)
        for seed in range(4):
            params = make_model(seed=seed, literal=literal)
            features = rng.standard_normal((params.dims.v, params.dims.d0))
            labels = (rng.random(params.dims.c) < 0.5).astype(float)
            g_total, g_direct, g_via = mdl.dual_path_grads(features, labels, params, bce)
            assert g_total.tobytes() == (g_direct + g_via).tobytes()

    def test_zeroed_interaction_kills_the_indirect_route(self):
        """On the literal path with W_q = W_k = W_v = 0 and a zeroed
        feed-forward, the refined prompts are constant in P, so the entire
        gradient flows through the classifier route."""
        params = make_model(seed=1, literal=True)
        for name in ("w_q", "w_k", "w_v", "w_ffn_out"):
            params.tensors[f"interaction.{name}"].data[:] = 0.0
        # keep the refined prompts nonzero (just constant in P), so the
        # direct classifier route still carries gradient
        params.tensors["interaction.b_ffn_out"].data[:] = 0.7
        rng = np.random.default_rng(0)
        features = rng.standard_normal((3, 5))
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        g_total, g_direct, g_via = mdl.dual_path_grads(
            features, labels, params, bce)
        np.testing.assert_array_equal(g_via, np.zeros_like(g_via))
        np.testing.assert_allclose(g_total, g_direct, rtol=0, atol=1e-15)
        assert np.linalg.norm(g_direct) > 0

    def test_both_routes_carry_gradient_in_general(self):
        rng = np.random.default_rng(5)
        params = make_model(seed=11)
        features = rng.standard_normal((3, 5))
        labels = np.array([1.0, 0.0, 0.0, 1.0])
        _, g_direct, g_via = mdl.dual_path_grads(features, labels, params, bce)
        assert np.linalg.norm(g_direct) > 0
        assert np.linalg.norm(g_via) > 0


class TestFullModelGradients:
    @pytest.mark.parametrize("literal", [False, True])
    def test_quick_gradient_check(self, literal):
        """Small smoke version of the exhaustive check in the acceptance
        suite: every learnable parameter against central differences."""
        params = make_model(seed=3, c=3, v=2, d0=4, d=8, heads=2, ffn=5, m=4,
                            literal=literal)
        rng = np.random.default_rng(42)
        features = rng.standard_normal((2, 4))
        labels = (rng.random(3) < 0.5).astype(float)

        def f():
            return asl(mdl.forward_batch(features[None], params), labels[None], ASLConfig())

        result = ad.grad_check(f, params.learnable(), eps=1e-5)
        assert result.max_rel_error < 1e-4, result


class TestGradientOwnership:
    """A backward keeps some arrays it just allocated as ``.grad`` without a
    copy.  Every gradient must still be C-contiguous, of its tensor's shape,
    and its own memory: shared with no other gradient and no tensor's data."""

    @pytest.mark.parametrize("literal", [False, True])
    def test_every_grad_is_contiguous_and_owns_its_memory(self, literal):
        # bench-A dims, batch 32; P, P' and the scores held as in forward_batch
        params = make_model(seed=4, c=20, v=8, d0=8, d=32, heads=4, ffn=64, m=8,
                            literal=literal)
        rng = np.random.default_rng(6)
        features = rng.standard_normal((32, 8, 8))
        labels = (rng.random((32, 20)) < 0.3).astype(float)
        P = ad.broadcast_batch(mdl.init_prompts(params), 32)
        refined = mdl.vsi_forward(mdl.project_features(ad.constant(features), params), P,
                                  params)
        scores = mdl.classify(refined, P)
        ad.backward(asl(scores, labels))
        # the literal path leaves the output map and the norms unused
        held = {**{name: t for name, t in params.learnable().items() if t.grad is not None},
                "P": P, "P'": refined, "scores": scores}
        assert len(held) == (16 if literal else 21)
        for name, t in held.items():
            assert t.grad is not None and t.grad.shape == t.shape, name
            assert t.grad.flags.c_contiguous, name
        for name, t in held.items():
            for other, u in held.items():
                assert other == name or not np.shares_memory(t.grad, u.grad), (name, other)
                assert not np.shares_memory(t.grad, u.data), (name, other)
