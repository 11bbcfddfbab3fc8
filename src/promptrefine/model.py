"""Category-prompt network for long-tailed multi-label classification.

The model turns per-class semantic embeddings into *category prompts*,
lets those prompts exchange information with the sample's local visual
tokens inside a small transformer-style encoder, and scores each class by
the similarity between its refined prompt and its initial prompt:

    F  = f_loc @ W_proj + b_proj                      visual tokens -> joint space
    P  = gelu(W_emb @ W1 + b1) @ W2 + b2              prompt initialization
    P' = interaction(P, concat_rows(F, P))            visual-semantic refinement
    s  = sigmoid(rowwise_dot(P', P))                  per-class probability

Two interaction variants are provided.  The default is the prompt rows
of a standard post-norm encoder layer over Z = [F; P] (multi-head
self-attention, residual, layer norm, GELU feed-forward, residual, layer
norm); only those rows are computed.  With ``literal_equations=True``
the layer is stripped to single-head cross-attention from prompts to all
tokens followed by the feed-forward alone — no residuals, norms, or output
projection — matching the bare update equations the design came from.

No positional encodings anywhere: the forward pass is equivariant under
permutations of the class axis, which the tests rely on.

The embedding W_emb is a frozen (c, m) constant ``Tensor``; class names
belong to the data, not the model.  Each learnable tensor is declared
once, in ``param_shapes``: its name (also its checkpoint name), shape and
init rule.  ``ModelParams`` holds the embedding and those tensors, checked
against the table; ``init_model`` draws them in the table's order, and
the stage functions read them by name.

The stages are batch-first: a batch is one graph over stacked arrays,
F of shape (B, v, d) and P broadcast to (B, c, d), and attention heads
are one more leading axis inside the attention node.  Every leading-axis
slice is computed by the same per-slice products as a batch of one, so a
sample's scores do not depend on the batch it is scored in.  There is one
forward, ``forward_batch``; a single sample is scored as a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .schema import check_fields, integer, key, number

__all__ = [
    "ModelDims",
    "param_shapes",
    "ModelParams",
    "init_model",
    "project_features",
    "init_prompts",
    "vsi_forward",
    "classify",
    "forward_batch",
    "dual_path_grads",
]

@dataclass
class ModelDims:
    """Shape record: d0 raw feature width, d joint width, v visual tokens,
    c classes, heads attention heads, ffn feed-forward width, tau the
    prompt-hidden-width ratio (hidden width t = round(tau * d)).  It is
    also the config's ``dims`` section; see ``schema``."""

    d0: int = key(integer(1))
    d: int = key(integer(1))
    v: int = key(integer(1))
    c: int = key(integer(1))
    heads: int = key(integer(1))
    ffn: int = key(integer(1))
    tau: float = key(number(), 0.5)

    def __post_init__(self):
        check_fields(self)
        if self.d % self.heads != 0:
            raise ValueError(f"d={self.d} not divisible by heads={self.heads}")
        if round(self.tau * self.d) < 1:
            raise ValueError(f"tau={self.tau} gives prompt hidden width < 1 at d={self.d}")

    @property
    def t(self) -> int:
        return round(self.tau * self.d)


def param_shapes(dims: ModelDims, m: int) -> dict:
    """Every learnable tensor: name -> (shape, init), in draw order.

    ``init`` is a fan-in (uniform in +/- 1/sqrt(fan_in)), ``"zeros"`` or
    ``"ones"``.  The names are the checkpoint's tensor names: the
    projection, the two-layer GELU prompt net (hidden width t), and one
    encoder layer with joint QKV maps (d, d) across all heads, an
    attention output map, a GELU feed-forward and two layer norms.
    """
    d0, d, t, ffn = dims.d0, dims.d, dims.t, dims.ffn
    return {
        "projection.w": ((d0, d), d0),
        "projection.b": ((d,), "zeros"),
        "prompt_init.w1": ((m, t), m),
        "prompt_init.b1": ((t,), "zeros"),
        "prompt_init.w2": ((t, d), t),
        "prompt_init.b2": ((d,), "zeros"),
        **{f"interaction.{name}": ((d, d), d)
           for name in ("w_q", "w_k", "w_v", "w_attn_out")},
        "interaction.w_ffn_in": ((d, ffn), d),
        "interaction.b_ffn_in": ((ffn,), "zeros"),
        "interaction.w_ffn_out": ((ffn, d), ffn),
        "interaction.b_ffn_out": ((d,), "zeros"),
        "interaction.ln1_gain": ((d,), "ones"),
        "interaction.ln1_bias": ((d,), "zeros"),
        "interaction.ln2_gain": ((d,), "ones"),
        "interaction.ln2_bias": ((d,), "zeros"),
    }


@dataclass
class ModelParams:
    """The model: its dims, the frozen (c, m) embedding, and one tensor per
    ``param_shapes`` entry, by name."""

    dims: ModelDims
    embedding: Tensor
    tensors: dict
    literal_equations: bool = False

    def __post_init__(self):
        if self.embedding.data.ndim != 2:
            raise ad.ShapeError(f"embedding must be 2-d, got {self.embedding.shape}")
        c, m = self.embedding.shape
        if c != self.dims.c:
            raise ValueError(f"embedding has {c} classes, dims.c = {self.dims.c}")
        if self.embedding.requires_grad:
            raise ValueError("the semantic embedding is frozen; requires_grad must be False")
        table = param_shapes(self.dims, m)
        if self.tensors.keys() != table.keys():
            raise ValueError(f"model tensors must be {sorted(table)}, got {sorted(self.tensors)}")
        for name, (shape, _) in table.items():
            if self.tensors[name].shape != shape:
                raise ad.ShapeError(f"{name} must be {shape}, got {self.tensors[name].shape}")
        self.tensors = {name: self.tensors[name] for name in table}

    def learnable(self) -> dict:
        """Name -> tensor map of every trainable leaf, in ``param_shapes``
        order (the frozen embedding is excluded)."""
        return dict(self.tensors)

    def all_tensors(self) -> dict:
        """learnable() plus the frozen embedding, for persistence."""
        return {**self.tensors, "embedding.W": self.embedding}


def init_model(dims: ModelDims, embedding: Tensor, seed: int,
               literal_equations: bool = False) -> ModelParams:
    """Seeded initialization from ``param_shapes``: weights uniform in
    +/- 1/sqrt(fan_in), biases and layer-norm biases zero, layer-norm
    gains one.  The weights are drawn in the table's order, so a seed pins
    every parameter bitwise."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, (shape, init) in param_shapes(dims, embedding.shape[-1]).items():
        if init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        else:
            bound = 1.0 / math.sqrt(init)
            data = rng.uniform(-bound, bound, size=shape)
        tensors[name] = ad.parameter(data)
    return ModelParams(dims, embedding, tensors, literal_equations)


def project_features(f_loc: Tensor, params: ModelParams) -> Tensor:
    """Map raw visual tokens (..., v, d0) into the joint space -> (..., v, d)."""
    t = params.tensors
    return ad.linear(f_loc, t["projection.w"], t["projection.b"])


def init_prompts(params: ModelParams) -> Tensor:
    """Initial category prompts (c, d) from the frozen embedding.

    Depends only on the embedding and the prompt-net weights — never on
    the sample or its labels.
    """
    t = params.tensors
    hidden = ad.gelu(ad.linear(params.embedding, t["prompt_init.w1"], t["prompt_init.b1"]))
    return ad.linear(hidden, t["prompt_init.w2"], t["prompt_init.b2"])


def vsi_forward(F: Tensor, P: Tensor, params: ModelParams) -> Tensor:
    """Visual-semantic interaction: refine the prompts against the tokens.

    ``F`` is (..., v, d) and ``P`` is (..., c, d) with the same leading
    axes; the result has the shape of ``P``.  On both paths the queries
    come from the prompt rows only, and the keys and values from all of
    Z = [F; P].  Standard path: the prompt rows of one post-norm encoder
    layer over Z.  Every stage after attention (output map, residual,
    norms, feed-forward) is row-wise, so the visual rows' outputs never
    reach a prompt row; they are not computed, and the result is exactly
    the prompt rows of the full layer.  Literal path
    (``params.literal_equations``): single-head attention (scale
    1/sqrt(d)), then the feed-forward — nothing else.
    """
    t = params.tensors
    literal = params.literal_equations
    z = ad.concat_rows(F, P)
    k, v = ad.linear(z, t["interaction.w_k"]), ad.linear(z, t["interaction.w_v"])
    del F, z   # under no_grad nothing else holds them: scoring peaks lower
    x = ad.attention(ad.linear(P, t["interaction.w_q"]), k, v,
                     1 if literal else params.dims.heads)
    if not literal:   # output map, residual, norm
        x = ad.layer_norm_rows(ad.add(P, ad.linear(x, t["interaction.w_attn_out"])),
                               t["interaction.ln1_gain"], t["interaction.ln1_bias"])
    hidden = ad.gelu(ad.linear(x, t["interaction.w_ffn_in"], t["interaction.b_ffn_in"]))
    ffn = ad.linear(hidden, t["interaction.w_ffn_out"], t["interaction.b_ffn_out"])
    if literal:
        return ffn
    return ad.layer_norm_rows(ad.add(x, ffn), t["interaction.ln2_gain"],
                              t["interaction.ln2_bias"])


def classify(p_refined: Tensor, p_initial: Tensor) -> Tensor:
    """Per-class probability: sigmoid of the refined/initial prompt dot
    product, class by class, (..., c, d) -> (..., c).  No cross-class
    score matrix exists — class j's probability involves only row j of
    each prompt set."""
    return ad.sigmoid(ad.sum_rows(ad.mul(p_refined, p_initial)))


def _check_batch(features, dims: ModelDims) -> np.ndarray:
    """``features`` as a float64 (B, v, d0) array, or ShapeError."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 3 or features.shape[1:] != (dims.v, dims.d0):
        raise ad.ShapeError(
            f"features must be (B, {dims.v}, {dims.d0}), got {features.shape}")
    return features


def forward_batch(features, params: ModelParams) -> Tensor:
    """Scores (B, c) for a (B, v, d0) feature array, built as one graph.

    Every stage runs on the whole array, so the number of graph nodes
    does not grow with the batch.  Each row is bitwise equal to the
    scores of that sample as a batch of one.  The same broadcast of the
    initial prompts feeds the interaction encoder and the classifier, so
    the prompts' gradient carries both routes, summed over the batch.
    """
    features = _check_batch(features, params.dims)
    P = ad.broadcast_batch(init_prompts(params), features.shape[0])
    # the tokens go straight into vsi_forward, which drops them once used
    return classify(vsi_forward(project_features(ad.constant(features), params), P, params), P)


def dual_path_grads(features, labels: np.ndarray, params: ModelParams,
                    loss_fn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the loss gradient at the initial prompts into its two routes,
    for one sample's (v, d0) features.

    The prompts enter the computation twice: through the interaction
    encoder and directly as classifier weights.  Each use reads its own
    batch-of-one broadcast of the prompts, so one backward leaves each
    route's gradient on its own node, and the prompts receive their sum:
    g_total = g_direct + g_via_interaction holds bitwise.

    Returns (g_total, g_direct, g_via_interaction) as plain arrays.
    """
    F = project_features(ad.constant(_check_batch(np.asarray(features)[None], params.dims)),
                         params)
    P = init_prompts(params)
    p_inter, p_cls = ad.broadcast_batch(P, 1), ad.broadcast_batch(P, 1)
    ad.backward(loss_fn(classify(vsi_forward(F, p_inter, params), p_cls),
                        np.asarray(labels)[None]))
    return P.grad_or_zeros(), p_cls.grad_or_zeros()[0], p_inter.grad_or_zeros()[0]
