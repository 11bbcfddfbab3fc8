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

The stages are batch-first: a batch is one graph over stacked arrays,
F of shape (B, v, d) and P broadcast to (B, c, d), and attention heads
are one more leading axis inside the attention node.  Every leading-axis
slice is computed by the same per-slice products as a batch of one, so a
sample's scores do not depend on the batch it is scored in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .schema import check_fields, integer, key, number

__all__ = [
    "LN_EPS",
    "ModelDims",
    "SemanticEmbedding",
    "Projection",
    "PromptInitParams",
    "InteractionParams",
    "PromptSet",
    "ModelParams",
    "init_model",
    "project_features",
    "init_prompts",
    "vsi_forward",
    "classify",
    "forward",
    "forward_with_prompts",
    "forward_batch",
    "dual_path_grads",
]

LN_EPS = 1e-5


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


@dataclass
class SemanticEmbedding:
    """Frozen per-class embedding matrix (c, m) with class names."""

    W: Tensor
    class_names: list

    def __post_init__(self):
        if self.W.data.ndim != 2:
            raise ad.ShapeError(f"embedding must be 2-d, got {self.W.shape}")
        if len(self.class_names) != self.W.shape[0]:
            raise ValueError(
                f"{len(self.class_names)} names for {self.W.shape[0]} embedding rows")
        if self.W.requires_grad:
            raise ValueError("the semantic embedding is frozen; requires_grad must be False")

    @property
    def c(self) -> int:
        return self.W.shape[0]

    @property
    def m(self) -> int:
        return self.W.shape[1]


@dataclass
class Projection:
    """Linear map of raw visual tokens into the joint space."""

    w: Tensor  # (d0, d)
    b: Tensor  # (d,)


@dataclass
class PromptInitParams:
    """Two-layer GELU net mapping embeddings to initial prompts."""

    w1: Tensor  # (m, t)
    b1: Tensor  # (t,)
    w2: Tensor  # (t, d)
    b2: Tensor  # (d,)
    tau: float = 0.5

    def __post_init__(self):
        t, d = self.w1.shape[1], self.w2.shape[1]
        if self.w2.shape[0] != t:
            raise ad.ShapeError(f"w1 {self.w1.shape} and w2 {self.w2.shape} disagree on t")
        if round(self.tau * d) != t:
            raise ValueError(
                f"hidden width {t} != round(tau*d) = {round(self.tau * d)} for tau={self.tau}, d={d}")


@dataclass
class InteractionParams:
    """One encoder layer: joint QKV maps (d, d) across all heads, an
    attention output map, a GELU feed-forward, and two layer norms."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_attn_out: Tensor
    w_ffn_in: Tensor   # (d, ffn)
    b_ffn_in: Tensor   # (ffn,)
    w_ffn_out: Tensor  # (ffn, d)
    b_ffn_out: Tensor  # (d,)
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor
    heads: int = 1

    def __post_init__(self):
        d = self.w_q.shape[0]
        for name in ("w_q", "w_k", "w_v", "w_attn_out"):
            if getattr(self, name).shape != (d, d):
                raise ad.ShapeError(f"{name} must be ({d}, {d}), got {getattr(self, name).shape}")
        if d % self.heads != 0:
            raise ValueError(f"d={d} not divisible by heads={self.heads}")


@dataclass
class PromptSet:
    """The prompts of one forward pass: as initialized and as refined."""

    initial: Tensor
    refined: Tensor


@dataclass
class ModelParams:
    dims: ModelDims
    embedding: SemanticEmbedding
    projection: Projection
    prompt_init: PromptInitParams
    interaction: InteractionParams
    literal_equations: bool = False

    def learnable(self) -> dict:
        """Stable name -> tensor map of every trainable leaf (the frozen
        embedding is excluded)."""
        out = {
            "projection.w": self.projection.w,
            "projection.b": self.projection.b,
            "prompt_init.w1": self.prompt_init.w1,
            "prompt_init.b1": self.prompt_init.b1,
            "prompt_init.w2": self.prompt_init.w2,
            "prompt_init.b2": self.prompt_init.b2,
        }
        for name in ("w_q", "w_k", "w_v", "w_attn_out", "w_ffn_in", "b_ffn_in",
                     "w_ffn_out", "b_ffn_out", "ln1_gain", "ln1_bias",
                     "ln2_gain", "ln2_bias"):
            out[f"interaction.{name}"] = getattr(self.interaction, name)
        return out

    def all_tensors(self) -> dict:
        """learnable() plus the frozen embedding, for persistence."""
        out = dict(self.learnable())
        out["embedding.W"] = self.embedding.W
        return out


def _uniform(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_model(dims: ModelDims, embedding: SemanticEmbedding, seed: int,
               literal_equations: bool = False) -> ModelParams:
    """Seeded initialization: weights uniform in +/- 1/sqrt(fan_in), biases
    and layer-norm biases zero, layer-norm gains one.  The draw order is
    fixed (projection, prompt net, attention, feed-forward) so a seed pins
    every parameter bitwise."""
    if embedding.c != dims.c:
        raise ValueError(f"embedding has {embedding.c} classes, dims.c = {dims.c}")
    rng = np.random.default_rng(seed)
    d0, d, t, ffn, m = dims.d0, dims.d, dims.t, dims.ffn, embedding.m

    projection = Projection(
        w=ad.parameter(_uniform(rng, (d0, d), d0)),
        b=ad.parameter(np.zeros(d)),
    )
    prompt_init = PromptInitParams(
        w1=ad.parameter(_uniform(rng, (m, t), m)),
        b1=ad.parameter(np.zeros(t)),
        w2=ad.parameter(_uniform(rng, (t, d), t)),
        b2=ad.parameter(np.zeros(d)),
        tau=dims.tau,
    )
    interaction = InteractionParams(
        w_q=ad.parameter(_uniform(rng, (d, d), d)),
        w_k=ad.parameter(_uniform(rng, (d, d), d)),
        w_v=ad.parameter(_uniform(rng, (d, d), d)),
        w_attn_out=ad.parameter(_uniform(rng, (d, d), d)),
        w_ffn_in=ad.parameter(_uniform(rng, (d, ffn), d)),
        b_ffn_in=ad.parameter(np.zeros(ffn)),
        w_ffn_out=ad.parameter(_uniform(rng, (ffn, d), ffn)),
        b_ffn_out=ad.parameter(np.zeros(d)),
        ln1_gain=ad.parameter(np.ones(d)),
        ln1_bias=ad.parameter(np.zeros(d)),
        ln2_gain=ad.parameter(np.ones(d)),
        ln2_bias=ad.parameter(np.zeros(d)),
        heads=dims.heads,
    )
    return ModelParams(dims=dims, embedding=embedding, projection=projection,
                       prompt_init=prompt_init, interaction=interaction,
                       literal_equations=literal_equations)


def project_features(f_loc: Tensor, projection: Projection) -> Tensor:
    """Map raw visual tokens (..., v, d0) into the joint space -> (..., v, d)."""
    return ad.add_rowvec(ad.matmul(f_loc, projection.w), projection.b)


def init_prompts(embedding: SemanticEmbedding, pi: PromptInitParams) -> Tensor:
    """Initial category prompts (c, d) from the frozen embedding.

    Depends only on the embedding and the prompt-net weights — never on
    the sample or its labels.
    """
    hidden = ad.gelu(ad.add_rowvec(ad.matmul(embedding.W, pi.w1), pi.b1))
    return ad.add_rowvec(ad.matmul(hidden, pi.w2), pi.b2)


def vsi_forward(F: Tensor, P: Tensor, inter: InteractionParams,
                literal_equations: bool = False) -> Tensor:
    """Visual-semantic interaction: refine the prompts against the tokens.

    ``F`` is (..., v, d) and ``P`` is (..., c, d) with the same leading
    axes; the result has the shape of ``P``.  On both paths the queries
    come from the prompt rows only, and the keys and values from all of
    Z = [F; P].  Standard path: the prompt rows of one post-norm encoder
    layer over Z.  Every stage after attention (output map, residual,
    norms, feed-forward) is row-wise, so the visual rows' outputs never
    reach a prompt row; they are not computed, and the result is exactly
    the prompt rows of the full layer.  Literal path: single-head
    attention (scale 1/sqrt(d)), then the feed-forward — nothing else.
    """
    if F.shape[:-2] != P.shape[:-2] or F.shape[-1] != P.shape[-1]:
        raise ad.ShapeError(f"tokens {F.shape} and prompts {P.shape} disagree on "
                            "leading axes or width")
    z = ad.concat_rows(F, P)
    k, v = ad.matmul(z, inter.w_k), ad.matmul(z, inter.w_v)
    del z   # under no_grad nothing else holds it: scoring peaks lower
    attn = ad.attention(ad.matmul(P, inter.w_q), k, v,
                        1 if literal_equations else inter.heads)
    if literal_equations:
        hidden = ad.gelu(ad.add_rowvec(ad.matmul(attn, inter.w_ffn_in), inter.b_ffn_in))
        return ad.add_rowvec(ad.matmul(hidden, inter.w_ffn_out), inter.b_ffn_out)

    z1 = ad.layer_norm_rows(ad.add(P, ad.matmul(attn, inter.w_attn_out)),
                            inter.ln1_gain, inter.ln1_bias, eps=LN_EPS)
    hidden = ad.gelu(ad.add_rowvec(ad.matmul(z1, inter.w_ffn_in), inter.b_ffn_in))
    ffn = ad.add_rowvec(ad.matmul(hidden, inter.w_ffn_out), inter.b_ffn_out)
    return ad.layer_norm_rows(ad.add(z1, ffn), inter.ln2_gain, inter.ln2_bias, eps=LN_EPS)


def classify(p_refined: Tensor, p_initial: Tensor) -> Tensor:
    """Per-class probability: sigmoid of the refined/initial prompt dot
    product, class by class, (..., c, d) -> (..., c).  No cross-class
    score matrix exists — class j's probability involves only row j of
    each prompt set."""
    if p_refined.shape != p_initial.shape:
        raise ad.ShapeError(
            f"prompt sets must match, got {p_refined.shape} vs {p_initial.shape}")
    return ad.sigmoid(ad.sum_rows(ad.mul(p_refined, p_initial)))


def _check_batch(features, dims: ModelDims) -> np.ndarray:
    """``features`` as a float64 (B, v, d0) array, or ShapeError."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 3 or features.shape[1:] != (dims.v, dims.d0):
        raise ad.ShapeError(
            f"features must be (B, {dims.v}, {dims.d0}), got {features.shape}")
    return features


def _forward_stacked(features: np.ndarray, params: ModelParams) -> tuple[Tensor, PromptSet]:
    """One graph for a (B, v, d0) feature stack: scores (B, c), the shared
    initial prompts (c, d) and the refined prompts (B, c, d).

    The same broadcast of the initial prompts feeds the interaction
    encoder and the classifier, so the prompts' gradient carries both
    routes, summed over the batch.
    """
    F = project_features(ad.constant(features), params.projection)
    P = init_prompts(params.embedding, params.prompt_init)
    P_batch = ad.broadcast_batch(P, features.shape[0])
    refined = vsi_forward(F, P_batch, params.interaction,
                          literal_equations=params.literal_equations)
    return classify(refined, P_batch), PromptSet(initial=P, refined=refined)


def forward_with_prompts(features, params: ModelParams) -> tuple[Tensor, PromptSet]:
    """Full forward pass of one sample's (v, d0) features returning scores
    (c,) plus both prompt sets, (c, d) each."""
    scores, prompts = _forward_stacked(
        _check_batch(np.asarray(features)[None], params.dims), params)
    c, d = prompts.initial.shape
    return ad.reshape(scores, (c,)), PromptSet(
        initial=prompts.initial, refined=ad.reshape(prompts.refined, (c, d)))


def forward(features, params: ModelParams) -> Tensor:
    """Per-class probabilities (c,) for one sample's (v, d0) features:
    ``forward_batch`` of a batch of one."""
    scores = forward_batch(np.asarray(features)[None], params)
    return ad.reshape(scores, (params.dims.c,))


def forward_batch(features, params: ModelParams) -> Tensor:
    """Scores (B, c) for a (B, v, d0) feature array, built as one graph.

    Every stage runs on the whole array, so the number of graph nodes
    does not grow with the batch.  Each row is bitwise equal to
    ``forward`` of that sample.
    """
    scores, _ = _forward_stacked(_check_batch(features, params.dims), params)
    return scores


def dual_path_grads(features, labels: np.ndarray, params: ModelParams,
                    loss_fn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the loss gradient at the initial prompts into its two routes,
    for one sample's (v, d0) features.

    The prompts enter the computation twice: through the interaction
    encoder and directly as classifier weights.  Detaching one use at a
    time isolates the other, and because backward accumulates by
    summation, g_total = g_direct + g_via_interaction holds to roundoff.

    Returns (g_total, g_direct, g_via_interaction) as plain arrays.
    """
    features = _check_batch(np.asarray(features)[None], params.dims)[0]

    def run(detach_interaction: bool, detach_classifier: bool) -> np.ndarray:
        F = project_features(ad.constant(features), params.projection)
        P = init_prompts(params.embedding, params.prompt_init)
        p_inter = P.detach() if detach_interaction else P
        p_cls = P.detach() if detach_classifier else P
        refined = vsi_forward(F, p_inter, params.interaction,
                              literal_equations=params.literal_equations)
        loss = loss_fn(classify(refined, p_cls), labels)
        ad.backward(loss)
        return P.grad_or_zeros().copy()

    g_total = run(False, False)
    g_direct = run(True, False)
    g_via_interaction = run(False, True)
    return g_total, g_direct, g_via_interaction
