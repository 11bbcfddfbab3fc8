"""How the initial prompts receive gradient through two routes.

Run with:  python3 demos/05_dual_path_gradients.py

The initial prompts P enter the forward pass twice: once into the
transformer interaction (which refines them against the visual features)
and once directly as the classifier's per-class weight vectors, since the
score of class i is sigmoid(<refined_i, initial_i>), with no temperature.
Backward therefore accumulates two contributions into P.  Each use reads
its own copy of P, so one backward pass leaves each route's gradient on
its copy, and P receives their sum: the two route gradients sum to the
joint one exactly, bit for bit, because accumulation is plain addition.
"""

import numpy as np

from promptrefine import autodiff as ad
from promptrefine.data import embedding_provider
from promptrefine.losses import get_loss
from promptrefine.model import ModelDims, dual_path_grads, forward_batch, init_model

rng = np.random.default_rng(2)
dims = ModelDims(d0=8, d=16, v=5, c=6, heads=2, ffn=32, tau=0.5)
embedding = embedding_provider("random", c=dims.c, m=10, seed=2)
loss_fn = get_loss("asl", {"name": "asl", "gamma_pos": 0.0,
                           "gamma_neg": 4.0, "mu": 0.05})

features = rng.standard_normal((dims.v, dims.d0))
labels = np.array([1, 0, 0, 1, 0, 0], dtype=float)

print("=" * 70)
print("1. Standard interaction (multi-head encoder layer)")
print("=" * 70)

params = init_model(dims, embedding, seed=2, literal_equations=False)
g_total, g_direct, g_inter = dual_path_grads(features, labels, params, loss_fn)
residual = np.abs(g_total - (g_direct + g_inter)).max()
print(f"||g_total||          = {np.linalg.norm(g_total):.6f}")
print(f"||g_direct||         = {np.linalg.norm(g_direct):.6f}   (classifier route)")
print(f"||g_via_interaction||= {np.linalg.norm(g_inter):.6f}   (encoder route)")
print(f"max |g_total - (g_direct + g_via_interaction)| = {residual:.2e}")

print()
print("=" * 70)
print("2. Literal interaction (single-head attention + feed-forward only)")
print("=" * 70)

lit = init_model(dims, embedding, seed=2, literal_equations=True)
g_total, g_direct, g_inter = dual_path_grads(features, labels, lit, loss_fn)
residual = np.abs(g_total - (g_direct + g_inter)).max()
print(f"||g_direct||         = {np.linalg.norm(g_direct):.6f}")
print(f"||g_via_interaction||= {np.linalg.norm(g_inter):.6f}")
print(f"decomposition residual = {residual:.2e}")

print("""
The literal route skips the attention-output projection and both layer
norms, so those parameters sit outside the graph and their gradients stay
exactly zero while everything else trains:""")

loss = loss_fn(forward_batch(features[None], lit), labels[None])
ad.backward(loss)
for name, p in lit.learnable().items():
    norm = 0.0 if p.grad is None else float(np.abs(p.grad).max())
    flag = "  <- unused in literal mode" if norm == 0.0 else ""
    print(f"  {name:24s} max |grad| = {norm:.3e}{flag}")
