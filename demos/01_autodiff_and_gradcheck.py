"""A tour of the autodiff engine and its finite-difference checker.

Run with:  python3 demos/01_autodiff_and_gradcheck.py

Covers: building a small expression graph, backward(), gradient
accumulation when a tensor is used twice, grad_check() against central
differences, and the full-model checker with its conditioned probe.
"""

import numpy as np

from promptrefine import autodiff as ad
from promptrefine.training import TrainConfig, run_gradcheck

print("=" * 70)
print("1. A small expression, differentiated by hand and by the engine")
print("=" * 70)

rng = np.random.default_rng(0)
x = ad.constant(rng.standard_normal((3, 4)))
w = ad.parameter(rng.standard_normal((4, 2)))
b = ad.parameter(np.zeros(2))

# y = sum(sigmoid(x @ w + b));  dy/dw = x.T @ (s * (1 - s)),  dy/db = column sums.
# inner_sum([t], [weights]) is the scalar <t, weights>; all-ones weights sum t.
y = ad.inner_sum([ad.sigmoid(ad.linear(x, w, b))], [np.ones((3, 2))])
ad.backward(y)

s = 1.0 / (1.0 + np.exp(-(x.data @ w.data + b.data)))
hand_w = x.data.T @ (s * (1.0 - s))
hand_b = (s * (1.0 - s)).sum(axis=0)

print(f"y = {float(y.data):.6f}")
print(f"max |engine - hand| on w: {np.abs(w.grad - hand_w).max():.3e}")
print(f"max |engine - hand| on b: {np.abs(b.grad - hand_b).max():.3e}")

print()
print("=" * 70)
print("2. A tensor used twice accumulates both contributions")
print("=" * 70)

p = ad.parameter(np.array([[1.0, 2.0]]))
# z = sum(p * p) + sum(3 * p): dz/dp = 2p + 3
z = ad.inner_sum([ad.add(ad.mul(p, p), ad.mul(ad.constant(np.full((1, 2), 3.0)), p))],
                 [np.ones((1, 2))])
ad.backward(z)
print(f"p = {p.data.ravel()},  dz/dp = {p.grad.ravel()}  (expected {2 * p.data.ravel() + 3})")

print()
print("=" * 70)
print("3. grad_check compares every entry against central differences")
print("=" * 70)

w2 = ad.parameter(rng.standard_normal((2, 3)))
gain = ad.parameter(np.ones(3))
bias = ad.parameter(np.zeros(3))


def f():
    h = ad.gelu(ad.linear(x, w, b))
    out = ad.layer_norm_rows(ad.linear(h, w2), gain, bias)
    return ad.inner_sum([ad.mul(out, out)], [np.full((3, 3), 1.0 / 9)])   # mean of squares


result = ad.grad_check(f, {"w": w, "b": b, "w2": w2, "gain": gain, "bias": bias},
                       eps=1e-5)
print(f"checked {result.n_entries} entries; "
      f"max rel error {result.max_rel_error:.2e} (worst: {result.worst_param})")

print()
print("=" * 70)
print("4. The full-model checker conditions its probe point")
print("=" * 70)
print("""Central differences at step eps carry subtraction noise of order
machine_eps * |objective| / eps, so probing a raw initialization (loss ~ a
few nats) cannot resolve relative errors near 1e-4 on entries whose true
gradient is incidentally tiny.  run_gradcheck therefore settles the probe
batch to a moderate loss first and divides each entry's difference by at
least 1e-5 (grad_check(..., floor=1e-5)), so a near-zero gradient is judged
on a difference the probes can resolve.  The probes still evaluate the bare
loss, so the floor adds no truncation error and hides no backward defect of
ordinary size.
""")

cfg = TrainConfig.from_dict({
    "epochs": 1, "batch_size": 2, "learning_rate": 5e-5, "weight_decay": 0.0,
    "loss": {"name": "asl", "gamma_pos": 0.0, "gamma_neg": 4.0, "mu": 0.05},
    "dims": {"d0": 6, "d": 12, "v": 4, "c": 5, "heads": 2, "ffn": 24},
    "embedding": {"mode": "random", "m": 6, "seed": 0},
    "seed": 0, "literal_equations": False})
tolerance = 1e-4
report = run_gradcheck(cfg)
print(f"full model ({report.n_entries} parameters): "
      f"max rel error {report.max_rel_error:.2e} tolerance {tolerance:.0e} "
      f"-> {'PASS' if report.max_rel_error < tolerance else 'FAIL'}")
