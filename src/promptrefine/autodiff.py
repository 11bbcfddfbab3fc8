"""Minimal reverse-mode automatic differentiation on numpy arrays.

The graph is define-by-run: every primitive returns a new :class:`Tensor`
that remembers its input tensors and a closure propagating the output
gradient back to them.  There is no explicit tape object — each tensor
carries a monotonically increasing creation index, and ``backward`` visits
the nodes reachable from the loss in strictly decreasing creation order,
which is exactly the reverse of execution order.  A tensor used at several
sites receives the *sum* of the gradient contributions from every site.

All arithmetic is float64.  Primitives are pure functions of their inputs:
the same inputs always produce bitwise-identical outputs and gradients.
The engine runs on numpy alone, except that ``gelu`` and ``sigmoid`` use
``scipy.special``'s ``erf`` and ``expit``: the first GELU or sigmoid
imports ``scipy.special``, so importing the package, generating data and
building a model do not pay for it.

Tensors are batch-first: every axis before the last two (or before the
last one, for row-vector ops) is a *leading* axis, and the row-wise ops
(``matmul``, ``add_rowvec``, ``layer_norm_rows``, ``attention``,
``sum_rows``, ``concat_rows``) act on each leading-axis slice
independently.  Shapes are otherwise strict.  The only implicit
broadcast is of a parameter across leading axes: a 2-d ``matmul``
right operand, the vector of ``add_rowvec`` and the ``layer_norm_rows``
gain and bias apply to every slice, and their gradients are summed over
the leading axes.  ``broadcast_batch`` makes that broadcast explicit
for any tensor.

A graph holds memory only while a backward pass can still use it.
Inside ``with no_grad():`` every primitive returns a plain tensor with no
parents and no closure, so each intermediate is freed as soon as it is
consumed; scoring and finite-difference probes run this way.  ``backward``
consumes its graph: once the sweep is done every node it visited keeps
its ``.grad`` but drops its parents and its closure, and a second
``backward`` through that graph raises :class:`GraphFreedError`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "GraphFreedError",
    "GradCheckResult",
    "no_grad",
    "constant",
    "parameter",
    "matmul",
    "add",
    "add_rowvec",
    "broadcast_batch",
    "mul",
    "scale",
    "gelu",
    "sigmoid",
    "layer_norm_rows",
    "attention",
    "concat_rows",
    "reshape",
    "sum_rows",
    "inner_sum",
    "backward",
    "grad_check",
]

_CREATION_COUNTER = itertools.count()
_GRAD_ENABLED = True

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@functools.cache
def _special():
    """``scipy.special``, imported on the first call and kept.  Only
    ``gelu`` (``erf``) and ``sigmoid`` (``expit``) need it, and importing
    it costs more than numpy itself, so a process that never runs them
    never loads it."""
    import scipy.special
    return scipy.special


class ShapeError(ValueError):
    """Raised when operands have incompatible shapes; names both shapes."""


class NonFiniteError(FloatingPointError):
    """Raised when a value that must be finite contains NaN or +/-Inf."""


class GraphFreedError(RuntimeError):
    """Raised by ``backward`` through a graph an earlier ``backward`` freed."""


class Tensor:
    """A dense float64 array plus an optional gradient accumulator.

    ``grad`` is ``None`` until some backward pass deposits a contribution;
    a parameter that is not reachable from the loss keeps ``grad=None``,
    which readers should treat as an all-zero gradient.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = _parents
        self._backward: Callable[[np.ndarray], None] | None = _backward
        self._seq = next(_CREATION_COUNTER)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def is_finite(self) -> bool:
        """Validity check: True when every entry is finite (no NaN/Inf)."""
        return bool(np.isfinite(self.data).all())

    def detach(self) -> "Tensor":
        """A view of the same data, cut loose from the graph: no gradient
        flows through a detached tensor."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def grad_or_zeros(self) -> np.ndarray:
        return self.grad if self.grad is not None else np.zeros_like(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def constant(data) -> Tensor:
    """A tensor that never receives gradients (inputs, labels, masks)."""
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    """A learnable leaf tensor."""
    return Tensor(data, requires_grad=True)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        if t.grad is None:
            t.grad = np.empty_like(t.data)
            t.grad[...] = g
        else:
            t.grad += g


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block: every primitive returns a tensor
    with the same data but no parents, no closure and ``requires_grad``
    False.  Nests; the previous state comes back on exit, exceptions
    included."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _from_op(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    # An output no gradient can reach keeps no parents, so a graph of
    # constants frees each intermediate as soon as it is consumed.
    if _GRAD_ENABLED:
        for p in parents:
            if p.requires_grad:
                return Tensor(data, requires_grad=True, _parents=parents,
                              _backward=backward_fn)
    return Tensor(data)


def _sum_leading(g: np.ndarray) -> np.ndarray:
    """Sum an (..., n) gradient over every leading axis -> (n,)."""
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, slice by slice:
    (..., m, k) @ (k, n) or (..., m, k) @ (..., k, n) -> (..., m, n).

    A 2-d right operand (a weight) multiplies every leading-axis slice of
    ``a``; otherwise the leading axes of both operands must be equal.
    Backward: dA += G @ B^T, dB += A^T @ G, where a 2-d B's gradient is
    summed over the leading axes.
    """
    ad_, bd = a.data, b.data
    if (ad_.ndim < 2 or bd.ndim < 2 or ad_.shape[-1] != bd.shape[-2]
            or (bd.ndim > 2 and ad_.shape[:-2] != bd.shape[:-2])):
        raise ShapeError(f"matmul shapes do not match: {a.shape} @ {b.shape}")
    out_data = ad_ @ bd

    def _bw(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            if b.data.ndim == 2:
                k, n = b.data.shape
                _accumulate(b, a.data.reshape(-1, k).T @ g.reshape(-1, n))
            else:
                _accumulate(b, np.swapaxes(a.data, -1, -2) @ g)

    return _from_op(out_data, (a, b), _bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")

    def _bw(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    return _from_op(a.data + b.data, (a, b), _bw)


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Add a length-n vector along the last axis of an (..., n) tensor
    (bias addition).

    Backward: dX += G, dv += G summed over every leading axis.
    """
    if x.data.ndim == 0 or v.data.ndim != 1 or v.data.shape[0] != x.data.shape[-1]:
        raise ShapeError(f"add_rowvec needs a vector as long as the last axis of "
                         f"{x.shape}, got {v.shape}")

    def _bw(g: np.ndarray) -> None:
        _accumulate(x, g)
        if v.requires_grad:
            _accumulate(v, _sum_leading(g))

    return _from_op(x.data + v.data, (x, v), _bw)


def broadcast_batch(x: Tensor, n: int) -> Tensor:
    """n copies of ``x`` stacked along a new leading axis -> (n, *x.shape).

    Lifts a sample-independent tensor into a batch.  Backward sums the n
    slices' gradients.
    """
    if n < 1:
        raise ShapeError(f"broadcast_batch needs n >= 1, got {n}")

    def _bw(g: np.ndarray) -> None:
        _accumulate(x, g.sum(axis=0))

    return _from_op(np.broadcast_to(x.data, (n,) + x.data.shape).copy(), (x,), _bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")

    def _bw(g: np.ndarray) -> None:
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _from_op(a.data * b.data, (a, b), _bw)


def scale(x: Tensor, c: float) -> Tensor:
    def _bw(g: np.ndarray) -> None:
        _accumulate(x, g * c)

    return _from_op(x.data * c, (x,), _bw)


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2))).

    Backward: d/dx = 0.5 * (1 + erf(x/sqrt(2))) + x * pdf(x)
    with pdf(x) = exp(-x^2 / 2) / sqrt(2*pi).
    """
    e = _special().erf(x.data * _INV_SQRT2)
    out_data = 0.5 * x.data * (1.0 + e)

    def _bw(g: np.ndarray) -> None:
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
        _accumulate(x, g * (0.5 * (1.0 + e) + x.data * pdf))

    return _from_op(out_data, (x,), _bw)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic; backward uses s * (1 - s)."""
    s = _special().expit(x.data)

    def _bw(g: np.ndarray) -> None:
        _accumulate(x, g * s * (1.0 - s))

    return _from_op(s, (x,), _bw)


def layer_norm_rows(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with learnable gain and bias.

    Uses the population variance (divide by n).  Backward follows the
    closed form

        dX = (istd / n) * (n*dY' - sum(dY') - xhat * sum(dY' * xhat))

    with dY' = G * gain, all reductions over the last axis; the gain and
    bias gradients are summed over the leading axes.
    """
    if x.data.ndim == 0 or gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError(f"layer_norm_rows gain/bias must match the last axis of {x.shape}, "
                         f"got {gain.shape} and {bias.shape}")
    n = x.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    istd = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * istd
    out_data = xhat * gain.data + bias.data

    def _bw(g: np.ndarray) -> None:
        _accumulate(gain, _sum_leading(g * xhat))
        _accumulate(bias, _sum_leading(g))
        dxhat = g * gain.data
        term = (n * dxhat
                - dxhat.sum(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
        _accumulate(x, term * (istd / n))

    return _from_op(out_data, (x, gain, bias), _bw)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one node:
    (..., nq, d) queries over (..., nk, d) keys and values -> (..., nq, d).

    Head h owns columns h*dh..(h+1)*dh of each operand, dh = d / heads;
    its weights are S = softmax(q_h @ k_h^T / sqrt(dh)) over the keys,
    with the row max subtracted for stability, and it writes S @ v_h into
    its columns of the output.  The heads are a leading axis inside the
    node, (..., heads, n, dh).  Backward, per head, with G the output
    gradient:

        dS = G @ v_h^T,   dv_h = S^T @ G,
        dA = S * (dS - rowsum(dS * S)) / sqrt(dh),
        dq_h = dA @ k_h,  dk_h = dA^T @ q_h.
    """
    qd, kd, vd = q.data, k.data, v.data
    if (qd.ndim < 2 or kd.shape != vd.shape or kd.shape[:-2] != qd.shape[:-2]
            or kd.shape[-1] != qd.shape[-1]):
        raise ShapeError(f"attention needs (..., nq, d) queries over equal (..., nk, d) "
                         f"keys and values, got {q.shape}, {k.shape} and {v.shape}")
    *lead, nq, d = qd.shape
    nk = kd.shape[-2]
    if heads < 1 or d % heads:
        raise ShapeError(f"attention width {d} does not split into {heads} heads")
    dh = d // heads
    c = 1.0 / math.sqrt(dh)

    # The per-head operands are contiguous copies, so every product is the
    # same BLAS call, bit for bit, as in the unfused composite of reshape,
    # transpose, matmul and softmax nodes.
    def split(x: np.ndarray, n: int) -> np.ndarray:
        # (..., n, d) -> contiguous (..., heads, n, dh)
        return np.swapaxes(x.reshape(*lead, n, heads, dh), -3, -2).copy()

    qh, vh = split(qd, nq), split(vd, nk)
    kt = np.swapaxes(split(kd, nk), -1, -2).copy()   # (..., heads, dh, nk)
    s = qh @ kt
    s *= c
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def merge(x: np.ndarray) -> np.ndarray:
        # (..., heads, n, dh) -> (..., n, d)
        return np.swapaxes(x, -3, -2).reshape(*lead, x.shape[-2], d)

    def _bw(g: np.ndarray) -> None:
        gh = split(g, nq)
        if q.requires_grad or k.requires_grad:
            da = gh @ np.swapaxes(vh, -1, -2)
            da -= (da * s).sum(axis=-1, keepdims=True)
            da *= s
            da *= c
            if q.requires_grad:
                _accumulate(q, merge(da @ np.swapaxes(kt, -1, -2)))
            if k.requires_grad:
                dkt = np.swapaxes(qh, -1, -2) @ da   # (..., heads, dh, nk)
                _accumulate(k, merge(np.swapaxes(dkt, -1, -2)))
        if v.requires_grad:
            _accumulate(v, merge(np.swapaxes(s, -1, -2) @ gh))

    return _from_op(merge(s @ vh), (q, k, v), _bw)


def concat_rows(*parts: Tensor) -> Tensor:
    """Concatenate tensors along axis -2 (rows); every other axis must match."""
    if len(parts) < 2:
        raise ValueError("concat_rows needs at least two tensors")
    first = parts[0].shape
    for p in parts:
        if p.data.ndim < 2 or p.shape[:-2] != first[:-2] or p.shape[-1] != first[-1]:
            raise ShapeError(f"concat_rows shapes differ off axis -2: {first} vs {p.shape}")
    sizes = [p.shape[-2] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def _bw(g: np.ndarray) -> None:
        for p, a, b in zip(parts, offsets[:-1], offsets[1:]):
            _accumulate(p, g[..., a:b, :])

    return _from_op(np.concatenate([p.data for p in parts], axis=-2), tuple(parts), _bw)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if math.prod(shape) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")

    def _bw(g: np.ndarray) -> None:
        _accumulate(x, g.reshape(x.data.shape))

    return _from_op(x.data.reshape(shape).copy(), (x,), _bw)


def sum_rows(x: Tensor) -> Tensor:
    """Sums over the last axis: (..., n) -> (...)."""
    if x.data.ndim == 0:
        raise ShapeError("sum_rows needs a tensor of rank >= 1, got a scalar")

    def _bw(g: np.ndarray) -> None:
        _accumulate(x, np.broadcast_to(g[..., None], x.data.shape))

    return _from_op(x.data.sum(axis=-1), (x,), _bw)


def inner_sum(xs: Iterable[Tensor], ws: Iterable[np.ndarray]) -> Tensor:
    """sum_i <x_i, w_i> over pairs of same-shape tensor and constant array,
    as one scalar node.  Backward: dx_i += g * w_i."""
    pairs = [(x, np.asarray(w, dtype=np.float64)) for x, w in zip(xs, ws, strict=True)]
    total = 0.0
    for x, w in pairs:
        if x.shape != w.shape:
            raise ShapeError(f"inner_sum shapes differ: {x.shape} vs {w.shape}")
        total += (x.data * w).sum()

    def _bw(g: np.ndarray) -> None:
        for x, w in pairs:
            if x.requires_grad:
                _accumulate(x, g * w)

    return _from_op(np.asarray(total), tuple(x for x, _ in pairs), _bw)


# ---------------------------------------------------------------------------
# backward pass and gradient checking
# ---------------------------------------------------------------------------

def _freed(g: np.ndarray) -> None:
    raise GraphFreedError("backward through a graph that an earlier backward "
                          "already freed; rebuild the loss to backpropagate again")


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    Visits every tensor reachable from ``loss`` through gradient-requiring
    parents, in strictly decreasing creation order (= reverse execution
    order), accumulating into ``.grad`` by summation.  Tensors touched by
    several downstream consumers therefore end up with the sum of all
    contributions.

    The sweep consumes the graph: each visited node drops its parents and
    its closure once its gradient has been passed on, so intermediates the
    caller does not hold are freed before ``backward`` returns.  ``.grad``
    stays on every tensor the caller still holds.  A later ``backward``
    that reaches a freed node raises :class:`GraphFreedError` before it
    deposits any gradient.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    reachable: list[Tensor] = []
    seen = {id(loss)}
    stack = [loss]
    while stack:
        t = stack.pop()
        if t._backward is _freed:
            raise GraphFreedError(f"backward reached {t!r}, whose graph an earlier "
                                  "backward already freed; rebuild the loss")
        reachable.append(t)
        for p in t._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    order = sorted(reachable, key=lambda n: n._seq, reverse=True)
    del reachable
    loss.grad = np.ones_like(loss.data)
    for i, t in enumerate(order):
        order[i] = None   # once its consumers are done, only the caller keeps t
        if t._backward is not None:
            if t.grad is not None:
                t._backward(t.grad)
            t._parents = ()
            t._backward = _freed


@dataclass
class GradCheckResult:
    max_rel_error: float
    worst_param: str
    n_entries: int

    def __str__(self) -> str:
        return (f"max relative error {self.max_rel_error:.3e} "
                f"at {self.worst_param} ({self.n_entries} entries checked)")


def grad_check(f: Callable[[], Tensor],
               params: Mapping[str, Tensor] | Iterable[tuple[str, Tensor]],
               eps: float = 1e-5) -> GradCheckResult:
    """Compare backward gradients against central finite differences.

    ``f`` rebuilds the scalar loss from scratch on every call (reading the
    current values of ``params``).  For each parameter entry the numeric
    derivative is (f(x+eps) - f(x-eps)) / (2*eps) and the reported error is

        |analytic - numeric| / max(|analytic|, |numeric|, 1e-8)

    maximised over all entries.  The probes run under :func:`no_grad`.
    Non-finite values raise :class:`NonFiniteError` naming the offending
    parameter.
    """
    if eps <= 0:
        raise ValueError(f"grad_check eps must be positive, got {eps}")
    items = list(params.items()) if isinstance(params, Mapping) else list(params)
    for _, t in items:
        t.zero_grad()
    loss = f()
    if loss.data.size != 1:
        raise ShapeError(f"grad_check needs a scalar loss, got shape {loss.shape}")
    if not loss.is_finite():
        raise NonFiniteError("grad_check: loss is not finite")
    backward(loss)
    analytic = {name: t.grad_or_zeros().copy() for name, t in items}

    worst = 0.0
    worst_name = ""
    n_entries = 0
    with no_grad():
        for name, t in items:
            if not t.requires_grad:
                continue
            flat = t.data.reshape(-1)
            a_flat = analytic[name].reshape(-1)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + eps
                up = f().data.item()
                flat[i] = saved - eps
                down = f().data.item()
                flat[i] = saved
                if not (math.isfinite(up) and math.isfinite(down)):
                    raise NonFiniteError(
                        f"grad_check: non-finite loss while perturbing {name}[{i}]")
                numeric = (up - down) / (2.0 * eps)
                rel = abs(a_flat[i] - numeric) / max(abs(a_flat[i]), abs(numeric), 1e-8)
                n_entries += 1
                if rel > worst:
                    worst = rel
                    worst_name = f"{name}[{i}]"
    return GradCheckResult(max_rel_error=worst, worst_param=worst_name, n_entries=n_entries)
