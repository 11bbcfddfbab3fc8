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
last one, for the per-row ``layer_norm_rows`` and ``sum_rows``) is a
*leading* axis, and the row-wise ops (``linear``, ``layer_norm_rows``,
``attention``, ``sum_rows``, and ``concat_rows`` of two tensors) act on
each leading-axis slice independently.  Shapes are otherwise strict.
The only implicit broadcast is of a parameter across leading axes: the
``linear`` weight and bias and the ``layer_norm_rows`` gain and bias
apply to every slice, and their gradients are summed over the leading
axes.  ``broadcast_batch`` makes that broadcast explicit for any tensor.

Each op allocates its output and what its backward keeps, and as little
else as it can: attention reads its heads as strided views, and GELU and
layer norm work in place.  ``_accumulate`` is the one place that drops
gradients deposited on constants; only ``linear`` skips computing its
input's gradient when that input is constant.  A backward passes
``fresh=True`` for an array it has just allocated and holds nowhere else,
and a first deposit keeps such an array as ``.grad`` instead of copying
it, if it is C-contiguous: the copy it saves is C-contiguous, and a
gradient's layout decides the BLAS calls that read it later, and so
their bits.

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
    "linear",
    "add",
    "broadcast_batch",
    "mul",
    "gelu",
    "sigmoid",
    "layer_norm_rows",
    "attention",
    "concat_rows",
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


def _accumulate(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    if t.requires_grad:
        if t.grad is not None:
            t.grad += g
        elif fresh and type(g) is np.ndarray and g.flags.c_contiguous:
            t.grad = g
        else:
            t.grad = np.empty_like(t.data)
            t.grad[...] = g


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

def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Linear map x @ w (+ b) over the last axis, slice by slice:
    (..., m, k) with a (k, n) weight and an optional length-n bias
    -> (..., m, n).

    The weight and bias apply to every leading-axis slice of ``x``.
    Backward: dX += G @ W^T; dW += X^T @ G and db += G, both summed over
    the leading axes.
    """
    xd, wd = x.data, w.data
    if wd.ndim != 2 or xd.ndim < 2 or xd.shape[-1] != wd.shape[0]:
        raise ShapeError(f"linear needs (..., m, k) @ (k, n), got {x.shape} @ {w.shape}")
    k, n = wd.shape
    if b is not None and b.shape != (n,):
        raise ShapeError(f"linear bias must be ({n},) for weight {w.shape}, got {b.shape}")
    out_data = xd @ wd
    if b is not None:
        out_data += b.data

    def _bw(g: np.ndarray) -> None:
        if x.requires_grad:   # features and the embedding are constants: skip a matmul
            _accumulate(x, g @ w.data.T, fresh=True)
        _accumulate(w, x.data.reshape(-1, k).T @ g.reshape(-1, n), fresh=True)
        if b is not None:
            _accumulate(b, _sum_leading(g), fresh=True)

    return _from_op(out_data, (x, w) if b is None else (x, w, b), _bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")

    def _bw(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    return _from_op(a.data + b.data, (a, b), _bw)


def broadcast_batch(x: Tensor, n: int) -> Tensor:
    """n copies of ``x`` stacked along a new leading axis -> (n, *x.shape).

    Lifts a sample-independent tensor into a batch.  Backward sums the n
    slices' gradients.
    """
    if n < 1:
        raise ShapeError(f"broadcast_batch needs n >= 1, got {n} copies of {x.shape}")

    def _bw(g: np.ndarray) -> None:
        _accumulate(x, g.sum(axis=0), fresh=True)

    return _from_op(x.data[None].repeat(n, axis=0), (x,), _bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")

    def _bw(g: np.ndarray) -> None:
        _accumulate(a, g * b.data, fresh=True)
        _accumulate(b, g * a.data, fresh=True)

    return _from_op(a.data * b.data, (a, b), _bw)


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2))).

    Backward: d/dx = 0.5 * (1 + erf(x/sqrt(2))) + x * pdf(x)
    with pdf(x) = exp(-x^2 / 2) / sqrt(2*pi).
    """
    xd = x.data
    e1 = np.multiply(xd, _INV_SQRT2, out=np.empty_like(xd))
    _special().erf(e1, out=e1)
    e1 += 1.0
    out_data = xd * 0.5
    out_data *= e1

    def _bw(g: np.ndarray) -> None:
        dx = np.multiply(xd, -0.5, out=np.empty_like(xd))   # -x^2/2, x * pdf, then dX
        dx *= xd
        np.exp(dx, out=dx)
        dx *= _INV_SQRT_2PI
        dx *= xd
        dx += e1 * 0.5
        dx *= g
        _accumulate(x, dx, fresh=True)

    return _from_op(out_data, (x,), _bw)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic; backward uses s * (1 - s)."""
    s = _special().expit(x.data)

    def _bw(g: np.ndarray) -> None:
        _accumulate(x, g * s * (1.0 - s), fresh=True)

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
    # sum / n is np.mean's own arithmetic, bit for bit, without its Python wrapper
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) / n   # centred, scaled in place below
    out_data = np.square(xhat)   # the squares first, then the output
    istd = 1.0 / np.sqrt(out_data.sum(axis=-1, keepdims=True) / n + eps)
    xhat *= istd
    np.multiply(xhat, gain.data, out=out_data)
    out_data += bias.data

    def _bw(g: np.ndarray) -> None:
        work = g * xhat   # a product with xhat, three times over
        _accumulate(gain, _sum_leading(work), fresh=True)
        _accumulate(bias, _sum_leading(g), fresh=True)
        dxhat = g * gain.data   # turned into dX in place
        total = dxhat.sum(axis=-1, keepdims=True)
        proj = np.multiply(dxhat, xhat, out=work).sum(axis=-1, keepdims=True)
        dxhat *= n
        dxhat -= total
        dxhat -= np.multiply(xhat, proj, out=work)
        dxhat *= istd / n
        _accumulate(x, dxhat, fresh=True)

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

    # A head is a strided (..., heads, n, dh) view of an (..., n, d) array,
    # products included: each slice is the same BLAS call whatever the
    # leading axes, so a sample's attention does not depend on its batch.
    def by_head(x: np.ndarray, n: int) -> np.ndarray:
        return x.reshape(*lead, n, heads, dh).swapaxes(-3, -2)

    def into_heads(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
        out = np.empty((*lead, n, d))
        np.matmul(a, b, out=by_head(out, n))
        return out

    qh, vh = by_head(qd, nq), by_head(vd, nk)
    # k alone is copied, to a contiguous (..., heads, dh, nk): a transposed
    # view is another BLAS operand, and it moved the scores' bits.
    kt = by_head(kd, nk).swapaxes(-1, -2).copy()
    s = qh @ kt
    s *= c
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def _bw(g: np.ndarray) -> None:
        gh = by_head(g, nq)
        da = gh @ vh.swapaxes(-1, -2)
        da -= (da * s).sum(axis=-1, keepdims=True)
        da *= s
        da *= c
        _accumulate(q, into_heads(da, kt.swapaxes(-1, -2), nq), fresh=True)
        _accumulate(k, into_heads(da.swapaxes(-1, -2), qh, nk), fresh=True)
        _accumulate(v, into_heads(s.swapaxes(-1, -2), gh, nk), fresh=True)

    return _from_op(into_heads(s, vh, nq), (q, k, v), _bw)


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    """The rows of ``a`` over those of ``b``: (..., n, d), (..., m, d) -> (..., n + m, d)."""
    if (a.data.ndim < 2 or b.data.ndim < 2 or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-1]):
        raise ShapeError(f"concat_rows shapes differ off axis -2: {a.shape} vs {b.shape}")
    n = a.shape[-2]

    def _bw(g: np.ndarray) -> None:
        _accumulate(a, g[..., :n, :])
        _accumulate(b, g[..., n:, :])

    return _from_op(np.concatenate([a.data, b.data], axis=-2), (a, b), _bw)


def sum_rows(x: Tensor) -> Tensor:
    """Sums over the last axis: (..., n) -> (...)."""
    if x.data.ndim == 0:
        raise ShapeError(f"sum_rows needs a tensor of rank >= 1, got shape {x.shape}")

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
            _accumulate(x, g * w)

    return _from_op(np.asarray(total), tuple(x for x, _ in pairs), _bw)


# ---------------------------------------------------------------------------
# backward pass and gradient checking
# ---------------------------------------------------------------------------

_FREED = object()   # the closure of every node an earlier backward swept


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
        if t._backward is _FREED:
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
            t._backward = _FREED


@dataclass
class GradCheckResult:
    max_rel_error: float
    worst_param: str
    n_entries: int


def grad_check(f: Callable[[], Tensor],
               params: Mapping[str, Tensor],
               eps: float = 1e-5,
               floor: float = 1e-8) -> GradCheckResult:
    """Compare backward gradients against central finite differences.

    ``f`` rebuilds the scalar loss from scratch on every call (reading the
    current values of ``params``).  For each parameter entry the numeric
    derivative is (f(x+eps) - f(x-eps)) / (2*eps) and the reported error is

        |analytic - numeric| / max(|analytic|, |numeric|, floor)

    maximised over all entries.  The probes run under :func:`no_grad`, and
    each entry is restored even when ``f`` raises.  Non-finite values raise
    :class:`NonFiniteError` naming the offending parameter entry.
    """
    for name, value in (("eps", eps), ("floor", floor)):
        if not 0 < value < math.inf:
            raise ValueError(f"grad_check {name} must be a finite number > 0, got {value}")
    items = list(params.items())
    for _, t in items:
        t.grad = None
    loss = f()
    if not np.isfinite(loss.data).all():
        raise NonFiniteError("grad_check: loss is not finite")
    backward(loss)
    analytic = {name: t.grad_or_zeros() for name, t in items}

    worst = 0.0
    worst_name = ""
    n_entries = 0
    with no_grad():
        for name, t in items:
            if not t.requires_grad:
                continue
            flat = t.data.flat   # writes through any layout; reshape may copy
            a_flat = analytic[name].reshape(-1)
            for i in range(t.data.size):
                saved = flat[i]
                try:
                    flat[i] = saved + eps
                    up = f().data.item()
                    flat[i] = saved - eps
                    down = f().data.item()
                except NonFiniteError as exc:
                    raise NonFiniteError(f"{exc} while perturbing {name}[{i}]") from exc
                finally:
                    flat[i] = saved
                if not (math.isfinite(up) and math.isfinite(down)):
                    raise NonFiniteError(
                        f"grad_check: non-finite loss while perturbing {name}[{i}]")
                numeric = (up - down) / (2.0 * eps)
                rel = abs(a_flat[i] - numeric) / max(abs(a_flat[i]), abs(numeric), floor)
                n_entries += 1
                if rel > worst:
                    worst = rel
                    worst_name = f"{name}[{i}]"
    return GradCheckResult(max_rel_error=worst, worst_param=worst_name, n_entries=n_entries)
