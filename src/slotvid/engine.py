"""Dense float32 tensor arithmetic with reverse-mode differentiation.

Arrays are numpy float32 throughout; every operation checks its output for
NaN/Inf and raises instead of propagating silently. The computation record is
a DAG of :class:`Value` nodes; ``backward`` walks it once in reverse
topological order and accumulates adjoints into persistent ``grad`` buffers,
so repeated backward calls without zeroing add up.

Hot composites are fused into single nodes with analytic backwards:
``softmax_axis``, ``layer_norm``, ``cross_entropy``, the gated recurrent
update ``gru_step`` and one slot-attention read ``slot_attention_step``. The
last two evaluate the same products and sums in the same order as the same
computations composed from primitive ops (the references in
``tests/test_fused_ops.py``), so their values are identical; their backwards
sum in their own order, so gradients may differ from the composites' in the
last bits. Fusing drops intermediate nodes, never the finite check on an
op's output.

Single-threaded by design: a graph must not be mutated from two threads.
Plain arrays are immutable by convention once wrapped in a Value.
"""

from __future__ import annotations

import math
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

DTYPE = np.float32
LAYER_NORM_EPS = 1e-5


class EngineError(Exception):
    """Base error for engine misuse or numeric failure."""


class NonFiniteError(EngineError):
    """An operation produced NaN or Inf."""


class ShapeError(EngineError):
    """Operand dimensions are incompatible."""


def as_array(data) -> np.ndarray:
    """Coerce to a C-contiguous float32 array."""
    return np.ascontiguousarray(data, dtype=DTYPE)


def _require_finite(arr: np.ndarray, what: str = "tensor") -> None:
    # one elementwise test and one boolean reduction; unlike a sum it has no
    # overflow to reason about and is faster than a float64 accumulation
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {what}")


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (forward-only evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Value:
    """A float32 array node in the computation record.

    ``data`` is the forward value; ``grad`` an adjoint buffer of identical
    shape, zero until backward runs. Parents and the backward closure are kept
    only while gradients are enabled and some input requires them.
    """

    __slots__ = ("data", "_grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = as_array(data)
        _require_finite(self.data)
        self._grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value) -> None:
        self._grad = value

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Value":
        return Value(self.data.copy())

    def zero_grad(self) -> None:
        self._grad = None

    # -- convenience operators ------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return vsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return vmean(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        return f"Value(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _coerce(x) -> Value:
    return x if isinstance(x, Value) else Value(x)


def _node(data, parents, backward) -> Value:
    arr = np.asarray(data)
    if arr.dtype != DTYPE:
        arr = arr.astype(DTYPE)
    _require_finite(arr, "operation result")
    out = Value.__new__(Value)
    out.data = arr
    out._grad = None
    req = _grad_enabled and any(p.requires_grad for p in parents)
    out.requires_grad = req
    out._parents = tuple(parents) if req else ()
    out._backward = backward if req else None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum an adjoint down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _send(adj: dict, p: Value, g: np.ndarray) -> None:
    if not p.requires_grad:
        return
    key = id(p)
    cur = adj.get(key)
    adj[key] = g.astype(DTYPE, copy=False) if cur is None else cur + g


# -- elementwise and structural operations ------------------------------------


def add(a, b) -> Value:
    a, b = _coerce(a), _coerce(b)

    def backward(g, adj):
        _send(adj, a, _unbroadcast(g, a.data.shape))
        _send(adj, b, _unbroadcast(g, b.data.shape))

    return _node(a.data + b.data, (a, b), backward)


def sub(a, b) -> Value:
    a, b = _coerce(a), _coerce(b)

    def backward(g, adj):
        _send(adj, a, _unbroadcast(g, a.data.shape))
        _send(adj, b, _unbroadcast(-g, b.data.shape))

    return _node(a.data - b.data, (a, b), backward)


def mul(a, b) -> Value:
    a, b = _coerce(a), _coerce(b)

    def backward(g, adj):
        _send(adj, a, _unbroadcast(g * b.data, a.data.shape))
        _send(adj, b, _unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), backward)


def scale(a, c: float) -> Value:
    a = _coerce(a)
    c32 = np.float32(c)

    def backward(g, adj):
        _send(adj, a, g * c32)

    return _node(a.data * c32, (a,), backward)


def add_scalar(a, c: float) -> Value:
    a = _coerce(a)

    def backward(g, adj):
        _send(adj, a, g)

    return _node(a.data + np.float32(c), (a,), backward)


def recip(a) -> Value:
    a = _coerce(a)
    out_data = np.float32(1.0) / a.data

    def backward(g, adj):
        _send(adj, a, -g * out_data * out_data)

    return _node(out_data, (a,), backward)


def matmul(a, b) -> Value:
    """Matrix product with numpy batch broadcasting; both operands rank >= 2."""
    a, b = _coerce(a), _coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have rank >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}"
        )

    def backward(g, adj):
        _send(adj, a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        _send(adj, b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape))

    return _node(np.matmul(a.data, b.data), (a, b), backward)


def exp(a) -> Value:
    a = _coerce(a)
    out_data = np.exp(a.data)

    def backward(g, adj):
        _send(adj, a, g * out_data)

    return _node(out_data, (a,), backward)


def _sigmoid_data(x: np.ndarray) -> np.ndarray:
    # stable for both signs: exp(-|x|) never overflows. The numerator is 1
    # where x >= 0 (there z <= 1) and z elsewhere, the same values np.where
    # would select, without evaluating both branches
    z = np.exp(-np.abs(x))
    return np.maximum(z, (x >= 0).astype(DTYPE)) / (1.0 + z)


def sigmoid(a) -> Value:
    a = _coerce(a)
    out_data = _sigmoid_data(a.data)

    def backward(g, adj):
        _send(adj, a, g * out_data * (1.0 - out_data))

    return _node(out_data, (a,), backward)


def tanh(a) -> Value:
    a = _coerce(a)
    out_data = np.tanh(a.data)

    def backward(g, adj):
        _send(adj, a, g * (1.0 - out_data * out_data))

    return _node(out_data, (a,), backward)


def relu(a) -> Value:
    a = _coerce(a)
    mask = a.data > 0

    def backward(g, adj):
        _send(adj, a, g * mask)

    # negative inputs give -0.0, which compares equal to 0.0
    return _node(a.data * mask, (a,), backward)


def smooth_ramp(a) -> Value:
    """Gelu-like nonlinearity x * sigmoid(1.702 x)."""
    return mul(a, sigmoid(scale(a, 1.702)))


NONLINEARITIES = {"gelu-like": smooth_ramp, "relu": relu, "tanh": tanh}


def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def vsum(a, axis=None, keepdims=False) -> Value:
    a = _coerce(a)
    axes = _norm_axes(axis, a.ndim)
    out_data = a.data.sum(axis=axes, keepdims=keepdims)

    def backward(g, adj):
        gg = g
        if not keepdims:
            shp = list(a.data.shape)
            for ax in axes:
                shp[ax] = 1
            gg = g.reshape(shp)
        _send(adj, a, np.broadcast_to(gg, a.data.shape).astype(DTYPE, copy=False))

    return _node(out_data, (a,), backward)


def vmean(a, axis=None, keepdims=False) -> Value:
    a = _coerce(a)
    axes = _norm_axes(axis, a.ndim)
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]
    out_data = a.data.mean(axis=axes, keepdims=keepdims, dtype=DTYPE)
    inv = np.float32(1.0 / count)

    def backward(g, adj):
        gg = g
        if not keepdims:
            shp = list(a.data.shape)
            for ax in axes:
                shp[ax] = 1
            gg = g.reshape(shp)
        _send(adj, a, np.broadcast_to(gg * inv, a.data.shape).astype(DTYPE, copy=False))

    return _node(out_data, (a,), backward)


def reshape(a, shape) -> Value:
    a = _coerce(a)
    shape = tuple(shape)

    def backward(g, adj):
        _send(adj, a, g.reshape(a.data.shape))

    return _node(a.data.reshape(shape), (a,), backward)


def transpose(a, axes) -> Value:
    a = _coerce(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def backward(g, adj):
        _send(adj, a, g.transpose(inv))

    return _node(a.data.transpose(axes), (a,), backward)


def concat(values, axis=0) -> Value:
    values = [_coerce(v) for v in values]
    axis = axis % values[0].ndim
    sizes = [v.data.shape[axis] for v in values]
    offsets = np.cumsum([0] + sizes)

    def backward(g, adj):
        for v, lo, hi in zip(values, offsets[:-1], offsets[1:]):
            idx = tuple(
                slice(lo, hi) if d == axis else slice(None) for d in range(g.ndim)
            )
            _send(adj, v, g[idx])

    return _node(np.concatenate([v.data for v in values], axis=axis), tuple(values), backward)


def take(a, indices, axis=0) -> Value:
    """Gather along ``axis`` with an integer index array (backward scatter-adds)."""
    a = _coerce(a)
    idx = np.asarray(indices, dtype=np.intp)
    axis = axis % a.ndim
    sel = (slice(None),) * axis + (idx,)

    def backward(g, adj):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            np.add.at(buf, sel, g)
            _send(adj, a, buf)

    return _node(a.data[sel], (a,), backward)


def broadcast_to(a, shape) -> Value:
    a = _coerce(a)
    shape = tuple(shape)

    def backward(g, adj):
        _send(adj, a, _unbroadcast(g, a.data.shape))

    return _node(np.broadcast_to(a.data, shape), (a,), backward)


# -- fused neural-network operations -------------------------------------------


def softmax_axis(a, axis: int) -> Value:
    """Softmax along ``axis`` with max-subtraction for stability."""
    a = _coerce(a)
    if axis >= a.ndim or axis < -a.ndim:
        raise ShapeError(f"softmax axis {axis} out of range for rank {a.ndim}")
    ax = axis % a.ndim
    x = a.data
    shifted = x - x.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=ax, keepdims=True)

    def backward(g, adj):
        inner = (g * out_data).sum(axis=ax, keepdims=True)
        _send(adj, a, out_data * (g - inner))

    return _node(out_data, (a,), backward)


def layer_norm(x, gain, bias, eps: float = LAYER_NORM_EPS) -> Value:
    """Zero-mean unit-variance normalization over the last axis, then affine."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({d},); got "
            f"{gain.data.shape} and {bias.data.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True, dtype=DTYPE)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True, dtype=DTYPE)
    inv = 1.0 / np.sqrt(var + np.float32(eps))
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def backward(g, adj):
        if x.requires_grad:  # raw input features need no adjoint
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True, dtype=DTYPE)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True, dtype=DTYPE)
            _send(adj, x, inv * (dxhat - m1 - xhat * m2))
        red = tuple(range(g.ndim - 1))
        _send(adj, gain, (g * xhat).sum(axis=red))
        _send(adj, bias, g.sum(axis=red))

    return _node(out_data, (x, gain, bias), backward)


def cross_entropy(logits, labels) -> Value:
    """Mean cross entropy of ``logits`` [B, C] against integer ``labels`` [B]."""
    logits = _coerce(logits)
    labels = np.asarray(labels, dtype=np.intp)
    if logits.ndim != 2 or labels.shape != (logits.data.shape[0],):
        raise ShapeError("cross_entropy expects [B, C] logits and [B] labels")
    x = logits.data
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    b = x.shape[0]
    picked = shifted[np.arange(b), labels] - np.log(e.sum(axis=1))
    out_data = np.float32(-picked.mean(dtype=DTYPE))

    def backward(g, adj):
        d = probs.copy()
        d[np.arange(b), labels] -= 1.0
        _send(adj, logits, d * (g / np.float32(b)))

    return _node(out_data.reshape(()), (logits,), backward)


def _max_last(x: np.ndarray) -> np.ndarray:
    """Max over a short last axis, keepdims; exact, as a chain of elementwise maxima.

    numpy's reduction over a contiguous axis of a few elements pays per-row
    loop overhead; the slot axis is that short.
    """
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(out, x[..., j], out=out)
    return out[..., None]


def slot_attention_step(k, q, v, temp: float, eps: float) -> tuple[Value, np.ndarray]:
    """One slot-attention read of keys ``k`` [B, M, A] and values ``v`` [B, M, Dv].

    The token-by-slot logits ``temp * k q^T`` of queries ``q`` [B, N, A] are
    softmaxed over the slots, each slot's column is renormalized over the
    tokens (``eps`` added to the column sum) and the slot update is the
    weighted mean of the values. One node with an analytic backward; its
    forward values are identical to those of the same read composed from
    primitive ops (the reference in ``tests/test_fused_ops.py``). Returns
    (updates [B, N, Dv], mask [B, M, N]); the mask is plain data, rows
    summing to one over the slots.
    """
    k, q, v = _coerce(k), _coerce(q), _coerce(v)
    if k.ndim != 3 or q.ndim != 3 or v.ndim != 3:
        raise ShapeError("slot_attention_step expects rank-3 keys, queries and values")
    b, m, a_dim = k.data.shape
    if q.data.shape[::2] != (b, a_dim) or v.data.shape[:2] != (b, m):
        raise ShapeError(
            f"slot_attention_step shapes disagree: k {k.data.shape}, q {q.data.shape}, v {v.data.shape}"
        )
    temp32 = np.float32(temp)
    logits = np.matmul(k.data, q.data.transpose(0, 2, 1)) * temp32
    e = np.exp(logits - _max_last(logits))
    attn = e / e.sum(axis=2, keepdims=True)  # competition over slots
    _require_finite(attn, "slot attention mask")
    inv = np.float32(1.0) / (attn.sum(axis=1, keepdims=True) + np.float32(eps))  # [B, 1, N]
    weights = attn * inv
    out_data = np.matmul(weights.transpose(0, 2, 1), v.data)

    def backward(g, adj):
        _send(adj, v, np.matmul(weights, g))
        if not (k.requires_grad or q.requires_grad):
            return
        g_w = np.matmul(v.data, g.transpose(0, 2, 1))  # [B, M, N]
        g_attn = inv * (g_w - (g_w * weights).sum(axis=1, keepdims=True))
        g_logits = attn * (g_attn - (g_attn * attn).sum(axis=2, keepdims=True))
        g_logits *= temp32
        _send(adj, k, np.matmul(g_logits, q.data))
        _send(adj, q, np.matmul(g_logits.transpose(0, 2, 1), k.data))

    return _node(out_data, (k, q, v), backward), attn


# -- gated recurrent update -----------------------------------------------------


@dataclass
class GruParams:
    """Weights of a single gated recurrent update over row vectors."""

    wz: Value
    uz: Value
    bz: Value
    wr: Value
    ur: Value
    br: Value
    wh: Value
    uh: Value
    bh: Value

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int) -> "GruParams":
        def w():
            return Value(normal(rng, (dim, dim), std=dim**-0.5), requires_grad=True)

        def b():
            return Value(np.zeros(dim, dtype=DTYPE), requires_grad=True)

        return cls(w(), w(), b(), w(), w(), b(), w(), w(), b())

    def named(self, prefix: str) -> dict:
        return {
            f"{prefix}.{k}": getattr(self, k)
            for k in ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")
        }


def gru_step(h, x, params: GruParams) -> Value:
    """One gated recurrent update: h' = (1-z) * h + z * tanh-candidate.

    A single fused node over the rows of the last axis. The forward forms
    z = sigmoid(x Wz + h Uz + bz), r = sigmoid(x Wr + h Ur + br) and
    c = tanh(x Wh + (r*h) Uh + bh) with the same products and sums in the same
    order as the update composed from primitive ops (the reference in
    ``tests/test_fused_ops.py``), so its values are identical; the backward is
    analytic. The x- and h-side weights are concatenated per call, so one GEMM
    serves all gates that share an operand.
    """
    h, x = _coerce(h), _coerce(x)
    if h.data.shape != x.data.shape:
        raise ShapeError(f"gru_step state/input shapes differ: {h.data.shape} vs {x.data.shape}")
    p = params
    shape = h.data.shape
    d = shape[-1]
    w_x = np.concatenate((p.wz.data, p.wr.data, p.wh.data), axis=1)  # [D, 3D]
    u_zr = np.concatenate((p.uz.data, p.ur.data), axis=1)  # [D, 2D]
    if w_x.shape != (d, 3 * d) or u_zr.shape != (d, 2 * d) or p.uh.data.shape != (d, d):
        raise ShapeError(f"gru_step weights must be [{d}, {d}]")
    hr = h.data.reshape(-1, d)
    xr = x.data.reshape(-1, d)
    xw = xr @ w_x
    hu = hr @ u_zr
    z = _sigmoid_data(xw[:, :d] + hu[:, :d] + p.bz.data)
    r = _sigmoid_data(xw[:, d : 2 * d] + hu[:, d:] + p.br.data)
    rh = r * hr
    c = np.tanh(xw[:, 2 * d :] + rh @ p.uh.data + p.bh.data)
    out_data = (1.0 - z) * hr + z * c

    def backward(g, adj):
        g = g.reshape(-1, d)
        dac = g * z * (1.0 - c * c)
        drh = dac @ p.uh.data.T
        # adjoints of the z, r and candidate pre-activations, side by side
        pre = np.concatenate((g * (c - hr) * z * (1.0 - z), drh * hr * r * (1.0 - r), dac), axis=1)
        pre_zr = pre[:, : 2 * d]
        if h.requires_grad:
            _send(adj, h, (g * (1.0 - z) + drh * r + pre_zr @ u_zr.T).reshape(shape))
        if x.requires_grad:
            _send(adj, x, (pre @ w_x.T).reshape(shape))
        gw = xr.T @ pre
        gu = hr.T @ pre_zr
        gb = pre.sum(axis=0)
        for i, (w, u, b) in enumerate(((p.wz, p.uz, p.bz), (p.wr, p.ur, p.br))):
            cols = slice(i * d, (i + 1) * d)
            _send(adj, w, gw[:, cols])
            _send(adj, u, gu[:, cols])
            _send(adj, b, gb[cols])
        _send(adj, p.wh, gw[:, 2 * d :])
        _send(adj, p.uh, rh.T @ dac)
        _send(adj, p.bh, gb[2 * d :])

    parents = (h, x, p.wz, p.uz, p.bz, p.wr, p.ur, p.br, p.wh, p.uh, p.bh)
    return _node(out_data.reshape(shape), parents, backward)


# -- pooling ---------------------------------------------------------------------


def avg_pool_hw(a, stride: int) -> Value:
    """Mean-pool the trailing [..., H, W, D] axes in fixed summation order."""
    a = _coerce(a)
    if a.ndim < 3:
        raise ShapeError("avg_pool_hw expects at least [H, W, D]")
    *lead, h, w, d = a.data.shape
    if stride <= 0 or h % stride or w % stride:
        raise ShapeError(f"stride {stride} does not divide grid {h}x{w}")
    r = reshape(a, (*lead, h // stride, stride, w // stride, stride, d))
    return vmean(r, axis=(-4, -2))


# -- reverse pass -----------------------------------------------------------------


def backward(root: Value) -> None:
    """Accumulate d(root)/d(node) into ``grad`` for every reachable node.

    Root must be scalar (one element). Each node's closure runs exactly once,
    in reverse topological order; repeated calls add into existing grads.
    """
    if int(np.prod(root.data.shape)) != 1:
        raise ShapeError("backward root must be scalar")
    if not root.requires_grad:
        ones = np.ones_like(root.data)
        root._grad = ones if root._grad is None else root._grad + ones
        return
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    adj = {id(root): np.ones_like(root.data)}
    for node in reversed(topo):
        g = adj.pop(id(node), None)
        if g is None:
            continue
        node._grad = g if node._grad is None else node._grad + g
        if node._backward is not None:
            node._backward(g, adj)


def zero_grads(params) -> None:
    for p in _iter_params(params):
        p.zero_grad()


def _iter_params(params):
    if isinstance(params, Mapping):
        return params.values()
    return params


# -- optimizer --------------------------------------------------------------------


@dataclass
class AdamState:
    """Per-parameter first/second moment tensors plus step counter."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_update(
    params: Mapping[str, Value],
    state: AdamState,
    lr: float | None = None,
    lr_overrides: Mapping[str, float] | None = None,
) -> None:
    """Apply one bias-corrected Adam step in place, reading each param's grad.

    ``lr_overrides`` gives individual parameters their own rate (the moment
    estimates and step counter are shared either way).
    """
    state.t += 1
    base_lr = np.float32(state.lr if lr is None else lr)
    b1 = np.float32(state.beta1)
    b2 = np.float32(state.beta2)
    c1 = np.float32(1.0 - state.beta1**state.t)
    c2 = np.float32(1.0 - state.beta2**state.t)
    eps = np.float32(state.eps)
    for name, p in params.items():
        g = p.grad
        if g.shape != p.data.shape:
            raise ShapeError(f"grad shape mismatch for {name}")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        if m.shape != p.data.shape:
            raise ShapeError(f"optimizer state shape mismatch for {name}")
        m *= b1
        m += (np.float32(1.0) - b1) * g
        v *= b2
        v += (np.float32(1.0) - b2) * (g * g)
        mhat = m / c1
        vhat = v / c2
        step_lr = base_lr
        if lr_overrides is not None and name in lr_overrides:
            step_lr = np.float32(lr_overrides[name])
        p.data -= step_lr * mhat / (np.sqrt(vhat) + eps)
        _require_finite(p.data, f"parameter {name} after Adam step")


def clip_global_norm(params: Mapping[str, Value], max_norm: float) -> float:
    """Scale all grads so their joint L2 norm is at most ``max_norm``."""
    total = 0.0
    for p in _iter_params(params):
        total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        factor = np.float32(max_norm / norm)
        for p in _iter_params(params):
            p.grad *= factor
    return norm


# -- seeded randomness --------------------------------------------------------------


def rng_for(seed: int, *path) -> np.random.Generator:
    """Counter-based generator for ``(seed, path)``; independent per path."""
    keys = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for part in path:
        if isinstance(part, str):
            keys.append(zlib.crc32(part.encode("utf-8")))
        else:
            keys.append(int(part) & 0xFFFFFFFFFFFFFFFF)
    ss = np.random.SeedSequence(keys)
    return np.random.Generator(np.random.Philox(ss))


def normal(rng: np.random.Generator, shape, std: float = 1.0) -> np.ndarray:
    out = rng.standard_normal(shape, dtype=DTYPE)
    if std != 1.0:
        out *= np.float32(std)
    return out


def linear_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    return normal(rng, (fan_in, fan_out), std=fan_in**-0.5)
