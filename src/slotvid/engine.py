"""Dense float32 tensor arithmetic with reverse-mode differentiation.

Arrays are numpy float32 throughout; every operation checks its output for
NaN/Inf and raises instead of propagating silently. The computation record is
a DAG of :class:`Value` nodes; ``backward`` walks it once in reverse
topological order and accumulates adjoints into persistent ``grad`` buffers,
so repeated backward calls without zeroing add up.

Hot composites are fused into single nodes with analytic backwards:
``cross_entropy``, the gated recurrent update ``gru_step``, one
slot-attention read ``slot_attention_step``, the row ops ``layer_norm``,
the affine map ``linear`` (``x w + b`` over rows) and the grid pooling
``avg_pool_hw``, and the pre-norm transformer blocks over [R, D] rows:
``residual_mlp`` (its nonlinearity named in ``NONLINEARITIES``),
``cross_attention_block`` and ``self_attention_block``. The GRU, the read
and the blocks evaluate the same products, sums and softmaxes in the same
order as the same computations composed from primitive ops (the references
in ``tests/test_fused_ops.py``), so their values are identical; their
backwards sum in their own order, so gradients may differ from the
composites' in the last bits. The slot-attention read takes two operands,
the inputs (keys and values at once, the caller applying the projections
around the read) and the queries; the cross-attention block likewise takes
the raw inputs and weights the caller has folded.

Row means and sums over a last axis, and column sums over rows, are GEMMs
against a ones vector (``_sum_last``, ``_sum_rows``; a mean puts 1/D in the
vector), never numpy reductions, which pay a per-row loop over the short
axes these ops reduce; grid pooling is one GEMM with a constant block-mean
matrix. These sums round differently from numpy's reductions, so values
equal a composite's only when that takes the same sums. Fusing drops
intermediate nodes, never the finite check on an op's output; the attention
nodes check their attention too.

Single-threaded by design: a graph must not be mutated from two threads.
Plain arrays are immutable by convention once wrapped in a Value.
"""

from __future__ import annotations

import math
import zlib
from contextlib import contextmanager
from functools import partial
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
        # a constant operand's adjoint would be dropped by _send: skip the product
        if a.requires_grad:
            _send(adj, a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _send(adj, b, _unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), backward)


def scale(a, c: float) -> Value:
    a = _coerce(a)
    c32 = np.float32(c)

    def backward(g, adj):
        _send(adj, a, g * c32)

    return _node(a.data * c32, (a,), backward)


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
        # a constant operand's adjoint would be dropped by _send: skip the product
        if a.requires_grad:
            _send(adj, a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        if b.requires_grad:
            _send(adj, b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape))

    return _node(np.matmul(a.data, b.data), (a, b), backward)


def _sigmoid_data(x: np.ndarray) -> np.ndarray:
    # stable for both signs: exp(-|x|) never overflows. The numerator is 1
    # where x >= 0 (there z <= 1) and z elsewhere, the same values np.where
    # would select, without evaluating both branches; in place after exp
    z = np.abs(x)
    np.negative(z, out=z)
    np.exp(z, out=z)
    num = (x >= 0).astype(DTYPE)
    np.maximum(z, num, out=num)
    z += np.float32(1.0)
    num /= z
    return num


RAMP_SLOPE = np.float32(1.702)


def _ramp(x: np.ndarray):
    s = _sigmoid_data(x * RAMP_SLOPE)
    return x * s, s


def _ramp_grad(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    # d/dx of x * sigmoid(1.702 x) is s + 1.702 x s (1 - s)
    d = np.float32(1.0) - s
    d *= s
    d *= x
    d *= RAMP_SLOPE
    d += s
    return d


def _relu(x: np.ndarray):
    mask = x > 0
    # negative inputs give -0.0, which compares equal to 0.0
    return x * mask, mask


def _tanh(x: np.ndarray):
    t = np.tanh(x)
    return t, t


# name -> (forward, derivative) over plain arrays: ``forward(x)`` returns the
# value and what the derivative needs, ``derivative(x, saved)`` the elementwise
# derivative as a fresh float32 array. "gelu-like" is x * sigmoid(1.702 x).
NONLINEARITIES = {
    "gelu-like": (_ramp, _ramp_grad),
    "relu": (_relu, lambda x, mask: mask.astype(DTYPE)),
    "tanh": (_tanh, lambda x, t: np.float32(1.0) - t * t),
}


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


# Up to this many entries, a chain of elementwise maxima beats numpy's max
# reduction over a contiguous last axis, which pays per-row loop overhead
# (512k float32 elements, one thread, numpy 2.4: 8 entries 0.7 against 7.5 ms,
# 32 entries 2.1 against 2.7 ms); from 64 entries the reduction wins.
SHORT_AXIS = 32


def _max_last(x: np.ndarray) -> np.ndarray:
    """Max over the last axis, keepdims; exact, so either evaluation gives the same bits."""
    n = x.shape[-1]
    if n > SHORT_AXIS:
        return x.max(axis=-1, keepdims=True)
    out = x[..., 0].copy()
    for j in range(1, n):
        np.maximum(out, x[..., j], out=out)
    return out[..., None]


def _sum_last(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, keepdims, as one GEMM of the rows against a ones vector."""
    n = x.shape[-1]
    return (x.reshape(-1, n) @ np.ones((n, 1), dtype=DTYPE)).reshape(*x.shape[:-1], 1)


def _sum_rows(rows: np.ndarray) -> np.ndarray:
    """Column sums of [R, D] rows as [D], one GEMM of a ones row against them."""
    return (np.ones((1, rows.shape[0]), dtype=DTYPE) @ rows).reshape(-1)


def _softmax_last(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place: max-subtracted, the max ``_max_last``
    and the sums ``_sum_last``."""
    logits -= _max_last(logits)
    np.exp(logits, out=logits)
    logits /= _sum_last(logits)
    return logits


def _affine_grads(adj: dict, rows: np.ndarray, g: np.ndarray, w: Value, b: Value) -> None:
    """Send the weight and bias adjoints of ``rows w + b`` for the output adjoint ``g``."""
    if w.requires_grad:
        _send(adj, w, rows.T @ g)
    if b.requires_grad:
        _send(adj, b, _sum_rows(g))


def _ln_rows(xr: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = LAYER_NORM_EPS):
    """Layer norm of [R, D] rows: (output, normalized rows, 1/std [R, 1]), each a fresh buffer."""
    d = xr.shape[1]
    mean_col = np.full((d, 1), 1.0 / d, dtype=DTYPE)
    xhat = xr - xr @ mean_col  # centred rows
    sq = xhat * xhat
    var = sq @ mean_col
    var += np.float32(eps)
    inv = np.float32(1.0) / np.sqrt(var)
    xhat *= inv
    out = np.multiply(xhat, gain, out=sq)
    out += bias
    return out, xhat, inv


def _ln_rows_backward(adj: dict, g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, x: Value, gain: Value,
                      bias: Value, residual: np.ndarray | None = None) -> None:
    """Send the adjoints of ``_ln_rows`` over the rows of ``x`` for the output
    adjoint ``g`` [R, D]; ``residual``, the adjoint of a residual path around
    the norm, adds to that of ``x``."""
    gx = g * xhat
    if gain.requires_grad:
        _send(adj, gain, _sum_rows(gx))
    if bias.requires_grad:
        _send(adj, bias, _sum_rows(g))
    if not x.requires_grad:  # raw input features need no adjoint
        return
    d = g.shape[1]
    # the row means of g*gain and g*gain*xhat, the gain folded into the ones vector
    gain_col = (gain.data * np.float32(1.0 / d)).reshape(d, 1)
    m1 = g @ gain_col
    m2 = gx @ gain_col
    dx = g * gain.data
    dx -= m1
    dx -= np.multiply(xhat, m2, out=gx)
    dx *= inv
    if residual is not None:
        dx += residual
    _send(adj, x, dx.reshape(x.data.shape))


def _check_shapes(what: str, **operands) -> None:
    """Raise a ShapeError for the first operand ``name=(value, shape)`` of another shape."""
    for name, (v, shape) in operands.items():
        if v.data.shape != shape:
            raise ShapeError(f"{what} {name} must have shape {shape}, got {v.data.shape}")


def layer_norm(x, gain, bias, eps: float = LAYER_NORM_EPS) -> Value:
    """Zero-mean unit-variance normalization over the last axis, then affine."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    shape = x.data.shape
    d = shape[-1]
    _check_shapes("layer_norm", gain=(gain, (d,)), bias=(bias, (d,)))
    out_data, xhat, inv = _ln_rows(x.data.reshape(-1, d), gain.data, bias.data, eps)

    def backward(g, adj):
        _ln_rows_backward(adj, g.reshape(-1, d), xhat, inv, x, gain, bias)

    return _node(out_data.reshape(shape), (x, gain, bias), backward)


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


def slot_attention_step(x, q, temp: float, eps: float) -> tuple[Value, np.ndarray]:
    """One slot-attention read of the inputs ``x`` [B, M, D] by queries ``q`` [B, N, D].

    The token-by-slot logits ``temp * x q^T`` are softmaxed over the slots,
    each slot's column is renormalized over the tokens (``eps`` added to the
    column sum) and the slot update is the weighted mean of the inputs
    [B, N, D]. Key and value projections are the caller's: it folds the key
    weights into ``q`` and applies the value weights to the update, so ``x``
    serves as both keys and values. One node with an analytic backward, which
    sends ``x`` one combined adjoint. Sums over the slot and token axes are
    GEMMs against a ones vector; the forward values are identical to those of
    the same read composed from primitive ops with its column sums taken as
    that GEMM too (the reference in ``tests/test_fused_ops.py``). Returns
    (updates [B, N, D], mask [B, M, N]); the mask is plain data, rows summing
    to one over the slots.
    """
    x, q = _coerce(x), _coerce(q)
    if x.ndim != 3 or q.ndim != 3:
        raise ShapeError("slot_attention_step expects rank-3 inputs and queries")
    b, m, d = x.data.shape
    if q.data.shape[::2] != (b, d):
        raise ShapeError(f"slot_attention_step shapes disagree: x {x.data.shape}, q {q.data.shape}")
    temp32 = np.float32(temp)
    logits = np.matmul(x.data, q.data.transpose(0, 2, 1)) * temp32
    attn = _softmax_last(logits)  # competition over slots
    _require_finite(attn, "slot attention mask")
    col_sums = np.matmul(np.ones((1, m), dtype=DTYPE), attn)  # [B, 1, N]
    inv = np.float32(1.0) / (col_sums + np.float32(eps))
    weights = attn * inv
    out_data = np.matmul(weights.transpose(0, 2, 1), x.data)

    def backward(g, adj):
        g_w = np.matmul(x.data, g.transpose(0, 2, 1))  # [B, M, N]
        # column sums of g_w * weights, taken as sum_d g * out over the short side
        g_attn = inv * (g_w - _sum_last(g * out_data).transpose(0, 2, 1))
        g_logits = attn * (g_attn - _sum_last(g_attn * attn))
        g_logits *= temp32
        if x.requires_grad:
            gx = np.matmul(weights, g)
            gx += np.matmul(g_logits, q.data)
            _send(adj, x, gx)
        if q.requires_grad:
            _send(adj, q, np.matmul(g_logits.transpose(0, 2, 1), x.data))

    return _node(out_data, (x, q), backward), attn


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
        w, b = partial(linear_param, rng, dim, dim), partial(zeros_param, dim)
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


def linear(x, w, b) -> Value:
    """Affine map ``x w + b`` over the rows of the last axis, one node.

    ``x`` is [..., D_in], ``w`` [D_in, D_out] and ``b`` [D_out]; the product
    is one 2-D GEMM over all rows, and the bias adjoint their column sums.
    """
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    d_in = x.data.shape[-1]
    if w.ndim != 2 or w.data.shape[0] != d_in or b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"linear shapes disagree: x {x.data.shape}, w {w.data.shape}, b {b.data.shape}")
    d_out = w.data.shape[1]
    xr = x.data.reshape(-1, d_in)
    out_data = xr @ w.data
    out_data += b.data

    def backward(g, adj):
        g = g.reshape(-1, d_out)
        if x.requires_grad:
            _send(adj, x, (g @ w.data.T).reshape(x.data.shape))
        _affine_grads(adj, xr, g, w, b)

    return _node(out_data.reshape(*x.data.shape[:-1], d_out), (x, w, b), backward)


# -- transformer blocks ------------------------------------------------------------
# Each block is one node over [R, D] rows with an analytic backward. Its
# forward takes the products, sums and softmaxes of the block composed from
# the nodes above in the same order, so its values are identical to that
# composite's (the references in ``tests/test_fused_ops.py``); its backward
# sums in its own order.


def residual_mlp(x, g, b, w1, b1, w2, b2, nonlinearity: str) -> Value:
    """Pre-norm residual feed-forward over [R, D] rows, one node.

    ``x + f(LN(x) w1 + b1) w2 + b2``, where ``f`` is the (forward,
    derivative) pair named ``nonlinearity`` in ``NONLINEARITIES``.
    """
    x, g, b, w1, b1, w2, b2 = map(_coerce, (x, g, b, w1, b1, w2, b2))
    f, df = NONLINEARITIES[nonlinearity]
    d, hidden = x.data.shape[-1], w1.data.shape[-1]
    _check_shapes("residual_mlp", x=(x, (len(x.data), d)), g=(g, (d,)), b=(b, (d,)), w1=(w1, (d, hidden)),
                  b1=(b1, (hidden,)), w2=(w2, (hidden, d)), b2=(b2, (d,)))
    ln, xhat, inv = _ln_rows(x.data, g.data, b.data)
    pre = ln @ w1.data
    pre += b1.data
    act, saved = f(pre)
    out_data = act @ w2.data
    out_data += b2.data
    out_data += x.data

    def backward(gr, adj):
        _affine_grads(adj, act, gr, w2, b2)
        dpre = df(pre, saved)
        dpre *= gr @ w2.data.T
        _affine_grads(adj, ln, dpre, w1, b1)
        _ln_rows_backward(adj, dpre @ w1.data.T, xhat, inv, x, g, b, residual=gr)

    return _node(out_data, (x, g, b, w1, b1, w2, b2), backward)


def cross_attention_block(x, inputs, ln_g, ln_b, wqk, wvo, bo) -> tuple[Value, np.ndarray]:
    """Pre-norm cross-attention of query rows over sets of inputs, one node.

    ``x`` holds the queries as [B*N, D_q] rows and ``inputs`` is [B, M, D_in].
    ``wqk`` [D_q, h*D_in] maps the normalized rows to h query rows each over
    the raw inputs (key weights and temperature folded in by the caller), so
    the logits are [B, N*h, M], softmaxed over the inputs; the read ``attn
    inputs`` is [B*N, h*D_in] rows, and ``wvo`` [h*D_in, D_q] with ``bo``
    maps it back onto the residual. Returns (x plus the attention output, as
    rows; attention [B, N*h, M] as a plain array, finite-checked).

    In the backward, the softmax's ``sum_m g_attn attn`` is taken as
    ``sum_d g_read read`` over the D_in side. The inputs' adjoint is skipped
    when they need none.
    """
    x, inputs, ln_g, ln_b, wqk, wvo, bo = map(_coerce, (x, inputs, ln_g, ln_b, wqk, wvo, bo))
    if inputs.ndim != 3:
        raise ShapeError(f"cross_attention_block expects [B, M, D_in] inputs, got {inputs.data.shape}")
    b, _, d_in = inputs.data.shape
    dq, width = x.data.shape[-1], wqk.data.shape[-1]
    _check_shapes("cross_attention_block", x=(x, (len(x.data), dq)), ln_g=(ln_g, (dq,)), ln_b=(ln_b, (dq,)),
                  wqk=(wqk, (dq, width)), wvo=(wvo, (width, dq)), bo=(bo, (dq,)))
    rows = x.data.shape[0]
    if width % d_in or rows % b:
        raise ShapeError(f"cross_attention_block: {rows} rows of width {width} do not split over {b} sets of D_in {d_in}")
    ln, xhat, inv = _ln_rows(x.data, ln_g.data, ln_b.data)
    q = (ln @ wqk.data).reshape(b, -1, d_in)
    inputs_t = inputs.data.transpose(0, 2, 1)
    attn = _softmax_last(np.matmul(q, inputs_t))
    _require_finite(attn, "cross attention")
    read = np.matmul(attn, inputs.data)  # [B, N*h, D_in]
    read_rows = read.reshape(rows, width)
    out_data = read_rows @ wvo.data
    out_data += bo.data
    out_data += x.data

    def backward(g, adj):
        _affine_grads(adj, read_rows, g, wvo, bo)
        g_read = (g @ wvo.data.T).reshape(read.shape)
        g_logits = np.matmul(g_read, inputs_t)
        g_logits -= _sum_last(g_read * read)  # sum_m g_attn attn, over the short side
        g_logits *= attn
        if inputs.requires_grad:
            gi = np.matmul(attn.transpose(0, 2, 1), g_read)
            gi += np.matmul(g_logits.transpose(0, 2, 1), q)
            _send(adj, inputs, gi)
        g_q = np.matmul(g_logits, inputs.data).reshape(rows, width)
        if wqk.requires_grad:
            _send(adj, wqk, ln.T @ g_q)
        _ln_rows_backward(adj, g_q @ wqk.data.T, xhat, inv, x, ln_g, ln_b, residual=g)

    return _node(out_data, (x, inputs, ln_g, ln_b, wqk, wvo, bo), backward), attn


def self_attention_block(x, sets: int, heads: int, ln_g, ln_b, wq, wk, wv, wo, bo) -> Value:
    """Pre-norm multi-head self-attention within sets of rows, one node.

    ``x`` holds ``sets`` sets of N rows as [sets*N, D]. The normalized rows
    meet one GEMM against the per-call concatenation ``[wq|wk|wv]``; the
    head split of q, k and v and the merge of the heads' reads are array
    views. Logits ``q k^T / sqrt(D/heads)`` are softmaxed over the keys, and
    ``wo`` with ``bo`` maps the merged read onto the residual.
    """
    x, ln_g, ln_b, wq, wk, wv, wo, bo = map(_coerce, (x, ln_g, ln_b, wq, wk, wv, wo, bo))
    d = x.data.shape[-1]
    square = (d, d)
    _check_shapes("self_attention_block", x=(x, (len(x.data), d)), ln_g=(ln_g, (d,)), ln_b=(ln_b, (d,)),
                  wq=(wq, square), wk=(wk, square), wv=(wv, square), wo=(wo, square), bo=(bo, (d,)))
    rows = x.data.shape[0]
    if sets < 1 or rows % sets or d % heads:
        raise ShapeError(f"self_attention_block: [{rows}, {d}] rows do not split into {sets} sets and {heads} heads")
    n, dh = rows // sets, d // heads
    temp = np.float32(1.0 / np.sqrt(dh))
    w_qkv = np.concatenate((wq.data, wk.data, wv.data), axis=1)  # [D, 3D]

    def split(a):  # [sets*N, 3D] -> q, k, v, each [sets, heads, N, dh]
        return a.reshape(sets, n, 3, heads, dh).transpose(2, 0, 3, 1, 4)

    ln, xhat, inv = _ln_rows(x.data, ln_g.data, ln_b.data)
    q, k, v = split(ln @ w_qkv)
    logits = np.matmul(q, k.transpose(0, 1, 3, 2))
    logits *= temp
    attn = _softmax_last(logits)
    _require_finite(attn, "self attention")
    merged = np.matmul(attn, v).transpose(0, 2, 1, 3).reshape(rows, d)
    out_data = merged @ wo.data
    out_data += bo.data
    out_data += x.data

    def backward(g, adj):
        _affine_grads(adj, merged, g, wo, bo)
        g_ctx = (g @ wo.data.T).reshape(sets, n, heads, dh).transpose(0, 2, 1, 3)
        g_qkv = np.empty((rows, 3 * d), dtype=DTYPE)
        gq, gk, gv = split(g_qkv)
        gv[...] = np.matmul(attn.transpose(0, 1, 3, 2), g_ctx)
        g_logits = np.matmul(g_ctx, v.transpose(0, 1, 3, 2))
        g_logits -= _sum_last(g_logits * attn)
        g_logits *= attn
        g_logits *= temp
        gq[...] = np.matmul(g_logits, k)
        gk[...] = np.matmul(g_logits.transpose(0, 1, 3, 2), q)
        gw = ln.T @ g_qkv
        for i, w in enumerate((wq, wk, wv)):
            _send(adj, w, gw[:, i * d : (i + 1) * d])
        _ln_rows_backward(adj, g_qkv @ w_qkv.T, xhat, inv, x, ln_g, ln_b, residual=g)

    return _node(out_data, (x, ln_g, ln_b, wq, wk, wv, wo, bo), backward)


# -- pooling ---------------------------------------------------------------------


def avg_pool_hw(a, stride: int) -> Value:
    """Mean-pool the trailing [..., H, W, D] axes in fixed summation order.

    One node: each [H*W, D] grid is multiplied by a constant pooling matrix
    [H*W/stride^2, H*W], and the adjoint by its transpose.
    """
    a = _coerce(a)
    if a.ndim < 3:
        raise ShapeError("avg_pool_hw expects at least [H, W, D]")
    *lead, h, w, d = a.data.shape
    if stride <= 0 or h % stride or w % stride:
        raise ShapeError(f"stride {stride} does not divide grid {h}x{w}")
    hd, wd = h // stride, w // stride
    # row c of the pooling matrix weighs the cells of block c by 1/stride^2
    block = ((np.arange(h) // stride)[:, None] * wd + np.arange(w) // stride).reshape(-1)
    pool = np.zeros((hd * wd, h * w), dtype=DTYPE)
    pool[block, np.arange(h * w)] = np.float32(1.0 / (stride * stride))
    out_data = np.matmul(pool, a.data.reshape(-1, h * w, d))

    def backward(g, adj):
        _send(adj, a, np.matmul(pool.T, g.reshape(-1, hd * wd, d)).reshape(a.data.shape))

    return _node(out_data.reshape(*lead, hd, wd, d), (a,), backward)


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


# -- trainable leaves ---------------------------------------------------------------
# The one parameter factory of every module's ``create``. Each draw takes the
# next values of ``rng``, so the order of the calls fixes every initial value.


def ones_param(shape) -> Value:
    return Value(np.ones(shape, dtype=DTYPE), requires_grad=True)


def zeros_param(shape) -> Value:
    return Value(np.zeros(shape, dtype=DTYPE), requires_grad=True)


def normal_param(rng: np.random.Generator, shape, std: float) -> Value:
    return Value(normal(rng, shape, std=std), requires_grad=True)


def linear_param(rng: np.random.Generator, fan_in: int, fan_out: int) -> Value:
    """A [fan_in, fan_out] weight with entries of standard deviation fan_in**-0.5."""
    return normal_param(rng, (fan_in, fan_out), fan_in**-0.5)
