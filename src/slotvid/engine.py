"""Dense float32 tensor arithmetic with reverse-mode differentiation.

Arrays are numpy float32 throughout; every operation checks its output for
NaN/Inf and raises instead of propagating silently. The computation record is
a DAG of :class:`Value` nodes; ``backward`` walks it once in reverse
topological order, frees each node's closure, caches and parent edges as it
goes, and accumulates the leaves' adjoints into persistent ``grad`` buffers,
so the backward passes of separately built graphs add up in shared leaves.
A graph is back-propagated once; a second pass through it raises.

Hot composites are fused into single nodes with analytic backwards:
``cross_entropy``, the row ops ``layer_norm`` and the affine map ``linear``
(``x w + b`` over rows), the pre-norm transformer blocks over [R, D] rows,
``residual_mlp`` (one MLP form, the ramp ``z * sigmoid(1.702 z)``),
``cross_attention_block`` and ``self_attention_block``, and
``slot_attention``, every iteration of slot attention in one node. The
blocks evaluate the same products, sums and softmaxes in the same order as
the same computations composed from graph ops (the references in
``tests/test_fused_ops.py``), so their values are identical; their
backwards sum in their own order, so gradients may differ from the
composites' in the last bits. The attention nodes take the raw inputs and
a layer's raw weights, and fold the weights once per call; the
cross-attention node applies its two folds on the cheaper side of each set,
by the rule stated in ``cross_attention_block``. Slot attention reads the normalized
inputs slot-major, [B, N, M], with the input norm's gain and bias, the key
weights, the slot norm's gain and the temperature folded into one query map
and the value weights into the gated update's input weights, so its values
differ from the unfused path's in float32 rounding; its backward runs the
iterations in reverse and sends each weight one adjoint.

A node's closure keeps only the arrays its backward reads, and only for the
operands that need an adjoint. A layer norm inside a block keeps its
normalized rows and 1/std, never its output: the backward takes a product
``LN(x)^T G`` as ``gain ⊙ (xhat^T G) + bias ⊗ colsum(G)`` (``_ln_t_matmul``).
The ramp keeps its activation and sigmoid and reads its derivative from
the activation, not from the pre-activation. The attention nodes keep their
queries, and slot attention its renormalized read weights, only when the
inputs take an adjoint. ``tests/test_node_memory.py`` pins the bytes each
block keeps at a fixed shape.

A model's inputs enter the graph as constant leaves: every connector reads
views derived from the frozen features in plain numpy
(``connector.clip_views``), so no node gathers or pools a feature grid.

Row means and sums over a last axis, and column sums over rows, are GEMMs
against a ones vector (``_sum_last``, ``_sum_rows``; a mean puts 1/D in the
vector), never numpy reductions, which pay a per-row loop over the short
axes these ops reduce. These sums round differently from numpy's
reductions, so values equal a composite's only when that takes the same
sums. Fusing drops intermediate nodes, never the finite check on an op's
output; the attention nodes check their attention too.

Each op has one spelling, its function; ``Value`` has no operator forms.
Graph ops that only the tests build (``matmul``, ``transpose``, ``vsum``,
``broadcast_to``, the softmax and the nonlinearities) live in
``tests/gradcheck.py``.

Single-threaded by design: a graph must not be mutated from two threads.
Plain arrays are immutable by convention once wrapped in a Value.
"""

from __future__ import annotations

import math
import zlib
from contextlib import contextmanager
from functools import partial
from operator import attrgetter
from dataclasses import dataclass, field, fields, is_dataclass
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
    shape, zero until backward reaches the node as a leaf (``backward`` keeps
    no adjoint on a node it differentiates through). Parents and the backward
    closure are kept only while gradients are enabled and some input requires
    them, and only until ``backward`` has passed the node: it then drops both,
    so one graph is back-propagated once.
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


def _sigmoid_data(x: np.ndarray, k=np.float32(1.0)) -> np.ndarray:
    # 1 / (1 + exp(-k x)) in four passes, the last three in place. Where
    # exp(-k x) overflows to inf the result is the exact limit 0; where it
    # underflows to 0, the limit 1
    s = x * -k
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += np.float32(1.0)
    np.reciprocal(s, out=s)
    return s


RAMP_SLOPE = np.float32(1.702)


def _ramp(x: np.ndarray):
    s = _sigmoid_data(x, RAMP_SLOPE)
    return x * s, s


def _ramp_grad(act: np.ndarray, s: np.ndarray) -> np.ndarray:
    # d/dz of z * sigmoid(1.702 z) is s + 1.702 z s (1 - s), and z s is the
    # activation, so the backward needs no pre-activation
    d = np.float32(1.0) - s
    d *= act
    d *= RAMP_SLOPE
    d += s
    return d


def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def vmean(a, axis=None) -> Value:
    a = _coerce(a)
    axes = _norm_axes(axis, a.ndim)
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]
    out_data = a.data.mean(axis=axes, dtype=DTYPE)
    inv = np.float32(1.0 / count)

    def backward(g, adj):
        shp = list(a.data.shape)
        for ax in axes:
            shp[ax] = 1
        _send(adj, a, np.broadcast_to(g.reshape(shp) * inv, a.data.shape).astype(DTYPE, copy=False))

    return _node(out_data, (a,), backward)


def reshape(a, shape) -> Value:
    a = _coerce(a)
    shape = tuple(shape)

    def backward(g, adj):
        _send(adj, a, g.reshape(a.data.shape))

    return _node(a.data.reshape(shape), (a,), backward)


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


def take(a, indices) -> Value:
    """Gather along the first axis with an integer index array (backward scatter-adds)."""
    a = _coerce(a)
    idx = np.asarray(indices, dtype=np.intp)

    def backward(g, adj):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            np.add.at(buf, idx, g)
            _send(adj, a, buf)

    return _node(a.data[idx], (a,), backward)


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


def _norm_rows(xr: np.ndarray):
    """Zero-mean unit-variance [R, D] rows: (normalized rows, 1/std [R, 1]), each a fresh buffer."""
    d = xr.shape[1]
    mean_col = np.full((d, 1), 1.0 / d, dtype=DTYPE)
    xhat = xr - xr @ mean_col  # centred rows
    var = (xhat * xhat) @ mean_col
    var += np.float32(LAYER_NORM_EPS)
    inv = np.float32(1.0) / np.sqrt(var)
    xhat *= inv
    return xhat, inv


def _ln_rows(xr: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm of [R, D] rows: (output, normalized rows, 1/std [R, 1]), each a fresh buffer."""
    xhat, inv = _norm_rows(xr)
    out = xhat * gain
    out += bias
    return out, xhat, inv


def _ln_t_matmul(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray, g: np.ndarray,
                 g_sum: np.ndarray) -> np.ndarray:
    """``LN^T g`` [D, K] for the layer norm ``xhat * gain + bias`` of [R, D] rows
    and [R, K] rows ``g`` with column sums ``g_sum`` [K], read from the
    normalized rows as ``gain ⊙ (xhat^T g) + bias ⊗ g_sum``, so no node keeps
    its norm's output."""
    out = xhat.T @ g
    out *= gain[:, None]
    out += bias[:, None] * g_sum
    return out


def _norm_rows_dx(g: np.ndarray, gx: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                  gain: np.ndarray | None = None) -> np.ndarray:
    """Adjoint of the rows under ``_norm_rows`` for the adjoint ``g`` [R, D] of
    ``xhat * gain`` (of ``xhat`` itself when ``gain`` is None); ``gx`` is
    ``g * xhat``. Overwrites ``gx``, and ``g`` too when ``gain`` is None."""
    d = g.shape[1]
    # the row means of g*gain and g*gain*xhat, the gain folded into the ones vector
    mean = np.float32(1.0 / d)
    col = np.full((d, 1), mean, dtype=DTYPE) if gain is None else (gain * mean).reshape(d, 1)
    m1 = g @ col
    m2 = gx @ col
    dx = g if gain is None else g * gain
    dx -= m1
    dx -= np.multiply(xhat, m2, out=gx)
    dx *= inv
    return dx


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
    dx = _norm_rows_dx(g, gx, xhat, inv, gain.data)
    if residual is not None:
        dx += residual
    _send(adj, x, dx.reshape(x.data.shape))


def _check_shapes(what: str, **operands) -> None:
    """Raise a ShapeError for the first operand ``name=(value, shape)`` of another shape."""
    for name, (v, shape) in operands.items():
        if v.data.shape != shape:
            raise ShapeError(f"{what} {name} must have shape {shape}, got {v.data.shape}")


def layer_norm(x, gain, bias) -> Value:
    """Zero-mean unit-variance normalization over the last axis, then affine."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    shape = x.data.shape
    d = shape[-1]
    _check_shapes("layer_norm", gain=(gain, (d,)), bias=(bias, (d,)))
    out_data, xhat, inv = _ln_rows(x.data.reshape(-1, d), gain.data, bias.data)

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


GRU_NAMES = tuple(f.name for f in fields(GruParams))


def _gru_rows(h: np.ndarray, xw: np.ndarray, u_zr: np.ndarray, uh: np.ndarray):
    """Gated update of the state rows ``h`` [R, D]: (h', what the backward needs).

    ``xw`` [R, 3D] holds the input side with the biases, ``x [wz|wr|wh] +
    [bz|br|bh]``, and ``u_zr`` the state weights ``[uz|ur]``. With
    z = sigmoid(x Wz + bz + h Uz), r = sigmoid(x Wr + br + h Ur) and
    c = tanh(x Wh + bh + (r*h) Uh), h' = h + z * (c - h).
    """
    d = h.shape[1]
    zr = h @ u_zr
    zr += xw[:, : 2 * d]
    zr = _sigmoid_data(zr)
    z, r = zr[:, :d], zr[:, d:]
    rh = r * h
    c = rh @ uh
    c += xw[:, 2 * d :]
    np.tanh(c, out=c)
    out = c - h
    out *= z
    out += h
    return out, (zr, rh, c)


def _gru_rows_backward(g: np.ndarray, h: np.ndarray, cache, u_zr: np.ndarray, uh: np.ndarray):
    """Adjoints of ``_gru_rows`` for the output adjoint ``g``: (state rows,
    ``xw`` [R, 3D], which are also the gates' pre-activation adjoints,
    ``u_zr``, ``uh``, the biases)."""
    zr, rh, c = cache
    d = h.shape[1]
    z, r = zr[:, :d], zr[:, d:]
    pre = np.empty((h.shape[0], 3 * d), dtype=DTYPE)  # adjoints of the z, r and candidate pre-activations
    pre_zr, dac = pre[:, : 2 * d], pre[:, 2 * d :]
    dc = g * z
    np.multiply(c, c, out=dac)
    np.subtract(np.float32(1.0), dac, out=dac)
    dac *= dc
    drh = dac @ uh.T
    np.subtract(c, h, out=pre[:, :d])
    pre[:, :d] *= g
    np.multiply(drh, h, out=pre[:, d : 2 * d])
    dsig = np.float32(1.0) - zr
    dsig *= zr
    pre_zr *= dsig
    dh = g - dc
    drh *= r
    dh += drh
    dh += pre_zr @ u_zr.T
    return dh, pre, h.T @ pre_zr, rh.T @ dac, _sum_rows(pre)


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


def _mlp_rows(x, g, b, w1, b1, w2, b2):
    """``x + ramp(LN(x) w1 + b1) w2 + b2`` over [R, D] arrays: (output, what the
    backward needs: the normalized rows, 1/std, the activation and its sigmoid)."""
    ln, xhat, inv = _ln_rows(x, g, b)
    pre = ln @ w1
    pre += b1
    act, s = _ramp(pre)
    out = act @ w2
    out += b2
    out += x
    return out, (xhat, inv, act, s)


def _mlp_rows_backward(gr: np.ndarray, cache, g: np.ndarray, b: np.ndarray, w1: np.ndarray,
                       w2: np.ndarray) -> tuple:
    """Adjoints (x, g, b, w1, b1, w2, b2) of ``_mlp_rows`` for the output adjoint ``gr``."""
    xhat, inv, act, s = cache
    dpre = _ramp_grad(act, s)
    dpre *= gr @ w2.T
    db1 = _sum_rows(dpre)
    dln = dpre @ w1.T
    gx = dln * xhat
    dg, db = _sum_rows(gx), _sum_rows(dln)
    dx = _norm_rows_dx(dln, gx, xhat, inv, g)
    dx += gr
    return dx, dg, db, _ln_t_matmul(xhat, g, b, dpre, db1), db1, act.T @ gr, _sum_rows(gr)


def residual_mlp(x, g, b, w1, b1, w2, b2) -> Value:
    """Pre-norm residual feed-forward over [R, D] rows, one node:
    ``x + ramp(LN(x) w1 + b1) w2 + b2`` with ``ramp(z) = z * sigmoid(1.702 z)``."""
    operands = x, g, b, w1, b1, w2, b2 = tuple(map(_coerce, (x, g, b, w1, b1, w2, b2)))
    d, hidden = x.data.shape[-1], w1.data.shape[-1]
    _check_shapes("residual_mlp", x=(x, (len(x.data), d)), g=(g, (d,)), b=(b, (d,)), w1=(w1, (d, hidden)),
                  b1=(b1, (hidden,)), w2=(w2, (hidden, d)), b2=(b2, (d,)))
    out_data, cache = _mlp_rows(*(v.data for v in operands))

    def backward(gr, adj):
        for v, gv in zip(operands, _mlp_rows_backward(gr, cache, g.data, b.data, w1.data, w2.data)):
            _send(adj, v, gv)

    return _node(out_data, operands, backward)


def _folds_on_inputs(n: int, m: int, d_q: int, d_in: int) -> bool:
    """Whether ``cross_attention_block`` applies its weight folds to the M
    inputs of a set rather than to its N query rows; the block's docstring
    states the rule."""
    return m * d_q * (d_in + n) < n * d_in * (d_q + m)


def _head_blocks(w: np.ndarray, heads: int) -> np.ndarray:
    """[D, h*dh] weight columns as per-head blocks [h, D, dh], a view."""
    return w.reshape(len(w), heads, -1).transpose(1, 0, 2)


def _head_folds(heads: int, wq, wk, wv, wo):
    """``cross_attention_block``'s folds of raw weight arrays: ``wqk`` [D_q, h*D_in]
    (temperature in) and ``wvo`` [h*D_in, D_q]."""
    (d_in, dq), dh = wk.shape, wq.shape[0] // heads
    wqk = np.matmul(_head_blocks(wq, heads), _head_blocks(wk, heads).transpose(0, 2, 1))  # [h, D_q, D_in]
    wqk = wqk.transpose(1, 0, 2).reshape(dq, heads * d_in) * np.float32(1.0 / np.sqrt(dh))
    wvo = np.matmul(_head_blocks(wv, heads), wo.reshape(heads, dh, dq)).reshape(heads * d_in, dq)
    return wqk, wvo


def _head_fold_grads(g_wqk, g_wvo, heads: int, wq, wk, wv, wo) -> tuple:
    """Adjoints of ``wq``, ``wk``, ``wv`` and ``wo`` from those of the folds
    (None for a fold without one). Each product and layout is that of the
    graph ops' backwards over the same fold (``scale`` and ``reshape`` here,
    ``transpose`` and ``matmul`` in ``tests/gradcheck.py``), so the adjoints
    equal theirs bit for bit."""
    (d_in, dq), dh = wk.shape, wq.shape[0] // heads
    g_wq = g_wk = g_wv = g_wo = None
    if g_wqk is not None:
        g_qk = (g_wqk * np.float32(1.0 / np.sqrt(dh))).reshape(dq, heads, d_in).transpose(1, 0, 2)
        g_wq = np.matmul(g_qk, _head_blocks(wk, heads)).transpose(1, 0, 2).reshape(dq, dq)
        g_wk = np.matmul(_head_blocks(wq, heads).transpose(0, 2, 1), g_qk).transpose(2, 0, 1).reshape(d_in, dq)
    if g_wvo is not None:
        g_vo = g_wvo.reshape(heads, d_in, dq)
        g_wv = np.matmul(g_vo, wo.reshape(heads, dh, dq).transpose(0, 2, 1)).transpose(1, 0, 2).reshape(d_in, dq)
        g_wo = np.matmul(_head_blocks(wv, heads).transpose(0, 2, 1), g_vo).reshape(dq, dq)
    return g_wq, g_wk, g_wv, g_wo


def cross_attention_block(x, inputs, heads: int, ln_g, ln_b, wq, wk, wv, wo, bo) -> tuple[Value, np.ndarray]:
    """Pre-norm multi-head cross-attention of query rows over sets of inputs, one node.

    ``inputs`` is [B, M, D_in], and ``x`` holds the queries either as [B*N, D_q]
    rows, one set of N per input set, or as [1, N, D_q], one set of N rows
    shared by every input set (the learned queries of a stack's first layer,
    read from the operand's shape as the leading set axis of one broadcasts).
    ``wq`` [D_q, D_q], ``wk`` and ``wv`` [D_in, D_q], ``wo`` [D_q, D_q] and
    ``bo`` are the layer's raw weights, split into ``heads`` heads of width
    ``dh = D_q/heads``. Returns (x plus the attention output plus ``bo``, as
    [B*N, D_q] rows; attention [B, N*h, M] as a plain array, finite-checked),
    each head's logits softmaxed over the inputs. Shared rows are normalized
    once, as N rows; their norm's and residual's adjoints run on the N rows
    summed over the sets, so no B-fold copy of the queries is made.

    The node folds the weights once per call, per head h: ``wqk_h = wq_h
    wk_h^T / sqrt(dh)`` [D_q, D_in] and ``wvo_h = wv_h wo_h`` [D_in, D_q],
    stacked as ``wqk`` [D_q, h*D_in] and ``wvo`` [h*D_in, D_q]. With ``q =
    LN(x)``, the logits ``(q wq_h)(inputs wk_h)^T / sqrt(dh)`` are ``(q
    wqk_h) inputs^T``, and ``sum_h (attn_h inputs wv_h) wo_h`` is ``sum_h
    attn_h inputs wvo_h``, so no per-token keys or values [B, M, D_q] are
    built, the temperature scales D_q*h*D_in weights instead of the logits,
    and the inputs take one adjoint instead of a key and a value adjoint. Per input token, the folded read costs ``h*N*D_in``
    multiply-adds against ``D_q*(D_in + N)`` for the keys, values, logits and
    read of the unfolded form, so it pays while ``h*N*D_in < D_q*(D_in + N)``:
    4*8*32 = 1024 against 64*40 = 2560 for the query transformer's default
    layer. The folds and their backward (``_head_folds``, ``_head_fold_grads``)
    take the products and layouts of the same folds composed from primitive
    ops, so the folded weights, and the raw weights' adjoints given the
    folds', equal theirs bit for bit.

    The two folded weights are applied on whichever side of a set costs fewer
    multiply-adds (``_folds_on_inputs``). Per set and head, the input side
    costs ``2*M*D_q*(D_in + N)`` (keys and values, then the logits and the
    output over D_q) and the query side ``2*N*D_in*(D_q + M)`` (the query and
    output products, then the logits and the read over D_in). The rule
    compares the halves and picks the inputs when ``M*D_q*(D_in + N) <
    N*D_in*(D_q + M)``; the counts below are those halves, input side first,
    at the default shapes:

    - query side: ``LN(x) wqk`` gives N*h query rows over the raw inputs,
      the read ``attn inputs`` is [B*N, h*D_in] rows, and ``wvo`` maps it
      back. The query transformer runs here: 8 queries of width 64 over 256
      or 32 tokens of width 32, 655,360 against 81,920 and 81,920 against
      24,576;
    - input side: per head, keys ``inputs wqk_h^T`` and values ``inputs
      wvo_h``, each [B, h*M, D_q]; the logits ``LN(x)_b keys^T`` [B, N, h*M]
      are the same memory as [B, N*h, M], and ``attn values`` sums over the
      heads. The decoder runs here, with one head: 256 or 32 positions of
      width 64 over 8 slots of width 64, 163,840 against 1,179,648 and
      49,152 against 147,456.

    Both share the layer norm, the softmax, the finite checks, the residual
    and the backward's skeleton. On the query side the softmax's ``sum_m
    g_attn attn`` is taken as ``sum_d g_read read`` over the D_in side. The
    inputs' adjoint is skipped when they need none, and so is a fold's when
    neither of its weights needs one. The node keeps the normalized rows, not
    the norm's output: the products of ``LN(x)`` in the backward are taken as
    ``gain ⊙ (xhat^T G) + bias ⊗ colsum(G)``, and the query-side queries are
    kept only for the inputs' adjoint.
    """
    x, inputs, ln_g, ln_b, wq, wk, wv, wo, bo = map(_coerce, (x, inputs, ln_g, ln_b, wq, wk, wv, wo, bo))
    if inputs.ndim != 3:
        raise ShapeError(f"cross_attention_block expects [B, M, D_in] inputs, got {inputs.data.shape}")
    b, m, d_in = inputs.data.shape
    dq = x.data.shape[-1]
    shared = x.ndim == 3
    rows = b * x.data.shape[1] if shared else len(x.data)
    _check_shapes("cross_attention_block", x=(x, (1, rows // b, dq) if shared else (rows, dq)),
                  ln_g=(ln_g, (dq,)), ln_b=(ln_b, (dq,)), wq=(wq, (dq, dq)), wk=(wk, (d_in, dq)),
                  wv=(wv, (d_in, dq)), wo=(wo, (dq, dq)), bo=(bo, (dq,)))
    if heads < 1 or dq % heads or rows % b:
        raise ShapeError(f"cross_attention_block: [{rows}, {dq}] rows do not split over {b} sets and {heads} heads")
    n, h, width = rows // b, heads, heads * d_in
    weights = (wq.data, wk.data, wv.data, wo.data)
    wqk, wvo = _head_folds(h, *weights)
    fold_qk, fold_vo = wq.requires_grad or wk.requires_grad, wv.requires_grad or wo.requires_grad
    on_inputs = _folds_on_inputs(n, m, dq, d_in)
    ln, xhat, inv = _ln_rows(x.data.reshape(-1, dq), ln_g.data, ln_b.data)  # [N or B*N, D_q]
    if on_inputs:
        in_rows = inputs.data.reshape(b * m, d_in)
        keys_w = wqk.reshape(dq, h, d_in).transpose(2, 1, 0).reshape(d_in, h * dq)  # [wqk_h^T]_h
        values_w = wvo.reshape(h, d_in, dq).transpose(1, 0, 2).reshape(d_in, h * dq)  # [wvo_h]_h

        def heads_major(a):  # [B*M, h*D_q] -> [B, h*M, D_q]
            return a.reshape(b, m, h, dq).transpose(0, 2, 1, 3).reshape(b, h * m, dq)

        def rows_major(a):  # the inverse
            return a.reshape(b, h, m, dq).transpose(0, 2, 1, 3).reshape(b * m, h * dq)

        keys, values = heads_major(in_rows @ keys_w), heads_major(in_rows @ values_w)
        wqk = wvo = None  # this side's backward reads the folds as keys_w and values_w
        logits = np.matmul(ln.reshape(-1, n, dq), keys.transpose(0, 2, 1)).reshape(b, n * h, m)
    else:
        q = (ln @ wqk).reshape(-1, n * h, d_in)
        inputs_t = inputs.data.transpose(0, 2, 1)
        logits = np.matmul(q, inputs_t)
        if not inputs.requires_grad:  # only the inputs' adjoint reads the queries
            q = None
    attn = _softmax_last(logits)
    _require_finite(attn, "cross attention")
    if on_inputs:
        attn_sets = attn.reshape(b, n, h * m)
        out_data = np.matmul(attn_sets, values).reshape(rows, dq)
    else:
        read = np.matmul(attn, inputs.data)  # [B, N*h, D_in]
        read_rows = read.reshape(rows, width)
        out_data = read_rows @ wvo
    out_data += bo.data
    out_sets = out_data.reshape(b, n, dq)
    out_sets += x.data.reshape(-1, n, dq)

    def over_sets(a):  # the adjoint of shared rows: [B*N, K] summed over the sets
        return _sum_rows(a.reshape(b, -1)).reshape(n, -1) if shared else a

    def backward(g, adj):
        g_wqk = g_wvo = None
        if bo.requires_grad:
            _send(adj, bo, _sum_rows(g))
        if on_inputs:
            g_sets = g.reshape(b, n, dq)
            g_values = np.matmul(attn_sets.transpose(0, 2, 1), g_sets)
            g_logits = np.matmul(g_sets, values.transpose(0, 2, 1)).reshape(attn.shape)
            g_logits -= _sum_last(g_logits * attn)
        else:
            if fold_vo:
                g_wvo = read_rows.T @ g
            g_read = (g @ wvo.T).reshape(read.shape)
            g_logits = np.matmul(g_read, inputs_t)
            g_logits -= _sum_last(g_read * read)  # sum_m g_attn attn, over the short side
        g_logits *= attn
        if on_inputs:
            gl_sets = g_logits.reshape(b, n, h * m)
            # the keys' adjoint gl^T LN(x), as (gl^T xhat) * gain + colsum(gl) ⊗ bias per set
            g_keys = np.matmul(gl_sets.transpose(0, 2, 1), xhat.reshape(-1, n, dq))
            g_keys *= ln_g.data
            g_keys += np.matmul(np.ones((1, n), dtype=DTYPE), gl_sets).transpose(0, 2, 1) * ln_b.data
            g_keys = rows_major(g_keys)
            g_values = rows_major(g_values)
            if fold_qk:
                g_wqk = (g_keys.T @ in_rows).reshape(h, dq, d_in).transpose(1, 0, 2).reshape(dq, width)
            if fold_vo:
                g_wvo = (in_rows.T @ g_values).reshape(d_in, h, dq).transpose(1, 0, 2).reshape(width, dq)
            if inputs.requires_grad:
                gi = g_keys @ keys_w.T
                gi += g_values @ values_w.T
                _send(adj, inputs, gi.reshape(b, m, d_in))
            g_ln = over_sets(np.matmul(gl_sets, keys).reshape(rows, dq))
        else:
            if inputs.requires_grad:
                gi = np.matmul(attn.transpose(0, 2, 1), g_read)
                gi += np.matmul(g_logits.transpose(0, 2, 1), q)
                _send(adj, inputs, gi)
            g_q = over_sets(np.matmul(g_logits, inputs.data).reshape(rows, width))
            if fold_qk:
                g_wqk = _ln_t_matmul(xhat, ln_g.data, ln_b.data, g_q, _sum_rows(g_q))
            g_ln = g_q @ wqk.T
        _ln_rows_backward(adj, g_ln, xhat, inv, x, ln_g, ln_b, residual=over_sets(g))
        for w, gw in zip((wq, wk, wv, wo), _head_fold_grads(g_wqk, g_wvo, h, *weights)):
            if gw is not None:
                _send(adj, w, gw)

    return _node(out_data, (x, inputs, ln_g, ln_b, wq, wk, wv, wo, bo), backward), attn


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
        gw = _ln_t_matmul(xhat, ln_g.data, ln_b.data, g_qkv, _sum_rows(g_qkv))
        for i, w in enumerate((wq, wk, wv)):
            _send(adj, w, gw[:, i * d : (i + 1) * d])
        _ln_rows_backward(adj, g_qkv @ w_qkv.T, xhat, inv, x, ln_g, ln_b, residual=g)

    return _node(out_data, (x, ln_g, ln_b, wq, wk, wv, wo, bo), backward)


# -- slot attention ----------------------------------------------------------------


def _slot_read(q: np.ndarray, x: np.ndarray, x_t: np.ndarray, eps: float):
    """Slot-major read of sets of inputs ``x`` [B, M, E] by queries ``q`` [B, N, E].

    ``x_t`` is ``x`` transposed, contiguous [B, E, M]. The logits ``q x^T``
    [B, N, M] are softmaxed over the slots (the max an exact chain of
    ``np.maximum`` over contiguous [B, M] slices, the sum a GEMM of a ones row
    against them), each slot's row of weights is renormalized over the inputs
    (``eps`` added to its sum) and the read is the weighted mean ``w x``
    [B, N, E]. Returns (read, (attention, 1 / (row sums + eps), weights)).
    """
    attn = np.matmul(q, x_t)
    n = attn.shape[1]
    top = attn[:, 0].copy()
    for j in range(1, n):
        np.maximum(top, attn[:, j], out=top)
    attn -= top[:, None]
    np.exp(attn, out=attn)
    attn /= np.matmul(np.ones((1, n), dtype=DTYPE), attn)
    _require_finite(attn, "slot attention mask")
    inv = np.matmul(attn, np.ones((attn.shape[2], 1), dtype=DTYPE))
    inv += np.float32(eps)
    np.divide(np.float32(1.0), inv, out=inv)
    weights = attn * inv
    return np.matmul(weights, x), (attn, inv, weights)


def _slot_read_backward(g: np.ndarray, read: np.ndarray, q: np.ndarray, x: np.ndarray, x_t: np.ndarray,
                        cache, x_grad: bool):
    """Adjoints of ``_slot_read`` for the read's adjoint ``g`` [B, N, E]: (queries,
    inputs transposed as [B, E, M], or None unless ``x_grad``)."""
    attn, inv, weights = cache
    g_attn = np.matmul(g, x_t)  # adjoint of the weights
    g_attn -= _sum_last(g * read)  # sum_m g_w w, taken as sum_e g read over the short side
    g_attn *= inv
    g_logits = g_attn * attn
    g_logits -= attn * np.matmul(np.ones((1, attn.shape[1]), dtype=DTYPE), g_logits)
    g_x_t = None
    if x_grad:
        g_x_t = np.matmul(g.transpose(0, 2, 1), weights)
        g_x_t += np.matmul(q.transpose(0, 2, 1), g_logits)
    return np.matmul(g_logits, x), g_x_t


def _affine_fold(w: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``[diag(gain); bias] w`` [E+1, D]: the map of ``w`` [E, D] applied after the
    affine ``xhat * gain + bias``, for rows ``[xhat | 1]``."""
    return np.concatenate((w * gain[:, None], (bias @ w)[None]), axis=0)


def _affine_fold_grads(g: np.ndarray, w: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Adjoints (w, gain, bias) of ``_affine_fold`` for its adjoint ``g`` [E+1, D]."""
    e = w.shape[0]
    gw = g[:e] * gain[:, None]
    gw += bias[:, None] * g[e]
    return gw, _sum_last(g[:e] * w).reshape(e), w @ g[e]


def slot_attention(x, init, p, iterations: int, temp: float, eps: float) -> tuple[Value, np.ndarray]:
    """Iterative slot attention of sets of inputs ``x`` [B, M, D_in], one node.

    ``init`` holds the initial slots, [N, D] shared by every set or [B, N, D]
    per set; ``p`` holds the weights under the field names of
    ``slot_attention.SlotAttentionParams`` (``p.gru`` a ``GruParams``). Each
    of the ``iterations`` runs, over the slot state as [B*N, D] rows: the slot
    layer norm (gain, no bias), the query, the slot-major read ``_slot_read``
    of the normalized inputs with logits scaled by ``temp`` and ``eps`` added
    to each slot's weight sum, the gated update ``_gru_rows`` with the read as input through
    ``wv``, and the residual MLP ``_mlp_rows``.

    Weights fold once per call, so each iteration runs on plain rows. With
    ``X = [xhat | 1]``, the normalized inputs and a ones column, the input
    norm's affine is ``X P`` with ``P = [diag(g); b]``, so the keys ``X (P wk)``
    fold into the query weights ``temp * diag(slot_norm_g) wq (P wk)^T`` (the
    bias becomes a per-slot logit offset against the ones row of ``X^T``) and
    the values ``X (P wv)`` into the GRU's input weights ``(P wv) [wz|wr|wh]``
    (the bias scales with each slot's weight sum, the read of the ones
    column). The backward runs the iterations in reverse, accumulates each
    weight's adjoint over them and sends it once, and forms the inputs'
    per-token adjoint only when they need one; only then does the node keep
    each iteration's queries and read weights, which only that adjoint reads.
    Returns (slots [B, N, D], the last iteration's attention as a plain
    C-contiguous [B, M, N] array whose rows sum to one over the slots). The
    normalized inputs and each iteration's attention and slot rows are
    checked for finiteness.
    """
    x, init = _coerce(x), _coerce(init)
    if x.ndim != 3 or init.ndim not in (2, 3):
        raise ShapeError(f"slot_attention expects [B, M, D_in] inputs and [N, D] or [B, N, D] slots, "
                         f"got {x.data.shape} and {init.data.shape}")
    b, m, d_in = x.data.shape
    n, d = init.data.shape[-2:]
    hidden = p.mlp_w1.data.shape[-1]
    square, vec = (d, d), (d,)
    shapes = {"in_norm_g": (d_in,), "in_norm_b": (d_in,), "slot_norm_g": vec, "wq": square, "wk": (d_in, d),
              "wv": (d_in, d), **{f"gru.{k}": vec if k[0] == "b" else square for k in GRU_NAMES},
              "mlp_norm_g": vec, "mlp_norm_b": vec, "mlp_w1": (d, hidden), "mlp_b1": (hidden,),
              "mlp_w2": (hidden, d), "mlp_b2": vec}
    weights = tuple(attrgetter(k)(p) for k in shapes)
    _check_shapes("slot_attention", init=(init, (n, d) if init.ndim == 2 else (b, n, d)),
                  **{k: (w, s) for (k, s), w in zip(shapes.items(), weights)})
    in_g, in_b, slot_g, wq, wk, wv, wz, uz, bz, wr, ur, br, wh, uh, bh, mlp_g, mlp_b, w1, b1, w2, b2 = (
        w.data for w in weights)
    mlp_weights = (mlp_g, mlp_b, w1, b1, w2, b2)
    rows, e = b * n, d_in + 1

    xhat, inv_x = _norm_rows(x.data.reshape(-1, d_in))
    _require_finite(xhat, "normalized slot-attention inputs")
    xs = np.ones((b, m, e), dtype=DTYPE)  # X = [xhat | 1]
    xs[..., :d_in] = xhat.reshape(b, m, d_in)
    xs_t = np.ascontiguousarray(xs.transpose(0, 2, 1))
    k_fold, v_fold = _affine_fold(wk, in_g, in_b), _affine_fold(wv, in_g, in_b)
    q_scale = (slot_g * np.float32(temp))[:, None]
    wqk = wq @ k_fold.T
    q_fold = wqk * q_scale  # [D, D_in+1]
    w_x = np.concatenate((wz, wr, wh), axis=1)
    vx = v_fold @ w_x  # [D_in+1, 3D]
    b_x = np.concatenate((bz, br, bh))
    u_zr = np.concatenate((uz, ur), axis=1)

    h = np.ascontiguousarray(np.broadcast_to(init.data, (b, n, d))).reshape(rows, d)
    steps = []
    for _ in range(iterations):
        shat, inv_s = _norm_rows(h)
        q = (shat @ q_fold).reshape(b, n, e)
        read, (attn, inv_w, w_read) = _slot_read(q, xs, xs_t, eps)
        read = read.reshape(rows, e)
        if not x.requires_grad:  # only the inputs' adjoint reads the queries and the weights
            q = w_read = None
        xw = read @ vx
        xw += b_x
        h_gru, gru_cache = _gru_rows(h, xw, u_zr, uh)
        h_next, mlp_cache = _mlp_rows(h_gru, *mlp_weights)
        _require_finite(h_next, "slot rows")
        steps.append((h, shat, inv_s, q, read, (attn, inv_w, w_read), gru_cache, mlp_cache))
        h = h_next
    mask = np.ascontiguousarray(attn.transpose(0, 2, 1))

    def backward(g, adj):
        gh = g.reshape(rows, d)
        g_q_fold = np.zeros_like(q_fold)
        g_vx = np.zeros_like(vx)
        g_gru = [np.zeros_like(u_zr), np.zeros_like(uh), np.zeros_like(b_x)]
        g_mlp = [np.zeros_like(w) for w in mlp_weights]
        g_xs_t = np.zeros_like(xs_t) if x.requires_grad else None
        for h_prev, shat, inv_s, q, read, read_cache, gru_cache, mlp_cache in reversed(steps):
            g_h_gru, *g_step = _mlp_rows_backward(gh, mlp_cache, mlp_g, mlp_b, w1, w2)
            for acc, gs in zip(g_mlp, g_step):
                acc += gs
            gh, g_pre, *g_step = _gru_rows_backward(g_h_gru, h_prev, gru_cache, u_zr, uh)
            for acc, gs in zip(g_gru, g_step):
                acc += gs
            g_vx += read.T @ g_pre
            g_q, g_xs_t_step = _slot_read_backward((g_pre @ vx.T).reshape(b, n, e), read.reshape(b, n, e), q,
                                                   xs, xs_t, read_cache, g_xs_t is not None)
            if g_xs_t is not None:
                g_xs_t += g_xs_t_step
            g_q = g_q.reshape(rows, e)
            g_q_fold += shat.T @ g_q
            g_shat = g_q @ q_fold.T
            gh += _norm_rows_dx(g_shat, g_shat * shat, shat, inv_s)

        g_wqk = g_q_fold * q_scale
        g_w_x = v_fold.T @ g_vx
        g_wk, g_in_g, g_in_b = _affine_fold_grads(g_wqk.T @ wq, wk, in_g, in_b)
        g_wv, g_in_g_v, g_in_b_v = _affine_fold_grads(g_vx @ w_x.T, wv, in_g, in_b)
        g_uzr, g_uh, g_bx = g_gru
        gate = [slice(i * d, (i + 1) * d) for i in range(3)]
        grads = (g_in_g + g_in_g_v, g_in_b + g_in_b_v, _sum_last(g_q_fold * wqk).reshape(d) * np.float32(temp),
                 g_wqk @ k_fold, g_wk, g_wv, g_w_x[:, gate[0]], g_uzr[:, gate[0]], g_bx[gate[0]],
                 g_w_x[:, gate[1]], g_uzr[:, gate[1]], g_bx[gate[1]], g_w_x[:, gate[2]], g_uh, g_bx[gate[2]],
                 *g_mlp)
        _send(adj, init, _unbroadcast(gh.reshape(b, n, d), init.data.shape))
        for w, gw in zip(weights, grads):
            _send(adj, w, gw)
        if g_xs_t is not None:
            g_xhat = np.ascontiguousarray(g_xs_t[:, :d_in].transpose(0, 2, 1)).reshape(-1, d_in)
            xn = xs[..., :d_in].reshape(-1, d_in)  # the normalized inputs, a view of X
            _send(adj, x, _norm_rows_dx(g_xhat, g_xhat * xn, xn, inv_x).reshape(x.data.shape))

    return _node(h.reshape(b, n, d), (x, init) + weights, backward), mask


# -- reverse pass -----------------------------------------------------------------


def _consumed(g, adj):
    raise EngineError("graph already back-propagated")


def backward(root: Value) -> None:
    """Accumulate d(root)/d(leaf) into ``grad`` for every reachable leaf.

    Root must be scalar (one element). Each node's closure runs exactly once,
    in reverse topological order, and the graph is freed as the walk goes:
    once a node's closure has run, the node drops it and its parents, so its
    caches go at once and its data as soon as no consumer is left. Calling
    ``backward`` again on a root, or on a new root through any node already
    passed, raises ``EngineError``. Only leaves, the nodes without a backward
    closure, keep their adjoint, and they add into it across graphs: an
    intermediate node's ``grad`` stays unset, so no intermediate adjoint
    outlives the pass.
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
    while topo:
        node = topo.pop()
        g = adj.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            node._grad = g if node._grad is None else node._grad + g
        else:
            node._backward(g, adj)
            # drop the closure, its caches and the edges to the parents: once
            # every consumer has run, nothing holds the node's data either
            node._backward = _consumed
            node._parents = ()


def zero_grads(params) -> None:
    for p in _iter_params(params):
        p.zero_grad()


def _iter_params(params):
    if isinstance(params, Mapping):
        return params.values()
    return params


# -- optimizer --------------------------------------------------------------------


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Per-parameter first/second moment tensors plus step counter."""

    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_update(
    params: Mapping[str, Value],
    state: AdamState,
    lr: float,
    lr_overrides: Mapping[str, float] | None = None,
) -> None:
    """Apply one bias-corrected Adam step in place, reading each param's grad.

    ``lr_overrides`` gives individual parameters their own rate (the moment
    estimates and step counter are shared either way).
    """
    state.t += 1
    base_lr = np.float32(lr)
    b1 = np.float32(ADAM_BETA1)
    b2 = np.float32(ADAM_BETA2)
    c1 = np.float32(1.0 - ADAM_BETA1**state.t)
    c2 = np.float32(1.0 - ADAM_BETA2**state.t)
    eps = np.float32(ADAM_EPS)
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
    """Counter-based generator for ``(seed, path)``; independent per path. Each integer
    key is one word of the seed sequence, so one outside [0, 2**64) raises."""
    keys = [int(seed)] + [zlib.crc32(p.encode("utf-8")) if isinstance(p, str) else int(p) for p in path]
    for key in keys:
        if not 0 <= key < 2**64:
            raise EngineError(f"random key {key} is outside [0, 2**64)")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(keys)))


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



def named_params(params, prefix: str = "", sep: str = ".") -> dict:
    """The tensors of the params dataclass ``params`` by checkpoint name, in field order.

    The one naming rule of every checkpoint tensor, each name under ``prefix.``
    (under nothing for an empty ``prefix``): a ``Value`` field ``<group>_<tag>``
    with a norm's or an affine map's tag, ``g``, ``b``, ``w``, ``w1``, ``b1``,
    ``w2`` or ``b2``, is named ``<group><sep><tag>`` (``in_norm.g``); any other
    keeps its field name (``wq``, ``s_wq``, ``slow_pos``). A nested params field
    recurses under its field name after the container's ``prefix`` class
    attribute, if any (``qt_slow`` in ``baselines.WrapParams``); entry ``i`` of
    a list recurses under ``layer<i>``; ``None`` and settings (``iterations``,
    ``n_heads``) name nothing. ``sep`` is ``"."`` unless a container declares
    its own, which holds below it (``layer0.ln_q_g`` in
    ``baselines.QueryTransformerParams``). A name given twice is an
    ``EngineError``, not a tensor dropped from every checkpoint. Field order is
    checkpoint order and the order of ``clip_global_norm``'s sum.
    """
    sep = getattr(params, "sep", sep)
    at = f"{prefix}." if prefix else ""
    out = {}
    for f in fields(params):
        value = getattr(params, f.name)
        group, _, tag = f.name.rpartition("_")
        if isinstance(value, Value):
            affine = group and tag in ("g", "b", "w", "w1", "b1", "w2", "b2")
            named = [(at + (f"{group}{sep}{tag}" if affine else f.name), value)]
        elif is_dataclass(value):
            named = named_params(value, at + getattr(params, "prefix", "") + f.name, sep).items()
        elif isinstance(value, list):
            named = [item for i, layer in enumerate(value)
                     for item in named_params(layer, f"{at}layer{i}", sep).items()]
        else:
            continue
        for name, tensor in named:
            if name in out:
                raise EngineError(f"two tensors of {type(params).__name__} are named {name!r}")
            out[name] = tensor
    return out
