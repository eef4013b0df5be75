"""Central finite-difference gradient checking and reference-only graph ops, shared by the test modules.

The library computes these ops inside its fused nodes and never builds them
as nodes of their own: ``matmul``, ``transpose``, ``vsum`` and
``broadcast_to``, the elementwise ``sigmoid``, ``exp``, ``smooth_ramp``,
``relu``, ``tanh`` and ``recip``, and ``softmax_axis``. They are built on the
engine's ``_node``, ``_send``, ``_unbroadcast``, ``_coerce`` and
``_norm_axes``, and they keep the arithmetic of the library's own forms, so
the composite references built from them (``reference_gru`` here, the rest
in ``test_fused_ops.py``) equal the fused nodes bit for bit where those take
the same sums. ``gru_node`` and ``slot_read_node`` wrap the slot-attention
node's kernels as nodes of their own.
"""

from functools import partial

import numpy as np

from slotvid import engine


def fd_check(build, params, rng, coords_per_param=6, h=1e-3, rtol=1e-3, floor=5e-4):
    """Compare reverse-mode grads of ``build()`` against central differences.

    ``build`` must construct a fresh scalar loss Value from the params'
    current ``data``. Relative error uses an absolute floor at the float32
    finite-difference noise level. Returns (n_ok, n_total).
    """
    loss = build()
    engine.zero_grads(params)
    engine.backward(loss)
    grads = [p.grad.copy() for p in params]
    # float32 evaluation noise on the loss shows up in the quotient as
    # roughly eps32 * |loss| / h, so widen the absolute floor for big losses
    floor = max(floor, 2.4e-4 * abs(loss.item()))
    ok = 0
    total = 0
    for p, g in zip(params, grads):
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        n = flat.size
        pick = rng.choice(n, size=min(n, coords_per_param), replace=False)
        for c in pick:
            orig = flat[c]
            hi = np.float32(orig + h)
            lo = np.float32(orig - h)
            flat[c] = hi
            with engine.no_grad():
                lp = build().item()
            flat[c] = lo
            with engine.no_grad():
                lm = build().item()
            flat[c] = orig
            fd = (lp - lm) / float(hi - lo)
            a = float(gflat[c])
            tol = max(rtol * max(abs(a), abs(fd)), floor)
            if abs(a - fd) <= tol:
                ok += 1
            total += 1
    return ok, total


def recip(a):
    """``1 / a`` as one graph node. The composite references of the fused
    attention read need it; the library computes it inside the fused op."""
    out = np.float32(1.0) / a.data

    def backward(g, adj):
        engine._send(adj, a, -g * out * out)

    return engine._node(out, (a,), backward)


# -- reference-only graph ops ---------------------------------------------------------
# The library runs these inside its fused nodes; the composite references and
# the op-level tests build them as graph nodes of their own.


def matmul(a, b):
    """Matrix product with numpy batch broadcasting; both operands rank >= 2."""
    a, b = engine._coerce(a), engine._coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise engine.ShapeError("matmul operands must have rank >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise engine.ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")

    def backward(g, adj):
        # a constant operand's adjoint would be dropped by _send: skip the product
        if a.requires_grad:
            engine._send(adj, a, engine._unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        if b.requires_grad:
            engine._send(adj, b, engine._unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape))

    return engine._node(np.matmul(a.data, b.data), (a, b), backward)


def transpose(a, axes):
    a = engine._coerce(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def backward(g, adj):
        engine._send(adj, a, g.transpose(inv))

    return engine._node(a.data.transpose(axes), (a,), backward)


def broadcast_to(a, shape):
    a = engine._coerce(a)
    shape = tuple(shape)

    def backward(g, adj):
        engine._send(adj, a, engine._unbroadcast(g, a.data.shape))

    return engine._node(np.broadcast_to(a.data, shape), (a,), backward)


def vsum(a, axis=None, keepdims=False):
    a = engine._coerce(a)
    axes = engine._norm_axes(axis, a.ndim)
    out_data = a.data.sum(axis=axes, keepdims=keepdims)

    def backward(g, adj):
        gg = g
        if not keepdims:
            shp = list(a.data.shape)
            for ax in axes:
                shp[ax] = 1
            gg = g.reshape(shp)
        engine._send(adj, a, np.broadcast_to(gg, a.data.shape).astype(engine.DTYPE, copy=False))

    return engine._node(out_data, (a,), backward)


def _unary(fwd, deriv):
    def op(a):
        a = engine._coerce(a)
        out, saved = fwd(a.data)

        def backward(g, adj):
            engine._send(adj, a, g * deriv(a.data, saved))

        return engine._node(out, (a,), backward)

    return op


sigmoid = _unary(lambda x: (engine._sigmoid_data(x),) * 2, lambda x, s: s * (1.0 - s))
exp = _unary(lambda x: (np.exp(x),) * 2, lambda x, e: e)
# the library's one MLP nonlinearity, x * sigmoid(1.702 x), from the library's forward; its
# derivative s + 1.702 x s (1 - s) is written out in x, so the reference does not call the
# kernel it checks (``engine._ramp_grad`` reads the activation x s)
smooth_ramp = _unary(engine._ramp, lambda x, s: s + engine.RAMP_SLOPE * x * s * (np.float32(1.0) - s))
# two more (forward, derivative) pairs, which the engine tests exercise ``backward`` with;
# relu's negative inputs give -0.0, which compares equal to 0.0
relu = _unary(lambda x: (x * (x > 0), x > 0), lambda x, mask: mask.astype(np.float32))
tanh = _unary(lambda x: (np.tanh(x),) * 2, lambda x, t: np.float32(1.0) - t * t)


def softmax_axis(a, axis):
    """Softmax along ``axis`` with max-subtraction, one node; over the last
    axis the max and sums are the library's ``_max_last`` and ``_sum_last``."""
    a = engine._coerce(a)
    if axis >= a.ndim or axis < -a.ndim:
        raise engine.ShapeError(f"softmax axis {axis} out of range for rank {a.ndim}")
    ax = axis % a.ndim
    if ax == a.ndim - 1:
        top, total = engine._max_last, engine._sum_last
    else:
        top = partial(np.max, axis=ax, keepdims=True)
        total = partial(np.sum, axis=ax, keepdims=True)
    e = np.exp(a.data - top(a.data))
    out = e / total(e)

    def backward(g, adj):
        engine._send(adj, a, out * (g - total(g * out)))

    return engine._node(out, (a,), backward)


def reference_gru(h, x, p):
    """Composite gated update h' = h + z * (c - h), z and r sigmoid gates and c the
    tanh candidate, in the order of the slot-attention node's ``_gru_rows``."""
    z = sigmoid(engine.add(matmul(h, p.uz), engine.add(matmul(x, p.wz), p.bz)))
    r = sigmoid(engine.add(matmul(h, p.ur), engine.add(matmul(x, p.wr), p.br)))
    cand = tanh(engine.add(matmul(engine.mul(r, h), p.uh), engine.add(matmul(x, p.wh), p.bh)))
    return engine.add(h, engine.mul(z, engine.sub(cand, h)))


# -- the slot-attention node's kernels as graph nodes of their own ---------------------
# ``engine.slot_attention`` runs its gated update and its read as array
# kernels inside one node; these wrap each kernel with its backward, so that
# each can be checked against its composite and by finite differences.

def gru_node(h, x, p):
    """``engine._gru_rows`` over state rows ``h`` and input rows ``x`` (same shape) with
    ``GruParams`` ``p``; the input side is one GEMM against ``[wz|wr|wh]``, as in the node."""
    h, x = engine._coerce(h), engine._coerce(x)
    shape = h.data.shape
    d = shape[-1]
    w_x = np.concatenate((p.wz.data, p.wr.data, p.wh.data), axis=1)
    u_zr = np.concatenate((p.uz.data, p.ur.data), axis=1)
    hr, xr = h.data.reshape(-1, d), x.data.reshape(-1, d)
    xw = xr @ w_x
    xw += np.concatenate((p.bz.data, p.br.data, p.bh.data))
    out, cache = engine._gru_rows(hr, xw, u_zr, p.uh.data)

    def backward(g, adj):
        dh, dxw, du_zr, duh, db = engine._gru_rows_backward(g.reshape(-1, d), hr, cache, u_zr, p.uh.data)
        dw = xr.T @ dxw
        gate = [slice(i * d, (i + 1) * d) for i in range(3)]
        grads = (dw[:, gate[0]], du_zr[:, gate[0]], db[gate[0]], dw[:, gate[1]], du_zr[:, gate[1]], db[gate[1]],
                 dw[:, gate[2]], duh, db[gate[2]])
        engine._send(adj, h, dh.reshape(shape))
        if x.requires_grad:
            engine._send(adj, x, (dxw @ w_x.T).reshape(shape))
        for name, gw in zip(engine.GRU_NAMES, grads):
            engine._send(adj, getattr(p, name), gw)

    parents = (h, x) + tuple(getattr(p, name) for name in engine.GRU_NAMES)
    return engine._node(out.reshape(shape), parents, backward)


def slot_read_node(x, q, temp, eps):
    """``engine._slot_read`` of inputs ``x`` [B, M, D] by queries ``q`` [B, N, D] with
    logits ``(temp q) x^T``: (read [B, N, D] as a node, attention [B, N, M])."""
    x, q = engine._coerce(x), engine._coerce(q)
    temp32 = np.float32(temp)
    qs = q.data * temp32
    x_t = np.ascontiguousarray(x.data.transpose(0, 2, 1))
    read, cache = engine._slot_read(qs, x.data, x_t, eps)

    def backward(g, adj):
        g_q, g_x_t = engine._slot_read_backward(g, read, qs, x.data, x_t, cache, x.requires_grad)
        if q.requires_grad:
            engine._send(adj, q, g_q * temp32)
        if g_x_t is not None:
            engine._send(adj, x, g_x_t.transpose(0, 2, 1))

    return engine._node(read, (x, q), backward), cache[0]
