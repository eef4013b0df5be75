"""Central finite-difference gradient checking and reference-only ops, shared by the test modules."""

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
# one node per library nonlinearity, from its (forward, derivative) pair
NONLIN_NODES = {name: _unary(*pair) for name, pair in engine.NONLINEARITIES.items()}
smooth_ramp, relu, tanh = NONLIN_NODES["gelu-like"], NONLIN_NODES["relu"], NONLIN_NODES["tanh"]


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
