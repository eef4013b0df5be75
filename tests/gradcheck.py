"""Central finite-difference gradient checking and reference-only ops, shared by the test modules."""

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
