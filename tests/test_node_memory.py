"""The bytes each fused node keeps alive between its forward and its backward.

A node's closure keeps only the arrays its backward reads, and only for the
operands that need an adjoint (the cache rule in ``engine``'s docstring).
Each case below builds one node at a fixed shape under tracemalloc and
compares what stays allocated after the forward, less the node's output,
with the arrays the backward reads, listed by shape. Python's own objects
add a little on top: each array's header, and the closure, its cells and
tuples and the node.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from slotvid import engine
from slotvid.decoder import QueryLayerParams
from slotvid.engine import Value
from slotvid.slot_attention import SlotAttentionParams

HEADER, OBJECTS = 256, 4 << 10  # bytes per array header; the closure, its cells and tuples, the node


def _kept(build) -> int:
    """Bytes still allocated after ``build()`` returns its node (and attention), less the node's output."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    node = out[0] if isinstance(out, tuple) else out
    return held - node.data.nbytes


def _bytes(shapes) -> int:
    return sum(4 * int(np.prod(shape)) for shape in shapes)


def _layer(d_in, d):
    return QueryLayerParams.create(engine.rng_for(0, "kept-layer", d_in), d_in, d, self_attention=False)


def _mlp():
    r, d, h = 1024, 64, 128
    layer = _layer(d, d)
    x = Value(engine.normal(engine.rng_for(0, "kept-mlp"), (r, d)), requires_grad=True)
    # the normalized rows, 1/std, the activation and its sigmoid
    reads = [(r, d), (r, 1), (r, h), (r, h)]
    return (lambda: engine.residual_mlp(x, layer.ln_f_g, layer.ln_f_b, layer.ff_w1, layer.ff_b1, layer.ff_w2,
                                        layer.ff_b2)), reads


def _cross(sets, n, m, d_in, heads, inputs_grad, shared=False):
    d = 64
    layer = _layer(d_in, d)
    rng = engine.rng_for(0, "kept-cross", sets, n, m)
    x = Value(engine.normal(rng, (1, n, d) if shared else (sets * n, d)), requires_grad=True)
    inputs = Value(engine.normal(rng, (sets, m, d_in)), requires_grad=inputs_grad)
    q_rows = n if shared else sets * n
    reads = [(q_rows, d), (q_rows, 1), (sets, n * heads, m)]  # normalized rows, 1/std, attention
    if engine._folds_on_inputs(n, m, d, d_in):
        reads += [(sets, heads * m, d)] * 2 + [(d_in, heads * d)] * 2  # keys, values and their weights
    else:
        reads += [(sets, n * heads, d_in), (d, heads * d_in), (heads * d_in, d)]  # the read and both folds
        if inputs_grad:
            reads += [(sets, n * heads, d_in)]  # the queries, for the inputs' adjoint
    return (lambda: engine.cross_attention_block(x, inputs, heads, layer.ln_q_g, layer.ln_q_b, layer.wq, layer.wk,
                                                 layer.wv, layer.wo, layer.bo)), reads


def _slot(x_grad):
    b, m, d_in, n, d, iters = 16, 256, 32, 8, 64, 3
    rows, e, h = b * n, d_in + 1, 2 * d
    p = SlotAttentionParams.create(engine.rng_for(0, "kept-slot"), n, d_in, d, iterations=iters)
    x = Value(engine.normal(engine.rng_for(1, "kept-slot"), (b, m, d_in)), requires_grad=x_grad)
    # X = [xhat | 1] both ways round, the inputs' 1/std, the returned mask
    reads = [(b, m, e), (b, e, m), (b * m, 1), (b, m, n)]
    # the folded weights: q_fold, wqk, k_fold, v_fold, vx, [wz|wr|wh], [uz|ur], the biases, the query scale
    reads += [(d, e), (d, e), (e, d), (e, d), (e, 3 * d), (d, 3 * d), (d, 2 * d), (3 * d,), (d, 1)]
    step = [(rows, d), (rows, d), (rows, 1), (rows, e), (b, n, m), (b, n, 1),  # state, slot norm, read, attention
            (rows, 2 * d), (rows, d), (rows, d),  # the gated update's gates, r*h and candidate
            (rows, d), (rows, 1), (rows, h), (rows, h)]  # the MLP's normalized rows, 1/std, activation, sigmoid
    if x_grad:
        step += [(b, n, e), (b, n, m)]  # the queries and the weights, for the inputs' adjoint
    reads += step * iters
    temp = np.float32(1.0 / np.sqrt(d))
    return (lambda: engine.slot_attention(x, p.slots, p, iters, temp)), reads


CASES = {
    "residual_mlp": _mlp,
    # the stage-1 decoder's side: 256 positions over 8 slots of width 64
    "cross-inputs-side": lambda: _cross(4, 256, 8, 64, 1, True),
    "cross-inputs-side-shared-rows": lambda: _cross(4, 256, 8, 64, 1, True, shared=True),
    # the query transformer's side: 8 queries in 4 heads over 256 tokens of width 32
    "cross-query-side-no-input-grad": lambda: _cross(16, 8, 256, 32, 4, False),
    "cross-query-side": lambda: _cross(16, 8, 256, 32, 4, True),
    "slot_attention-slow": lambda: _slot(False),
    "slot_attention-inputs-grad": lambda: _slot(True),
}


@pytest.mark.parametrize("case", list(CASES))
def test_node_keeps_only_what_its_backward_reads(case):
    build, reads = CASES[case]()
    kept, want = _kept(build), _bytes(reads)
    assert want <= kept <= want + HEADER * len(reads) + OBJECTS, f"{case}: keeps {kept} bytes, reads {want}"
