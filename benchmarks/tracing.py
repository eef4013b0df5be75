"""Outside-in span tracer over slotvid's public functions.

The tracer changes nothing under ``src/``: it replaces each traced function
with a timing wrapper in every ``slotvid`` namespace that holds it, because
modules import names with ``from .x import y`` and a wrapper installed in
one namespace would silently miss calls made through another. Every patched
name is put back on exit and checked to be the original object again.

Each span records its self time (its duration minus the time of the spans
it encloses) under the current phase: ``setup`` (config, model build,
checkpoint I/O, cache warm-up), ``timed`` (the measured operations) and
``teardown`` (final checkpoint write, frozen-parameter check).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name). "Class.method" attributes patch the class.
SPANS = (
    ("slotvid.engine", "backward", "engine.backward"),
    ("slotvid.engine", "adam_update", "engine.adam_update"),
    ("slotvid.engine", "clip_global_norm", "engine.clip_global_norm"),
    ("slotvid.engine", "zero_grads", "engine.zero_grads"),
    ("slotvid.slot_attention", "forward_batch", "slot_attention.forward_batch"),
    ("slotvid.decoder", "decode_batch", "decoder.decode_batch"),
    ("slotvid.decoder", "recon_loss", "decoder.recon_loss"),
    ("slotvid.connector", "connect_batch", "connector.connect_batch"),
    ("slotvid.connector", "slow_branch_batch", "connector.slow_branch_batch"),
    ("slotvid.connector", "fast_branch_batch", "connector.fast_branch_batch"),
    ("slotvid.baselines", "slowfast_wrap", "baselines.slowfast_wrap"),
    ("slotvid.baselines", "wrap_slow_batch", "baselines.wrap_slow_batch"),
    ("slotvid.baselines", "wrap_fast_batch", "baselines.wrap_fast_batch"),
    ("slotvid.baselines", "query_transformer_batch", "baselines.query_transformer_batch"),
    ("slotvid.synthetic", "SceneStream.scene", "synthetic.scene"),
    ("slotvid.synthetic", "gen_scene", "synthetic.gen_scene"),
    ("slotvid.synthetic", "make_scene_spec", "synthetic.make_scene_spec"),
    ("slotvid.metrics", "ari", "metrics.ari"),
    ("slotvid.metrics", "slot_overlap", "metrics.slot_overlap"),
    ("slotvid.metrics", "mask_entropy", "metrics.mask_entropy"),
    ("slotvid.metrics", "hard_assign", "metrics.hard_assign"),
    ("slotvid.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("slotvid.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
)

# Namespaces the workloads are known to call each function through. The scan
# finds every binding; this list makes a renamed or moved import fail loudly.
REQUIRED_BINDINGS = {
    "engine.backward": ("slotvid.training",),
    "engine.adam_update": ("slotvid.training",),
    "engine.clip_global_norm": ("slotvid.training",),
    "engine.zero_grads": ("slotvid.training",),
    "slot_attention.forward_batch": ("slotvid.connector", "slotvid.training"),
    "decoder.decode_batch": ("slotvid.training",),
    "decoder.recon_loss": ("slotvid.training",),
    "connector.connect_batch": ("slotvid.training",),
    "connector.slow_branch_batch": ("slotvid.connector", "slotvid.training"),
    "connector.fast_branch_batch": ("slotvid.connector", "slotvid.training"),
    "baselines.slowfast_wrap": ("slotvid.training",),
    "baselines.wrap_slow_batch": ("slotvid.baselines",),
    "baselines.wrap_fast_batch": ("slotvid.baselines",),
    "baselines.query_transformer_batch": ("slotvid.baselines",),
    "synthetic.gen_scene": ("slotvid.synthetic",),
    "synthetic.make_scene_spec": ("slotvid.synthetic",),
    "metrics.ari": ("slotvid.training",),
    "metrics.slot_overlap": ("slotvid.training",),
    "metrics.mask_entropy": ("slotvid.training",),
    "metrics.hard_assign": ("slotvid.training",),
    "checkpoint.save_checkpoint": ("slotvid.training",),
    "checkpoint.load_checkpoint": ("slotvid.training",),
}

# Spans whose time is reported per branch; the branch is read from the
# enclosing span, or is the workload's own branch when no parent names one
# (stage 1 calls slot attention directly).
SPLIT_BY_BRANCH = ("slot_attention.forward_batch", "baselines.query_transformer_batch")
BRANCH_OF_PARENT = {
    "connector.slow_branch_batch": "slow",
    "connector.fast_branch_batch": "fast",
    "baselines.wrap_slow_batch": "slow",
    "baselines.wrap_fast_batch": "fast",
}


def span_names() -> list:
    """Every span a traced run can record, with branch-split spans expanded."""
    out = []
    for _module, _attr, name in SPANS:
        if name in SPLIT_BY_BRANCH:
            out.extend((f"{name}.slow", f"{name}.fast"))
        else:
            out.append(name)
    return out


class TraceError(Exception):
    """A wrapper could not be installed or removed exactly."""


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def _bindings(original) -> list:
    """(namespace object, attribute) for every slotvid module global bound to ``original``."""
    found = []
    for mod_name, module in sorted(sys.modules.items()):
        if mod_name != "slotvid" and not mod_name.startswith("slotvid."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((module, attr))
    return found


class Tracer:
    """Collects per-phase self time, call counts and work counters for every span."""

    def __init__(self, default_branch: str):
        self.default_branch = default_branch
        self.phase = "setup"
        self.self_s = defaultdict(float)  # (phase, span) -> seconds
        self.calls = defaultdict(int)  # (phase, span) -> calls
        self.counts = defaultdict(float)  # (phase, counter) -> amount
        self._stack = []  # [span name, child seconds]
        self._patched = []  # (owner, attr, original)
        self._gen_scene_calls = 0

    # -- patching ------------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, name in SPANS:
                owner, leaf = _resolve(module_name, attr)
                original = getattr(owner, leaf)
                wrapper = self._wrap(name, original)
                targets = [(owner, leaf)]
                if not isinstance(owner, type):
                    targets = _bindings(original)
                    bound = {mod.__name__ for mod, _ in targets}
                    missing = [m for m in REQUIRED_BINDINGS.get(name, ()) if m not in bound]
                    if missing:
                        raise TraceError(f"{name}: not bound in {missing}; the wrapper would miss calls")
                for target, target_attr in targets:
                    setattr(target, target_attr, wrapper)
                    self._patched.append((target, target_attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put back every patched name and check each is the original object again."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        wrong = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patched
                 if getattr(o, a) is not orig]
        self._patched = []
        if wrong:
            raise TraceError(f"names not restored: {wrong}")

    # -- recording -----------------------------------------------------------------

    def _branch(self) -> str:
        for span, _child in reversed(self._stack):
            branch = BRANCH_OF_PARENT.get(span)
            if branch is not None:
                return branch
        return self.default_branch

    def _wrap(self, name: str, fn):
        tracer = self
        split = name in SPLIT_BY_BRANCH
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = f"{name}.{tracer._branch()}" if split else name
            frame = [span, 0.0]
            stack = tracer._stack
            stack.append(frame)
            gen_before = tracer._gen_scene_calls
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                key = (tracer.phase, span)
                tracer.self_s[key] += elapsed - frame[1]
                tracer.calls[key] += 1
            tracer._count(name, span, args, kwargs, gen_before)
            return out

        return wrapper

    def _count(self, name: str, span: str, args, kwargs, gen_before: int) -> None:
        phase = self.phase
        if name == "synthetic.gen_scene":
            self._gen_scene_calls += 1
        elif name == "synthetic.scene":
            self.counts[(phase, "synthetic.scene.hits")] += self._gen_scene_calls == gen_before
        elif name == "slot_attention.forward_batch":
            inputs = args[0] if args else kwargs["inputs"]
            self.counts[(phase, f"{span}.tokens")] += inputs.shape[0] * inputs.shape[1]
        elif name == "checkpoint.save_checkpoint":
            path = args[1] if len(args) > 1 else kwargs["path"]
            self.counts[(phase, "checkpoint.bytes")] += os.path.getsize(path)
        elif name == "checkpoint.load_checkpoint":
            path = args[0] if args else kwargs["path"]
            self.counts[(phase, "checkpoint.bytes")] += os.path.getsize(path)

    # -- reporting -----------------------------------------------------------------

    def layer_metrics(self, ops: int, op_seconds: float, reps: int) -> dict:
        """Per-layer values for ``ops`` timed operations spanning ``op_seconds`` over ``reps`` reps."""
        out = {}
        attributed = 0.0
        for span in span_names():
            seconds = self.self_s[("timed", span)]
            attributed += seconds
            if not span.startswith("checkpoint."):  # reported per rep of setup below
                out[f"{span}.s_per_step"] = seconds / ops
        for branch in ("slow", "fast"):
            tokens = self.counts[("timed", f"slot_attention.forward_batch.{branch}.tokens")]
            out[f"slot_attention.forward_batch.{branch}.tokens_per_step"] = tokens / ops
        scene_calls = self.calls[("timed", "synthetic.scene")]
        hits = self.counts[("timed", "synthetic.scene.hits")]
        out["synthetic.scene.hit_ratio"] = hits / scene_calls if scene_calls else 0.0
        out["synthetic.gen_scene.setup_s"] = self.self_s[("setup", "synthetic.gen_scene")] / reps
        out["checkpoint.save_checkpoint.s"] = self.self_s[("setup", "checkpoint.save_checkpoint")] / reps
        out["checkpoint.load_checkpoint.s"] = self.self_s[("setup", "checkpoint.load_checkpoint")] / reps
        out["checkpoint.bytes"] = self.counts[("setup", "checkpoint.bytes")] / reps
        out["training.unattributed.s_per_step"] = (op_seconds - attributed) / ops
        out["trace.step_mean_s"] = op_seconds / ops
        return out

    def coverage_errors(self, timed_spans, setup_spans, hit_ratio: float, layer: dict) -> list:
        """Differences between the predicted and the observed span activity."""
        errors = []
        for span in span_names():
            calls = self.calls[("timed", span)]
            if span in timed_spans and calls == 0:
                errors.append(f"{span}: predicted to run in the timed phase but has 0 calls")
            if span not in timed_spans and calls != 0:
                errors.append(f"{span}: predicted 0 calls in the timed phase but has {calls}")
        for span in ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint", "synthetic.gen_scene"):
            calls = self.calls[("setup", span)]
            if (span in setup_spans) != (calls > 0):
                errors.append(f"{span}: predicted {'some' if span in setup_spans else 0} "
                              f"setup calls, observed {calls}")
        if layer["synthetic.scene.hit_ratio"] != hit_ratio:
            errors.append(f"synthetic.scene.hit_ratio is {layer['synthetic.scene.hit_ratio']}, "
                          f"predicted {hit_ratio}")
        if layer["training.unattributed.s_per_step"] < 0.0:
            errors.append("span self times exceed the step time: a span is counted twice")
        return errors
