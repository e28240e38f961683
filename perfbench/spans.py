"""Span tracing of streetbeam from the outside.

The tracer wraps the public entry points of each streetbeam module (its
layers) without editing the package: module-level functions are replaced
in every streetbeam module namespace that holds them, because the pipeline
binds layer functions by name at import time, and `nn` / `predictor` /
`featsel` classes are wrapped at class level. Each call records one span
(name, start, end, parent) in memory; counters are taken at the same
boundaries. `uninstall` restores every original attribute.
"""

import bisect
import functools
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("scene", "channel", "beams", "semantics", "dataset", "checkpoint",
          "nn", "predictor", "featsel", "pipeline", "cli")

# module -> public functions whose calls become spans
FUNCTIONS = {
    "scene": ("generate_scenario",),
    "channel": ("trace_paths", "assemble_channel"),
    "beams": ("dft_codebook", "optimal_beam", "topg_accuracy", "trr"),
    "semantics": ("render_frame",),
    "dataset": ("write_container", "read_container"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "predictor": ("train", "predict", "accuracy", "mask_channels", "split_indices"),
    "featsel": ("sffs", "inclusion_step", "exclusion_step", "write_trace"),
    "pipeline": ("generate_dataset", "cmd_generate", "training_evaluator",
                 "cmd_select", "cmd_train", "cmd_eval", "cmd_report"),
    "cli": ("main",),
}

# module -> {class: methods}
METHODS = {
    "nn": {**{cls: ("forward", "backward") for cls in
              ("Dense", "ReLU", "BatchNorm", "Conv2d", "AvgPool", "Dropout",
               "Flatten", "Sequential", "ResidualBlock")},
           "Adam": ("step",)},
    "predictor": {"Predictor": ("init", "forward", "backward")},
    "featsel": {"CachedEvaluator": ("__call__",)},
}


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


class Tracer:
    """Records spans while installed. Single-threaded, like the pipeline."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = defaultdict(float)
        self.seen = {}           # evaluator id -> call count already counted
        self._stack = []
        self._patched = []       # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Run fn under a span; returns (result, span index)."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs), idx
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def add_ticks(self, intervals):
        """Record (start, end) intervals of the speed probe, which runs from a
        signal handler and so never touches the tracer itself, as spans under
        the innermost span open across each, keeping their time out of
        program self times. Call once, after the traced passes."""
        starts = [rec[1] for rec in self.spans]
        for ts, te in intervals:
            p = bisect.bisect_right(starts, ts) - 1
            # a span open across the tick started before it: it is the last
            # span started before the tick or one of that span's ancestors
            while p >= 0 and self.spans[p][2] < te:
                p = self.spans[p][3]
            self.spans.append(["bench.probe", ts, te, p])

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, idx = tracer.span(name, fn, *args, **kwargs)
            if after is not None:
                after(tracer, idx, result, args)
            return result
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        import streetbeam  # noqa: F401  (the package must be importable)
        mods = {name: sys.modules[f"streetbeam.{name}"] for name in FUNCTIONS}
        for name in METHODS:
            mods[name] = sys.modules[f"streetbeam.{name}"]
        namespaces = [m for k, m in sys.modules.items()
                      if k == "streetbeam" or k.startswith("streetbeam.")]
        for layer, funcs in FUNCTIONS.items():
            for fname in funcs:
                orig = getattr(mods[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig, _AFTER.get(f"{layer}.{fname}"))
                for ns in namespaces:  # rebind wherever a caller looks it up
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            self._patched.append((ns, attr, orig))
                            setattr(ns, attr, wrapper)
        for layer, classes in METHODS.items():
            for cname, meths in classes.items():
                cls = getattr(mods[layer], cname)
                for meth in meths:
                    orig = cls.__dict__[meth]
                    full = f"{layer}.{cname}.{meth}"
                    self._patched.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(full, orig, _AFTER.get(full)))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


# -- counters taken at span boundaries -----------------------------------
# Each takes (tracer, span index, result, positional args) after a call.

def _count(key, value_of):
    def after(tracer, idx, result, args):
        tracer.counts[key] += value_of(result, args)
    return after


def _conv_flops(conv, out_shape):
    n, c_out, oh, ow = out_shape
    return 2.0 * n * c_out * oh * ow * conv.c_in * conv.k * conv.k


def _trr_skip(tracer, idx, result, args):
    """An optimal-beam search inside TRR whose best rate is zero is a
    sample TRR excludes (a full outage)."""
    parent = tracer.spans[idx][3]
    if (parent >= 0 and tracer.spans[parent][0] == "beams.trr"
            and result.rates[result.optimal_index] <= 0):
        tracer.counts["beams.trr_skipped"] += 1


def _evaluator_call(tracer, idx, result, args):
    """A lookup is a miss when the evaluator's own call count grew."""
    ev = args[0]
    tracer.counts["featsel.lookups"] += 1
    grown = ev.call_count - tracer.seen.get(id(ev), 0)
    if grown:
        tracer.seen[id(ev)] = ev.call_count
        _, start, end, _ = tracer.spans[idx]
        tracer.counts["featsel.evaluator_calls"] += grown
        tracer.counts["featsel.miss_s"] += end - start


_AFTER = {
    "scene.generate_scenario": _count("scene.frames", lambda r, a: len(r)),
    "semantics.render_frame": _count("semantics.maps", lambda r, a: len(r)),
    "beams.optimal_beam": _trr_skip,
    "dataset.write_container": _count("dataset.bytes", lambda r, a: _dir_bytes(a[0])),
    "dataset.read_container": _count("dataset.bytes", lambda r, a: _dir_bytes(a[0])),
    "checkpoint.save_checkpoint": _count("checkpoint.bytes",
                                         lambda r, a: os.path.getsize(a[0])),
    "checkpoint.load_checkpoint": _count("checkpoint.bytes",
                                         lambda r, a: os.path.getsize(a[0])),
    "nn.Conv2d.forward": _count("nn.Conv2d.flop",
                                lambda r, a: _conv_flops(a[0], r[0].shape)),
    # backward computes dW and dcols: twice the forward multiply-adds
    "nn.Conv2d.backward": _count("nn.Conv2d.flop",
                                 lambda r, a: 2 * _conv_flops(a[0], a[1].shape)),
    "predictor.train": _count("predictor.epochs", lambda r, a: a[3].epochs),
    "featsel.CachedEvaluator.__call__": _evaluator_call,
}


# -- aggregation -----------------------------------------------------------

def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Duration minus the time covered by direct children, per span."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _) in enumerate(spans)]


def span_cost(n=20000):
    """Wall seconds one wrapped call adds, measured on a no-op function."""
    def noop():
        return None
    wrapped = Tracer()._wrap("bench.noop", noop)
    t = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t
    t = time.perf_counter()
    for _ in range(n):
        wrapped()
    return max(time.perf_counter() - t - bare, 0.0) / n


def per_layer_metrics(tracer, passes, import_s, overhead_s, overhead_est_s, spans_per_pass):
    """Per-layer figures per traced pass, keyed as in BENCHMARK.json."""
    spans = tracer.spans
    selfs = self_times(spans)
    c = tracer.counts
    total = defaultdict(float)     # by span name, all spans
    self_by = defaultdict(float)   # by span name
    lay_total = defaultdict(float)
    lay_self = defaultdict(float)
    lay_calls = defaultdict(int)
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        total[name] += dur
        self_by[name] += selfs[i]
        layer = layer_of(name)
        if layer not in LAYERS:
            continue
        lay_self[layer] += selfs[i]
        lay_calls[layer] += 1
        # a layer's total counts only its outermost spans
        p = parent
        while p >= 0 and layer_of(spans[p][0]) != layer:
            p = spans[p][3]
        if p < 0:
            lay_total[layer] += dur

    # epoch time: train span minus its final validation pass
    val_in_train = sum(end - start for name, start, end, parent in spans
                       if name == "predictor.accuracy" and parent >= 0
                       and spans[parent][0] == "predictor.train")
    epochs = c["predictor.epochs"]
    conv_s = total["nn.Conv2d.forward"] + total["nn.Conv2d.backward"]
    lookups = c["featsel.lookups"]
    ev_calls = c["featsel.evaluator_calls"]

    n = float(passes)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.total_s"] = (lay_total[layer] / n, "s")
        m[f"{layer}.self_s"] = (lay_self[layer] / n, "s")
        m[f"{layer}.calls"] = (lay_calls[layer] / n, "count")
    m["semantics.render_frame_s"] = (total["semantics.render_frame"] / n, "s")
    m["semantics.maps"] = (c["semantics.maps"] / n, "count")
    m["semantics.ms_per_map"] = (1e3 * total["semantics.render_frame"] / c["semantics.maps"]
                                 if c["semantics.maps"] else 0.0, "ms")
    m["channel.trace_paths_s"] = (total["channel.trace_paths"] / n, "s")
    m["channel.assemble_channel_s"] = (total["channel.assemble_channel"] / n, "s")
    m["beams.optimal_beam_s"] = (total["beams.optimal_beam"] / n, "s")
    m["beams.trr_s"] = (total["beams.trr"] / n, "s")
    m["beams.trr_skipped"] = (c["beams.trr_skipped"] / n, "count")
    m["scene.generate_scenario_s"] = (total["scene.generate_scenario"] / n, "s")
    m["scene.frames"] = (c["scene.frames"] / n, "count")
    m["dataset.write_s"] = (total["dataset.write_container"] / n, "s")
    m["dataset.read_s"] = (total["dataset.read_container"] / n, "s")
    m["dataset.bytes"] = (c["dataset.bytes"] / n, "B")
    m["checkpoint.save_s"] = (total["checkpoint.save_checkpoint"] / n, "s")
    m["checkpoint.load_s"] = (total["checkpoint.load_checkpoint"] / n, "s")
    m["checkpoint.bytes"] = (c["checkpoint.bytes"] / n, "B")
    for cls in ("Conv2d", "BatchNorm", "AvgPool", "Dense", "ResidualBlock"):
        for meth in ("forward", "backward"):
            m[f"nn.{cls}.{meth}_s"] = (total[f"nn.{cls}.{meth}"] / n, "s")
    m["nn.Conv2d.gflop"] = (c["nn.Conv2d.flop"] / 1e9 / n, "GFLOP")
    m["nn.Conv2d.gflop_per_s"] = (c["nn.Conv2d.flop"] / 1e9 / conv_s if conv_s else 0.0,
                                  "GFLOP/s")
    m["nn.Sequential.self_s"] = ((self_by["nn.Sequential.forward"]
                                  + self_by["nn.Sequential.backward"]) / n, "s")
    m["nn.ResidualBlock.self_s"] = ((self_by["nn.ResidualBlock.forward"]
                                     + self_by["nn.ResidualBlock.backward"]) / n, "s")
    m["nn.Adam.step_s"] = (total["nn.Adam.step"] / n, "s")
    m["predictor.train_s"] = (total["predictor.train"] / n, "s")
    m["predictor.epoch_s"] = ((total["predictor.train"] - val_in_train) / epochs
                              if epochs else 0.0, "s")
    m["predictor.mask_channels_s"] = (total["predictor.mask_channels"] / n, "s")
    m["predictor.predict_s"] = (total["predictor.predict"] / n, "s")
    m["featsel.evaluator_calls"] = (ev_calls / n, "count")
    m["featsel.lookups"] = (lookups / n, "count")
    m["featsel.cache_hit_ratio"] = (1 - ev_calls / lookups if lookups else 0.0, "ratio")
    m["featsel.eval_call_s"] = (c["featsel.miss_s"] / ev_calls if ev_calls else 0.0, "s")
    m["cli.import_s"] = (import_s, "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.overhead_est_s"] = (overhead_est_s, "s")
    m["trace.spans"] = (spans_per_pass, "count")
    return m, self_by


def hot_spots(self_by, k=3):
    """Top-k span names by self time, program layers only."""
    ranked = sorted(((s, name) for name, s in self_by.items()
                     if layer_of(name) in LAYERS), reverse=True)
    return [(name, s) for s, name in ranked[:k]]
