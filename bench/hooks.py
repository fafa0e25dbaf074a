"""Hooks and spans for the ganevo benchmark.

Hooks bind by name when a run starts: each target is looked up among the
`ganevo.*` modules ("train_pair", "LinearLayer.forward"), wherever it is
defined, and every module attribute that refers to it is replaced for the
life of this process only.  A target that no module defines is reported as
missing; the metrics that depend on it are left out of the result rather than
read as zero.  Nothing under src/ is changed.

A span records its name, start, end and parent.  Spans stay in memory and are
written out when the run ends; per-layer metrics are aggregated from them.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import os
import pkgutil
import statistics
import time


def ganevo_modules() -> list:
    import ganevo

    modules = [ganevo]
    for info in pkgutil.walk_packages(ganevo.__path__, "ganevo."):
        modules.append(importlib.import_module(info.name))
    return modules


def find(modules, qualname: str):
    """(owner, attribute, object) for a function or method defined in ganevo.

    `qualname` is "function" or "Class.method".  Only definitions count: a
    name a module merely imports is skipped, so a function that moves to
    another module is still found under its own name.
    """
    head, _, method = qualname.partition(".")
    for mod in modules:
        obj = mod.__dict__.get(head)
        if obj is None or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if not method:
            return mod, head, obj
        if isinstance(obj, type) and callable(obj.__dict__.get(method)):
            return obj, method, obj.__dict__[method]
    return None


class Patcher:
    """Replaces hook targets in place and puts the originals back."""

    def __init__(self, modules):
        self.modules = modules
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, qualname: str, make_wrapper) -> bool:
        found = find(self.modules, qualname)
        if found is None:
            self.missing.append(qualname)
            return False
        owner, attr, original = found
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self.replace(owner, attr, wrapper)
            return True
        # a function is also reachable through every module that imported it
        for mod in self.modules:
            for name, value in list(mod.__dict__.items()):
                if value is original:
                    self.replace(mod, name, wrapper)
        return True

    def patch_data_sources(self, make_wrapper) -> int:
        """Every ganevo class that defines next_batch (the data sources)."""
        count = 0
        for mod in self.modules:
            for obj in list(mod.__dict__.values()):
                if (isinstance(obj, type) and obj.__module__ == mod.__name__
                        and callable(obj.__dict__.get("next_batch"))):
                    self.replace(obj, "next_batch", make_wrapper(obj.__dict__["next_batch"]))
                    count += 1
        if count == 0:
            self.missing.append("<data source>.next_batch")
        return count

    def replace(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# -- spans --------------------------------------------------------------------

NAME, START, END, PARENT, CHILD, INFO = range(6)


class Recorder:
    """In-memory span list: [name, start_ns, end_ns, parent, child_ns, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, label, after=None):
        """Span around fn; `label` is a name or a function of the call args;
        `after(args, kwargs, result)` may return computed info stored on the span."""
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label if isinstance(label, str) else label(args)
            parent = stack[-1] if stack else -1
            span = [name, 0, 0, parent, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = end = now()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - span[START]
            if after is not None:
                span[INFO] = after(args, kwargs, result)
            return result

        return traced


# -- computed sizes -------------------------------------------------------------
#
# MACs and bytes come from the shapes of each call, never from timing.  Bytes
# count float32 operands read and results written once each, including the
# im2col / col2im column buffer of the convolutions.

def _nbytes(*arrays) -> int:
    return sum(int(a.nbytes) for a in arrays)


def linear_fwd(args, kwargs, y):
    layer, x = args[0], args[1]
    w = layer.entry.weights
    n = x.shape[0]
    return (("linear", "fwd", n, tuple(x.shape[1:])), n * w.size,
            _nbytes(x, w, layer.entry.bias, y))


def linear_bwd(args, kwargs, dx):
    layer, dy = args[0], args[1]
    w = layer.entry.weights
    n = dy.shape[0]
    # grad_w += dy^T x and dx = dy W: two GEMMs of the forward's size
    return (("linear", "bwd", n, tuple(dx.shape[1:])), 2 * n * w.size,
            _nbytes(dy, w, dx) + 2 * int(w.nbytes) + n * w.shape[1] * 4)


def conv_fwd(args, kwargs, y):
    layer, x = args[0], args[1]
    w = layer.entry.weights
    n, out_c, oh, ow = y.shape
    k_elems = w.size // out_c  # in_c * k * k
    cols = n * k_elems * oh * ow * 4
    return (("conv", "fwd", n, tuple(x.shape[1:])), n * out_c * oh * ow * k_elems,
            _nbytes(x, w, y) + 2 * cols)


def conv_bwd(args, kwargs, dx):
    layer, dy = args[0], args[1]
    w = layer.entry.weights
    n, out_c, oh, ow = dy.shape
    k_elems = w.size // out_c
    cols = n * k_elems * oh * ow * 4
    # reads the cached columns, writes and scatters the column gradient
    return (("conv", "bwd", n, tuple(dx.shape[1:])), 2 * n * out_c * oh * ow * k_elems,
            _nbytes(dy, w, dx) + int(w.nbytes) + 3 * cols)


def tconv_fwd(args, kwargs, y):
    layer, x = args[0], args[1]
    w = layer.entry.weights
    n, in_c, h, wd = x.shape
    f = w.size // in_c  # out_c * k * k
    cols = n * f * h * wd * 4
    return (("tconv", "fwd", n, tuple(x.shape[1:])), n * h * wd * in_c * f,
            _nbytes(x, w, y) + 2 * cols)


def tconv_bwd(args, kwargs, dx):
    layer, dy = args[0], args[1]
    w = layer.entry.weights
    n, in_c, h, wd = dx.shape
    f = w.size // in_c
    cols = n * f * h * wd * 4
    return (("tconv", "bwd", n, tuple(dx.shape[1:])), 2 * n * h * wd * in_c * f,
            _nbytes(dy, w, dx) + int(w.nbytes) + n * in_c * h * wd * 4 + 2 * cols)


def _entry_bytes(entry) -> int:
    return _nbytes(entry.weights, entry.bias, entry.m_w, entry.v_w, entry.m_b, entry.v_b)


def build_sizes(args, kwargs, result):
    """(copied bytes, fresh bytes) of a built network's parameter store."""
    parent = args[2] if len(args) > 2 else kwargs.get("parent_store")
    _, store = result
    copied = fresh = 0
    for key, entry in store.entries.items():
        if parent is not None and parent.get(key) is not None:
            copied += _entry_bytes(entry)
        else:
            fresh += _entry_bytes(entry)
    return copied, fresh


def checkpoint_size(args, kwargs, ckpt_dir):
    return sum(os.path.getsize(os.path.join(ckpt_dir, f)) for f in os.listdir(ckpt_dir))


# -- hook table -------------------------------------------------------------------

def _act_label(direction):
    return lambda args: f"backend.act.{args[0].name}.{direction}"


# (span name or label function, target, computed info)
HOOKS = [
    ("backend.linear.fwd", "LinearLayer.forward", linear_fwd),
    ("backend.linear.bwd", "LinearLayer.backward", linear_bwd),
    ("backend.conv.fwd", "ConvLayer.forward", conv_fwd),
    ("backend.conv.bwd", "ConvLayer.backward", conv_bwd),
    ("backend.tconv.fwd", "ConvTransposeLayer.forward", tconv_fwd),
    ("backend.tconv.bwd", "ConvTransposeLayer.backward", tconv_bwd),
    (_act_label("fwd"), "ActivationOp.forward", None),
    (_act_label("bwd"), "ActivationOp.backward", None),
    ("backend.head.sigmoid.fwd", "SigmoidHead.forward", None),
    ("backend.head.sigmoid.bwd", "SigmoidHead.backward", None),
    ("backend.glue", "ReshapePadOp.forward", None),
    ("backend.glue", "ReshapePadOp.backward", None),
    ("backend.glue", "CropOp.forward", None),
    ("backend.glue", "CropOp.backward", None),
    ("backend.glue", "SqueezeOp.forward", None),
    ("backend.glue", "SqueezeOp.backward", None),
    ("backend.zero_grads", "NetworkInstance.zero_grads", None),
    ("backend.adam", "adam_step", None),
    ("backend.build", "build_network", build_sizes),
    ("gan.train_pair", "train_pair", None),
    ("gan.noise", "NoiseSource.sample", None),
    ("gan.generate_samples", "generate_samples", None),
    ("fitness.fid", "fid", None),
    ("fitness.embed", "Embedding.__call__", None),
    ("fitness.estimate_gaussian", "estimate_gaussian", None),
    ("fitness.frechet", "frechet_distance", None),
    ("fitness.rmse", "rmse_metric", None),
    ("fitness.assign", "assign_fitness", None),
    ("variation.speciate", "speciate", None),
    ("variation.next_generation", "next_generation", None),
    ("variation.mutate", "mutate", None),
    # mutate() wraps mutate_with_events(); the inner span folds into the
    # outer one, and the count survives if mutate() is folded away
    ("variation.mutate", "mutate_with_events", None),
    ("genome.infer_shapes", "infer_shapes", None),
    ("coevolution.generation", "run_generation", None),
    ("experiment.checkpoint_write", "write_checkpoint", checkpoint_size),
    ("experiment.checkpoint_read", "read_checkpoint", None),
    ("experiment.append_metrics", "append_metrics", None),
    ("experiment.idx_load", "load_idx_dataset", None),
    ("experiment.dump_samples", "dump_samples", None),
]

ACTIVATIONS = ("relu", "leaky_relu", "elu", "sigmoid", "tanh")

MS, COUNT = "ms", "count"

# Per-layer metrics: name -> (unit, target whose hook it needs).  Times and
# counts are per steady generation unless the name says otherwise.
PER_LAYER: dict[str, tuple[str, str]] = {}
for _op, _target in (("linear", "LinearLayer"), ("conv", "ConvLayer"),
                     ("tconv", "ConvTransposeLayer")):
    PER_LAYER.update({
        f"backend.{_op}.fwd_ms": (MS, f"{_target}.forward"),
        f"backend.{_op}.bwd_ms": (MS, f"{_target}.backward"),
        f"backend.{_op}.calls": (COUNT, f"{_target}.forward"),
        f"backend.{_op}.gmac": ("GMAC", f"{_target}.forward"),
        f"backend.{_op}.mb": ("MB", f"{_target}.forward"),
    })
for _act in ACTIVATIONS:
    PER_LAYER[f"backend.act.{_act}.fwd_ms"] = (MS, "ActivationOp.forward")
    PER_LAYER[f"backend.act.{_act}.bwd_ms"] = (MS, "ActivationOp.backward")
PER_LAYER.update({
    "backend.head.sigmoid.fwd_ms": (MS, "SigmoidHead.forward"),
    "backend.head.sigmoid.bwd_ms": (MS, "SigmoidHead.backward"),
    "backend.glue_ms": (MS, "ReshapePadOp.forward"),
    "backend.zero_grads_ms": (MS, "NetworkInstance.zero_grads"),
    "backend.adam_ms": (MS, "adam_step"),
    "backend.adam.calls": (COUNT, "adam_step"),
    "backend.build_ms": (MS, "build_network"),
    "backend.build.copied_mb": ("MB", "build_network"),
    "backend.build.fresh_mb": ("MB", "build_network"),
    "gan.train_pair.calls": (COUNT, "train_pair"),
    "gan.train_pair.self_ms": (MS, "train_pair"),
    "gan.noise_ms": (MS, "NoiseSource.sample"),
    "gan.generate_samples_ms": (MS, "generate_samples"),
    "fitness.fid_ms": (MS, "fid"),
    "fitness.embed_ms": (MS, "Embedding.__call__"),
    "fitness.estimate_gaussian_ms": (MS, "estimate_gaussian"),
    "fitness.frechet_ms": (MS, "frechet_distance"),
    "fitness.rmse_ms": (MS, "rmse_metric"),
    "fitness.assign_ms": (MS, "assign_fitness"),
    "variation.speciate_ms": (MS, "speciate"),
    "variation.next_generation_ms": (MS, "next_generation"),
    "variation.mutate.calls": (COUNT, "mutate_with_events"),
    "genome.infer_shapes_ms": (MS, "infer_shapes"),
    "genome.infer_shapes.calls": (COUNT, "infer_shapes"),
    "coevolution.first_gen_ms": (MS, "run_generation"),
    "coevolution.generation_ms": (MS, "run_generation"),
    "coevolution.generation.self_ms": (MS, "run_generation"),
    "coevolution.phase.build_ms": (MS, "train_pair"),
    "coevolution.phase.bouts_ms": (MS, "train_pair"),
    "coevolution.phase.eval_ms": (MS, "speciate"),
    "coevolution.phase.select_ms": (MS, "speciate"),
    "coevolution.phase.checkpoint_ms": (MS, "run_generation"),
    "experiment.checkpoint_write_ms": (MS, "write_checkpoint"),
    "experiment.append_metrics_ms": (MS, "append_metrics"),
    "experiment.checkpoint_bytes": ("B", "write_checkpoint"),
    "experiment.checkpoint_read_ms": (MS, "read_checkpoint"),
    "experiment.idx_load_ms": (MS, "load_idx_dataset"),
    "experiment.next_batch_ms": (MS, "<data source>.next_batch"),
    "experiment.dump_samples_ms": (MS, "dump_samples"),
    "trace.gen_ms": (MS, "run_generation"),
    "trace.overhead": ("ratio", "run_generation"),
})


def install(patcher: Patcher, recorder: Recorder) -> None:
    for label, target, info in HOOKS:
        patcher.patch(target, lambda fn, label=label, info=info: recorder.wrap(fn, label, info))
    patcher.patch_data_sources(lambda fn: recorder.wrap(fn, "experiment.next_batch"))


# -- aggregation ------------------------------------------------------------------

def per_layer(spans, boundaries_ns: list[int], untraced: list[float],
              missing: list[str]) -> tuple[dict, dict]:
    """Per-layer metrics over the steady generations of a traced segment.

    `boundaries_ns` are the generation starts of the traced segment plus the
    time the loop stopped; its first generation is excluded as warm-up.
    `untraced` holds the generation times (s) of the untraced segment that
    preceded it, first generation included.  Returns (metrics, shape record).
    """
    lo, hi = boundaries_ns[1], boundaries_ns[-1]
    steady = len(boundaries_ns) - 2
    total: dict[str, int] = {}
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    gmac: dict[str, float] = {}
    mbytes: dict[str, float] = {}
    shapes: dict[tuple, list] = {}
    built = [0, 0]
    ckpt_bytes = []
    once: dict[str, list[int]] = {}
    for span in spans:
        name, start, end, parent = span[NAME], span[START], span[END], span[PARENT]
        dur = end - start
        if name in ("experiment.checkpoint_read", "experiment.idx_load",
                    "experiment.dump_samples"):
            once.setdefault(name, []).append(dur)
            continue
        if not lo <= start < hi:
            continue
        # a span nested in one of its own name (a wrapped data source) is
        # already inside the outer one's time
        if parent >= 0 and spans[parent][NAME] == name:
            continue
        total[name] = total.get(name, 0) + dur
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + dur - span[CHILD]
        info = span[INFO]
        if info is None:
            continue
        if name == "backend.build":
            built[0] += info[0]
            built[1] += info[1]
        elif name == "experiment.checkpoint_write":
            ckpt_bytes.append(info)
        else:
            key, macs, nbytes = info
            op = name.rsplit(".", 1)[0]
            gmac[op] = gmac.get(op, 0.0) + macs / 1e9
            mbytes[op] = mbytes.get(op, 0.0) + nbytes / 1e6
            rec = shapes.setdefault(key, [0, 0, macs, nbytes])
            rec[0] += 1
            rec[1] += dur

    def ms(name):
        return total.get(name, 0) / 1e6 / steady

    m: dict[str, float] = {}
    for op in ("linear", "conv", "tconv"):
        base = f"backend.{op}"
        m[f"{base}.fwd_ms"] = ms(f"{base}.fwd")
        m[f"{base}.bwd_ms"] = ms(f"{base}.bwd")
        m[f"{base}.calls"] = calls.get(f"{base}.fwd", 0) / steady
        m[f"{base}.gmac"] = gmac.get(base, 0.0) / steady
        m[f"{base}.mb"] = mbytes.get(base, 0.0) / steady
    for act in ACTIVATIONS:
        m[f"backend.act.{act}.fwd_ms"] = ms(f"backend.act.{act}.fwd")
        m[f"backend.act.{act}.bwd_ms"] = ms(f"backend.act.{act}.bwd")
    m["backend.head.sigmoid.fwd_ms"] = ms("backend.head.sigmoid.fwd")
    m["backend.head.sigmoid.bwd_ms"] = ms("backend.head.sigmoid.bwd")
    m["backend.glue_ms"] = ms("backend.glue")
    m["backend.zero_grads_ms"] = ms("backend.zero_grads")
    m["backend.adam_ms"] = ms("backend.adam")
    m["backend.adam.calls"] = calls.get("backend.adam", 0) / steady
    m["backend.build_ms"] = ms("backend.build")
    m["backend.build.copied_mb"] = built[0] / 1e6 / steady
    m["backend.build.fresh_mb"] = built[1] / 1e6 / steady
    m["gan.train_pair.calls"] = calls.get("gan.train_pair", 0) / steady
    m["gan.train_pair.self_ms"] = self_ns.get("gan.train_pair", 0) / 1e6 / steady
    m["gan.noise_ms"] = ms("gan.noise")
    m["gan.generate_samples_ms"] = ms("gan.generate_samples")
    for part in ("fid", "embed", "estimate_gaussian", "frechet", "rmse", "assign"):
        m[f"fitness.{part}_ms"] = ms(f"fitness.{part}")
    m["variation.speciate_ms"] = ms("variation.speciate")
    m["variation.next_generation_ms"] = ms("variation.next_generation")
    m["variation.mutate.calls"] = calls.get("variation.mutate", 0) / steady
    m["genome.infer_shapes_ms"] = ms("genome.infer_shapes")
    m["genome.infer_shapes.calls"] = calls.get("genome.infer_shapes", 0) / steady
    m["coevolution.generation_ms"] = ms("coevolution.generation")
    m["coevolution.generation.self_ms"] = (
        self_ns.get("coevolution.generation", 0) / 1e6 / steady)
    m.update(phases(spans, boundaries_ns))
    m["experiment.checkpoint_write_ms"] = ms("experiment.checkpoint_write")
    m["experiment.append_metrics_ms"] = ms("experiment.append_metrics")
    m["experiment.checkpoint_bytes"] = float(ckpt_bytes[-1]) if ckpt_bytes else 0.0
    for name in ("experiment.checkpoint_read", "experiment.idx_load",
                 "experiment.dump_samples"):
        durs = once.get(name, [])
        m[f"{name}_ms"] = sum(durs) / len(durs) / 1e6 if durs else 0.0
    m["experiment.next_batch_ms"] = ms("experiment.next_batch")
    # a mean, like every time above, so the phases sum to it exactly
    m["trace.gen_ms"] = (hi - lo) / 1e6 / steady
    m["coevolution.first_gen_ms"] = untraced[0] * 1e3
    if len(untraced) > 1:
        m["trace.overhead"] = m["trace.gen_ms"] / (statistics.mean(untraced[1:]) * 1e3) - 1.0
    dropped = {name for name, (_, target) in PER_LAYER.items() if target in missing}
    metrics = {name: (value, PER_LAYER[name][0]) for name, value in m.items()
               if name in PER_LAYER and name not in dropped}
    shape_record = [
        {"op": key[0], "pass": key[1], "batch": key[2], "input_shape": list(key[3]),
         "calls_per_gen": rec[0] / steady, "ms_per_call": rec[1] / rec[0] / 1e6,
         "gmac_per_call": rec[2] / 1e9, "mb_per_call": rec[3] / 1e6}
        for key, rec in sorted(shapes.items())
    ]
    return metrics, shape_record


PHASES = ("build", "bouts", "eval", "select", "checkpoint")


def phases(spans, boundaries_ns: list[int]) -> dict[str, float]:
    """Phase split of the steady generations, in ms per generation.

    Landmarks inside a generation: its start -> first bout = build (network
    build and weight transfer); first bout start -> last bout end = bouts;
    -> first speciation = eval (FID / RMSE sampling); -> end of
    run_generation = select (speciation, reproduction, metrics record);
    -> next generation start = checkpoint (metrics append and checkpoint
    write).  The phases tile the generation, so they sum to its time.
    """
    steady = boundaries_ns[1:]
    marks = [dict() for _ in steady[1:]]
    for s in spans:
        name = s[NAME]
        if name not in ("coevolution.generation", "gan.train_pair", "variation.speciate"):
            continue
        i = bisect.bisect_right(steady, s[START]) - 1
        if not 0 <= i < len(marks):
            continue
        mark = marks[i]
        if name == "coevolution.generation":
            mark["end"] = s[END]
        elif name == "gan.train_pair":
            mark["b0"] = min(mark.get("b0", s[START]), s[START])
            mark["b1"] = max(mark.get("b1", s[END]), s[END])
        else:
            mark["s0"] = min(mark.get("s0", s[START]), s[START])
    sums = dict.fromkeys(PHASES, 0)
    counted = 0
    for begin, nxt, mark in zip(steady, steady[1:], marks):
        if len(mark) < 4:
            continue
        sums["build"] += mark["b0"] - begin
        sums["bouts"] += mark["b1"] - mark["b0"]
        sums["eval"] += mark["s0"] - mark["b1"]
        sums["select"] += mark["end"] - mark["s0"]
        sums["checkpoint"] += nxt - mark["end"]
        counted += 1
    if counted == 0:
        return {}
    return {f"coevolution.phase.{p}_ms": sums[p] / 1e6 / counted for p in PHASES}


def dump(path: str, spans, extra: dict) -> None:
    """Write the spans (name index, start/end in µs, parent) plus `extra`."""
    import json

    names: dict[str, int] = {}
    rows = []
    for s in spans:
        idx = names.setdefault(s[NAME], len(names))
        rows.append([idx, s[START] // 1000, s[END] // 1000, s[PARENT]])
    doc = dict(extra)
    doc["span_names"] = list(names)
    doc["spans"] = rows
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    os.replace(tmp, path)
