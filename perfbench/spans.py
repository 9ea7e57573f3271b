"""In-memory span tracing of diffden's public functions, patched from outside.

Each `Wrap` names the span it reports and the attributes it replaces while
a `Tracer` is installed.  An attribute is patched where its caller looks it
up: `bench` imports `train` and `score_mse` by name, so those are patched on
`diffden.bench`; methods are patched on their class.  A target that no
longer exists is skipped and its span reports 0 calls, so the benchmark
keeps running when a later change deletes or merges a function.  Only
public names are wrapped.

Spans (name, start, end, parent, cell, meta) stay in memory until the run
ends.  The cell is the (n, repetition) data group a span belongs to: it
advances whenever a `densities.sample` span opens directly under the
entry call, which both entry points do once per data draw.
"""

import functools
import importlib
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Batch sizes of the network passes on the workloads' paths: 100 (desk's
# full-batch n=100 cell), 128 (minibatches), 3000 (n_eval for sampling)
# and 4096 (score-MSE Monte Carlo points).
BATCHES = (100, 128, 3000, 4096)

_CELL_OPENER = "densities.sample"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _forward_flops(arch, batch):
    """2 * B * sum_i m_i d_i d_(i+1); the affine output layer has one replica."""
    replicas = tuple(arch.replicas) + (1,)
    widths = arch.widths
    return 2 * batch * sum(m * widths[i] * widths[i + 1]
                           for i, m in enumerate(replicas))


def _pass_meta(forwards):
    """Meta of a wsnn pass costing `forwards` forward passes: (B, flops)."""
    def meta(args, kwargs):
        arch = _arg(args, kwargs, 0, "arch")
        x = np.asarray(_arg(args, kwargs, 2, "x"))
        batch = x.shape[0] if x.ndim == 2 else 1
        return batch, forwards * _forward_flops(arch, batch)
    return meta


def _steps_meta(index, name, field):
    def meta(args, kwargs):
        value = _arg(args, kwargs, index, name)
        return getattr(value, field) if field else int(value)
    return meta


@dataclass(frozen=True)
class Wrap:
    span: str
    targets: tuple          # "module:attr" or "module:Class.attr"
    meta: Optional[Callable] = None   # (args, kwargs) -> per-call metadata
    kind: str = "plain"     # plain | steps (meta = step count) | pass (meta = (B, flops))


_DENSITY_CLASSES = ("IsoGaussian", "GridMrfGaussian", "GaussMixture")

WRAPS = (
    Wrap("bench.make_density", ("diffden.bench:make_density",)),
    Wrap("diffusion.train", ("diffden.bench:train",),
         _steps_meta(4, "config", "steps"), "steps"),
    Wrap("diffusion.score_mse", ("diffden.bench:score_mse",)),
    Wrap("diffusion.score_t_batch", ("diffden.diffusion:score_t_batch",)),
    Wrap("sampler.reverse_sde_sample", ("diffden.sampler:reverse_sde_sample",),
         _steps_meta(2, "config", "n_steps"), "steps"),
    Wrap("sampler.train_vanilla_sm", ("diffden.sampler:train_vanilla_sm",),
         _steps_meta(3, "config", "steps"), "steps"),
    Wrap("sampler.langevin_sample", ("diffden.sampler:langevin_sample",),
         _steps_meta(2, "n_steps", None), "steps"),
    Wrap("wsnn.init_params", ("diffden.wsnn:init_params",)),
    # backward recomputes the forward pass, then forms the weight and the
    # input gradients: three forward-sized products per layer
    Wrap("wsnn.forward", ("diffden.wsnn:forward",), _pass_meta(1), "pass"),
    Wrap("wsnn.backward", ("diffden.wsnn:backward",), _pass_meta(3), "pass"),
    Wrap("densities.sample",
         tuple(f"diffden.densities:{c}.sample" for c in _DENSITY_CLASSES)),
    Wrap("densities.score_t",
         tuple(f"diffden.densities:{c}.score_t" for c in _DENSITY_CLASSES)),
    Wrap("densities.solve_spd", ("diffden.densities:solve_spd",)),
    Wrap("densities.bpd", ("diffden.densities:bpd",)),
    Wrap("kde.fit", ("diffden.kde:fit",)),
    Wrap("kde.sample", ("diffden.kde:sample",)),
    # on no workload's path: no pipeline entry calls them
    Wrap("kde.density", ("diffden.kde:density",)),
    Wrap("quadrature.pt_quadrature", ("diffden.quadrature:pt_quadrature",)),
    Wrap("numerics.Rng.standard_normal",
         ("diffden.numerics:Rng.standard_normal",)),
)


def _resolve(target):
    """(owner object, attribute name), or None when the target is gone."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    # a method must be patched on the class that defines it, or restoring
    # the original would leave an attribute the class never had
    if owners and attr not in vars(owner):
        return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Patches every `WRAPS` target while installed and records spans."""

    def __init__(self, wraps=WRAPS):
        self.wraps = wraps
        self.spans = []     # [name, start, end, parent, cell, meta]
        self.missing = []   # targets that no longer exist
        self._stack = []
        self._cell = -1
        self._patched = []

    def __enter__(self):
        for wrap in self.wraps:
            for target in wrap.targets:
                found = _resolve(target)
                if found is None:
                    self.missing.append(target)
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrapped(wrap, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        return False

    def _open(self, name, meta):
        parent = self._stack[-1] if self._stack else -1
        if name == _CELL_OPENER and parent >= 0 and self.spans[parent][3] == -1:
            self._cell += 1
        span = [name, 0.0, 0.0, parent, self._cell, meta]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrapped(self, wrap, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            meta = None
            if wrap.meta is not None:
                try:
                    meta = wrap.meta(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    meta = None  # signature changed; time the call anyway
            span = self._open(wrap.span, meta)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    def root(self, name, fn, *args):
        """Call fn(*args) under a root span; returns (result, span index)."""
        index = len(self.spans)
        span = self._open(name, None)
        try:
            return fn(*args), index
        finally:
            self._close(span)


def metric_names(entries):
    """Every per-layer metric a traced run reports, with unit and direction."""
    out = []
    for name in tuple(entries) + tuple(w.span for w in WRAPS):
        out += [(f"{name}.calls", "count", "lower"),
                (f"{name}.total_s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    for wrap in WRAPS:
        if wrap.kind == "steps":
            out.append((f"{wrap.span}.step_ms", "ms", "lower"))
        elif wrap.kind == "pass":
            for b in BATCHES:
                out += [(f"{wrap.span}.b{b}.calls", "count", "lower"),
                        (f"{wrap.span}.b{b}.p50_ms", "ms", "lower"),
                        (f"{wrap.span}.b{b}.p99_ms", "ms", "lower"),
                        (f"{wrap.span}.b{b}.gflop_s", "GFLOP/s", "higher")]
    return out


def summarize(spans, root):
    """Per-layer figures of the entry call whose root span is spans[root]."""
    end = len(spans)
    for i in range(root + 1, len(spans)):
        if spans[i][1] >= spans[root][2]:
            end = i
            break
    child_time = {}
    for i in range(root + 1, end):
        parent = spans[i][3]
        child_time[parent] = child_time.get(parent, 0.0) + spans[i][2] - spans[i][1]
    out = {}
    steps = {}
    passes = {}
    for i in range(root, end):
        name, start, stop, _, _, meta = spans[i]
        duration = stop - start
        calls, total, self_s = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + duration,
                     self_s + duration - child_time.get(i, 0.0))
        if isinstance(meta, tuple):
            passes.setdefault((name, meta[0]), []).append((duration, meta[1]))
        elif meta is not None:
            n, t = steps.get(name, (0, 0.0))
            steps[name] = (n + meta, t + duration)
    metrics = {}
    for name, (calls, total, self_s) in out.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.total_s"] = total
        metrics[f"{name}.self_s"] = self_s
    for name, (n, t) in steps.items():
        metrics[f"{name}.step_ms"] = 1e3 * t / n if n else 0.0
    for (name, batch), rows in passes.items():
        ms = [1e3 * d for d, _ in rows]
        seconds = sum(d for d, _ in rows)
        metrics[f"{name}.b{batch}.calls"] = len(rows)
        metrics[f"{name}.b{batch}.p50_ms"] = float(np.percentile(ms, 50))
        metrics[f"{name}.b{batch}.p99_ms"] = float(np.percentile(ms, 99))
        metrics[f"{name}.b{batch}.gflop_s"] = (
            sum(f for _, f in rows) / seconds / 1e9 if seconds > 0 else 0.0)
    direct = sum(spans[i][2] - spans[i][1] for i in range(root + 1, end)
                 if spans[i][3] == root)
    metrics["trace.child_share"] = direct / (spans[root][2] - spans[root][1])
    return metrics


def median_metrics(per_call, names):
    """Median of each named metric over traced calls; absent counts as 0."""
    return {name: statistics.median(m.get(name, 0) for m in per_call)
            for name in names}
