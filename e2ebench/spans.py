"""Span recorder for the traced run, installed from outside the simulator.

:func:`install_tracing` wraps the simulator's layer boundaries in place:
module-level functions are replaced in every ``repro.*`` module that bound
them (callers look them up there), and the methods of each layer's classes
are replaced on the class.  Each call records one span — name, parent,
start, end and a work count — into a per-thread in-memory buffer; nothing
is written until :meth:`SpanRecorder.save` at the end.

A span name is ``<layer>`` or ``<layer>:<op>``; the layer is the module
vocabulary the benchmark reports (``schemes.deuce``, ``crypto.pads``, ...).
A layer's self time is its spans' durations minus the time their child
spans cover (:func:`span_stats`).
"""

from __future__ import annotations

import array
import functools
import inspect
import sys
import threading
import time

import numpy as np

from common import metric_name


class _Buffer:
    """One thread's spans, as parallel arrays (parents index this buffer)."""

    __slots__ = ("name", "parent", "start", "end", "count", "stack")

    def __init__(self) -> None:
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.count = array.array("q")
        self.stack: list[int] = []


class SpanRecorder:
    """Collects spans from every thread of this process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def _buffer(self) -> _Buffer:
        buf = _Buffer()
        self._local.buf = buf
        with self._lock:
            self._buffers.append(buf)
        return buf

    def wrap(self, fn, name, count=None):
        """Return ``fn`` recording one span per call.

        ``name`` is a span name, or a callable mapping the class of the
        call's first argument (``self``) to one.  ``count(args, result)``
        gives the span's work count; it is skipped when the enclosing span
        has the same name (a subclass delegating to its base), so work is
        counted once.
        """
        local = self._local
        new_buffer = self._buffer
        perf = time.perf_counter
        fixed = self.name_id(name) if isinstance(name, str) else None
        ids: dict[type, int] = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = getattr(local, "buf", None) or new_buffer()
            if fixed is not None:
                nid = fixed
            else:
                cls = type(args[0])
                nid = ids.get(cls)
                if nid is None:
                    nid = ids[cls] = self.name_id(name(cls))
            stack = buf.stack
            parent = stack[-1] if stack else -1
            i = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(parent)
            buf.end.append(0.0)
            buf.count.append(0)
            stack.append(i)
            buf.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[i] = perf()
                stack.pop()
            if count is not None and (parent < 0 or buf.name[parent] != nid):
                buf.count[i] = count(args, result)
            return result

        wrapper.__wrapped_by_bench__ = fn
        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        """Every finished span, all threads concatenated.

        ``parent`` indexes the concatenation (-1 for a root span).  Spans
        still open (a server thread blocked at exit) are dropped, and
        their finished children become roots.
        """
        with self._lock:
            buffers = list(self._buffers)
        parts = {k: [] for k in ("name", "parent", "start", "end", "count")}
        base = 0
        for buf in buffers:
            # Slicing copies, so a thread still appending is never blocked
            # by an exported buffer; the shortest column bounds the spans
            # whose every field was written.
            cols = {k: getattr(buf, k) for k in parts}
            n = min(len(c) for c in cols.values())
            if not n:
                continue
            cols = {k: np.array(c[:n]) for k, c in cols.items()}
            parent = cols["parent"].astype(np.int64)
            cols["parent"] = np.where(parent >= 0, parent + base, -1)
            for k, c in cols.items():
                parts[k].append(c)
            base += n
        dtypes = {"name": np.int32, "parent": np.int64, "count": np.int64}
        out = {
            k: np.concatenate(v) if v else np.zeros(0, dtype=dtypes.get(k, float))
            for k, v in parts.items()
        }
        return select(out, out["end"] > 0)

    def save(self, path) -> dict[str, np.ndarray]:
        spans = self.arrays()
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **spans)
        return spans


def select(spans: dict[str, np.ndarray], keep: np.ndarray) -> dict:
    """The spans where ``keep`` holds; a kept span whose parent was dropped
    becomes a root.  Descendants of dropped spans are kept (as roots)."""
    keep = np.asarray(keep, dtype=bool)
    remap = np.full(len(keep) + 1, -1, dtype=np.int64)
    remap[:-1][keep] = np.arange(int(keep.sum()))
    out = {k: np.asarray(v)[keep] for k, v in spans.items()}
    out["parent"] = remap[np.asarray(spans["parent"], dtype=np.int64)[keep]]
    return out


def span_stats(names, spans: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per span name: ``self_s``, ``incl_s``, ``count`` and ``spans``.

    ``self_s`` sums each span's duration minus its children's durations.
    ``incl_s`` sums the durations of the spans whose parent belongs to
    another layer (the layer's outermost spans, so nested calls inside
    one layer are not counted twice).  ``count`` sums the work counts.
    The ``""`` entry holds ``incl_s`` of the root spans: the time any
    layer was active.
    """
    name = np.asarray(spans["name"], dtype=np.int64)
    parent = np.asarray(spans["parent"], dtype=np.int64)
    dur = np.asarray(spans["end"], dtype=np.float64) - np.asarray(
        spans["start"], dtype=np.float64
    )
    n = len(dur)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_s = dur - child[:n]
    layers = [nm.split(":", 1)[0] for nm in names]
    layer_id = {lay: i for i, lay in enumerate(dict.fromkeys(layers))}
    span_layer = np.array([layer_id[lay] for lay in layers], dtype=np.int64)[name]
    outer = ~has_parent | (
        span_layer[np.where(has_parent, parent, 0)] != span_layer
    )
    m = len(names)
    stats = {}
    self_by = np.bincount(name, weights=self_s, minlength=m)
    incl_by = np.bincount(name[outer], weights=dur[outer], minlength=m)
    count_by = np.bincount(name, weights=spans["count"], minlength=m)
    spans_by = np.bincount(name, minlength=m)
    for i, nm in enumerate(names):
        stats[nm] = {
            "self_s": float(self_by[i]),
            "incl_s": float(incl_by[i]),
            "count": int(count_by[i]),
            "spans": int(spans_by[i]),
        }
    stats[""] = {"incl_s": float(dur[~has_parent].sum()), "spans": int(n)}
    return stats


def layer_totals(stats: dict[str, dict]) -> dict[str, dict]:
    """Fold ``<layer>:<op>`` entries of :func:`span_stats` into layers."""
    out: dict[str, dict] = {}
    for nm, s in stats.items():
        if not nm:
            continue
        lay = nm.split(":", 1)[0]
        acc = out.setdefault(lay, {"self_s": 0.0, "incl_s": 0.0})
        acc["self_s"] += s["self_s"]
        acc["incl_s"] += s["incl_s"]
    return out


# -- installing the wrappers ---------------------------------------------------


def replace_function(module_name: str, attr: str, make):
    """Replace ``module.attr`` with ``make(original)`` wherever it is bound.

    Every loaded ``repro.*`` module whose globals hold the same function
    object is patched, as is any dict value in those globals (registries
    such as ``EXPERIMENTS``).  Returns the original.
    """
    original = getattr(sys.modules[module_name], attr)
    wrapped = make(original)
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
            elif isinstance(value, dict) and key.isupper():
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapped
    return original


def wrap_class_methods(rec: SpanRecorder, layer_of: dict[type, str], counts=None):
    """Wrap the public methods of each class (and its ``repro`` bases).

    The span name comes from the *instance's* class at call time, so a
    method inherited from a shared base is attributed to the registered
    class that ran it.  Generator functions are skipped (their body runs
    after the call returns), as are methods wrapped already.  ``counts``
    maps a method name to its ``count(args, result)`` function.
    """
    counts = counts or {}

    def name_for(cls: type) -> str:
        return next(
            (layer_of[c] for c in cls.__mro__ if c in layer_of), cls.__module__
        )

    done: set[tuple[type, str]] = set()
    for cls in layer_of:
        for base in cls.__mro__:
            if not base.__module__.startswith("repro."):
                continue
            for attr, value in list(vars(base).items()):
                if (
                    attr.startswith("_")
                    or (base, attr) in done
                    or not inspect.isfunction(value)
                    or inspect.isgeneratorfunction(value)
                    or hasattr(value, "__wrapped_by_bench__")
                ):
                    continue
                done.add((base, attr))
                setattr(base, attr, rec.wrap(value, name_for, counts.get(attr)))


def _n_rows(args, _result) -> int:
    return len(args[1])


def _one(_args, _result) -> int:
    return 1


def _spec_writes(_args, trace) -> int:
    # KV traces carry populate/steady phases; the statistical generator's
    # do not.  KV writebacks are counted by workloads.kv instead.
    return 0 if trace.phases else len(trace.records)


def install_tracing(rec: SpanRecorder) -> None:
    """Wrap every layer boundary the benchmark reports, in this process."""
    # Import every module whose globals bind a function patched below.
    import repro.api
    import repro.service.jobs
    import repro.service.server  # noqa: F401
    import repro.sim.experiments
    from repro import registry
    from repro.memory.cache import MemoryHierarchy
    from repro.memory.pcm import PcmArray
    from repro.crypto.pads import CachingPadSource
    from repro.obs.ledger import RunLedger
    from repro.wear import (
        HorizontalWearLeveler,
        NoWearLeveler,
        SecurityRefresh,
        SecurityRefreshHWL,
        StartGap,
    )
    from repro.workloads.kv import KvEngine

    def fn(module, attr, name, count=None):
        replace_function(module, attr, lambda f: rec.wrap(f, name, count))

    fn("repro.workloads.trace", "generate_trace", "workloads.generator", _spec_writes)
    fn(
        "repro.workloads.kv", "generate_kv_trace", "workloads.kv:trace",
        lambda _a, trace: len(trace.records),
    )
    fn("repro.sim.runner", "run", "sim.runner", _one)
    fn("repro.sim.runner", "cached_trace", "sim.runner:cached_trace")
    fn("repro.sim.runner", "build_scheme", "sim.runner:build_scheme")
    fn("repro.wear.lifetime", "lifetime_report", "wear")
    fn("repro.perf.system", "simulate_execution", "perf")
    fn("repro.perf.energy", "energy_report", "perf")
    # Each EXPERIMENTS entry is the module global of its own __name__.
    for exp in list(repro.sim.experiments.EXPERIMENTS.values()):
        fn("repro.sim.experiments", exp.__name__, "sim.experiments")

    layers: dict[type, str] = {
        spec.factory: "schemes." + metric_name(spec.name)
        for spec in registry.SCHEMES
    }
    # Batched writes get their own op name, so that
    # schemes.batched_frac = batched writes / all writes.
    for cls, layer in layers.items():
        if cls.supports_write_batch and "write_batch" in vars(cls):
            cls.write_batch = rec.wrap(cls.write_batch, layer + ":batch", _n_rows)
    wrap_class_methods(rec, layers, {"write": _one})
    pads = {spec.factory: "crypto.pads" for spec in registry.PAD_SOURCES}
    pads[CachingPadSource] = "crypto.pads"
    wrap_class_methods(
        rec, pads,
        {"line_pad": _one, "line_pad_array": _one, "line_pads_batch": _n_rows},
    )
    wrap_class_methods(
        rec, {PcmArray: "memory.pcm"},
        {"apply_write": _one, "apply_batch": _n_rows, "apply_batch_diffs": _n_rows},
    )
    wrap_class_methods(
        rec,
        {
            cls: "wear"
            for cls in (
                HorizontalWearLeveler, NoWearLeveler, StartGap,
                SecurityRefresh, SecurityRefreshHWL,
            )
        },
    )
    wrap_class_methods(rec, {MemoryHierarchy: "memory.cache"})
    KvEngine.apply = rec.wrap(KvEngine.apply, "workloads.kv:request", _one)
    wrap_class_methods(rec, {KvEngine: "workloads.kv"})
    wrap_class_methods(rec, {repro.api.Session: "api.session"})
    RunLedger.record = rec.wrap(RunLedger.record, "obs.ledger:record", _one)
    wrap_class_methods(rec, {RunLedger: "obs.ledger"})
    manager = repro.service.jobs.JobManager
    manager.submit = rec.wrap(manager.submit, "service:submit")
    manager._execute = rec.wrap(manager._execute, "service:execute")
