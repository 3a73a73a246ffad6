"""Per-layer tracing from the benchmark's side of the layer boundaries.

Layers are the modules of the ``ergolab`` package.  At start-up the tracer
reads the module namespaces and collects every function, and every public
method (plus ``__init__``) of every class, that one ergolab module binds
from another, including the re-exports of the package itself.  ``install``
replaces each of them, in every namespace and class dict that holds it,
with a wrapper.  A call opens a span only when it crosses a layer: when the
caller's module differs from the callee's.  ``cli.main`` is wrapped too and
is the root span of each operation.  Nothing under ``src/`` changes, and a
function renamed or moved in ``src/`` is found again without edits here.

Spans (id, parent, layer, name, thread, start, end) stay in memory and are
written out when the run ends.  A span opened in a worker thread whose own
stack is empty gets as parent the innermost open span of the operation's
thread, which is the call waiting on the thread pool.

A few wrappers also count work, keyed by function name, and count every
call including those within a layer; a renamed kernel leaves its counter at
zero and is listed by ``missing_counters``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("weights", "accum", "admissibility", "operators", "transforms",
          "stochastics", "registry", "cli")


def _bound(func):
    sig = inspect.signature(func)

    def bind(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments
    return bind


def _count_grid(counts, bind, args, kwargs, result):
    a = bind(args, kwargs)
    terms = max(0, int(a["n"]) - int(a["k_start"]) + 1)
    counts["transforms.grid_terms"] += len(a["angles"]) * terms


def _count_prefix(counts, bind, args, kwargs, result):
    counts["weights.prefix_terms"] += len(result)


def _count_cumsum(counts, bind, args, kwargs, result):
    counts["accum.cumsum_terms"] += len(result)


def _count_matrix_power(counts, bind, args, kwargs, result):
    counts["operators.matrix_powers"] += 1


def _count_norm(counts, bind, args, kwargs, result):
    counts["operators.norm_calls"] += 1


# function name -> counter; see README.md for what each one measures
COUNTERS = {
    "_psi_on_grid": _count_grid,
    "prefix": _count_prefix,
    "kahan_cumsum": _count_cumsum,
    "matrix_power": _count_matrix_power,
    "operator_norm": _count_norm,
}


def _iter_results(obj):
    if isinstance(obj, (tuple, list)):
        yield from obj
    elif isinstance(obj, dict):
        yield from obj.values()
    else:
        yield obj


class Tracer:
    def __init__(self):
        pkg = importlib.import_module("ergolab")
        self.modules = {m.name: importlib.import_module(f"ergolab.{m.name}")
                        for m in pkgutil.iter_modules(pkg.__path__)}
        unknown = set(self.modules) - set(LAYERS)
        if unknown:
            raise RuntimeError(f"modules without a layer: {sorted(unknown)}")
        self.layer_of = {mod.__name__: name for name, mod in self.modules.items()}
        self.binders = [pkg] + list(self.modules.values())
        self.functions, self.classes = self._discover()
        self.names = []
        self._name_ids = {}
        self.counts = defaultdict(float)
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self.root_stack = None
        self._mem_lock = threading.Lock()
        self._mem_threads = 0    # threads whose innermost open span is transforms
        self._mem_open = 0       # open transforms spans in any thread
        self._mem_carry = 0      # bytes still live from earlier tracing segments
        self._count_lock = threading.Lock()
        self.found_counters = set()

    # -- discovery -----------------------------------------------------------

    def _discover(self):
        functions, classes = {}, {}
        for mod in self.binders:
            for obj in vars(mod).values():
                home = getattr(obj, "__module__", None)
                if home == mod.__name__ or home not in self.layer_of:
                    continue
                if inspect.isclass(obj):
                    classes[obj] = self.layer_of[home]
                elif inspect.isfunction(obj):
                    functions[obj] = self.layer_of[home]
        return functions, classes

    def boundary_count(self) -> int:
        n = len(self.functions)
        for cls in self.classes:
            n += sum(1 for name, attr in vars(cls).items() if self._is_entry(name, attr))
        return n

    @staticmethod
    def _is_entry(name, attr) -> bool:
        if name.startswith("_") and name != "__init__":
            return False
        return isinstance(attr, (classmethod, staticmethod)) or inspect.isfunction(attr)

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every boundary and ``cli.main``; returns the wrapped main."""
        self.root_stack = self._stack()
        for func, layer in self.functions.items():
            wrapped = self._wrap(func, layer, func.__qualname__)
            for mod in self.binders:
                for name, obj in list(vars(mod).items()):
                    if obj is func:
                        setattr(mod, name, wrapped)
        for cls, layer in self.classes.items():
            for name, attr in list(vars(cls).items()):
                if not self._is_entry(name, attr):
                    continue
                qual = f"{cls.__qualname__}.{name}"
                ctor = layer == "weights" and (name == "__init__" or isinstance(attr, classmethod))
                if isinstance(attr, classmethod):
                    setattr(cls, name, classmethod(self._wrap(attr.__func__, layer, qual, ctor)))
                elif isinstance(attr, staticmethod):
                    setattr(cls, name, staticmethod(self._wrap(attr.__func__, layer, qual)))
                else:
                    setattr(cls, name, self._wrap(attr, layer, qual, ctor))
        cli = self.modules["cli"]
        return self._wrap(cli.main, "cli", "main")

    def missing_counters(self) -> list:
        return sorted(set(COUNTERS) - self.found_counters)

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
            self._local.layers = []
        return st

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, func, layer, qualname, ctor=False):
        home = func.__module__
        li = LAYERS.index(layer)
        ni = self._name_id(qualname)
        counter = COUNTERS.get(func.__name__)
        bind = None
        if counter is not None:
            self.found_counters.add(func.__name__)
            bind = _bound(func)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == home:
                result = func(*args, **kwargs)
            else:
                result = tracer._span(func, args, kwargs, li, ni, ctor)
            if counter is not None:
                with tracer._count_lock:
                    counter(tracer.counts, bind, args, kwargs, result)
            return result
        return wrapper

    # -- spans ---------------------------------------------------------------

    def _span(self, func, args, kwargs, li, ni, ctor):
        st = self._stack()
        if st:
            parent = st[-1]
        else:
            root = self.root_stack
            parent = root[-1] if root else -1
        sid = next(self._ids)
        layer = LAYERS[li]
        layers = self._local.layers
        outer = layers[-1] if layers else None
        if "transforms" in (layer, outer):
            self._mem_switch(outer, layer, opening=True)
        st.append(sid)
        layers.append(layer)
        t0 = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            st.pop()
            layers.pop()
            self.spans.append((sid, parent, li, ni, threading.get_ident(), t0, t1))
            if "transforms" in (layer, outer):
                self._mem_switch(layer, outer, opening=False)
        with self._count_lock:
            if ctor:
                self.counts["weights.seq_build_s"] += t1 - t0
            elif layer == "admissibility":
                for rep in _iter_results(result):
                    sums = getattr(rep, "partial_sums", None)
                    if sums and hasattr(rep, "verdict"):
                        self.counts["admissibility.series_terms"] += int(sums[-1][0])
            elif layer == "stochastics":
                for est in _iter_results(result):
                    per_sample = getattr(est, "per_sample", None)
                    if per_sample is not None:
                        self.counts["stochastics.samples"] += len(per_sample)
        return result

    def _mem_switch(self, before, after, opening):
        """Trace allocations only while some thread's innermost open span is
        in transforms, so child spans of other layers (say a pure-Python
        accum loop) do not run under tracemalloc.  A paused segment's live
        bytes carry over into the next one; bytes it frees later are not
        subtracted, so the peak errs high."""
        with self._mem_lock:
            if opening and after == "transforms":
                self._mem_open += 1
            if not opening and before == "transforms":
                self._mem_open -= 1
            if before == "transforms" and after != "transforms":
                self._mem_threads -= 1
                if self._mem_threads == 0:
                    current, peak = tracemalloc.get_traced_memory()
                    tracemalloc.stop()
                    peak_mb = (self._mem_carry + peak) / 2**20
                    if peak_mb > self.counts["transforms.peak_mb"]:
                        self.counts["transforms.peak_mb"] = peak_mb
                    self._mem_carry += current
            elif after == "transforms" and before != "transforms":
                self._mem_threads += 1
                if self._mem_threads == 1:
                    tracemalloc.start()
            if self._mem_open == 0:
                self._mem_carry = 0

    def take_spans(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans) -> tuple[dict, float]:
    """Self time per layer for the spans of one operation, and the root
    span's duration.

    Wall time is split among the innermost open spans: at each instant it
    goes to the spans that have no open child, in equal shares when several
    threads run at once.  The layer self times of an operation therefore add
    up to its root span's duration.
    """
    parent = {s[0]: s[1] for s in spans}
    layer = {s[0]: s[2] for s in spans}
    events = sorted([(s[5], 1, s[0]) for s in spans] + [(s[6], 0, s[0]) for s in spans])
    out = defaultdict(float)
    open_children = defaultdict(int)
    active, leaves = set(), set()
    prev = None
    for t, is_start, sid in events:
        if leaves:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                out[LAYERS[layer[leaf]]] += share
        prev = t
        p = parent[sid]
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if p in active:
                open_children[p] += 1
                leaves.discard(p)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if p in active:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    roots = [s for s in spans if s[1] not in parent]
    total = max(s[6] for s in roots) - min(s[5] for s in roots) if roots else 0.0
    return dict(out), total
