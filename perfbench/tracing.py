"""Spans and counts around the public functions of every starmimo module.

``Tracer.install()`` replaces each public function of the package with a
timing wrapper in every other module that imported it by name, and so sees
every call from one module into another.  Calls inside one module stay part
of the caller's span, which is in the same layer anyway, except for the
functions in ``OWN_MODULE_CALLS``: their own call counts are reported, so
they are also wrapped in the module that defines them.  Names are looked up
at call time, so the wrappers see every such call.  Nothing changes on disk,
and ``uninstall()`` puts the original functions back.

A span is (name, start, end, parent span, pass id); spans live in flat
arrays in memory and are written out once, at the end of a run.  The layer
of a span is the module that defines the function, so ``rate.sum_se`` is in
layer ``rate`` wherever it is called from.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
import types
from array import array

PACKAGE = "starmimo"
OWN_MODULE_CALLS = ("cli.run_experiment", "cli.build_system", "cli.run_protocol",
                    "optimizer.pgam", "correlation.matrix_sqrt_psd")
# Methods traced in addition to module-level functions: (module, class, method).
TRACED_METHODS = (("correlation", "CorrelationPair", "from_matrices"),)


class Tracer:
    """Records spans and hook counters while installed."""

    def __init__(self, hooks: dict):
        # span name -> list of (counter names, fn(args, kwargs, result, seconds) -> dict)
        self.hooks = hooks
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_id = array("i")
        self.counters: dict[str, float] = {}
        self.absent: set[str] = set()  # counters whose hook raised at least once
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._pass = [0]
        self._patches: list[tuple] = []

    def set_pass(self, pass_id: int):
        self._pass[0] = pass_id

    # -- installation ------------------------------------------------------

    def install(self):
        pkg = importlib.import_module(PACKAGE)
        modules = [importlib.import_module(f"{PACKAGE}.{info.name}")
                   for info in pkgutil.iter_modules(pkg.__path__)]
        wrappers: dict = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                owner = getattr(value, "__module__", "") or ""
                if not owner.startswith(PACKAGE + "."):
                    continue
                span = f"{owner.rsplit('.', 1)[1]}.{value.__name__}"
                if owner == module.__name__ and span not in OWN_MODULE_CALLS:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, span)
                self._patches.append((module, attr, value))
                setattr(module, attr, wrappers[value])
        for module_name, class_name, method in TRACED_METHODS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                cls = getattr(module, class_name)
                descriptor = cls.__dict__[method]
            except (ImportError, AttributeError, KeyError):
                continue  # gone in this version: its metrics are reported absent
            func = descriptor.__func__ if isinstance(descriptor, classmethod) else descriptor
            wrapped = self._wrap(func, f"{module_name}.{method}")
            if isinstance(descriptor, classmethod):
                wrapped = classmethod(wrapped)
            self._patches.append((cls, method, descriptor))
            setattr(cls, method, wrapped)
        return self

    def uninstall(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def _wrap(self, fn, span_name: str):
        if span_name not in self.names:
            self.names.append(span_name)
        name_id = self.names.index(span_name)
        self.installed.add(span_name)
        hooks = self.hooks.get(span_name, ())
        for keys, _ in hooks:
            for key in keys:
                self.counters.setdefault(key, 0.0)
        perf = time.perf_counter
        names, starts, ends = self.name, self.start, self.end
        parents, passes, stack, current_pass = self.parent, self.pass_id, self._stack, self._pass

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            passes.append(current_pass[0])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf()
                stack.pop()
            if hooks:
                self._observe(hooks, args, kwargs, result, ends[index] - starts[index])
            return result

        return wrapper

    def _observe(self, hooks, args, kwargs, result, seconds):
        counters = self.counters
        for keys, hook in hooks:
            if keys[0] in self.absent:
                continue
            try:
                values = hook(args, kwargs, result, seconds)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                self.absent.update(keys)
                continue
            for key, value in values.items():
                counters[key] = counters.get(key, 0.0) + float(value)

    def write(self, path):
        """Write every span to ``path`` as a compressed ``.npz`` archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            pass_id=np.frombuffer(self.pass_id, dtype=np.int32),
        )


class TraceSummary:
    """Per span name: calls, inclusive time and layer self time.

    The layer self time of a span is its duration minus the time covered by
    spans of other layers below it; a nested call into the same layer stays
    part of it.  ``layer_time`` is the time each layer spent per pass: every
    span of the layer minus all of its child spans.
    """

    def __init__(self, tracer: Tracer, passes: int):
        self.passes = passes
        self.installed = set(tracer.installed)
        self.counters = dict(tracer.counters)
        self.absent = set(tracer.absent)
        names = tracer.names
        layer_of = [n.split(".", 1)[0] for n in names]
        count = len(tracer.start)
        dur = [tracer.end[i] - tracer.start[i] for i in range(count)]
        other = [0.0] * count  # time in other-layer spans below the span
        child = [0.0] * count  # time in direct child spans
        parent, name = tracer.parent, tracer.name
        for i in range(count - 1, -1, -1):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                other[p] += dur[i] if layer_of[name[i]] != layer_of[name[p]] else other[i]
        self.calls = {n: 0 for n in names}
        self.inclusive = {n: 0.0 for n in names}
        self.layer_self = {n: 0.0 for n in names}
        self.layer_time: dict[str, float] = {}
        for i in range(count):
            n = names[name[i]]
            self.calls[n] += 1
            self.inclusive[n] += dur[i]
            self.layer_self[n] += dur[i] - other[i]
            layer = layer_of[name[i]]
            self.layer_time[layer] = self.layer_time.get(layer, 0.0) + dur[i] - child[i]
        self._name, self._parent, self._dur, self._names = name, parent, dur, names

    def children_of(self, child_name: str, parent_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is ``parent_name``."""
        if child_name not in self._names or parent_name not in self._names:
            return 0
        c, p = self._names.index(child_name), self._names.index(parent_name)
        return sum(1 for i in range(len(self._name))
                   if self._name[i] == c and self._parent[i] >= 0
                   and self._name[self._parent[i]] == p)

    def time_under(self, span_name: str, ancestor_name: str) -> float:
        """Inclusive time of ``span_name`` spans called anywhere below ``ancestor_name``."""
        if span_name not in self._names or ancestor_name not in self._names:
            return 0.0
        s, a = self._names.index(span_name), self._names.index(ancestor_name)
        total = 0.0
        for i in range(len(self._name)):
            if self._name[i] != s:
                continue
            p = self._parent[i]
            while p >= 0 and self._name[p] != a:
                p = self._parent[p]
            if p >= 0:
                total += self._dur[i]
        return total
