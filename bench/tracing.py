"""Per-layer tracing of lsaforge, installed from outside the package.

``Tracer.install`` replaces, in every loaded ``lsaforge`` module and in
the package namespace, each binding of a public module-level function
defined in lsaforge, and each public method (plus ``__init__``,
``__call__`` and the arithmetic operators) of every class defined there,
with a timing wrapper.  No file under ``src/`` changes, and
``uninstall`` puts the originals back.

Every wrapped call adds to a count and to the self time of its function
(its duration minus the time spent in wrapped calls it made).  A call
whose caller is in another module (or is the benchmark itself) also
records a span: name, start, end and the index of the enclosing span.
Spans stay in memory until ``write`` dumps them with the counts.
Properties, ``__getitem__``, ``__eq__`` and private helpers are not
wrapped: their time counts as self time of the wrapped caller.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

# dunder methods that do real work, and the label they get in metric names
DUNDERS = {"__init__": "init", "__call__": "call", "__add__": "add",
           "__sub__": "sub", "__mul__": "mul", "__neg__": "neg"}

# spans kept per run; past this only counts and self times are recorded
MAX_SPANS = 100_000


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stats = {}          # "module.name" -> [calls, self seconds]
        self.spans = []          # (name, start, end, parent span index)
        self.spans_dropped = 0
        self._stack = []         # [module, child seconds, span index]
        self._patched = []       # (owner, attribute, original)

    # -- installation ---------------------------------------------------------
    def install(self):
        prefix = self.package.__name__ + "."
        modules = {name[len(prefix):]: mod for name, mod in sys.modules.items()
                   if name.startswith(prefix)}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(short, obj)
                elif isinstance(obj, types.FunctionType) \
                        and not attr.startswith("_"):
                    wrappers[obj] = self._wrapper(obj, short,
                                                  short + "." + attr)
        for namespace in list(modules.values()) + [self.package]:
            for attr, obj in list(vars(namespace).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(namespace, attr, wrappers[obj])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, short, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            key = "%s.%s.%s" % (short, cls.__name__, DUNDERS.get(attr, attr))
            if isinstance(obj, staticmethod):
                wrapped = self._wrapper(obj.__func__, short, key)
                self._patch(cls, attr, staticmethod(wrapped))
            elif isinstance(obj, types.FunctionType):
                self._patch(cls, attr, self._wrapper(obj, short, key))

    def _wrapper(self, fn, module, key):
        stat = self.stats.setdefault(key, [0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [module, 0.0, -1 if parent is None else parent[2]]
            own_span = parent is None or parent[0] != module
            if own_span:
                if len(spans) < MAX_SPANS:
                    frame[2] = len(spans)
                    spans.append(None)
                else:
                    own_span = False
                    self.spans_dropped += 1
            parent_span = -1 if parent is None else parent[2]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if own_span:
                    spans[frame[2]] = (key, start, end, parent_span)

        return traced

    # -- results --------------------------------------------------------------
    def module_self(self) -> dict:
        out = {}
        for key, (_calls, self_s) in self.stats.items():
            module = key.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + self_s
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"stats": {k: {"calls": c, "self_s": s}
                                 for k, (c, s) in sorted(self.stats.items())
                                 if c},
                       "spans_dropped": self.spans_dropped,
                       "spans": self.spans}, handle)
