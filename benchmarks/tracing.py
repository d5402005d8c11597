"""Span tracing of graph_hopf from outside the package.

`install()` wraps every public function of every graph_hopf module, plus a
few class methods, and rebinds each module-level reference to the wrapper:
modules import names with `from .graphs import ...`, so patching only the
defining module would miss most callers.  Function objects stored as values
of module-level dicts (`verify.SUITES`, `chromatic.ENGINES`) are rebound too.

Spans live in memory.  A span's self time is its duration minus the time
covered by its child spans.  A function's inclusive time counts only its
outermost activation, so recursive engines are not counted twice.  Calls
that return generators are timed while they are iterated: each step is a
span, and every yielded item is counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "verify", "bialgebra", "characters", "chromatic",
          "lattice", "wsym", "graphs", "linear")

# (module, class, method): entry points that are methods, not module functions
METHODS = (("linear", "LinComb", "__add__"),
           ("lattice", "AdmissibleLattice", "covers"),
           ("lattice", "AdmissibleLattice", "mobius"),
           ("characters", "Character", "__call__"))


def modules():
    return {layer: importlib.import_module("graph_hopf." + layer) for layer in LAYERS}


def lru_caches():
    """Every functools.lru_cache object defined in the package, by 'layer.name'."""
    out = {}
    for layer, mod in modules().items():
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                out[f"{layer}.{name}"] = obj
    return out


def characters():
    """The module-level Character instances, whose memos grow without bound."""
    mod = modules()["characters"]
    return [obj for obj in vars(mod).values() if isinstance(obj, mod.Character)]


class Tracer:
    """In-memory span aggregation: per function calls, inclusive and self time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = {}      # name -> number of calls
        self.incl = {}       # name -> time of outermost activations
        self.self_s = {}     # name -> span time not covered by child spans
        self.yields = {}     # name -> items yielded by a generator call
        self.add_keys_copied = 0
        self._stack = []     # open spans: [name, time covered by children]
        self._depth = {}     # name -> open activations

    def _enter(self, name):
        self._stack.append([name, 0.0])
        self._depth[name] = self._depth.get(name, 0) + 1
        return self.clock()

    def _exit(self, name, t0):
        dt = self.clock() - t0
        _, covered = self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dt
        self.self_s[name] = self.self_s.get(name, 0.0) + dt - covered
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if not depth:
            self.incl[name] = self.incl.get(name, 0.0) + dt

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            t0 = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, t0)

        traced.__traced__ = name
        return traced

    def wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return self._iterate(name, fn(*args, **kwargs))

        traced.__traced__ = name
        return traced

    def _iterate(self, name, gen):
        while True:
            t0 = self._enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(name, t0)
            self.yields[name] = self.yields.get(name, 0) + 1
            yield item

    def wrap_add(self, name, fn):
        """LinComb.__add__: also count the left-operand keys each call copies."""
        timed = self.wrap(name, fn)

        @functools.wraps(fn)
        def traced(left, right):
            self.add_keys_copied += len(left)
            return timed(left, right)

        traced.__traced__ = name
        return traced

    def install(self):
        """Wrap the package in place; returns a function that restores it."""
        mods = modules()
        wrappers = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                make = self.wrap_generator if inspect.isgeneratorfunction(obj) else self.wrap
                wrappers[id(obj)] = (obj, make(f"{layer}.{name}", obj))

        undo = []
        for mod in [importlib.import_module("graph_hopf"), *mods.values()]:
            namespace = vars(mod)
            for name, obj in list(namespace.items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(mod, name, wrappers[id(obj)][1])
                    undo.append((setattr, mod, name, obj))
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers and wrappers[id(value)][0] is value:
                            obj[key] = wrappers[id(value)][1]
                            undo.append((dict.__setitem__, obj, key, value))

        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            original = cls.__dict__[meth]
            make = self.wrap_add if meth == "__add__" else self.wrap
            setattr(cls, meth, make(f"{layer}.{cls_name}.{meth}", original))
            undo.append((setattr, cls, meth, original))

        def uninstall():
            for setter, target, key, value in reversed(undo):
                setter(target, key, value)

        return uninstall
