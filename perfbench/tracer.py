"""Per-layer tracing by wrapping the public functions of gerbetool modules.

The tracer lives in the benchmark, not in the library: it replaces every
public function and method of every gerbetool module with a wrapper that
counts calls and measures self time (a call's span minus the spans of the
traced calls it made).  A function is wrapped under every module name that
binds it, so calls between modules are seen, and all its bindings share
one wrapper and one metric name, `<defining module>.<qualname>`.

A few functions also feed work counters.  The time spent computing those
counters is kept out of every self time.
"""

import functools
import hashlib
import importlib
import inspect
import pkgutil
import time

import numpy as np

PACKAGE = "gerbetool"


def _digest(objects):
    """Content hash of arrays and scalars reachable one level into `objects`."""
    h = hashlib.blake2b(digest_size=16)

    def feed(value):
        if isinstance(value, np.ndarray):
            h.update(repr((value.dtype.str, value.shape)).encode())
            h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, (int, float, complex, str, bool, type(None))):
            h.update(repr(value).encode())
        else:
            h.update(type(value).__qualname__.encode())

    for obj in objects:
        fields = getattr(obj, "__dict__", None)
        if isinstance(obj, np.ndarray) or fields is None:
            feed(obj)
            continue
        for key in sorted(fields):
            h.update(key.encode())
            feed(fields[key])
    return h.hexdigest()


def _own(obj):
    module = getattr(obj, "__module__", None) or ""
    return module == PACKAGE or module.startswith(PACKAGE + ".")


class Tracer:
    """Call counts, self times and work counters for one traced process."""

    def __init__(self):
        self.stats = {}
        self.counters = {
            "fock.basis_dim.max": 0,
            "caloron.sample_connection.cells": 0,
        }
        self._distinct = {
            "fock.enumerate_states.distinct_inputs": set(),
            "caloron.curvature.distinct_inputs": set(),
        }
        self._stack = []
        self._wrapped = {}
        self._hooks = {
            "fock.enumerate_states": self._on_enumerate_states,
            "caloron.curvature": self._on_curvature,
            "caloron.sample_connection": self._on_sample_connection,
        }

    # -- counters -----------------------------------------------------------

    def _on_enumerate_states(self, args, kwargs, result):
        key = repr((args, sorted(kwargs.items())))
        self._distinct["fock.enumerate_states.distinct_inputs"].add(key)
        dim = len(result)
        self.counters["fock.basis_dim.max"] = max(self.counters["fock.basis_dim.max"], dim)

    def _on_curvature(self, args, kwargs, result):
        key = _digest(list(args) + [kwargs[k] for k in sorted(kwargs)])
        self._distinct["caloron.curvature.distinct_inputs"].add(key)

    def _on_sample_connection(self, args, kwargs, result):
        ext = result.base_points + 2 * result.ghost_margin
        self.counters["caloron.sample_connection.cells"] += (
            result.theta_points * ext**result.base_dim
        )

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, func):
        if func in self._wrapped:
            return self._wrapped[func]
        name = f"{func.__module__[len(PACKAGE) + 1:]}.{func.__qualname__}"
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        hook = self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span = clock() - start
                stat[0] += 1
                stat[1] += span - stack.pop()
                if stack:
                    stack[-1] += span
            if hook is not None:
                hooked = clock()
                hook(args, kwargs, result)
                if stack:
                    stack[-1] += clock() - hooked
            return result

        self._wrapped[func] = traced
        return traced

    def _patch_class(self, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, (classmethod, staticmethod)):
                inner = member.__func__
                if _own(inner):
                    setattr(cls, attr, type(member)(self._wrap(inner)))
            elif inspect.isfunction(member) and _own(member):
                setattr(cls, attr, self._wrap(member))

    def install(self, modules):
        """Wrap public functions bound in `modules` and methods of their classes."""
        classes = []
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _own(obj):
                    continue
                if inspect.isfunction(obj):
                    setattr(module, attr, self._wrap(obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    classes.append(obj)
        for cls in classes:
            self._patch_class(cls)

    # -- results ------------------------------------------------------------

    def counts(self):
        """Every count the traced run produced; these must repeat exactly."""
        out = {f"{name}.calls": stat[0] for name, stat in self.stats.items()}
        out.update(self.counters)
        out.update({name: len(keys) for name, keys in self._distinct.items()})
        return out

    def self_times(self):
        return {f"{name}.self_s": stat[1] for name, stat in self.stats.items()}


def traced_modules():
    """Import and return every gerbetool module, the package included."""
    package = importlib.import_module(PACKAGE)
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        modules.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return modules
