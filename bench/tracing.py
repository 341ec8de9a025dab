"""Per-layer tracing from outside the library.

`Tracer.install()` replaces each function named in `layers.GROUPS` with a
wrapper that counts calls and accumulates self time: a span's duration minus
the time spent in nested wrapped calls.  Modules import names directly
(`from .connection import beta`), so every binding of a wrapped function in
every `jetforge` module, and in any extra module given, is replaced; methods
are replaced on their class.  `Tracer.restore()` puts every original back.
"""

from __future__ import annotations

import fnmatch
import inspect
import sys
import time
from fractions import Fraction

import layers


def _library_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "jetforge" or name.startswith("jetforge."))]


def _candidates():
    """Every function and method defined in the library, by dotted name."""
    out = {}
    for mod in _library_modules():
        short = mod.__name__.partition(".")[2]
        if not short:
            continue
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[f"{short}.{name}"] = (None, name, obj)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, fn in vars(obj).items():
                    if inspect.isfunction(fn):
                        out[f"{short}.{name}.{attr}"] = (obj, attr, fn)
    return out


class Tracer:
    """Counts and self time per wrapped function; a no-op until installed."""

    def __init__(self, extra_modules=()):
        self.extra_modules = list(extra_modules)
        self.stats = {}      # dotted name -> [calls, self seconds, pairs]
        self.group_of = {}   # dotted name -> group
        self.tables = []     # xi tables returned since the last drain
        self._stack = []
        self._patches = []   # (owner, attribute, original, existed)

    def install(self):
        candidates = _candidates()
        wrappers = {}
        for group, (patterns, pairs) in layers.GROUPS.items():
            names = sorted(name for name in candidates
                           if any(fnmatch.fnmatchcase(name, p)
                                  for p in patterns))
            if not names:
                raise RuntimeError(f"no library function matches {group}")
            for name in names:
                owner, attr, fn = candidates[name]
                # `__rmul__ = __mul__` binds one function under two names;
                # it gets one wrapper, counted under the first name
                wrapper = wrappers.get(id(fn))
                if wrapper is None:
                    stat = self.stats[name] = [0, 0.0, 0]
                    self.group_of[name] = group
                    keep = group == "connection.build_xi"
                    wrapper = self._wrap(fn, stat, pairs, keep)
                    wrappers[id(fn)] = wrapper
                if owner is not None:
                    self._patch(owner, attr, wrapper)
        modules = _library_modules() + self.extra_modules
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)
        return self

    def _patch(self, owner, attr, wrapper):
        existed = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), existed))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original, existed in reversed(self._patches):
            if existed:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, fn, stat, pairs, keep):
        stack = self._stack
        clock = time.perf_counter
        tables = self.tables

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                stat[0] += 1
                stat[1] += elapsed - nested
                if stack:
                    stack[-1] += elapsed
            if pairs is not None:
                stat[2] += pairs(*args)
            if keep:
                tables.append(result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def group_metrics(self):
        """{group: [calls, self seconds, term pairs]} summed over functions."""
        out = {group: [0, 0.0, 0] for group in layers.GROUPS}
        for name, (calls, self_s, pairs) in self.stats.items():
            acc = out[self.group_of[name]]
            acc[0] += calls
            acc[1] += self_s
            acc[2] += pairs
        return out

    def idle_where_expected(self, workload):
        """Wrapped functions with no call, in layers expected to work here."""
        idle = []
        for name, (calls, _, _) in sorted(self.stats.items()):
            layer = self.group_of[name].partition(".")[0]
            if calls == 0 and workload in layers.LAYERS[layer][0]:
                idle.append(name)
        return idle


def den_degree_max(table):
    """Largest denominator degree among the rational functions of a table."""
    return max((rf.den.degree() for gamma in table.table.values()
                for row in gamma for rf in row), default=0)


def bits_max(obj):
    """Largest numerator or denominator bit length in a library value."""
    if obj is None or isinstance(obj, (bool, str)):
        return 0
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if isinstance(obj, Fraction):
        return max(abs(obj.numerator).bit_length(),
                   obj.denominator.bit_length())
    if isinstance(obj, dict):
        return max((bits_max(v) for v in obj.values()), default=0)
    if isinstance(obj, (list, tuple)):
        return max((bits_max(v) for v in obj), default=0)
    for attr in ("terms", "coeffs", "series", "entries", "coords",
                 "equations", "components", "witnesses"):
        if hasattr(obj, attr):
            return bits_max(getattr(obj, attr))
    if hasattr(obj, "num") and hasattr(obj, "den"):
        return max(bits_max(obj.num), bits_max(obj.den))
    raise TypeError(f"no bit count for {type(obj).__name__}")
