"""Span tracer that wraps the library's public callables from outside.

``Tracer.install()`` replaces every public function of the traced modules,
every public method (plus ``__init__`` and ``__call__``) of the classes they
define, and the ``ndtri`` name that ``streams`` imports from scipy.  A
function bound into other modules by ``from ... import`` is replaced there
too, so ``noise.make_basis`` is traced as ``bases.make_basis``.  Class
objects are never replaced, only their methods, so ``isinstance`` checks and
aliases such as ``kernels.GaussianNoiseField`` keep working.

Spans are aggregated in memory per callable, keyed ``module:qualname``:
calls, total and self time (span time minus the time its child spans cover),
elements returned, exceptions raised, calls that opened no child span, and
for the coefficient methods of ``noise`` the nonzero share of the returned
vector.  ``uninstall()`` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types

import numpy as np

MODULES = (
    "cli", "streams", "noise", "bases", "measures", "ifs",
    "quadrature", "sigma", "bernoulli", "kernels",
)
FOREIGN = {"streams": ("ndtri",)}
NONZERO_KEYS = (
    "noise:GaussianNoiseField.coefficients",
    "noise:GaussianNoiseField.ito_coefficients",
)
CALLS, TOTAL, SELF, VALUES, ERRORS, LEAF, NONZERO, SIZE = range(8)


def _size(value) -> int:
    if isinstance(value, np.ndarray):
        return value.size
    if isinstance(value, tuple):
        return sum(v.size for v in value if isinstance(v, np.ndarray))
    return 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0, 0, 0, 0, 0])
        stack = self._stack
        clock = time.perf_counter
        count_nonzero = key in NONZERO_KEYS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0]  # time covered by child spans, number of child spans
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stats[ERRORS] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stats[CALLS] += 1
                stats[TOTAL] += dt
                stats[SELF] += dt - frame[0]
                if frame[1] == 0:
                    stats[LEAF] += 1
                if stack:
                    stack[-1][0] += dt
                    stack[-1][1] += 1
            stats[VALUES] += _size(out)
            if count_nonzero:
                stats[NONZERO] += int(np.count_nonzero(out))
                stats[SIZE] += out.size
            return out

        return traced

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"noisefield.{m}") for m in MODULES}
        holders = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "noisefield"]
        wrappers = {}  # id(original function) -> wrapper
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(f"{short}:{obj.__qualname__}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, fn in list(vars(obj).items()):
                        public = not attr.startswith("_") or attr in ("__init__", "__call__")
                        if public and isinstance(fn, types.FunctionType):
                            self._patch(obj, attr, self._wrap(f"{short}:{fn.__qualname__}", fn))
            for name in FOREIGN.get(short, ()):
                self._patch(mod, name, self._wrap(f"{short}:{name}", vars(mod)[name]))
        for mod in holders:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                    self._patch(mod, name, wrappers[id(obj)])
        return self

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
