"""Per-layer self time and work counts, recorded from outside the package.

install() replaces every public function of the landauspec modules (and the
public methods of the classes they define) with a wrapper that records a
span.  Names bound by `from .specfun import ...` and the like inside other
modules are rebound too, so calls between modules are seen.  Generator
functions are timed across their whole iteration, one span per resumed step.

A layer's self time is the time inside its spans minus the time inside the
wrapped calls they make.  Rule-cache misses come from cache_info().
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

import numpy as np

LAYER_MODULES = ("quadrature", "specfun", "wigner", "symbols", "operators",
                 "capacity", "asymptotics", "cli")

# operators' public functions by stage; the rest count as operators.other
_OPERATOR_STAGES = {
    "assembly": ("assemble_hv", "kernel_pair_matrix", "weyl_matrix"),
    "moment": ("toeplitz_radial_eigs", "antiwick_radial_eigs", "weyl_radial_eigs",
               "weyl_radial_eigs_fourier"),
    "eigensolve": ("eig_hermitian",),
}

_RULE_FUNCTIONS = ("gauss_hermite", "gauss_laguerre", "gauss_legendre_panel")


def _size(x):
    return int(np.size(x))


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self.rule_caches = []

    # -- spans ---------------------------------------------------------------

    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, layer, t0):
        dur = time.perf_counter() - t0
        child = self._stack.pop()
        self.self_s[layer] += dur - child
        if self._stack:
            self._stack[-1] += dur

    def wrap(self, layer, fn, on_call=None, on_step=None):
        """Span-recording wrapper; on_call(args, kwargs) and on_step(args) count work."""
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                if on_call:
                    on_call(args, kwargs)
                return _TimedGenerator(tracer, layer, fn(*args, **kwargs),
                                       (lambda: on_step(args)) if on_step else None)
            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if on_call:
                on_call(args, kwargs)
            t0 = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(layer, t0)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- rule cache ----------------------------------------------------------

    def _cache_totals(self):
        hits = misses = 0
        for f in self.rule_caches:
            info = f.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    def snapshot(self):
        """Layer self times and counts accumulated so far, with cache totals."""
        hits, misses = self._cache_totals()
        counts = dict(self.counts)
        counts["quadrature.rule_hits"] = hits
        counts["quadrature.rules_built"] = misses
        return {"self_s": dict(self.self_s), "counts": counts}


class _TimedGenerator:
    """Iterator proxy charging each resumed step to the generator's layer."""

    def __init__(self, tracer, layer, gen, on_step):
        self._tracer = tracer
        self._layer = layer
        self._gen = gen
        self._on_step = on_step
        self._first = True

    def __iter__(self):
        return self

    def __next__(self):
        t0 = self._tracer._enter()
        try:
            value = next(self._gen)
        finally:
            self._tracer._leave(self._layer, t0)
        if self._first:
            self._first = False
        elif self._on_step:
            self._on_step()
        return value


def _counters(tracer):
    """(on_call, on_step) per qualified name for the counted work units."""
    c = tracer.counts

    def add(key, fn):
        def counter(args, kwargs=None):
            c[key] += fn(args, kwargs or {})
        return counter

    def arg(args, kwargs, i, name):
        return args[i] if len(args) > i else kwargs[name]

    return {
        # recurrence steps x points
        "specfun.laguerre_fn_iter": (None, add("specfun.sweep_terms",
                                               lambda a, k: _size(arg(a, k, 1, "u")))),
        "specfun.hermite_fn_iter": (None, add("specfun.sweep_terms",
                                              lambda a, k: _size(arg(a, k, 0, "x")))),
        "specfun.laguerre": (add("specfun.sweep_terms",
                                 lambda a, k: int(a[0]) * _size(arg(a, k, 2, "xi"))), None),
        "specfun.laguerre_weighted": (add("specfun.sweep_terms",
                                          lambda a, k: int(a[0]) * _size(arg(a, k, 2, "xi"))),
                                      None),
        "specfun.hermite_poly": (add("specfun.sweep_terms",
                                     lambda a, k: int(a[0]) * _size(arg(a, k, 1, "x"))), None),
        "wigner.wigner_pair_diagonal_sweep": (add("wigner.pair_sweeps", lambda a, k: 1), None),
        "operators.kernel_pair_matrix": (add("operators.pairings",
                                             lambda a, k: int(arg(a, k, 1, "n")) ** 2), None),
        "symbols.RadialProfile.__call__": (add("symbols.eval_points",
                                               lambda a, k: _size(arg(a, k, 1, "s"))), None),
        "symbols.RadialProfile.log_value": (add("symbols.eval_points",
                                                lambda a, k: _size(arg(a, k, 1, "s"))), None),
        "capacity.CompactSet.project": (add("capacity.projections", lambda a, k: 1), None),
        "operators.toeplitz_radial_eigs": (add("operators.moment_values",
                                               lambda a, k: int(arg(a, k, 3, "count"))), None),
        "operators.antiwick_radial_eigs": (add("operators.moment_values",
                                               lambda a, k: int(arg(a, k, 1, "count"))), None),
        "operators.weyl_radial_eigs": (add("operators.moment_values",
                                           lambda a, k: int(arg(a, k, 1, "count"))), None),
        "operators.weyl_radial_eigs_fourier": (add("operators.moment_values",
                                                   lambda a, k: int(arg(a, k, 1, "count"))),
                                               None),
    }


def _layer_of(module_name, func_name):
    if module_name == "operators":
        for stage, names in _OPERATOR_STAGES.items():
            if func_name in names:
                return f"operators.{stage}"
        return "operators.other"
    return module_name


def install(package):
    """Wrap the package's public functions; returns the Tracer that collects spans."""
    tracer = Tracer()
    counters = _counters(tracer)
    modules = {name: getattr(package, name) for name in LAYER_MODULES}
    replaced = {}
    for mname, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                if issubclass(obj, BaseException):
                    continue
                for attr, meth in list(vars(obj).items()):
                    if not inspect.isfunction(meth) or \
                            (attr.startswith("_") and attr != "__call__"):
                        continue
                    on_call, on_step = counters.get(f"{mname}.{obj.__name__}.{attr}",
                                                    (None, None))
                    setattr(obj, attr, tracer.wrap(mname, meth, on_call, on_step))
                continue
            if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if name in _RULE_FUNCTIONS:
                tracer.rule_caches.append(obj)
            on_call, on_step = counters.get(f"{mname}.{name}", (None, None))
            wrapped = tracer.wrap(_layer_of(mname, name), obj, on_call, on_step)
            replaced[id(obj)] = wrapped
            setattr(mod, name, wrapped)
    # names bound by `from .x import y` inside the other modules
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced and vars(mod)[name] is not replaced[id(obj)]:
                setattr(mod, name, replaced[id(obj)])
    return tracer
