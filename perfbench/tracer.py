"""Span tracing installed from outside the library.

A traced run replaces selected public functions of fareyflow, two class
methods, and the numpy/scipy kernels they lean on with wrappers that record
one span per call: [layer name, start, end, index of the enclosing span].
Nothing under src/ is edited; the wrappers are removed when the run ends.

Self time of a span is its duration minus the time covered by its direct
children.  The run is single-threaded, so children nest strictly and their
coverage is the sum of their durations.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.fft

# Functions defined in fareyflow: (layer name, defining module, attribute).
# Every fareyflow module that imported the name with `from .x import f` gets
# the same wrapper, so each call is counted once whichever namespace calls it.
FUNCTIONS = [
    ("coulomb.coulomb_fix", "fareyflow.coulomb", "coulomb_fix"),
    ("coulomb.neumann_poisson", "fareyflow.coulomb", "neumann_poisson"),
    ("coulomb.diff4", "fareyflow.coulomb", "diff4"),
    ("coulomb.div_residuals", "fareyflow.coulomb", "div_residuals"),
    ("coulomb.gauge_act", "fareyflow.coulomb", "gauge_act"),
    ("coulomb.grid_norms", "fareyflow.coulomb", "grid_norms"),
    ("torus_he.donaldson_flow", "fareyflow.torus_he.donaldson", "donaldson_flow"),
    ("torus_he.donaldson_functional", "fareyflow.torus_he.donaldson",
     "donaldson_functional"),
    ("torus_he.metric_log", "fareyflow.torus_he.donaldson", "metric_log"),
    ("torus_he.i_lambda_F_metric", "fareyflow.torus_he.hermitian", "i_lambda_F_metric"),
    ("torus_he.build_model_bundle", "fareyflow.torus_he.model", "build_model_bundle"),
    ("torus_he.he_residual", "fareyflow.torus_he.hermitian", "he_residual"),
    ("torus_he.theta_section", "fareyflow.torus_he.model", "theta_section"),
    ("torus_he.second_fundamental_form", "fareyflow.torus_he.hermitian",
     "second_fundamental_form"),
    ("contfrac.gauss_digit_density", "fareyflow.contfrac", "gauss_digit_density"),
    ("contfrac.lagrange_estimate", "fareyflow.contfrac", "lagrange_estimate"),
    ("farey.enumerate_triangles", "fareyflow.farey", "enumerate_triangles"),
    ("farey.is_farey_triangle", "fareyflow.farey", "is_farey_triangle"),
    ("stability.lattice_interior_count", "fareyflow.stability", "lattice_interior_count"),
    ("stability.select_subsequence", "fareyflow.stability", "select_subsequence"),
    ("cli.run", "fareyflow.cli", "run"),
    ("reporting.write_report", "fareyflow.reporting", "write_report"),
]

# Methods, wrapped once on the class that defines them.
METHODS = [
    ("torus_he.MetricField.sqrt_pair", "fareyflow.torus_he.fields", "MetricField",
     "sqrt_pair"),
    ("torus_he.WeylTransform.apply_symbol", "fareyflow.torus_he.twist", "WeylTransform",
     "apply_symbol"),
]

# Kernel entry points, wrapped on the numpy/scipy namespaces that fareyflow
# calls them through (it always writes np.linalg.eigh, scipy.fft.dct, ...).
KERNELS = [
    ("kernel.eigh", np.linalg, "eigh"),
    ("kernel.eigh", np.linalg, "eigvalsh"),
    ("kernel.einsum", np, "einsum"),
    ("kernel.fft", scipy.fft, "dst"),
    ("kernel.fft", scipy.fft, "dct"),
    ("kernel.fft", np.fft, "fft2"),
    ("kernel.fft", np.fft, "ifft2"),
]


def _count_euclid_steps(counters, args, kwargs, result):
    """samples x depth minus early terminations of gauss_digit_density."""
    depth = kwargs["depth"] if "depth" in kwargs else args[1]
    counters["contfrac.euclid_steps"] += result.samples * depth - result.short_expansions


HOOKS = {"contfrac.gauss_digit_density": _count_euclid_steps}


class Tracer:
    """Records spans in memory while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = HOOKS.get(name)

        def enter():
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            spans[idx][1] = time.perf_counter()
            return idx

        def leave(idx):
            spans[idx][2] = time.perf_counter()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's work between yields
            # is not charged to the generator
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = enter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        leave(idx)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(idx)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result
        return traced

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "fareyflow" or n.startswith("fareyflow."))]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        for name, module, cls, attr in METHODS:
            owner = getattr(sys.modules[module], cls)
            self._patch(owner, attr, self._wrap(name, vars(owner)[attr]))
        for name, owner, attr in KERNELS:
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counters recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("cannot take spans while %d are open" % len(self._stack))
        spans, counters = list(self.spans), Counter(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per layer name: number of calls and summed self time in seconds."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for (name, t0, t1, _), covered in zip(spans, child):
        out[name]["calls"] += 1
        out[name]["self_s"] += (t1 - t0) - covered
    return dict(out)
