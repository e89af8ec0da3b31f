"""Span tracer that wraps srdcert's entry points from outside the package.

``Tracer.install`` replaces each public function of the seven layer modules
in every srdcert namespace that bound it by name, so that a call through
``srdcert.simulate.frequency_integral`` is traced like one through
``srdcert.certify.frequency_integral``.  It also wraps ``Kernel.__call__``,
the private tabulated-measure cumulant (to count its values), and every
integrand handed to ``integrate_segments`` or ``integrate_box``.  An
integrand span belongs to the layer that called the quadrature, so the
quadrature layer keeps only the time spent in the integration routine.
``Tracer.uninstall`` restores the originals.

Spans live in memory as parallel arrays (name, parent, job, start, end) and
are written out after the measurement.  A layer's self time is the summed
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import types
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "certify", "spectral", "quadrature", "kernels", "levy",
          "simulate")
QUADRATURE_ENTRIES = ("integrate_segments", "integrate_box")
# private functions traced for a count the public ones cannot give
PRIVATE_ENTRIES = {"levy": ("_tabulated_jump_cumulant",)}


def _bound_arg(fn, name: str):
    """Reader of argument ``name`` of ``fn`` from a call's (args, kwargs)."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return read


def _counters(layer_fns: dict[str, object]) -> dict[str, tuple[str, object]]:
    """Span name -> (count name, increment computed from (args, kwargs))."""
    sample_config = _bound_arg(layer_fns["simulate.sample_field"], "config")
    n_triples = _bound_arg(layer_fns["simulate.factorization_check"], "n_triples")
    points = lambda a, k: np.size(a[1])
    return {
        "kernels.Kernel.__call__":
            ("kernels.points", lambda a, k: np.size(a[1]) // a[0].dim),
        "levy.cumulant": ("levy.cumulant.points", points),
        "levy.cumulant_re": ("levy.cumulant.points", points),
        "simulate.sample_field":
            ("simulate.samples", lambda a, k: sample_config(a, k).n_samples),
        "simulate.factorization_check": ("simulate.triples", n_triples),
    }


class Tracer:
    """Records spans of srdcert calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.job_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn, count=None):
        """``fn`` wrapped so that each call records one span named ``name``."""
        nid = self._name_id(name)
        stack, counts = self._stack, self.counts
        span_name, span_parent, span_job = self.name, self.parent, self.job
        span_start, span_end = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                counts[count[0]] += count[1](args, kwargs)
            sid = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_job.append(self.job_id)
            span_end.append(0.0)
            stack.append(sid)
            span_start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[sid] = perf_counter()
                stack.pop()

        return traced

    def _quadrature_span(self, name: str, fn):
        """Like ``_span``, and the integrand becomes a span of the caller's
        layer."""
        traced = self._span(name, fn)

        @functools.wraps(fn)
        def entry(*args, **kwargs):
            caller = self.names[self.name[self._stack[-1]]].split(".")[0] \
                if self._stack else "bench"
            integrand = f"{caller}.integrand"
            if "func" in kwargs:
                kwargs["func"] = self._span(integrand, kwargs["func"])
            else:
                args = (self._span(integrand, args[0]), *args[1:])
            return traced(*args, **kwargs)

        return entry

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from srdcert.kernels import Kernel

        modules = {n: m for n, m in sys.modules.items()
                   if n == "srdcert" or n.startswith("srdcert.")}
        originals: dict[str, object] = {}
        for layer in LAYERS:
            mod = modules[f"srdcert.{layer}"]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and (not attr.startswith("_")
                             or attr in PRIVATE_ENTRIES.get(layer, ()))):
                    originals[f"{layer}.{attr}"] = obj
        originals["kernels.Kernel.__call__"] = Kernel.__call__
        counters = _counters(originals)

        wrappers: dict[int, object] = {}
        for name, fn in originals.items():
            if name.split(".")[-1] in QUADRATURE_ENTRIES:
                wrappers[id(fn)] = self._quadrature_span(name, fn)
            else:
                wrappers[id(fn)] = self._span(name, fn, counters.get(name))
        for ns in [*modules.values(), Kernel]:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._restore):
            setattr(ns, attr, obj)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Self time per layer; calls, per job and in all, and inclusive
        time per span name.

        Inclusive times are plain sums, so they are meant for entry points
        that do not call themselves.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        layer_self: dict[str, float] = defaultdict(float)
        job_calls: dict[int, Counter] = defaultdict(Counter)
        inclusive: dict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            layer_self[name.split(".")[0]] += own[i]
            job_calls[self.job[i]][name] += 1
            inclusive[name] += dur[i]
        calls = sum(job_calls.values(), Counter())
        return dict(layer_self=dict(layer_self), calls=dict(calls),
                    inclusive=dict(inclusive), counts=dict(self.counts),
                    job_calls={j: dict(c) for j, c in job_calls.items()},
                    spans=len(dur))

    def write(self, fh, pass_index: int) -> None:
        """Append this tracer's spans as CSV rows to a text file handle."""
        t0 = self.start[0] if len(self.start) else 0.0
        for i in range(len(self.start)):
            fh.write(f"{pass_index},{i},{self.parent[i]},{self.job[i]},"
                     f"{self.names[self.name[i]]},"
                     f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")


def write_spans(path, tracers: list[Tracer]) -> None:
    """All spans of the traced passes, one gzip-compressed CSV file."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("pass,span,parent,job,name,start_s,end_s\n")
        for k, tracer in enumerate(tracers):
            tracer.write(fh, k)
