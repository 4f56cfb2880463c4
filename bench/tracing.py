"""Span recording around calls into the sdlwr layers.

Spans are opened from the benchmark's own code, around each call into a
public function of one of the seven modules, and kept in memory until
the run ends.  A span's layer is the part of its name before the first
dot, so ``riemann_solver.solve`` belongs to ``riemann_solver``.

The diagram subclasses at the bottom add one span per ``flux_curve``
call.  They are how the traced run sees the diagram layer from inside
the solver, the march and the ring prediction, and how it counts the
scalar flux evaluations a Riemann solve or a prediction costs.
"""

from __future__ import annotations

import contextlib
import gzip
import time
from collections import defaultdict

from sdlwr import GreenshieldsDiagram, KernerKonhauserDiagram, TriangularDiagram

LAYERS = (
    "fundamental_diagram",
    "supply_demand",
    "riemann_solver",
    "godunov_sim",
    "ring_analysis",
    "verify_cases",
    "cli",
)

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    def span(self, name):
        return _NULL

    def op(self, name):
        return _NULL


class Tracer:
    """In-memory spans: (id, name, start_ns, end_ns, parent_id, op_id).

    ``op`` opens a workload operation; every span opened inside it shares
    its op id.  Spans nest through a stack, which is exact for the
    single-threaded benchmark.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = 0
        self._ops = 0

    @contextlib.contextmanager
    def op(self, name):
        self._ops += 1
        outer, self._op = self._op, self._ops
        try:
            with self.span(name):
                yield
        finally:
            self._op = outer

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self._op)

    def mark(self):
        """Position to slice the spans recorded after this point."""
        return len(self.spans)

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_ns,end_ns,parent,op\n")
            for s in self.spans:
                fh.write("%d,%s,%d,%d,%d,%d\n" % s)


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Per-layer self time (ns) and span counts over a list of spans.

    Self time is a span's duration minus the durations of its direct
    children; op spans (names outside the seven layers) only subtract.
    """
    child_ns = defaultdict(int)
    for s in spans:
        if s[4] >= 0:
            child_ns[s[4]] += s[3] - s[2]
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    for s in spans:
        layer = layer_of(s[1])
        if layer in LAYERS:
            self_ns[layer] += s[3] - s[2] - child_ns[s[0]]
            calls[layer] += 1
    return self_ns, calls


def children_per_parent(spans, parent_name, child_name):
    """Mean number of ``child_name`` spans nested anywhere below each
    ``parent_name`` span, and the number of parents."""
    by_id = {s[0]: s for s in spans}
    parents = {s[0] for s in spans if s[1] == parent_name}
    hits = 0
    for s in spans:
        if s[1] != child_name:
            continue
        p = s[4]
        while p >= 0:
            if p in parents:
                hits += 1
                break
            p = by_id[p][4] if p in by_id else -1
    return (hits / len(parents) if parents else 0.0), len(parents)


class _TracedFlux:
    """Mixin: one ``fundamental_diagram.flux_curve`` span per call."""

    tracer = NullTracer()

    def flux_curve(self, rho):
        with self.tracer.span("fundamental_diagram.flux_curve"):
            return super().flux_curve(rho)


class TracedKK(_TracedFlux, KernerKonhauserDiagram):
    pass


class TracedGS(_TracedFlux, GreenshieldsDiagram):
    pass


class TracedTri(_TracedFlux, TriangularDiagram):
    pass


class Families:
    """Diagram constructors for one run: plain, or traced into ``tracer``.

    Traced diagrams are built with tracing off, so their constructors'
    critical-point searches do not count as solver work.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.kk_cls = KernerKonhauserDiagram if tracer is None else TracedKK
        self.gs_cls = GreenshieldsDiagram if tracer is None else TracedGS
        self.tri_cls = TriangularDiagram if tracer is None else TracedTri

    def _attach(self, fd):
        if self.tracer is not None:
            fd.tracer = self.tracer
        return fd

    def kk(self, lanes):
        return self._attach(self.kk_cls(lanes=lanes))

    def gs(self, v_free, rho_jam):
        return self._attach(self.gs_cls(v_free, rho_jam))

    def tri(self, v_free, rho_jam, q_max, v_cong):
        return self._attach(self.tri_cls(v_free, rho_jam, q_max=q_max, v_cong=v_cong))

    def verify_set(self):
        """The four diagram families ``sdlwr verify`` draws from."""
        return {
            "gs": self.gs(27.8e-3, 120.0),
            "tri": self.tri(30e-3, 150.0, 0.6, 6e-3),
            "kk1": self.kk(1.0),
            "kk2": self.kk(2.0),
        }
