"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper under every name that refers to the function in the
package's modules: ``harness`` and ``bounds`` import ``enclose`` and
``derive`` by name, so patching the defining module alone would miss their
calls.  It also wraps ``scipy.sparse.linalg.splu``, which the oracle looks
up through that module, and counts ``solve`` calls on each factor it
returns.  Spans stay in memory; ``remove`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import threading
import time

LAYERS = (
    "pde_oracle",
    "closed_forms",
    "polycert",
    "constants",
    "bounds",
    "geometry",
    "harness",
)

# spectral percentiles need this many calls to say anything about a tail
MIN_PERCENTILE_CALLS = 40


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "child_s", "info")

    def __init__(self, layer: str, name: str, parent):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.info: dict = {}
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class _CountingLU:
    """Pass-through for a SuperLU factor that counts ``solve`` calls."""

    __slots__ = ("_lu", "_span")

    def __init__(self, lu, span: Span):
        self._lu = lu
        self._span = span

    def solve(self, *args, **kwargs):
        self._span.info["solves"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _open(self, layer: str, name: str) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(layer, name, stack[-1] if stack else None)
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            _note(span, result)
            return result

        return traced

    def _wrap_splu(self, splu):
        tracer = self

        @functools.wraps(splu)
        def traced_splu(*args, **kwargs):
            span = tracer._open("pde_oracle", "splu")
            try:
                lu = splu(*args, **kwargs)
            finally:
                tracer._close(span)
            span.info["nnz"] = int(lu.nnz)
            span.info["solves"] = 0
            return _CountingLU(lu, span)

        return traced_splu

    # -- patching -------------------------------------------------------

    def _set(self, namespace, attr: str, value) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self) -> None:
        import scipy.sparse.linalg as spla

        modules = [getattr(self.package, layer) for layer in LAYERS]
        namespaces = modules + [self.package]
        for layer, module in zip(LAYERS, modules):
            for name, fn in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapper = self._wrap(layer, name, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, attr, wrapper)
        self._set(spla, "splu", self._wrap_splu(spla.splu))

    def remove(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    # -- per-layer metrics ----------------------------------------------

    def metrics(self, wall_s: float, base_level: int | None) -> dict:
        """Per-layer figures of one traced pass that took ``wall_s``."""
        spans = self.spans

        def named(layer, *names):
            return [s for s in spans if s.layer == layer and s.name in names]

        def entries(layer):
            return [
                s
                for s in spans
                if s.layer == layer and (s.parent is None or s.parent.layer != layer)
            ]

        def self_s(layer):
            return sum(s.self_s for s in spans if s.layer == layer)

        splu = named("pde_oracle", "splu")
        spectral = named("pde_oracle", "spectral")
        meshes = named("pde_oracle", "mesh_domain", "refine")
        durations_ms = sorted(1e3 * s.duration for s in spectral)
        if len(durations_ms) >= MIN_PERCENTILE_CALLS:
            cuts = statistics.quantiles(durations_ms, n=20, method="inclusive")
            p50, p95 = statistics.median(durations_ms), cuts[18]
        else:
            p50 = p95 = 0.0
        escalated = 0
        if base_level is not None:
            escalated = sum(1 for s in spectral if s.info["max_level"] > base_level)
        bessel = named("closed_forms", "bessel_zero_bracket")
        certify = named("polycert", "certify_nonpositive")
        enclose = named("constants", "enclose")
        covered = _union_length(
            (s.start, s.end) for s in spans if s.layer != "harness"
        )
        return {
            "pde_oracle.factorizations": len(splu),
            "pde_oracle.factor_s": sum(s.duration for s in splu),
            "pde_oracle.lu_solves": sum(s.info["solves"] for s in splu),
            "pde_oracle.lu_nnz": sum(s.info["nnz"] for s in splu),
            "pde_oracle.eigen_s": sum(s.self_s for s in spectral),
            "pde_oracle.mesh_s": sum(s.duration for s in meshes),
            "pde_oracle.torsion_s": sum(
                s.duration for s in named("pde_oracle", "solve_torsion")
            ),
            "pde_oracle.spectral_calls": len(spectral),
            "pde_oracle.spectral_s": sum(s.duration for s in spectral),
            "pde_oracle.spectral_p50_ms": p50,
            "pde_oracle.spectral_p95_ms": p95,
            "pde_oracle.elements": sum(s.info["elements"] for s in meshes),
            "pde_oracle.escalated_calls": escalated,
            "closed_forms.calls": len(entries("closed_forms")),
            "closed_forms.s": self_s("closed_forms"),
            "closed_forms.terms": sum(
                s.info.get("terms", 0) for s in spans if s.layer == "closed_forms"
            ),
            "closed_forms.bessel_brackets": len(bessel),
            "closed_forms.bessel_s": sum(s.duration for s in bessel),
            "polycert.certify_calls": len(certify),
            "polycert.certify_s": sum(s.duration for s in certify),
            "polycert.intervals": sum(s.info["intervals"] for s in certify),
            "constants.enclose_calls": len(enclose),
            "constants.enclose_s": sum(s.duration for s in enclose),
            "bounds.calls": len(entries("bounds")),
            "bounds.s": self_s("bounds"),
            "geometry.calls": len(entries("geometry")),
            "geometry.s": self_s("geometry"),
            "harness.self_s": wall_s - covered,
        }


def _note(span: Span, result) -> None:
    """Record the work counts a span's result carries."""
    if span.name == "spectral":
        span.info["max_level"] = result.levels[-1]
    elif span.name == "mesh_domain":
        span.info["elements"] = len(result.elements)
    elif span.name == "refine":
        span.info["elements"] = len(result[0].elements)
    elif span.name == "certify_nonpositive":
        span.info["intervals"] = len(result.intervals)
    terms = getattr(result, "terms_used", None)
    if terms is not None:
        span.info["terms"] = terms


def _union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
