"""Per-layer tracing from outside the package.

Wrappers are installed at every name a caller binds: `from .specialfn import
hyp2f1` copies the function into the importing module, so each module
attribute that is the original function is replaced, and put back by
`restore`.  No package code changes.

Coarse calls record a span (name, parent span, request, start, end) kept in
memory.  Hot inner calls only count: Bessel calls add their elements and time
to the enclosing span, erf-family calls and quadrature integrand evaluations
add a count.  A span's self time is its duration minus its child spans and
the hot time charged to it; a layer's busy time is the self time of its
spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import numpy as np

# (module, public functions, span name); a layer is the name's first part
SPANS = (
    ("specialfn", ("hyp2f1", "hyp2f1_via_pfaff"), "specialfn.hyp2f1"),
    ("coefficients", ("universal_constants", "eta_constants",
                      "ball_heat_coefficients", "a1_eta_ball",
                      "spinor_dimension", "sphere_volume", "ball_volume"),
     "coefficients"),
    ("identities", ("check_ball_cylinder_d1", "check_ball_cylinder_d2",
                    "check_c7_relation", "check_alternate_forms",
                    "check_evaluation_paths"), "identities.check"),
    ("identities", ("grid_report",), "identities.grid_report"),
    ("clifford", ("build_gamma",), "clifford.build_gamma"),
    ("clifford", ("chiral_projectors", "pi_plus_product"),
     "clifford.projector"),
    ("ball_spectrum", ("find_roots",), "ball_spectrum.find_roots"),
    ("ball_spectrum", ("heat_trace",), "ball_spectrum.heat_trace"),
    ("ball_spectrum", ("fit_heat_coefficients",), "ball_spectrum.fit"),
    ("cylinder", ("check_U1_integral", "check_U2_integral"),
     "cylinder.check_U"),
    ("cylinder", ("check_t_integral",), "cylinder.check_t"),
)
BESSEL = ("bessel_j", "bessel_j_prime")
ERF = ("erf", "erfc", "erfcx")
REQUEST_SPAN = "cli"


class Tracer:
    def __init__(self):
        # [name, parent index, request, start, end, hot seconds]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack = [-1]
        self._saved: list[tuple] = []
        self._spectrum = None  # the spectrum cache, read for its hit share

    def span(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack[-1] < 0:  # a new request
                self.request += 1
            rec = [name, stack[-1], self.request, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _bessel(self, fn):
        spans, stack, counts, clock = (self.spans, self._stack, self.counts,
                                       time.perf_counter)

        @functools.wraps(fn)
        def wrapper(p, x):
            t0 = clock()
            try:
                return fn(p, x)
            finally:
                dt = clock() - t0
                if stack[-1] >= 0:
                    spans[stack[-1]][5] += dt
                counts["specialfn.bessel.busy_s"] += dt
                counts["specialfn.bessel.elements"] += np.size(x)
        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _within(self) -> str:
        """Name of the innermost open span."""
        i = self._stack[-1]
        return self.spans[i][0] if i >= 0 else ""

    def install(self) -> None:
        """Wrap every binding of the traced functions in the package."""
        from chiralbag import ball_spectrum, cylinder, specialfn
        mods = {name.split(".")[-1]: mod for name, mod in
                list(sys.modules.items())
                if name == "chiralbag" or name.startswith("chiralbag.")}
        targets = [(mods.get(mod), f, functools.partial(
            self.span, name,
            on_result=self._roots if f == "find_roots" else None))
            for mod, funcs, name in SPANS for f in funcs]
        targets += [(specialfn, f, self._bessel) for f in BESSEL]
        targets += [(specialfn, f, functools.partial(
            self._counted, "specialfn.erfc.calls")) for f in ERF]
        wrappers = {}
        for mod, f, make in targets:
            orig = getattr(mod, f, None)  # a name no module has stays untraced
            if orig is not None:
                wrappers[id(orig)] = (orig, make(orig))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(mod, attr, hit[1])
        if hasattr(cylinder, "integrate"):
            self._replace(cylinder, "integrate",
                          _QuadProxy(cylinder.integrate, self))
        self._spectrum = getattr(ball_spectrum, "_spectrum", None)

    def _replace(self, mod, attr, new) -> None:
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def restore(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _roots(self, result) -> None:
        self.counts["ball_spectrum.roots_found"] += len(result.roots)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def layers(self) -> dict:
        """Per-layer metrics from the spans and counters."""
        child = [0.0] * len(self.spans)
        for name, parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        busy, calls = Counter(), Counter()
        for i, (name, parent, _, t0, t1, hot) in enumerate(self.spans):
            busy[name] += (t1 - t0) - child[i] - hot
            if parent < 0 or self.spans[parent][0] != name:
                calls[name] += 1  # nested calls of one layer count once
        c = self.counts
        hits = misses = 0
        if self._spectrum is not None:
            info = self._spectrum.cache_info()
            hits, misses = info.hits, info.misses
        checks_u = calls["cylinder.check_U"]
        roots = c["ball_spectrum.roots_found"]
        return {
            "specialfn.hyp2f1.calls": calls["specialfn.hyp2f1"],
            "specialfn.hyp2f1.busy_s": busy["specialfn.hyp2f1"],
            "specialfn.bessel.elements": c["specialfn.bessel.elements"],
            "specialfn.bessel.busy_s": c["specialfn.bessel.busy_s"],
            "specialfn.erfc.calls": c["specialfn.erfc.calls"],
            "coefficients.calls": calls["coefficients"],
            "coefficients.busy_s": busy["coefficients"],
            "identities.checks": calls["identities.check"],
            "identities.busy_s": busy["identities.check"]
            + busy["identities.grid_report"],
            "clifford.build_gamma.calls": calls["clifford.build_gamma"],
            "clifford.build_gamma.busy_s": busy["clifford.build_gamma"],
            "clifford.projector.calls": calls["clifford.projector"],
            "clifford.projector.busy_s": busy["clifford.projector"],
            "ball_spectrum.find_roots.calls":
                calls["ball_spectrum.find_roots"],
            "ball_spectrum.find_roots.busy_s":
                busy["ball_spectrum.find_roots"],
            "ball_spectrum.roots_found": roots,
            "ball_spectrum.bessel_per_root":
                c["specialfn.bessel.elements"] / roots if roots else 0.0,
            "ball_spectrum.heat_trace.busy_s":
                busy["ball_spectrum.heat_trace"],
            "ball_spectrum.fit.busy_s": busy["ball_spectrum.fit"],
            "ball_spectrum.spectrum_cache_hit_share":
                hits / (hits + misses) if hits + misses else 0.0,
            "cylinder.check_U.busy_s": busy["cylinder.check_U"],
            "cylinder.check_t.busy_s": busy["cylinder.check_t"],
            "cylinder.quad_calls_per_check":
                c["quad.calls", "cylinder.check_U"] / checks_u
                if checks_u else 0.0,
            "cylinder.integrand_evals_per_check":
                c["quad.evals", "cylinder.check_U"] / checks_u
                if checks_u else 0.0,
            "cli.busy_s": busy[REQUEST_SPAN],
        }


class _QuadProxy:
    """Stands in for `scipy.integrate` in the cylinder module: counts quad
    calls and integrand evaluations under the enclosing span."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._module, attr)

    def quad(self, func, *args, **kwargs):
        tracer = self._tracer
        within = tracer._within()
        tracer.counts["quad.calls", within] += 1

        def counted(*a):
            tracer.counts["quad.evals", within] += 1
            return func(*a)
        return self._module.quad(counted, *args, **kwargs)
