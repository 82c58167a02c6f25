"""Outside-in per-layer tracer for cavitycp.

The tracer changes no program file.  It wraps the public functions (the
``__all__`` functions) of each layer module at the namespaces where callers
look them up: every other cavitycp module that imported the name, plus the
defining module itself when a sibling imports that module as a whole (as the
CLI does with ``asymptotics``).  So ``cavitycp.greens.reflection_coefficients``
is wrapped, and calls inside ``materials`` stay unwrapped.  A name that no
longer exists is simply not wrapped, and the metrics that need it are left out
of the result instead of failing the run.

Each wrapped call is a span.  A layer's self time is the time its spans cover
minus the time of the spans they call.  The integrand passed to
``adaptive_integrate`` is wrapped too, so quadrature self time excludes it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict

# Layers from the top down; asymptotics/specfun are the oracle layer and
# config is set-up.
LAYERS = ("cli", "potential", "greens", "quadrature", "materials",
          "asymptotics", "specfun", "config")

REALFREQ = frozenset({"cavity_trace_realfreq", "single_plate_trace_parts"})
IMAGFREQ = frozenset({"cavity_trace_imagfreq", "single_plate_trace_imagfreq"})
ZEROFREQ = frozenset({"zero_frequency_trace_limit"})
# One call of this per Matsubara term; it is counted, not timed.
MATSUBARA_TERM = ("molecules", "matsubara_frequency")
# _matsubara_sum stops after range(1, 100_000): 99 999 terms.
MATSUBARA_CAP = 99_999

# Per-layer metrics: name -> (unit, better).  BENCHMARK.json lists the same.
PER_LAYER = {
    "materials.calls": ("count", "lower"),
    "materials.nodes": ("count", "lower"),
    "materials.nodes_per_call": ("nodes/call", "higher"),
    "materials.self_s": ("s", "lower"),
    "materials.static_calls": ("count", "lower"),
    "quadrature.calls": ("count", "lower"),
    "quadrature.panels": ("count", "lower"),
    "quadrature.nodes": ("count", "lower"),
    "quadrature.self_s": ("s", "lower"),
    "quadrature.kept_frac": ("ratio", "higher"),
    "quadrature.failures": ("count", "lower"),
    "greens.realfreq_calls": ("count", "lower"),
    "greens.realfreq_s": ("s", "lower"),
    "greens.imagfreq_calls": ("count", "lower"),
    "greens.imagfreq_s": ("s", "lower"),
    "greens.zerofreq_calls": ("count", "lower"),
    "greens.integrand_self_s": ("s", "lower"),
    "potential.matsubara_terms": ("count", "lower"),
    "potential.matsubara_terms_per_point": ("terms/point", "lower"),
    "potential.matsubara_truncated": ("count", "lower"),
    "potential.extremum_evals": ("traces/depth", "lower"),
    "potential.self_s": ("s", "lower"),
    "asymptotics.series_calls": ("count", "lower"),
    "asymptotics.series_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.rows": ("count", "higher"),
    "config.load_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class _Span:
    __slots__ = ("layer", "name", "start", "child", "terms")

    def __init__(self, layer, name, start):
        self.layer = layer
        self.name = name
        self.start = start
        self.child = 0.0
        self.terms = 0


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Collects spans and counts while installed; see metrics()."""

    def __init__(self):
        self._stack = []
        self._open = Counter()          # function name -> spans now open
        self.self_s = defaultdict(float)  # layer -> self time
        self.inclusive_s = defaultdict(float)  # function name -> outermost
        self.calls = Counter()          # function name -> calls
        self.entries = Counter()        # layer -> calls from another layer
        self.wrapped = set()            # (layer, function name)
        self.counts = Counter()
        self._restore = []

    # -- spans ------------------------------------------------------------

    def _enter(self, layer, name):
        stack = self._stack
        if not stack or stack[-1].layer != layer:
            self.entries[layer] += 1
        self.calls[name] += 1
        if name in REALFREQ and self._open["potential_depth"]:
            self.counts["extremum_evals"] += 1
        self._open[name] += 1
        span = _Span(layer, name, time.perf_counter())
        stack.append(span)
        return span

    def _exit(self, span):
        dur = time.perf_counter() - span.start
        self._stack.pop()
        self.self_s[span.layer] += dur - span.child
        if self._stack:
            self._stack[-1].child += dur
        self._open[span.name] -= 1
        if not self._open[span.name]:
            self.inclusive_s[span.name] += dur
        if span.terms:
            self.counts["matsubara_sums"] += 1
            if span.terms >= MATSUBARA_CAP:
                self.counts["matsubara_truncated"] += 1

    def exclude(self, seconds):
        """Leave out of every open span time spent outside the program,
        such as a speed sample taken mid-call."""
        for span in self._stack:
            span.start += seconds

    @contextmanager
    def span(self, layer, name):
        """A span around code the benchmark itself calls, e.g. cli.main."""
        s = self._enter(layer, name)
        try:
            yield
        finally:
            self._exit(s)

    # -- wrappers ---------------------------------------------------------

    def _plain(self, layer, name, fn):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(span)
        return wrapper

    def _materials(self, name, fn):
        """Also counts the k_perp nodes of each call into the layer."""
        params = list(inspect.signature(fn).parameters)
        if "k_perp" not in params:
            return self._plain("materials", name, fn)
        index = params.index("k_perp")
        enter, exit_, counts = self._enter, self._exit, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = args[index] if len(args) > index else kwargs.get("k_perp")
            counts["materials_nodes"] += getattr(k, "size", 1)
            span = enter("materials", name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(span)
        return wrapper

    def _integrator(self, name, fn):
        """adaptive_integrate: wraps the integrand it is given, so each
        integrand call (one panel) is counted and timed apart from the
        integrator's own bookkeeping."""
        sig = inspect.signature(fn)
        if not {"f", "lo", "hi"} <= set(sig.parameters):
            return self._plain("quadrature", name, fn)
        enter, exit_, counts = self._enter, self._exit, self.counts
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            f, lo, hi = (bound.arguments[k] for k in ("f", "lo", "hi"))
            # initial panels: [lo, hi] cut at the interior breakpoints
            initial = 1 + len({p for p in bound.arguments.get(
                "breakpoints", ()) if lo < p < hi})
            layer = (stack[-1].layer if stack else "none") + ".integrand"
            panels = [0]

            def integrand(x):
                panels[0] += 1
                counts["quadrature_nodes"] += getattr(x, "size", 1)
                span = enter(layer, "integrand")
                try:
                    return f(x)
                finally:
                    exit_(span)

            bound.arguments["f"] = integrand
            span = enter("quadrature", name)
            try:
                return fn(*bound.args, **bound.kwargs)
            except BaseException:
                counts["quadrature_failures"] += 1
                raise
            finally:
                exit_(span)
                # each split evaluates two panels and keeps them in place of
                # one: kept = initial + splits, evaluated = initial + 2 splits
                counts["quadrature_panels"] += panels[0]
                counts["quadrature_kept"] += (panels[0] + initial) // 2
        return wrapper

    def _term_counter(self, fn):
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["matsubara_terms"] += 1
            for span in reversed(stack):
                if span.layer == "potential":
                    span.terms += 1
                    break
            return fn(*args, **kwargs)
        return wrapper

    def _wrapper(self, layer, name, fn):
        if (layer, name) == MATSUBARA_TERM:
            return self._term_counter(fn)
        if layer == "materials":
            return self._materials(name, fn)
        if layer == "quadrature" and name == "adaptive_integrate":
            return self._integrator(name, fn)
        return self._plain(layer, name, fn)

    @contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of the block."""
        import cavitycp.cli  # noqa: F401  (loads every layer module)
        modules = {n: m for n, m in sys.modules.items()
                   if n == "cavitycp" or n.startswith("cavitycp.")}
        targets = [(layer, name) for layer in LAYERS
                   for name in getattr(modules.get(f"cavitycp.{layer}"),
                                       "__all__", ())]
        targets.append(MATSUBARA_TERM)
        siblings = [m for n, m in modules.items() if n != "cavitycp"]
        try:
            for layer, name in targets:
                home = modules.get(f"cavitycp.{layer}")
                fn = getattr(home, name, None)
                if not inspect.isfunction(fn):
                    continue
                # a sibling that imports the whole module looks names up in it
                home_is_looked_up = any(
                    m is not home and vars(m).get(layer) is home
                    for m in siblings)
                wrapper = self._wrapper(layer, name, fn)
                for mod in modules.values():
                    if vars(mod).get(name) is fn and (
                            mod is not home or home_is_looked_up):
                        setattr(mod, name, wrapper)
                        self._restore.append((mod, name, fn))
                        self.wrapped.add((layer, name))
            yield self
        finally:
            for mod, name, fn in reversed(self._restore):
                setattr(mod, name, fn)
            self._restore.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, rows: int, overhead_s: float) -> Dict[str, dict]:
        """Per-layer metrics; a metric whose functions were not found is
        left out."""
        layers = {layer for layer, _ in self.wrapped}
        names = {name for _, name in self.wrapped}
        c, calls = self.counts, self.calls
        quad = "adaptive_integrate" in names
        values = {
            "materials.calls": ("materials" in layers,
                                self.entries["materials"]),
            "materials.nodes": ("materials" in layers, c["materials_nodes"]),
            "materials.nodes_per_call": (
                "materials" in layers,
                _ratio(c["materials_nodes"], self.entries["materials"])),
            "materials.self_s": ("materials" in layers,
                                 self.self_s["materials"]),
            "materials.static_calls": ("static_limit_reflection" in names,
                                       calls["static_limit_reflection"]),
            "quadrature.calls": (quad, calls["adaptive_integrate"]),
            "quadrature.panels": (quad, c["quadrature_panels"]),
            "quadrature.nodes": (quad, c["quadrature_nodes"]),
            "quadrature.self_s": ("quadrature" in layers,
                                  self.self_s["quadrature"]),
            "quadrature.kept_frac": (quad, _ratio(c["quadrature_kept"],
                                                  c["quadrature_panels"])),
            "quadrature.failures": (quad, c["quadrature_failures"]),
            "greens.realfreq_calls": (bool(REALFREQ & names),
                                      sum(calls[n] for n in REALFREQ)),
            "greens.realfreq_s": (bool(REALFREQ & names),
                                  sum(self.inclusive_s[n] for n in REALFREQ)),
            "greens.imagfreq_calls": (bool(IMAGFREQ & names),
                                      sum(calls[n] for n in IMAGFREQ)),
            "greens.imagfreq_s": (bool(IMAGFREQ & names),
                                  sum(self.inclusive_s[n] for n in IMAGFREQ)),
            "greens.zerofreq_calls": (bool(ZEROFREQ & names),
                                      sum(calls[n] for n in ZEROFREQ)),
            "greens.integrand_self_s": (quad,
                                        self.self_s["greens.integrand"]),
            "potential.matsubara_terms": (MATSUBARA_TERM in self.wrapped,
                                          c["matsubara_terms"]),
            "potential.matsubara_terms_per_point": (
                MATSUBARA_TERM in self.wrapped,
                _ratio(c["matsubara_terms"], c["matsubara_sums"])),
            "potential.matsubara_truncated": (MATSUBARA_TERM in self.wrapped,
                                              c["matsubara_truncated"]),
            "potential.extremum_evals": (
                "potential_depth" in names and bool(REALFREQ & names),
                _ratio(c["extremum_evals"], calls["potential_depth"])),
            "potential.self_s": ("potential" in layers,
                                 self.self_s["potential"]),
            "asymptotics.series_calls": ("I_phi_series" in names,
                                         calls["I_phi_series"]),
            "asymptotics.series_s": ("I_phi_series" in names,
                                     self.inclusive_s["I_phi_series"]),
            "cli.self_s": (True, self.self_s["cli"]),
            "cli.rows": (True, rows),
            "config.load_s": ("config" in layers,
                              sum(self.inclusive_s[n] for layer, n
                                  in self.wrapped if layer == "config")),
            "trace.overhead_s": (True, overhead_s),
        }
        return {name: {"value": value, "unit": PER_LAYER[name][0]}
                for name, (present, value) in values.items() if present}
