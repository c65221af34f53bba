"""Spans and counters recorded around calls into corona_lab's public API.

``install`` wraps the functions and methods listed below for the life of
the process, or until the callable it returns restores them.  A wrapped function is
rebound in every corona_lab module that imported it by name, so calls made
from inside the CLI are recorded too; nothing under src/ changes.  Spans
stay in memory as ``[name, start, end, parent, op]`` records and are
written out only after the run.
"""

import argparse
import functools
import importlib
import sys
import time

# (module, attribute or Class.method, span name)
SPANS = (
    ("cli", "build_parser", "cli.parse"),
    ("argparse", "ArgumentParser.parse_args", "cli.parse"),
    ("serialize", "load_json", "serialize.load"),
    ("serialize", "dumps", "serialize.dumps"),
    ("blaschke", "BlaschkeProduct.__call__", "blaschke.eval"),
    ("blaschke", "BlaschkeProduct.derivative", "blaschke.derivative"),
    ("blaschke", "carleson_diagnostics", "blaschke.carleson"),
    ("blaschke", "construct_ladder", "blaschke.ladder"),
    ("blaschke", "min_modulus_on_disc", "blaschke.min_modulus"),
    ("blaschke", "compose_with_mobius", "blaschke.compose"),
    ("hoffman", "schwarz_check", "hoffman.schwarz"),
    ("hoffman", "compose_trace", "hoffman.trace"),
    ("hoffman", "CompositionTrace.to_csv", "hoffman.csv"),
    ("hoffman", "l2_distance_to_identity", "hoffman.l2"),
    ("measures", "PushforwardDensity.mass", "measures.pushforward_mass"),
    ("measures", "SimpleDensity.__call__", "measures.density_eval"),
    ("measures", "fit_simple_density", "measures.fit"),
    ("measures", "nnls", "measures.nnls"),
    ("measures", "quartiles", "measures.quartiles"),
    ("measures", "align_arcs", "measures.align"),
    ("measures", "poisson_integral", "measures.poisson"),
    ("quadrature", "integrate_piecewise", "quadrature.piecewise"),
    ("corona", "bezout_exact", "corona.exact"),
    ("corona", "bezout_numeric", "corona.numeric"),
    ("corona", "check_certificate", "corona.check"),
    ("corona", "measure_delta", "corona.delta"),
    ("exactpoly", "iterated_xgcd", "exactpoly.xgcd"),
    ("exactpoly", "combination", "exactpoly.combination"),
    ("functions", "FunctionSpec.__call__", "functions.eval"),
    ("functions", "FunctionSpec.sup_norm_estimate", "functions.sup_norm"),
)

# hot helpers get a counter only: a span per call would cost more than the call
COUNTERS = (
    ("disc_geometry", "pseudo_distance", "disc_geometry.pseudo_distance_calls"),
    ("disc_geometry", "MobiusAut.apply", "disc_geometry.mobius_calls"),
    ("disc_geometry", "MobiusAut.inverse", "disc_geometry.mobius_calls"),
    ("exactpoly", "poly_divmod", "exactpoly.divmod_calls"),
)

# the integrand handed to integrate_piecewise is counted per call and per node
INTEGRAND_CALLS = "quadrature.integrand_calls"
NODES_EVALUATED = "quadrature.nodes_evaluated"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = -1
        self._stack = []

    def begin(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def end(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                args = hook(args)
            rec = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(rec)
        return traced

    def counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def count_integrand(self, args):
        f, rest = args[0], args[1:]
        counts = self.counts
        counts.setdefault(INTEGRAND_CALLS, 0)
        counts.setdefault(NODES_EVALUATED, 0)

        def integrand(theta):
            counts[INTEGRAND_CALLS] += 1
            counts[NODES_EVALUATED] += len(theta)
            return f(theta)
        return (integrand,) + rest


def _module(name: str):
    if name == "argparse":
        return argparse
    return importlib.import_module(f"corona_lab.{name}")


def _rebind(orig, wrapper, owner, undo) -> None:
    """Point every name bound to ``orig`` at ``wrapper``: the class dict for
    a method, every corona_lab module namespace for a function."""
    if owner is not None:
        spaces = [owner]
    else:
        spaces = [m for n, m in sorted(sys.modules.items())
                  if n == "corona_lab" or n.startswith("corona_lab.")]
    for space in spaces:
        for key, value in list(vars(space).items()):
            if value is orig:
                setattr(space, key, wrapper)
                undo.append((space, key, orig))


def install(tracer: Tracer):
    """Wrap every listed function; returns a callable that restores them."""
    undo = []
    for modname, attr, name in SPANS + COUNTERS:
        mod = _module(modname)
        owner = None
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(mod, cls_name)
            orig = vars(owner)[attr]
        else:
            orig = getattr(mod, attr)
        if (modname, attr) == ("quadrature", "integrate_piecewise"):
            wrapper = tracer.span(name, orig, hook=tracer.count_integrand)
        elif name.endswith("_calls"):
            wrapper = tracer.counter(name, orig)
        else:
            wrapper = tracer.span(name, orig)
        _rebind(orig, wrapper, owner, undo)

    def restore():
        for space, key, orig in reversed(undo):
            setattr(space, key, orig)
    return restore


# ----------------------------------------------------------------- analysis

def self_times(spans) -> dict:
    """Busy time per span name, each span minus the time its children cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for (name, start, end, _, _), kids in zip(spans, covered):
        out[name] = out.get(name, 0.0) + (end - start - kids)
    return out


def span_counts(spans) -> dict:
    out = {}
    for rec in spans:
        out[rec[0]] = out.get(rec[0], 0) + 1
    return out


def inclusive_by_op(spans, name: str) -> dict:
    """Total wall time of ``name`` spans per op index."""
    out = {}
    for n, start, end, _, op in spans:
        if n == name:
            out[op] = out.get(op, 0.0) + (end - start)
    return out


def parse_importtime(stderr: str) -> dict:
    """Import times in ms from ``-X importtime`` output.

    interpreter: cumulative time of the top-level imports up to and
    including ``site`` (interpreter start-up); the other keys are the
    cumulative time of the first import of that module.
    """
    out = {"interpreter": 0.0, "numpy": 0.0, "scipy_optimize": 0.0, "corona_lab": 0.0}
    wanted = {"numpy": "numpy", "scipy.optimize": "scipy_optimize",
              "corona_lab": "corona_lab"}
    in_startup = True
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, package = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        ms = int(cumulative) / 1000.0
        name = package.strip()
        top_level = package.startswith(" ") and not package.startswith("  ")
        if in_startup and top_level:
            out["interpreter"] += ms
            in_startup = name != "site"
        elif name in wanted and out[wanted[name]] == 0.0:
            out[wanted[name]] = ms
    return out
