"""Batch front door: one subcommand per library capability.

Conventions: structured artifacts travel as JSON (complex numbers as
[re, im] pairs, angles in radians), plot data as CSV.  Identical inputs and
seed produce byte-identical outputs.  Exit codes: 0 success, 1 domain error
(machine-readable report on stderr), 2 usage error.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import blaschke, corona, disc_geometry, exactpoly, hoffman, measures
from .blaschke import BlaschkeProduct, DiscSequence, construct_ladder
from .corona import (BezoutCertificate, CoronaInstance, bezout_exact, bezout_numeric,
                     check_certificate, cluster_scenario, measure_delta)
from .disc_geometry import OrthogonalArc
from .errors import ConfigError, CoronaLabError
from .functions import POLYNOMIAL, FunctionSpec
from .hoffman import compose_trace, l2_distance_to_identity
from .measures import (SimpleDensity, TargetFunctional, align_arcs,
                       fit_simple_density, pushforward_density, quartiles)
from .quadrature import DEFAULT_NODES
from .serialize import (as_complex, as_list, as_number, complex_list, csv_text, dumps,
                        load_json, strict_keys)

NODES_ENV = "CORONA_LAB_NODES"
MIN_NODES = 4

def _parse_inline(text: str, where: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ConfigError(f"{where}: invalid inline JSON ({e})")


def _integer(lo: int, power_of_two: bool = False):
    """argparse type of an integer >= lo, and a power of two if power_of_two."""
    wanted = "a power of two" if power_of_two else "an integer"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lo - 1
        if value >= lo and not (power_of_two and value & (value - 1)):
            return value
        raise argparse.ArgumentTypeError(f"expected {wanted} >= {lo}, got {text!r}")
    return parse


def _real(lo: float = -math.inf, hi: float = math.inf, hi_closed: bool = False):
    """argparse type of a finite float in (lo, hi), or in (lo, hi] if hi_closed."""
    interval = f"({lo!r}, {hi!r}{']' if hi_closed else ')'}"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if math.isfinite(value) and lo < value and (value <= hi if hi_closed else value < hi):
            return value
        raise argparse.ArgumentTypeError(f"expected a finite number in {interval}, got {text!r}")
    return parse


_FINITE = _real()
_POSITIVE = _real(0.0)
_RADIUS = _real(0.0, 1.0)
_WINDOW = _real(0.0, math.pi, hi_closed=True)


def _resolve_nodes(args) -> int:
    """--nodes, else the environment's node count, else the default."""
    if args.nodes is not None:
        return args.nodes
    env = os.environ.get(NODES_ENV)
    if env is None:
        return DEFAULT_NODES
    value = as_number(env, NODES_ENV, int)
    if value < MIN_NODES:
        raise ConfigError(f"node count must be at least {MIN_NODES}")
    return value


def _emit(args, artifact) -> None:
    """Write a JSON artifact, or CSV text as it is, to --out or stdout."""
    text = artifact if isinstance(artifact, str) else dumps(artifact)
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"--out: cannot write {args.out}: {e.strerror or e}")


def _load_functions(path: str) -> tuple:
    doc = load_json(path)
    strict_keys(doc, required=("functions",), where=path)
    return tuple(as_list(doc["functions"], f"{path}.functions", FunctionSpec.from_dict))


def _load_density(path: str) -> SimpleDensity:
    doc = load_json(path)
    if isinstance(doc, dict):
        # measure-fit artifacts carry diagnostics next to the pieces
        doc = {k: v for k, v in doc.items()
               if k not in ("residuals", "mass_error")}
    return SimpleDensity.from_dict(doc, path)


def _load_sequence(path: str) -> DiscSequence:
    return DiscSequence.from_dict(load_json(path), path)


# ---------------------------------------------------------------- handlers

def _cmd_corona_solve(args) -> int:
    inst = CoronaInstance.from_dict(load_json(args.infile), args.infile)
    method = args.method
    if method == "auto":
        all_poly = all(f.kind == POLYNOMIAL for f in inst.functions)
        method = "exact" if all_poly else "numeric"
    if method == "exact":
        cert = bezout_exact(inst, tol=args.tol)
    else:
        cert = bezout_numeric(inst, degree_cap=args.degree_cap, tol=args.tol)
    _emit(args, cert.to_dict())
    return 0


def _cmd_corona_check(args) -> int:
    inst = CoronaInstance.from_dict(load_json(args.infile), args.infile)
    cert = BezoutCertificate.from_dict(load_json(args.cert), args.cert)
    report = check_certificate(inst, cert, tol=args.tol, seed=args.seed,
                               samples=args.samples)
    _emit(args, report.to_dict())
    return 0 if report.passing else 1


def _cmd_delta(args) -> int:
    inst = CoronaInstance.from_dict(load_json(args.infile), args.infile)
    report = measure_delta(inst.functions, inst.grid)
    _emit(args, report.to_dict())
    return 0


def _cmd_interp_check(args) -> int:
    seq = _load_sequence(args.points)
    _emit(args, {
        "count": len(seq),
        "gap_sum": seq.gap_sum,
        "carleson_constant": seq.carleson_constant,
        "tails": seq.separation_tails,
    })
    return 0


def _cmd_blaschke_eval(args) -> int:
    zeros = complex_list(_parse_inline(args.zeros, "--zeros"), "--zeros")
    b = BlaschkeProduct(tuple(zeros), args.rotation)
    at = as_complex(_parse_inline(args.at, "--at"), "--at")
    if not abs(at) <= 1 + 1e-12:
        raise ConfigError("--at must lie in the closed unit disc")
    _emit(args, {"value": b(at)})
    return 0


def _cmd_ladder(args) -> int:
    zeros_doc = load_json(args.zeros)
    strict_keys(zeros_doc, required=("zeros",), where=args.zeros)
    zeros = complex_list(zeros_doc["zeros"], f"{args.zeros}.zeros")
    candidates = _load_sequence(args.candidates)
    eps_seq = as_list(_parse_inline(args.eps, "--eps"), "--eps", as_number)
    eta_seq = as_list(_parse_inline(args.eta, "--eta"), "--eta", as_number)
    ladder = construct_ladder(zeros, candidates, eps_seq, eta_seq, args.ell)
    _emit(args, ladder.to_dict())
    return 0


def _cmd_hoffman_trace(args) -> int:
    f = FunctionSpec.from_dict(load_json(args.function), args.function)
    seq = _load_sequence(args.points)
    trace = compose_trace(f, seq, grid_radius=args.grid_radius,
                          grid_size=args.grid_size, tol=args.tol)
    _emit(args, trace.to_csv())
    return 0


def _cmd_l2_identity(args) -> int:
    zeros = complex_list(_parse_inline(args.zeros, "--zeros"), "--zeros")
    b = BlaschkeProduct(tuple(zeros), args.rotation)
    c = as_complex(_parse_inline(args.c, "--c"), "--c")
    report = l2_distance_to_identity(b, c, n_fft=args.n_fft)
    _emit(args, report.summary())
    return 0


def _cmd_measure_fit(args) -> int:
    infile = args.infile
    doc = load_json(infile)
    strict_keys(doc, required=("targets", "partition"), optional=("window",),
                where=infile)

    def target(item, where):
        strict_keys(item, required=("function", "value"), where=where)
        return (FunctionSpec.from_dict(item["function"], f"{where}.function"),
                as_complex(item["value"], f"{where}.value"))

    def arc(item, where):
        bounds = as_list(item, where, as_number)
        if len(bounds) != 2:
            raise ConfigError(f"{where}: expected a [start, end] pair, got {item!r}")
        return tuple(bounds)

    entries = as_list(doc["targets"], f"{infile}.targets", target)
    partition = as_list(doc["partition"], f"{infile}.partition", arc)
    window = as_number(doc["window"], f"{infile}.window") if "window" in doc else None
    fit = fit_simple_density(TargetFunctional(tuple(entries)), partition,
                             eps=args.eps, window=window)
    payload = fit.density.to_dict()
    payload["residuals"] = fit.residuals
    payload["mass_error"] = fit.mass_error
    _emit(args, payload)
    return 0


def _cmd_quartiles(args) -> int:
    s = _load_density(args.density)
    qp = quartiles(s, window=args.window)
    _emit(args, {"alpha": qp.alpha, "beta": qp.beta, "case_tag": qp.case_tag})
    return 0


def _cmd_pushforward(args) -> int:
    s = _load_density(args.density)
    c = as_complex(_parse_inline(args.c, "--c"), "--c")
    u = pushforward_density(s, c)
    nodes = _resolve_nodes(args)
    if args.samples:
        theta = np.linspace(-np.pi, np.pi, args.samples, endpoint=False)
        _emit(args, csv_text("theta,u", (theta, u(theta))))
    else:
        _emit(args, {"mass": u.mass(nodes), "breakpoints": u.breakpoints})
    return 0


def _cmd_align_arcs(args) -> int:
    s = _load_density(args.density)
    target = OrthogonalArc(args.alpha, args.beta)
    aligned = align_arcs(s, target, args.case)
    _emit(args, aligned.to_dict())
    return 0


def _cmd_cluster_scenario(args) -> int:
    fns = _load_functions(args.functions)
    seq = _load_sequence(args.points)
    report = cluster_scenario(fns, seq, eps=args.eps, min_tail=args.min_tail)
    _emit(args, report.to_dict())
    return 0


# ------------------------------------------------------------------ parser

class _Parser(argparse.ArgumentParser):
    """Raises every usage error as ConfigError, so main reports it as JSON.
    add_subparsers builds the subcommand parsers from this class too."""

    def error(self, message):
        raise ConfigError(message)


class _Selftest(argparse.Action):
    """Runs the subcommand's module suites as soon as it is parsed and exits,
    as --help does, so required flags may be absent: status 0 if every
    check passes, 1 otherwise."""

    def __init__(self, option_strings, dest, modules, help=None):
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS,
                         help=help)
        self.modules = modules

    def __call__(self, parser, namespace, values, option_string=None):
        passed = total = 0
        for module in self.modules:
            for name, ok in module.selftest():
                total += 1
                passed += bool(ok)
                print(f"{'ok' if ok else 'FAIL'}  {name}")
        print(f"selftest: {passed}/{total} passed")
        parser.exit(0 if passed == total else 1)


def _add_common(p: argparse.ArgumentParser, handler, *modules) -> None:
    p.set_defaults(handler=handler)
    p.add_argument("--selftest", action=_Selftest, modules=modules,
                   help="run this module's invariant suite and exit")
    p.add_argument("--out", default=None, help="output path (default stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: it keeps no state between parse_args
    calls, so every main call reuses it instead of building 13 subparsers."""
    parser = _Parser(
        prog="corona-lab",
        description="Constructions on the unit disc: Blaschke products, "
                    "circle densities, and Bezout certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corona-solve", help="solve sum u_k f_k = 1 for an instance")
    p.add_argument("--in", dest="infile", required=True, help="instance JSON")
    p.add_argument("--method", choices=("auto", "exact", "numeric"), default="auto")
    p.add_argument("--degree-cap", type=_integer(0), default=8)
    p.add_argument("--tol", type=_POSITIVE, default=1e-8)
    _add_common(p, _cmd_corona_solve, corona, exactpoly)

    p = sub.add_parser("corona-check", help="verify a certificate independently")
    p.add_argument("--in", dest="infile", required=True, help="instance JSON")
    p.add_argument("--cert", required=True, help="certificate JSON")
    p.add_argument("--tol", type=_POSITIVE, default=1e-8)
    p.add_argument("--samples", type=_integer(0), default=10000)
    p.add_argument("--seed", type=_integer(0), default=0,
                   help="seed for the random verification points")
    _add_common(p, _cmd_corona_check, corona)

    p = sub.add_parser("delta", help="measure min of sum |f_k| over the grid")
    p.add_argument("--in", dest="infile", required=True, help="instance JSON")
    _add_common(p, _cmd_delta, corona)

    p = sub.add_parser("interp-check", help="separation diagnostics of a sequence")
    p.add_argument("--points", required=True, help="sequence JSON")
    _add_common(p, _cmd_interp_check, blaschke)

    p = sub.add_parser("blaschke-eval", help="evaluate a finite Blaschke product")
    p.add_argument("--zeros", required=True, help='inline JSON, e.g. "[[0,0]]"')
    p.add_argument("--rotation", type=float, default=0.0)
    p.add_argument("--at", required=True, help='inline JSON point, e.g. "[0.3,0]"')
    _add_common(p, _cmd_blaschke_eval, disc_geometry, blaschke)

    p = sub.add_parser("ladder", help="staged sector construction over a zero set")
    p.add_argument("--zeros", required=True, help='JSON file {"zeros": [...]}')
    p.add_argument("--candidates", required=True, help="sequence JSON")
    p.add_argument("--eps", required=True, help="inline JSON list of tolerances")
    p.add_argument("--eta", required=True, help="inline JSON list of radii")
    p.add_argument("--ell", type=_RADIUS, required=True)
    _add_common(p, _cmd_ladder, blaschke)

    p = sub.add_parser("hoffman-trace", help="sample f o L_c along a sequence (CSV)")
    p.add_argument("--function", required=True, help="function JSON")
    p.add_argument("--points", required=True, help="sequence JSON")
    p.add_argument("--grid-radius", type=_RADIUS, default=0.9)
    p.add_argument("--grid-size", type=_integer(1), default=40)
    p.add_argument("--tol", type=_POSITIVE, default=1e-6)
    _add_common(p, _cmd_hoffman_trace, hoffman)

    p = sub.add_parser("l2-identity", help="L2 distance of B o L_c to the identity")
    p.add_argument("--zeros", required=True, help="inline JSON list of zeros")
    p.add_argument("--rotation", type=float, default=0.0)
    p.add_argument("--c", default="[0,0]", help="recentering point, inline JSON")
    p.add_argument("--n-fft", type=_integer(hoffman.MIN_FFT_NODES, power_of_two=True),
                   default=4096)
    _add_common(p, _cmd_l2_identity, hoffman)

    p = sub.add_parser("measure-fit", help="fit a step density to integral targets")
    p.add_argument("--in", dest="infile", required=True,
                   help='JSON file {"targets": [...], "partition": [...]}')
    p.add_argument("--eps", type=_POSITIVE, default=1e-3)
    _add_common(p, _cmd_measure_fit, measures)

    p = sub.add_parser("quartiles", help="quartile angles and case tag of a density")
    p.add_argument("--density", required=True, help="density JSON")
    p.add_argument("--window", type=_WINDOW, default=math.pi)
    _add_common(p, _cmd_quartiles, measures)

    p = sub.add_parser("pushforward", help="density of the image measure under L_c")
    p.add_argument("--density", required=True, help="density JSON")
    p.add_argument("--c", required=True, help="inline JSON point")
    p.add_argument("--samples", type=_integer(0), default=0,
                   help="emit a CSV of this many samples instead of JSON")
    p.add_argument("--nodes", type=_integer(MIN_NODES), default=None,
                   help=f"quadrature node count (default {DEFAULT_NODES}, "
                        f"env {NODES_ENV})")
    _add_common(p, _cmd_pushforward, measures)

    p = sub.add_parser("align-arcs", help="move a density's quartile arc onto a target")
    p.add_argument("--density", required=True, help="density JSON")
    p.add_argument("--alpha", type=_FINITE, required=True)
    p.add_argument("--beta", type=_FINITE, required=True)
    p.add_argument("--case", choices=("a", "b", "c"), required=True)
    _add_common(p, _cmd_align_arcs, measures)

    p = sub.add_parser("cluster-scenario", help="simultaneous limits along a sequence")
    p.add_argument("--functions", required=True, help='JSON file {"functions": [...]}')
    p.add_argument("--points", required=True, help="sequence JSON")
    p.add_argument("--eps", type=_POSITIVE, default=1e-6)
    p.add_argument("--min-tail", type=_integer(2), default=3)
    _add_common(p, _cmd_cluster_scenario, corona)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except ConfigError as e:
        sys.stderr.write(dumps(e.payload()))
        return 2
    except CoronaLabError as e:
        sys.stderr.write(dumps(e.payload()))
        return 1


if __name__ == "__main__":
    sys.exit(main())
