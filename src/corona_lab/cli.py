"""Batch front door: one subcommand per library capability.

Conventions: structured artifacts travel as JSON (complex numbers as
[re, im] pairs, angles in radians), plot data as CSV.  Identical inputs and
seed produce byte-identical outputs.  Exit codes: 0 success, 1 domain error
(machine-readable report on stderr), 2 usage error.

Only errors, serialize and quadrature load with this module: each handler
imports the library modules it uses when it runs, and --selftest imports
the selftest module, whose suites import the modules they check, so a
process loads no module its subcommand does not use.
"""

import argparse
import functools
import json
import math
import os
import sys

from .errors import ConfigError, CoronaLabError
from .quadrature import (CHECK_SAMPLES, DEFAULT_FFT_NODES, DEFAULT_GRID_RADIUS,
                         DEFAULT_GRID_SIZE, DEFAULT_NODES, MIN_FFT_NODES, circle_nodes)
from .serialize import (as_complex, as_finite, as_list, complex_list, csv_text, dumps,
                        load_json, strict_keys)

MIN_NODES = 4
# point counts given as flags stop here, about 64 MB per complex array, the
# bound corona.MAX_COUNT keeps for grids read from files; so do the arrays
# that a flag and an input size span together
MAX_POINTS = 2 ** 22

def _parse_inline(text: str, where: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ConfigError(f"{where}: invalid inline JSON ({e})")


def _integer(lo: int, hi: float = math.inf, power_of_two: bool = False):
    """argparse type of an integer in [lo, hi], and a power of two if power_of_two."""
    wanted = "a power of two" if power_of_two else "an integer"
    span = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lo - 1
        if lo <= value <= hi and not (power_of_two and value & (value - 1)):
            return value
        raise argparse.ArgumentTypeError(f"expected {wanted} {span}, got {text!r}")
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
    from .functions import FunctionSpec
    doc = load_json(path)
    strict_keys(doc, required=("functions",), where=path)
    return tuple(as_list(doc["functions"], f"{path}.functions", FunctionSpec.from_dict))


def _load_density(path: str):
    from .measures import SimpleDensity
    doc = load_json(path)
    if isinstance(doc, dict):
        # measure-fit artifacts carry diagnostics next to the pieces
        doc = {k: v for k, v in doc.items()
               if k not in ("residuals", "mass_error")}
    return SimpleDensity.from_dict(doc, path)


def _load_sequence(path: str):
    from .blaschke import DiscSequence
    return DiscSequence.from_dict(load_json(path), path)


# ---------------------------------------------------------------- handlers
# each returns (artifact, exit status); main writes the artifact

def _cmd_corona_solve(args) -> tuple:
    from .corona import CoronaInstance, bezout_exact, bezout_numeric
    inst = CoronaInstance.from_dict(load_json(args.infile), args.infile)
    method = args.method
    if method == "auto":
        method = "exact" if all(f.coeffs is not None for f in inst.functions) else "numeric"
    if method == "exact":
        if args.degree_cap is not None:
            raise ConfigError("--degree-cap: applies to the numeric method only, "
                              "and the method is exact")
        cert = bezout_exact(inst, tol=args.tol)
    else:
        cap = 8 if args.degree_cap is None else args.degree_cap
        # bezout_numeric's matrix: max(boundary, 2 N (cap + 1)) nodes by N (cap + 1)
        n = len(inst.functions)
        unknowns = n * (cap + 1)
        if max(inst.grid.boundary, 2 * unknowns) * unknowns > MAX_POINTS:
            raise ConfigError(f"--degree-cap: {cap} with {n} functions asks for a "
                              f"least-squares matrix of more than {MAX_POINTS} entries")
        cert = bezout_numeric(inst, degree_cap=cap, tol=args.tol)
    return cert.to_dict(), 0


def _cmd_corona_check(args) -> tuple:
    from .corona import BezoutCertificate, CoronaInstance, check_certificate
    inst = CoronaInstance.from_dict(load_json(args.infile), args.infile)
    cert = BezoutCertificate.from_dict(load_json(args.cert), args.cert)
    report = check_certificate(inst, cert, tol=args.tol, seed=args.seed,
                               samples=args.samples)
    return report.to_dict(), 0 if report.passing else 1


def _cmd_delta(args) -> tuple:
    from .corona import CoronaInstance, measure_delta
    inst = CoronaInstance.from_dict(load_json(args.infile), args.infile)
    report = measure_delta(inst.functions, inst.grid)
    return report.to_dict(), 0


def _cmd_interp_check(args) -> tuple:
    seq = _load_sequence(args.points)
    return {
        "count": len(seq),
        "gap_sum": seq.gap_sum,
        "carleson_constant": seq.carleson_constant,
        "tails": seq.separation_tails,
    }, 0


def _cmd_blaschke_eval(args) -> tuple:
    from .blaschke import BlaschkeProduct
    zeros = complex_list(_parse_inline(args.zeros, "--zeros"), "--zeros")
    b = BlaschkeProduct(tuple(zeros), args.rotation)
    at = as_complex(_parse_inline(args.at, "--at"), "--at")
    if not abs(at) <= 1:
        raise ConfigError("--at must lie in the closed unit disc")
    return {"value": b(at)}, 0


def _cmd_ladder(args) -> tuple:
    from .blaschke import construct_ladder
    zeros_doc = load_json(args.zeros)
    strict_keys(zeros_doc, required=("zeros",), where=args.zeros)
    zeros = complex_list(zeros_doc["zeros"], f"{args.zeros}.zeros")
    candidates = _load_sequence(args.candidates)
    eps_seq = as_list(_parse_inline(args.eps, "--eps"), "--eps", as_finite)
    eta_seq = as_list(_parse_inline(args.eta, "--eta"), "--eta", as_finite)
    ladder = construct_ladder(zeros, candidates, eps_seq, eta_seq, args.ell)
    return ladder.to_dict(), 0


def _cmd_hoffman_trace(args) -> tuple:
    from .functions import FunctionSpec
    from .hoffman import GRID_ANGULAR, compose_trace
    f = FunctionSpec.from_dict(load_json(args.function), args.function)
    seq = _load_sequence(args.points)
    # disc_grid rounds the grid up to whole rings of GRID_ANGULAR points
    if len(seq) * GRID_ANGULAR * -(-args.grid_size // GRID_ANGULAR) > MAX_POINTS:
        raise ConfigError(f"--grid-size: {args.grid_size} at each of {len(seq)} points "
                          f"asks for more than {MAX_POINTS} recentred points")
    trace = compose_trace(f, seq, grid_radius=args.grid_radius, grid_size=args.grid_size)
    return trace.to_csv(), 0


def _cmd_l2_identity(args) -> tuple:
    from .blaschke import BlaschkeProduct
    from .hoffman import l2_distance_to_identity
    zeros = complex_list(_parse_inline(args.zeros, "--zeros"), "--zeros")
    b = BlaschkeProduct(tuple(zeros), args.rotation)
    c = as_complex(_parse_inline(args.c, "--c"), "--c")
    report = l2_distance_to_identity(b, c, n_fft=args.n_fft)
    return report.to_dict(), 0


def _cmd_measure_fit(args) -> tuple:
    from .functions import FunctionSpec
    from .measures import fit_simple_density
    infile = args.infile
    doc = load_json(infile)
    strict_keys(doc, required=("targets", "partition"), optional=("window",),
                where=infile)

    def target(item, where):
        strict_keys(item, required=("function", "value"), where=where)
        return (FunctionSpec.from_dict(item["function"], f"{where}.function"),
                as_complex(item["value"], f"{where}.value"))

    def arc(item, where):
        bounds = as_list(item, where, as_finite)
        if len(bounds) != 2:
            raise ConfigError(f"{where}: expected a [start, end] pair, got {item!r}")
        return tuple(bounds)

    entries = as_list(doc["targets"], f"{infile}.targets", target)
    partition = as_list(doc["partition"], f"{infile}.partition", arc)
    window = as_finite(doc["window"], f"{infile}.window") if "window" in doc else None
    if window is not None and not 0 < window <= math.pi:
        # the interval quartiles --window takes
        raise ConfigError(f"{infile}.window: expected a number in (0, pi], got {doc['window']!r}")
    fit = fit_simple_density(entries, partition, eps=args.eps, window=window)
    return {**fit.density.to_dict(), "residuals": fit.residuals,
            "mass_error": fit.mass_error}, 0


def _cmd_quartiles(args) -> tuple:
    from .measures import quartiles
    s = _load_density(args.density)
    return quartiles(s, window=args.window).to_dict(), 0


def _cmd_pushforward(args) -> tuple:
    from .measures import PushforwardDensity
    s = _load_density(args.density)
    c = as_complex(_parse_inline(args.c, "--c"), "--c")
    u = PushforwardDensity(s, c)
    if args.samples:
        if args.nodes is not None:
            raise ConfigError("--nodes: applies to the mass integral, not to --samples")
        theta = circle_nodes(args.samples)
        return csv_text("theta,u", (theta, u(theta))), 0
    nodes = DEFAULT_NODES if args.nodes is None else args.nodes
    return {"mass": u.mass(nodes), "breakpoints": u.breakpoints}, 0


def _cmd_align_arcs(args) -> tuple:
    from .disc_geometry import OrthogonalArc
    from .measures import align_arcs
    s = _load_density(args.density)
    target = OrthogonalArc(args.alpha, args.beta)
    aligned = align_arcs(s, target, args.case)
    return aligned.to_dict(), 0


def _cmd_cluster_scenario(args) -> tuple:
    from .corona import cluster_scenario
    fns = _load_functions(args.functions)
    seq = _load_sequence(args.points)
    report = cluster_scenario(fns, seq, eps=args.eps, min_tail=args.min_tail)
    return report.to_dict(), 0


# ------------------------------------------------------------------ parser

class _Parser(argparse.ArgumentParser):
    """Raises every usage error as ConfigError, so main reports it as JSON.
    add_subparsers builds the subcommand parsers from this class too."""

    def error(self, message):
        raise ConfigError(message)


class _Selftest(argparse.Action):
    """Runs the suites of the subcommand's modules (dotted names) from the
    selftest module as soon as it is parsed, then exits as --help does, so
    required flags may be absent: status 0 if every check passes, 1 otherwise."""

    def __init__(self, option_strings, dest, modules, help=None):
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS,
                         help=help)
        self.modules = modules

    def __call__(self, parser, namespace, values, option_string=None):
        from .selftest import SUITES
        passed = total = 0
        for module in self.modules:
            for name, ok in SUITES[module]():
                total += 1
                passed += bool(ok)
                print(f"{'ok' if ok else 'FAIL'}  {name}")
        print(f"selftest: {passed}/{total} passed")
        parser.exit(0 if passed == total else 1)


def _arg(*flags, **options) -> tuple:
    """One add_argument call of a subcommand, as its arguments."""
    return flags, options


# subcommand -> (help line, handler, the modules its --selftest runs, its own
# arguments); every subcommand takes --selftest and --out after them
_COMMANDS = {
    "corona-solve": (
        "solve sum u_k f_k = 1 for an instance", _cmd_corona_solve,
        ("corona_lab.corona", "corona_lab.exactpoly"),
        [_arg("--in", dest="infile", required=True, help="instance JSON"),
         _arg("--method", choices=("auto", "exact", "numeric"), default="auto"),
         _arg("--degree-cap", type=_integer(0), default=None,
              help="numeric method only: polynomial degree cap (default 8)"),
         _arg("--tol", type=_POSITIVE, default=1e-8)]),
    "corona-check": (
        "verify a certificate independently", _cmd_corona_check, ("corona_lab.corona",),
        [_arg("--in", dest="infile", required=True, help="instance JSON"),
         _arg("--cert", required=True, help="certificate JSON"),
         _arg("--tol", type=_POSITIVE, default=1e-8),
         _arg("--samples", type=_integer(0, MAX_POINTS), default=CHECK_SAMPLES),
         _arg("--seed", type=_integer(0), default=0,
              help="seed for the random verification points")]),
    "delta": (
        "measure min of sum |f_k| over the grid", _cmd_delta, ("corona_lab.corona",),
        [_arg("--in", dest="infile", required=True, help="instance JSON")]),
    "interp-check": (
        "separation diagnostics of a sequence", _cmd_interp_check, ("corona_lab.blaschke",),
        [_arg("--points", required=True, help="sequence JSON")]),
    "blaschke-eval": (
        "evaluate a finite Blaschke product", _cmd_blaschke_eval,
        ("corona_lab.disc_geometry", "corona_lab.blaschke"),
        [_arg("--zeros", required=True, help='inline JSON, e.g. "[[0,0]]"'),
         _arg("--rotation", type=_FINITE, default=0.0),
         _arg("--at", required=True, help='inline JSON point, e.g. "[0.3,0]"')]),
    "ladder": (
        "staged sector construction over a zero set", _cmd_ladder, ("corona_lab.blaschke",),
        [_arg("--zeros", required=True, help='JSON file {"zeros": [...]}'),
         _arg("--candidates", required=True, help="sequence JSON"),
         _arg("--eps", required=True, help="inline JSON list of tolerances"),
         _arg("--eta", required=True, help="inline JSON list of radii"),
         _arg("--ell", type=_RADIUS, required=True)]),
    "hoffman-trace": (
        "sample f o L_c along a sequence (CSV)", _cmd_hoffman_trace, ("corona_lab.hoffman",),
        [_arg("--function", required=True, help="function JSON"),
         _arg("--points", required=True, help="sequence JSON"),
         _arg("--grid-radius", type=_RADIUS, default=DEFAULT_GRID_RADIUS),
         _arg("--grid-size", type=_integer(1, MAX_POINTS), default=DEFAULT_GRID_SIZE)]),
    "l2-identity": (
        "L2 distance of B o L_c to the identity", _cmd_l2_identity, ("corona_lab.hoffman",),
        [_arg("--zeros", required=True, help="inline JSON list of zeros"),
         _arg("--rotation", type=_FINITE, default=0.0),
         _arg("--c", default="[0,0]", help="recentering point, inline JSON"),
         _arg("--n-fft", type=_integer(MIN_FFT_NODES, MAX_POINTS, power_of_two=True),
              default=DEFAULT_FFT_NODES)]),
    "measure-fit": (
        "fit a step density to integral targets", _cmd_measure_fit, ("corona_lab.measures",),
        [_arg("--in", dest="infile", required=True,
              help='JSON file {"targets": [...], "partition": [...]}'),
         _arg("--eps", type=_POSITIVE, default=1e-3)]),
    "quartiles": (
        "quartile angles and case tag of a density", _cmd_quartiles, ("corona_lab.measures",),
        [_arg("--density", required=True, help="density JSON"),
         _arg("--window", type=_WINDOW, default=math.pi)]),
    "pushforward": (
        "density of the image measure under L_c", _cmd_pushforward, ("corona_lab.measures",),
        [_arg("--density", required=True, help="density JSON"),
         _arg("--c", required=True, help="inline JSON point"),
         _arg("--samples", type=_integer(0, MAX_POINTS), default=0,
              help="emit a CSV of this many samples instead of JSON"),
         _arg("--nodes", type=_integer(MIN_NODES, MAX_POINTS), default=None,
              help=f"mass quadrature node count (default {DEFAULT_NODES}); "
                   "not with --samples")]),
    "align-arcs": (
        "move a density's quartile arc onto a target", _cmd_align_arcs,
        ("corona_lab.measures",),
        [_arg("--density", required=True, help="density JSON"),
         _arg("--alpha", type=_FINITE, required=True),
         _arg("--beta", type=_FINITE, required=True),
         _arg("--case", choices=("a", "b", "c"), required=True)]),
    "cluster-scenario": (
        "simultaneous limits along a sequence", _cmd_cluster_scenario, ("corona_lab.corona",),
        [_arg("--functions", required=True, help='JSON file {"functions": [...]}'),
         _arg("--points", required=True, help="sequence JSON"),
         _arg("--eps", type=_POSITIVE, default=1e-6),
         _arg("--min-tail", type=_integer(2), default=3)]),
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of command alone.  main builds only
    the subcommand it runs, whose parse, help text and usage errors are
    those of the full parser; it takes the full one for a top-level --help
    and a missing or unknown subcommand.  A parser keeps no state between
    parse_args calls, so the process builds each one once."""
    parser = _Parser(
        prog="corona-lab",
        description="Constructions on the unit disc: Blaschke products, "
                    "circle densities, and Bezout certificates.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, modules, arguments) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=summary)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(handler=handler)
        p.add_argument("--selftest", action=_Selftest, modules=modules,
                       help="run this module's invariant suite and exit")
        p.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        args = build_parser(command).parse_args(argv)
        artifact, status = args.handler(args)
        _emit(args, artifact)
        return status
    except ConfigError as e:
        sys.stderr.write(dumps(e.payload()))
        return 2
    except CoronaLabError as e:
        sys.stderr.write(dumps(e.payload()))
        return 1


def run() -> None:
    """Entry point of `python -m corona_lab` and of the corona-lab script:
    main, then a flush of stdout and stderr, then os._exit, which skips the
    interpreter's teardown (about 10 ms a call, most of it numpy's).  main
    has closed the file it wrote, and the CLI starts no thread and registers
    no atexit hook, so the teardown does nothing a caller needs.  If a flush
    fails, say on a closed pipe, sys.exit leaves it to the interpreter,
    which reports it as usual."""
    status = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(status)
    os._exit(status)
