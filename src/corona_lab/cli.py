"""Batch front door: one subcommand per library capability.

Conventions: structured artifacts travel as JSON (complex numbers as
[re, im] pairs, angles in radians), plot data as CSV.  Identical inputs and
seed produce byte-identical outputs.  Exit codes: 0 success, 1 domain error
(machine-readable report on stderr), 2 usage error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import blaschke, corona, disc_geometry, hoffman, measures
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

def _parse_inline(text: str, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{where}: invalid inline JSON ({e})")


def _require(args, attr: str, flag: str):
    # required flags stay optional at parse time so --selftest works alone
    value = getattr(args, attr, None)
    if value is None:
        raise ConfigError(f"missing required flag {flag}")
    return value


def _resolve_nodes(args) -> int:
    if args.nodes is not None:
        value = args.nodes
    else:
        env = os.environ.get(NODES_ENV)
        if env is None:
            return DEFAULT_NODES
        value = as_number(env, NODES_ENV, int)
    if value < 4:
        raise ConfigError("node count must be at least 4")
    return value


def _emit_text(args, text: str) -> None:
    out = getattr(args, "out", None)
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"--out: cannot write {out}: {e.strerror or e}")


def _emit(args, payload: dict) -> None:
    _emit_text(args, dumps(payload))


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
    infile = _require(args, "infile", "--in")
    inst = CoronaInstance.from_dict(load_json(infile), infile)
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
    infile = _require(args, "infile", "--in")
    cert_path = _require(args, "cert", "--cert")
    inst = CoronaInstance.from_dict(load_json(infile), infile)
    cert = BezoutCertificate.from_dict(load_json(cert_path), cert_path)
    report = check_certificate(inst, cert, tol=args.tol, seed=args.seed,
                               samples=args.samples)
    _emit(args, report.to_dict())
    return 0 if report.passing else 1


def _cmd_delta(args) -> int:
    infile = _require(args, "infile", "--in")
    inst = CoronaInstance.from_dict(load_json(infile), infile)
    report = measure_delta(inst.functions, inst.grid)
    _emit(args, report.to_dict())
    return 0


def _cmd_interp_check(args) -> int:
    seq = _load_sequence(_require(args, "points", "--points"))
    _emit(args, {
        "count": len(seq),
        "gap_sum": seq.gap_sum,
        "carleson_constant": seq.carleson_constant,
        "tails": list(seq.separation_tails),
    })
    return 0


def _cmd_blaschke_eval(args) -> int:
    raw = _require(args, "zeros", "--zeros")
    zeros = complex_list(_parse_inline(raw, "--zeros"), "--zeros")
    b = BlaschkeProduct(tuple(zeros), args.rotation)
    at = as_complex(_parse_inline(_require(args, "at", "--at"), "--at"), "--at")
    if abs(at) > 1 + 1e-12:
        raise ConfigError("--at must lie in the closed unit disc")
    value = b(at)
    _emit(args, {"value": [value.real, value.imag]})
    return 0


def _cmd_ladder(args) -> int:
    zeros_path = _require(args, "zeros", "--zeros")
    zeros_doc = load_json(zeros_path)
    strict_keys(zeros_doc, required=("zeros",), where=zeros_path)
    zeros = complex_list(zeros_doc["zeros"], f"{zeros_path}.zeros")
    candidates = _load_sequence(_require(args, "candidates", "--candidates"))
    eps_seq = as_list(_parse_inline(_require(args, "eps", "--eps"), "--eps"),
                      "--eps", as_number)
    eta_seq = as_list(_parse_inline(_require(args, "eta", "--eta"), "--eta"),
                      "--eta", as_number)
    ladder = construct_ladder(zeros, candidates, eps_seq, eta_seq,
                              _require(args, "ell", "--ell"))
    _emit(args, ladder.to_dict())
    return 0


def _cmd_hoffman_trace(args) -> int:
    fn_path = _require(args, "function", "--function")
    f = FunctionSpec.from_dict(load_json(fn_path), fn_path)
    seq = _load_sequence(_require(args, "points", "--points"))
    trace = compose_trace(f, seq, grid_radius=args.grid_radius,
                          grid_size=args.grid_size, tol=args.tol)
    _emit_text(args, trace.to_csv())
    return 0


def _cmd_l2_identity(args) -> int:
    raw = _require(args, "zeros", "--zeros")
    zeros = complex_list(_parse_inline(raw, "--zeros"), "--zeros")
    b = BlaschkeProduct(tuple(zeros), args.rotation)
    c = as_complex(_parse_inline(args.c, "--c"), "--c")
    report = l2_distance_to_identity(b, c, n_fft=args.n_fft)
    _emit(args, report.summary())
    return 0


def _cmd_measure_fit(args) -> int:
    infile = _require(args, "infile", "--in")
    doc = load_json(infile)
    strict_keys(doc, required=("targets", "partition"), optional=("window",),
                where=infile)

    def target(item, where):
        strict_keys(item, required=("function", "value"), where=where)
        return (FunctionSpec.from_dict(item["function"], f"{where}.function"),
                as_complex(item["value"], f"{where}.value"))

    entries = as_list(doc["targets"], f"{infile}.targets", target)
    try:
        partition = [(float(a), float(b)) for a, b in doc["partition"]]
    except (TypeError, ValueError):
        raise ConfigError(f"{infile}.partition: expected a list of numeric "
                          f"[start, end] pairs, got {doc['partition']!r}") from None
    window = as_number(doc["window"], f"{infile}.window") if "window" in doc else None
    fit = fit_simple_density(TargetFunctional(tuple(entries)), partition,
                             eps=args.eps, window=window)
    payload = fit.density.to_dict()
    payload["residuals"] = list(fit.residuals)
    payload["mass_error"] = fit.mass_error
    _emit(args, payload)
    return 0


def _cmd_quartiles(args) -> int:
    s = _load_density(_require(args, "density", "--density"))
    qp = quartiles(s, window=args.window)
    _emit(args, {"alpha": qp.alpha, "beta": qp.beta, "case_tag": qp.case_tag})
    return 0


def _cmd_pushforward(args) -> int:
    s = _load_density(_require(args, "density", "--density"))
    c = as_complex(_parse_inline(_require(args, "c", "--c"), "--c"), "--c")
    u = pushforward_density(s, c)
    nodes = _resolve_nodes(args)
    payload = {"mass": u.mass(nodes), "breakpoints": list(u.breakpoints)}
    if args.samples:
        theta = np.linspace(-np.pi, np.pi, args.samples, endpoint=False)
        _emit_text(args, csv_text("theta,u", (theta, u(theta))))
    else:
        _emit(args, payload)
    return 0


def _cmd_align_arcs(args) -> int:
    s = _load_density(_require(args, "density", "--density"))
    target = OrthogonalArc(_require(args, "alpha", "--alpha"),
                           _require(args, "beta", "--beta"))
    aligned = align_arcs(s, target, _require(args, "case", "--case"))
    _emit(args, aligned.to_dict())
    return 0


def _cmd_cluster_scenario(args) -> int:
    fns = _load_functions(_require(args, "functions", "--functions"))
    seq = _load_sequence(_require(args, "points", "--points"))
    report = cluster_scenario(fns, seq, eps=args.eps, min_tail=args.min_tail)
    _emit(args, report.to_dict())
    return 0


# ------------------------------------------------------------------ parser

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--selftest", action="store_true",
                   help="run this module's invariant suite and exit")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corona-lab",
        description="Constructions on the unit disc: Blaschke products, "
                    "circle densities, and Bezout certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corona-solve", help="solve sum u_k f_k = 1 for an instance")
    p.add_argument("--in", dest="infile", help="instance JSON")
    p.add_argument("--method", choices=("auto", "exact", "numeric"), default="auto")
    p.add_argument("--degree-cap", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(handler=_cmd_corona_solve, selftest_modules=(corona,))
    _add_common(p)

    p = sub.add_parser("corona-check", help="verify a certificate independently")
    p.add_argument("--in", dest="infile", help="instance JSON")
    p.add_argument("--cert", help="certificate JSON")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random verification points")
    p.set_defaults(handler=_cmd_corona_check, selftest_modules=(corona,))
    _add_common(p)

    p = sub.add_parser("delta", help="measure min of sum |f_k| over the grid")
    p.add_argument("--in", dest="infile", help="instance JSON")
    p.set_defaults(handler=_cmd_delta, selftest_modules=(corona,))
    _add_common(p)

    p = sub.add_parser("interp-check", help="separation diagnostics of a sequence")
    p.add_argument("--points", help="sequence JSON")
    p.set_defaults(handler=_cmd_interp_check, selftest_modules=(blaschke,))
    _add_common(p)

    p = sub.add_parser("blaschke-eval", help="evaluate a finite Blaschke product")
    p.add_argument("--zeros", help='inline JSON, e.g. "[[0,0]]"')
    p.add_argument("--rotation", type=float, default=0.0)
    p.add_argument("--at", help='inline JSON point, e.g. "[0.3,0]"')
    p.set_defaults(handler=_cmd_blaschke_eval, selftest_modules=(disc_geometry, blaschke))
    _add_common(p)

    p = sub.add_parser("ladder", help="staged sector construction over a zero set")
    p.add_argument("--zeros", help='JSON file {"zeros": [...]}')
    p.add_argument("--candidates", help="sequence JSON")
    p.add_argument("--eps", help="inline JSON list of tolerances")
    p.add_argument("--eta", help="inline JSON list of radii")
    p.add_argument("--ell", type=float)
    p.set_defaults(handler=_cmd_ladder, selftest_modules=(blaschke,))
    _add_common(p)

    p = sub.add_parser("hoffman-trace", help="sample f o L_c along a sequence (CSV)")
    p.add_argument("--function", help="function JSON")
    p.add_argument("--points", help="sequence JSON")
    p.add_argument("--grid-radius", type=float, default=0.9)
    p.add_argument("--grid-size", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(handler=_cmd_hoffman_trace, selftest_modules=(hoffman,))
    _add_common(p)

    p = sub.add_parser("l2-identity", help="L2 distance of B o L_c to the identity")
    p.add_argument("--zeros", help="inline JSON list of zeros")
    p.add_argument("--rotation", type=float, default=0.0)
    p.add_argument("--c", default="[0,0]", help="recentering point, inline JSON")
    p.add_argument("--n-fft", type=int, default=4096)
    p.set_defaults(handler=_cmd_l2_identity, selftest_modules=(hoffman,))
    _add_common(p)

    p = sub.add_parser("measure-fit", help="fit a step density to integral targets")
    p.add_argument("--in", dest="infile",
                   help='JSON file {"targets": [...], "partition": [...]}')
    p.add_argument("--eps", type=float, default=1e-3)
    p.set_defaults(handler=_cmd_measure_fit, selftest_modules=(measures,))
    _add_common(p)

    p = sub.add_parser("quartiles", help="quartile angles and case tag of a density")
    p.add_argument("--density", help="density JSON")
    p.add_argument("--window", type=float, default=3.141592653589793)
    p.set_defaults(handler=_cmd_quartiles, selftest_modules=(measures,))
    _add_common(p)

    p = sub.add_parser("pushforward", help="density of the image measure under L_c")
    p.add_argument("--density", help="density JSON")
    p.add_argument("--c", help="inline JSON point")
    p.add_argument("--samples", type=int, default=0,
                   help="emit a CSV of this many samples instead of JSON")
    p.add_argument("--nodes", type=int, default=None,
                   help=f"quadrature node count (default {DEFAULT_NODES}, "
                        f"env {NODES_ENV})")
    p.set_defaults(handler=_cmd_pushforward, selftest_modules=(measures,))
    _add_common(p)

    p = sub.add_parser("align-arcs", help="move a density's quartile arc onto a target")
    p.add_argument("--density", help="density JSON")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--case", choices=("a", "b", "c"))
    p.set_defaults(handler=_cmd_align_arcs, selftest_modules=(measures,))
    _add_common(p)

    p = sub.add_parser("cluster-scenario", help="simultaneous limits along a sequence")
    p.add_argument("--functions", help='JSON file {"functions": [...]}')
    p.add_argument("--points", help="sequence JSON")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--min-tail", type=int, default=3)
    p.set_defaults(handler=_cmd_cluster_scenario, selftest_modules=(corona,))
    _add_common(p)

    return parser


def _run_selftest(modules) -> int:
    passed = 0
    total = 0
    for module in modules:
        for name, ok in module.selftest():
            total += 1
            passed += bool(ok)
            print(f"{'ok' if ok else 'FAIL'}  {name}")
    print(f"selftest: {passed}/{total} passed")
    return 0 if passed == total else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.selftest:
            return _run_selftest(args.selftest_modules)
        return args.handler(args)
    except ConfigError as e:
        sys.stderr.write(dumps(e.payload()))
        return 2
    except CoronaLabError as e:
        sys.stderr.write(dumps(e.payload()))
        return 1


if __name__ == "__main__":
    sys.exit(main())
