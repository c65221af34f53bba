"""End-to-end command-line behavior: outputs, determinism, exit codes."""

import argparse
import ast
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import corona_lab
from corona_lab import blaschke, cli
from corona_lab.blaschke import DiscSequence, carleson_diagnostics
from corona_lab.cli import MAX_POINTS, _Selftest, build_parser, main
from corona_lab.corona import GridSpec
from corona_lab.errors import ConfigError, DomainError
from corona_lab.measures import PushforwardDensity, SimpleDensity
from corona_lab.selftest import SUITES

from helpers import dyadic_rings


def run(capsys, *argv):
    """Invoke the entry point, returning (exit_code, stdout, stderr)."""
    try:
        rc = main(list(argv))
    except SystemExit as e:       # --selftest and --help exit from the parser
        rc = e.code
    out = capsys.readouterr()
    return rc, out.out, out.err


def subcommands():
    """The subcommand parsers of the cached parser, by name."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_blaschke_eval(capsys):
    rc, out, _ = run(capsys, "blaschke-eval", "--zeros", "[[0,0]]",
                     "--at", "[0.3,0]")
    assert rc == 0
    assert json.loads(out) == {"value": [0.3, 0.0]}


def test_blaschke_eval_rejects_exterior_point(capsys):
    rc, _, err = run(capsys, "blaschke-eval", "--zeros", "[[0,0]]",
                     "--at", "[2,0]")
    assert rc == 2
    assert json.loads(err)["error"] == "ConfigError"


def test_blaschke_eval_takes_the_closed_disc_without_slack(capsys):
    # 1e-13 outside the circle, next to the pole 1/conj(a) of a zero 1e-13 inside it
    rc, out, err = run(capsys, "blaschke-eval", "--zeros", "[[0.9999999999999,0]]",
                       "--at", "[1.0000000000001,0]")
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": "ConfigError",
                               "message": "--at must lie in the closed unit disc"}
    rc, out, _ = run(capsys, "blaschke-eval", "--zeros", "[[0.5,0.25]]", "--at", "[0.6,0.8]")
    assert rc == 0
    assert abs(abs(complex(*json.loads(out)["value"])) - 1) < 2e-13


@pytest.mark.parametrize("data, kind, bad", [
    ({"coeffs": [[1, 0], [0.5, "x"]]}, "polynomial", [0.5, "x"]),
    ({"num": [True], "den": [[1, 0]]}, "rational", True),
    ({"num": [[1, 0]], "den": ["x"]}, "rational", "x"),
    ({"zeros": [[0.5, None]]}, "finite_blaschke", [0.5, None]),
    ({"zeros": [[0.5, 0]], "rotation": "x"}, "finite_blaschke", "x"),
    ({"coeffs": [[1, 0]], "extra": 1}, "polynomial", {"coeffs": [[1, 0]], "extra": 1}),
], ids=["coeff", "num", "den", "zero", "rotation", "unknown_key"])
def test_function_file_errors_name_the_path_of_the_bad_value(capsys, tmp_path, data, kind, bad):
    doc = {"kind": kind, "data": data}
    fn = write(tmp_path, "f.json", doc)
    points = write(tmp_path, "p.json", {"points": [[0.1, 0]]})
    rc, out, err = run(capsys, "hoffman-trace", "--function", fn, "--points", points)
    assert (rc, out) == (2, "")
    message = json.loads(err)["message"]
    assert message.startswith(fn)
    at = doc
    for key, index in re.findall(r"\.(\w+)|\[(\d+)\]", message[len(fn):].split(": ")[0]):
        at = at[key] if key else at[int(index)]
    assert at == bad


def test_blaschke_eval_rejects_nan_input(capsys):
    rc, out, err = run(capsys, "blaschke-eval", "--zeros", "[[0,0]]",
                       "--at", "[NaN,0]")
    assert (rc, out) == (2, "")
    assert json.loads(err)["error"] == "ConfigError"
    assert "--at" in json.loads(err)["message"]
    rc, out, err = run(capsys, "blaschke-eval", "--zeros", "[[0,0]]",
                       "--at", "[0.3,0]", "--rotation", "nan")
    assert (rc, out) == (2, "")
    assert json.loads(err)["error"] == "ConfigError"
    assert "--rotation" in json.loads(err)["message"]


def test_quartiles_uniform(capsys, tmp_path):
    level = 2 * math.pi / 0.4
    path = write(tmp_path, "density.json",
                 {"pieces": [[-0.2, 0.2, level]]})
    rc, out, _ = run(capsys, "quartiles", "--density", path)
    assert rc == 0
    rep = json.loads(out)
    assert abs(rep["alpha"] + 0.1) < 1e-12
    assert abs(rep["beta"] - 0.1) < 1e-12
    assert rep["case_tag"] == "straddle"
    # the closed end of the window's range is its default
    assert run(capsys, "quartiles", "--density", path, "--window", repr(math.pi)) == (0, out, "")


def test_corona_solve_check_pipeline(capsys, tmp_path):
    inst = write(tmp_path, "inst.json", {"functions": [
        {"kind": "polynomial", "data": {"coeffs": [[0, 0], [0, 0], [1, 0]]}},
        {"kind": "polynomial", "data": {"coeffs": [[-0.5, 0], [1, 0]]}},
    ]})
    cert_path = str(tmp_path / "cert.json")
    rc, _, _ = run(capsys, "corona-solve", "--in", inst, "--out", cert_path)
    assert rc == 0
    cert = json.loads(Path(cert_path).read_text())
    assert cert["method"] == "exact"
    assert cert["residual_sup"] < 1e-12
    assert cert["residual_bound"] == 0.0

    rc, out, _ = run(capsys, "corona-check", "--in", inst,
                     "--cert", cert_path, "--tol", "1e-10")
    assert rc == 0
    assert json.loads(out)["passing"] is True


def test_corona_check_fails_on_bad_certificate(capsys, tmp_path):
    inst = write(tmp_path, "inst.json", {"functions": [
        {"kind": "polynomial", "data": {"coeffs": [[0, 0], [0, 0], [1, 0]]}},
        {"kind": "polynomial", "data": {"coeffs": [[-0.5, 0], [1, 0]]}},
    ]})
    cert = write(tmp_path, "cert.json", {"solutions": [
        {"kind": "polynomial", "data": {"coeffs": [[4.5, 0]]}},
        {"kind": "polynomial", "data": {"coeffs": [[-2, 0], [-4, 0]]}},
    ]})
    rc, out, _ = run(capsys, "corona-check", "--in", inst, "--cert", cert)
    assert rc == 1
    assert json.loads(out)["passing"] is False


def test_corona_solve_numeric_method(capsys, tmp_path):
    inst = write(tmp_path, "inst.json", {"functions": [
        {"kind": "finite_blaschke", "data": {"zeros": [[0.5, 0]]}},
        {"kind": "polynomial", "data": {"coeffs": [[1, 0]]}},
    ]})
    rc, out, _ = run(capsys, "corona-solve", "--in", inst,
                     "--method", "auto", "--degree-cap", "6")
    assert rc == 0
    assert json.loads(out)["method"] == "numeric"


def test_corona_solve_unsolvable_exit_one(capsys, tmp_path):
    inst = write(tmp_path, "inst.json", {"functions": [
        {"kind": "polynomial", "data": {"coeffs": [[0, 0], [1, 0]]}},
        {"kind": "polynomial", "data": {"coeffs": [[0, 0], [0, 0], [1, 0]]}},
    ]})
    rc, _, err = run(capsys, "corona-solve", "--in", inst, "--method", "exact")
    assert rc == 1
    payload = json.loads(err)
    assert payload["error"] == "UnsolvableError"


def test_corona_solve_exact_cofactors_beyond_float_range(capsys, tmp_path):
    # the exact cofactors of (z^2, 1e308 z - 1/2) exist but overflow a float
    inst = write(tmp_path, "inst.json", {"functions": [
        {"kind": "polynomial", "data": {"coeffs": [[0, 0], [0, 0], [1, 0]]}},
        {"kind": "polynomial", "data": {"coeffs": [[-0.5, 0], [1e308, 0]]}},
    ]})
    rc, out, err = run(capsys, "corona-solve", "--in", inst, "--method", "exact")
    assert (rc, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "DomainError"
    assert "float range" in payload["message"]


@pytest.mark.parametrize("den, message", [
    ([], "identically zero"),
    ([[1, 0], [5e-324, 0]], "too small to locate the poles"),
])
def test_delta_rejects_degenerate_rational_denominator(capsys, tmp_path, den, message):
    inst = write(tmp_path, "inst.json", {"functions": [
        {"kind": "rational", "data": {"num": [[1, 0]], "den": den}},
    ]})
    rc, out, err = run(capsys, "delta", "--in", inst)
    assert (rc, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "DomainError"
    assert message in payload["message"]


def test_delta_report(capsys, tmp_path):
    inst = write(tmp_path, "inst.json", {"functions": [
        {"kind": "polynomial", "data": {"coeffs": [[0, 0], [0, 0], [1, 0]]}},
        {"kind": "polynomial", "data": {"coeffs": [[-0.5, 0], [1, 0]]}},
    ]})
    rc, out, _ = run(capsys, "delta", "--in", inst)
    assert rc == 0
    rep = json.loads(out)
    assert abs(rep["value"] - 0.25) < 1e-12
    assert rep["argmin"] == [0.5, 0.0]


NO_FINITE_SUM = {"error": "DomainError",
                 "message": "sum of |f_k| is not finite at any grid point"}


def test_delta_with_no_finite_sum_is_a_domain_error(capsys, tmp_path):
    # 1.7e308 + 1.7e308 overflows at every grid point
    inst = write(tmp_path, "inst.json", {"functions": [_poly([1.7e308]), _poly([1.7e308])]})
    rc, out, err = run(capsys, "delta", "--in", inst)
    assert (rc, out) == (1, "")
    assert json.loads(err) == NO_FINITE_SUM


def test_only_delta_readers_fail_where_no_sum_is_finite(capsys, tmp_path):
    # the exact method decides from the gcd, a nonzero constant, and never
    # forms the overflowing sum; the numeric method gates on delta
    inst = write(tmp_path, "inst.json", {"functions": [_poly([1.7e308]), _poly([1.7e308])]})
    rc, out, err = run(capsys, "corona-solve", "--in", inst, "--method", "numeric")
    assert (rc, out) == (1, "")
    assert json.loads(err) == NO_FINITE_SUM

    cert = str(tmp_path / "cert.json")
    rc, _, err = run(capsys, "corona-solve", "--in", inst, "--out", cert)
    assert (rc, err) == (0, "")
    doc = json.loads(Path(cert).read_text())
    assert doc["method"] == "exact" and doc["passing"] is True
    assert [u["data"]["coeffs"] for u in doc["solutions"]] == [[[0.0, 0.0]],
                                                              [[1 / 1.7e308, 0.0]]]

    rc, out, err = run(capsys, "corona-check", "--in", inst, "--cert", cert)
    assert (rc, err) == (0, "")
    assert json.loads(out)["passing"] is True


@pytest.mark.parametrize("argv, calls", [
    (["corona-solve"], 0),
    (["corona-solve", "--method", "exact"], 0),
    (["corona-check", "--cert", "cert.json"], 0),
    (["delta"], 1),
    (["corona-solve", "--method", "numeric", "--degree-cap", "2"], 1),
])
def test_delta_is_measured_only_where_it_is_read(capsys, tmp_path, monkeypatch, argv, calls):
    from corona_lab import corona
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "inst.json", {"functions": [_poly([0, 0, 1]), _poly([-0.5, 1])]})
    write(tmp_path, "cert.json", {"solutions": [_poly([4]), _poly([-2, -4])]})
    seen = []
    measure = corona.measure_delta

    def counted(*a, **k):
        seen.append(a)
        return measure(*a, **k)

    monkeypatch.setattr(corona, "measure_delta", counted)
    rc, _, err = run(capsys, argv[0], "--in", "inst.json", *argv[1:])
    assert (rc, err) == (0, "")
    assert len(seen) == calls


def test_delta_skips_points_where_a_function_overflows(capsys, tmp_path):
    # 1e308 + 1e308 z overflows next to z = 1 and vanishes at z = -1; under the
    # warnings-as-errors setting an overflow warning would end the run
    inst = write(tmp_path, "inst.json", {"functions": [_poly([1e308, 1e308])]})
    rc, out, err = run(capsys, "delta", "--in", inst)
    assert (rc, err) == (0, "")
    assert out == ('{\n  "argmin": [\n    -1.0,\n    -1.2246467991473532e-16\n  ],\n'
                   '  "value": 1.2246467991473532e+292\n}\n')


def test_interp_check(capsys, tmp_path):
    points = write(tmp_path, "pts.json",
                   {"points": [[1 - 2.0 ** -j, 0.0] for j in range(1, 11)]})
    rc, out, _ = run(capsys, "interp-check", "--points", points)
    assert rc == 0
    rep = json.loads(out)
    assert rep["count"] == 10
    assert abs(rep["carleson_constant"] - 0.019135243301794246) < 1e-15
    assert len(rep["tails"]) == 10


def test_ladder_two_rungs(capsys, tmp_path):
    zeros = write(tmp_path, "zeros.json",
                  {"zeros": [[1 - 2.0 ** -k, 0.0] for k in range(1, 31)]})
    cands = write(tmp_path, "cands.json",
                  {"points": [[1 - 3.0 ** -n, 0.0] for n in range(1, 33)]})
    rc, out, _ = run(capsys, "ladder", "--zeros", zeros, "--candidates", cands,
                     "--eps", "[0.5,0.25]", "--eta", "[0.5,0.75]",
                     "--ell", "0.5")
    assert rc == 0
    rep = json.loads(out)
    assert rep["indices"] == [3, 12]
    for row in rep["verification"]:
        assert row[3] > 1 - row[2]


def test_hoffman_trace_csv(capsys, tmp_path):
    fn = write(tmp_path, "f.json",
               {"kind": "polynomial", "data": {"coeffs": [[0, 0], [1, 0]]}})
    pts = write(tmp_path, "pts.json",
                {"points": [[1 - 2.0 ** -j, 0.0] for j in range(1, 11)]})
    rc, out, _ = run(capsys, "hoffman-trace", "--function", fn,
                     "--points", pts, "--grid-size", "8")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "grid_re,grid_im,j,re,im"
    assert len(lines) == 1 + 10 * 8


def test_l2_identity_summary_and_determinism(capsys):
    argv = ("l2-identity", "--zeros", "[[0,0],[0,0]]")
    rc, out1, _ = run(capsys, *argv)
    assert rc == 0
    rep = json.loads(out1)
    assert abs(rep["distance"] - math.sqrt(2)) < 1e-12
    assert abs(rep["parseval"] - 1) < 1e-10
    rc, out2, _ = run(capsys, *argv)
    assert out1 == out2      # byte-identical rerun


def test_l2_identity_with_a_zero_at_every_old_anchor(capsys):
    # zeros at L_c(0), L_c(+-0.5), L_c(+-0.5i) and L_c(0.25+0.25i) all land
    # on the old rotation-fit anchors once transported
    c = 0.3
    zeros = [(z + c) / (1 + c * z) for z in (0, 0.5, -0.5, 0.5j, -0.5j, 0.25 + 0.25j)]
    rc, out, err = run(capsys, "l2-identity", "--c", "[0.3,0]", "--zeros",
                       json.dumps([[z.real, z.imag] for z in zeros]))
    assert (rc, err) == (0, "")
    assert abs(json.loads(out)["parseval"] - 1) < 1e-10


def test_measure_fit_uniform(capsys, tmp_path):
    spec = write(tmp_path, "fit.json", {
        "targets": [],
        "partition": [[-0.25 + 0.5 * k / 8, -0.25 + 0.5 * (k + 1) / 8]
                      for k in range(8)],
    })
    rc, out, _ = run(capsys, "measure-fit", "--in", spec)
    assert rc == 0
    rep = json.loads(out)
    levels = {p[2] for p in rep["pieces"]}
    assert len(levels) == 1
    assert rep["mass_error"] == 0.0
    assert rep["residuals"] == []


def test_measure_fit_output_feeds_density_commands(capsys, tmp_path):
    # the fit artifact keeps its diagnostics but still loads as a density
    spec = write(tmp_path, "fit.json", {
        "targets": [],
        "partition": [[-0.25 + 0.5 * k / 8, -0.25 + 0.5 * (k + 1) / 8]
                      for k in range(8)],
    })
    fitted = str(tmp_path / "fitted.json")
    rc, _, _ = run(capsys, "measure-fit", "--in", spec, "--out", fitted)
    assert rc == 0
    rc, out, _ = run(capsys, "quartiles", "--density", fitted)
    assert rc == 0
    rep = json.loads(out)
    assert rep["alpha"] == pytest.approx(-0.125)
    assert rep["beta"] == pytest.approx(0.125)


def test_pushforward_json_and_csv(capsys, tmp_path):
    level = 2 * math.pi / 1.0
    density = write(tmp_path, "d.json", {"pieces": [[-0.5, 0.5, level]]})
    rc, out, _ = run(capsys, "pushforward", "--density", density,
                     "--c", "[0.3,0.1]")
    assert rc == 0
    rep = json.loads(out)
    assert abs(rep["mass"] - 1) < 1e-8
    assert len(rep["breakpoints"]) == 2

    rc, out, _ = run(capsys, "pushforward", "--density", density,
                     "--c", "[0.3,0.1]", "--samples", "16")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "theta,u"
    assert len(lines) == 17

    # one sample is the angle -pi alone
    rc, out, _ = run(capsys, "pushforward", "--density", density,
                     "--c", "[0.3,0.1]", "--samples", "1")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2 and lines[1].startswith(f"{-math.pi:.17g},")


def test_align_arcs_cli(capsys, tmp_path):
    level = 2 * math.pi / 4.0
    density = write(tmp_path, "d.json", {"pieces": [[-2.0, 2.0, level]]})
    rc, out, _ = run(capsys, "align-arcs", "--density", density,
                     "--alpha", "-0.6", "--beta", "0.4", "--case", "a")
    assert rc == 0
    rep = json.loads(out)
    assert len(rep["pieces"]) == 3


def test_cluster_scenario_cli(capsys, tmp_path):
    fns = write(tmp_path, "fns.json", {"functions": [
        {"kind": "polynomial", "data": {"coeffs": [[0, 0], [1, 0]]}},
    ]})
    pts = write(tmp_path, "pts.json",
                {"points": [[1 - 2.0 ** -j, 0.0] for j in range(1, 21)]})
    rc, out, _ = run(capsys, "cluster-scenario", "--functions", fns,
                     "--points", pts, "--eps", "1e-3")
    assert rc == 0
    rep = json.loads(out)
    assert abs(rep["limits"][0][0] - (1 - 2.0 ** -20)) < 1e-15


def test_cluster_scenario_bytes_without_spread_are_unchanged(capsys, tmp_path):
    # printed before the artifact carried spread
    before = ('{\n  "indices": [\n    7,\n    8,\n    9,\n    10,\n    11\n  ],\n'
              '  "limits": [\n    [\n      0.999755859375,\n      0.0\n    ],\n'
              '    [\n      0.0,\n      0.9995117783546448\n    ]\n  ],\n'
              '  "stage_counts": [\n    6,\n    5\n  ]\n}\n')
    fns = write(tmp_path, "fns.json", {"functions": [
        _poly([0, 1]), {"kind": "polynomial", "data": {"coeffs": [[0, 0], [0, 0], [0, 1]]}}]})
    pts = write(tmp_path, "pts.json",
                {"points": [[1 - 2.0 ** -j, 0.0] for j in range(1, 13)]})
    rc, out, _ = run(capsys, "cluster-scenario", "--functions", fns,
                     "--points", pts, "--eps", "1e-2")
    assert rc == 0
    assert all(0 < s < 1e-2 for s in json.loads(out)["spread"])
    lines = out.splitlines(keepends=True)
    start = lines.index('  "spread": [\n')
    end = lines.index("  ],\n", start)
    assert "".join(lines[:start] + lines[end + 1:]) == before


def test_cluster_scenario_failure_reports_stage_counts(capsys, tmp_path):
    fns = write(tmp_path, "fns.json", {"functions": [
        {"kind": "polynomial", "data": {"coeffs": [[0, 0], [1, 0]]}},
    ]})
    pts = write(tmp_path, "pts.json",
                {"points": [[1 - 2.0 ** -j, 0.0] for j in range(1, 6)]})
    rc, _, err = run(capsys, "cluster-scenario", "--functions", fns,
                     "--points", pts, "--eps", "1e-9")
    assert rc == 1
    payload = json.loads(err)
    assert payload["error"] == "ExtractionError"
    assert payload["report"]["stage_counts"] == [1]


def test_selftest_flag_needs_no_other_flags(capsys):
    commands = subcommands()
    assert len(commands) == 13
    for cmd in commands:
        rc, out, _ = run(capsys, cmd, "--selftest")
        assert rc == 0, cmd
        assert "passed" in out


# the check names each module's suite prints, in order
_SUITE_LINES = {
    "corona": ("exact solver closes the anchor pair", "numeric solver matches at low degree",
               "random check accepts the certificate", "common zero detected"),
    "exactpoly": ("coprime pair has unit gcd", "bezout identity exact",
                  "anchor cofactors (4, -4z - 2)", "exact identity has zero residual bound",
                  "common factor recovered", "division exact"),
    "blaschke": ("boundary modulus one", "composition transports zeros",
                 "modulus lower bound is sound", "two point separation"),
    "disc_geometry": ("mobius inverse composes to identity",
                      "pseudo distance symmetric and in [0, 1)", "pseudo disc closed form",
                      "arc midpoint anchor value", "midpoint lies on its own arc"),
    "hoffman": ("squaring map distance", "identity map distance",
                "invariant equals separation tail", "single factor invariant is one",
                "constant trace is flat"),
    "measures": ("poisson kernel closed form", "poisson integral reproduces values",
                 "uniform quartiles mirror", "pushforward preserves mass",
                 "empty fit is uniform"),
}


@pytest.mark.parametrize("command, suites", [
    ("corona-solve", ("corona", "exactpoly")),
    ("corona-check", ("corona",)),
    ("delta", ("corona",)),
    ("interp-check", ("blaschke",)),
    ("blaschke-eval", ("disc_geometry", "blaschke")),
    ("ladder", ("blaschke",)),
    ("hoffman-trace", ("hoffman",)),
    ("l2-identity", ("hoffman",)),
    ("measure-fit", ("measures",)),
    ("quartiles", ("measures",)),
    ("pushforward", ("measures",)),
    ("align-arcs", ("measures",)),
    ("cluster-scenario", ("corona",)),
])
def test_selftest_output_is_pinned(capsys, command, suites):
    names = [name for suite in suites for name in _SUITE_LINES[suite]]
    want = "".join(f"ok  {name}\n" for name in names)
    want += f"selftest: {len(names)}/{len(names)} passed\n"
    assert run(capsys, command, "--selftest") == (0, want, "")


def test_flags_only_where_they_take_effect(capsys, tmp_path):
    points = write(tmp_path, "pts.json", {"points": [[0.1, 0.0], [0.5, 0.0]]})
    assert run(capsys, "interp-check", "--points", points)[0] == 0
    rc, _, err = run(capsys, "interp-check", "--points", points, "--seed", "1")
    assert rc == 2
    assert "--seed" in err
    rc, _, err = run(capsys, "interp-check", "--points", points, "--nodes", "9")
    assert rc == 2
    assert "--nodes" in err
    # --nodes sets the mass quadrature, which a --samples run never computes
    density = write(tmp_path, "d.json", {"pieces": [[-math.pi, math.pi, 1.0]]})
    push = ["pushforward", "--density", density, "--c", "[0.1,0]"]
    assert run(capsys, *push, "--nodes", "16")[0] == 0
    assert run(capsys, *push, "--samples", "4")[0] == 0
    rc, out, err = run(capsys, *push, "--samples", "4", "--nodes", "16")
    assert (rc, out) == (2, "")
    assert "--nodes" in json.loads(err)["message"]
    # --degree-cap bounds the numeric solve only, whichever way exact is chosen
    poly = write(tmp_path, "poly.json", {"functions": [
        {"kind": "polynomial", "data": {"coeffs": [[0, 0], [0, 0], [1, 0]]}},
        {"kind": "polynomial", "data": {"coeffs": [[-0.5, 0], [1, 0]]}}]})
    assert run(capsys, "corona-solve", "--in", poly, "--method", "numeric",
               "--degree-cap", "3")[0] == 0
    for method in ("auto", "exact"):
        rc, out, err = run(capsys, "corona-solve", "--in", poly, "--method", method,
                           "--degree-cap", "3")
        assert (rc, out) == (2, ""), method
        assert "--degree-cap" in json.loads(err)["message"]


def test_exit_code_two_on_usage_errors(capsys, tmp_path):
    rc, _, _ = run(capsys, "no-such-command")
    assert rc == 2
    rc, _, _ = run(capsys)
    assert rc == 2
    rc, _, err = run(capsys, "delta", "--in", str(tmp_path / "missing.json"))
    assert rc == 2
    zeros = write(tmp_path, "zeros.json", {"zeros": [[0.5, 0.0]]})
    rc, _, err = run(capsys, "ladder", "--zeros", zeros)  # missing flags
    assert rc == 2
    payload = json.loads(err)
    assert "--candidates" in payload["message"]


# each point-count flag with the required flags of its subcommand; parsing
# reads no file, and a rejected value stops main before any computation
_POINT_COUNTS = {
    "l2-identity --n-fft": ["--zeros", "[[0,0]]"],
    "pushforward --samples": ["--density", "d.json", "--c", "[0,0]"],
    "pushforward --nodes": ["--density", "d.json", "--c", "[0,0]"],
    "corona-check --samples": ["--in", "inst.json", "--cert", "cert.json"],
    "hoffman-trace --grid-size": ["--function", "f.json", "--points", "seq.json"],
}


@pytest.mark.parametrize("case", sorted(_POINT_COUNTS))
def test_point_count_flags_stop_at_max_points(capsys, case):
    command, flag = case.split()
    argv = [command, *_POINT_COUNTS[case], flag]
    args = build_parser().parse_args(argv + [str(MAX_POINTS)])
    assert getattr(args, flag[2:].replace("-", "_")) == MAX_POINTS == 2 ** 22
    for value in (MAX_POINTS + 1, 2 * MAX_POINTS):
        rc, out, err = run(capsys, *argv, str(value))
        assert (rc, out) == (2, "")
        assert json.loads(err)["message"].startswith(f"argument {flag}: ")


# arrays spanned by a flag and an input size together stop at MAX_POINTS
# entries too: each case is refused before its builder runs
_ANCHOR = {"functions": [{"kind": "polynomial", "data": {"coeffs": [[0, 0], [0, 0], [1, 0]]}},
                         {"kind": "polynomial", "data": {"coeffs": [[-0.5, 0], [1, 0]]}}]}
_BLASCHKE = {"kind": "finite_blaschke", "data": {"zeros": [[0.5, 0]]}}
_SPANNED_ARRAYS = {
    # 2 functions at cap 10^15: 28.4 PiB of least-squares matrix
    "numeric cap": (["corona-solve", "--in", "inst.json", "--method", "numeric",
                     "--degree-cap", "1000000000000000"], {"inst.json": _ANCHOR},
                    "corona.bezout_numeric", "--degree-cap"),
    # auto picks numeric for 162 Blaschke functions, at the default cap 8
    "auto cap": (["corona-solve", "--in", "inst.json"],
                 {"inst.json": {"functions": [_BLASCHKE] * 162}},
                 "corona.bezout_numeric", "--degree-cap"),
    "trace grid": (["hoffman-trace", "--function", "f.json", "--points", "seq.json",
                    "--grid-size", str(MAX_POINTS)],
                   {"f.json": _BLASCHKE, "seq.json": {"points": [[0.1, 0]] * 3}},
                   "hoffman.compose_trace", "--grid-size"),
    # 2^21 + 1 rounds up to 2^21 + 8, a whole number of eight-point rings
    "trace rings": (["hoffman-trace", "--function", "f.json", "--points", "seq.json",
                     "--grid-size", str(MAX_POINTS // 2 + 1)],
                    {"f.json": _BLASCHKE, "seq.json": {"points": [[0.1, 0]] * 2}},
                    "hoffman.compose_trace", "--grid-size"),
}


@pytest.mark.parametrize("case", sorted(_SPANNED_ARRAYS))
def test_arrays_spanned_by_a_flag_and_an_input_stop_at_max_points(capsys, tmp_path,
                                                                   monkeypatch, case):
    argv, files, builder, flag = _SPANNED_ARRAYS[case]
    module, name = builder.split(".")

    def refuse(*args, **kwargs):
        raise AssertionError(f"{builder} ran")

    monkeypatch.setattr(importlib.import_module(f"corona_lab.{module}"), name, refuse)
    paths = {name: write(tmp_path, name, payload) for name, payload in files.items()}
    rc, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert (rc, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "ConfigError" and payload["message"].startswith(f"{flag}: ")
    assert str(MAX_POINTS) in payload["message"]


def test_interp_check_takes_sequences_beyond_2048_points(capsys, tmp_path, monkeypatch):
    # the pseudo-distance matrix is built a block of columns at a time, so
    # no length is refused, and the tails are those of one column per block
    pts = dyadic_rings(11)
    rc, out, _ = run(capsys, "interp-check", "--points",
                     write(tmp_path, "seq.json", {"points": [[z.real, z.imag] for z in pts]}))
    assert rc == 0
    got = json.loads(out)
    monkeypatch.setattr(blaschke, "TAIL_BLOCK", 1)
    const, tails = carleson_diagnostics(DiscSequence(pts))
    assert got["count"] == len(pts) > 2048
    assert (got["carleson_constant"], got["tails"]) == (const, tails)


def test_measure_fit_malformed_partition_names_key(capsys, tmp_path):
    spec = write(tmp_path, "fit.json", {"targets": [], "partition": [[0.1]]})
    rc, _, err = run(capsys, "measure-fit", "--in", spec)
    assert rc == 2
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert "partition" in payload["message"]
    spec = write(tmp_path, "fit.json", {"targets": [], "partition": [[0.1, "x"]]})
    rc, _, err = run(capsys, "measure-fit", "--in", spec)
    _assert_names_key(rc, err, "partition[0][1]")


def test_delta_non_numeric_grid_names_key(capsys, tmp_path):
    inst = write(tmp_path, "inst.json", {
        "functions": [{"kind": "polynomial", "data": {"coeffs": [[1, 0]]}}],
        "grid": {"radial": "x", "angular": 64, "boundary": 256, "ratio": 0.5}})
    rc, _, err = run(capsys, "delta", "--in", inst)
    assert rc == 2
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert "grid.radial" in payload["message"]


@pytest.mark.parametrize("key, value", [("radial", 7), ("angular", 4096),
                                        ("ratio", 0.0), ("ratio", 1.0)])
def test_delta_out_of_range_grid_names_key(capsys, tmp_path, key, value):
    # each bound on a grid read from a file is a usage error naming the key;
    # the library constructor keeps its DomainError, and the count cap
    # (corona.MAX_COUNT) applies to files only
    grid = {"radial": 8, "angular": 2048, "boundary": 8, "ratio": 0.5}
    inst = write(tmp_path, "inst.json", {"functions": [POLY_ONE], "grid": grid})
    assert run(capsys, "delta", "--in", inst)[0] == 0
    inst = write(tmp_path, "inst.json", {"functions": [POLY_ONE], "grid": {**grid, key: value}})
    rc, out, err = run(capsys, "delta", "--in", inst)
    assert (rc, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith(f"{inst}.grid.{key}: expected a ")
    if value != 4096:
        with pytest.raises(DomainError):
            GridSpec(**{**grid, key: value})


def _assert_names_key(rc, err, key):
    assert rc == 2
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert key in payload["message"]


def test_non_numeric_delta_hat_names_key(capsys, tmp_path):
    inst = write(tmp_path, "inst.json", {
        "functions": [{"kind": "polynomial", "data": {"coeffs": [[1, 0]]}}],
        "delta_hat": "x"})
    rc, _, err = run(capsys, "corona-solve", "--in", inst)
    _assert_names_key(rc, err, "delta_hat")


def test_measure_fit_non_finite_target_names_key(capsys, tmp_path):
    # the target overflows on the circle; the fit reports it, with no
    # warning and no traceback
    huge = {"kind": "polynomial", "data": {"coeffs": [[1e308, 0], [1e308, 0]]}}
    spec = write(tmp_path, "fit.json", {"targets": [{"function": huge, "value": [0, 0]}],
                                        "partition": [[-3, 0], [0, 3]]})
    rc, out, err = run(capsys, "measure-fit", "--in", spec)
    assert (rc, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "DomainError"
    assert "targets[0]" in payload["message"]


def test_measure_fit_solve_cap_reports_one_residual_per_target(capsys, tmp_path, monkeypatch):
    # mean 0.9 of z on 8 bins forces zero levels, so the fit needs more
    # than the one solve it is allowed here
    from corona_lab import measures
    monkeypatch.setattr(measures, "SOLVES_PER_VARIABLE", 1 / 8)
    power = [{"kind": "polynomial", "data": {"coeffs": [[0, 0]] * k + [[1, 0]]}}
             for k in (1, 2)]
    spec = write(tmp_path, "fit.json", {
        "targets": [{"function": f, "value": [v, 0]} for f, v in zip(power, (0.9, 0.7))],
        "partition": [[-math.pi + 2 * math.pi * k / 8, -math.pi + 2 * math.pi * (k + 1) / 8]
                      for k in range(8)]})
    rc, out, err = run(capsys, "measure-fit", "--in", spec)
    assert (rc, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "InfeasibleError" and "in 1 solves" in payload["message"]
    assert len(payload["residuals"]) == 2


def test_measure_fit_non_numeric_window_names_key(capsys, tmp_path):
    spec = write(tmp_path, "fit.json", {"targets": [], "partition": [[0.0, 0.1]],
                                        "window": "x"})
    rc, _, err = run(capsys, "measure-fit", "--in", spec)
    _assert_names_key(rc, err, "window")


@pytest.mark.parametrize("window", [-1.0, 0.0, 3.1415926535897936])
def test_measure_fit_window_outside_zero_to_pi_names_key(capsys, tmp_path, window):
    # (0, pi], the range quartiles --window takes; pi itself is accepted
    doc = {"targets": [], "partition": [[0.0, 0.1]]}
    assert run(capsys, "measure-fit", "--in",
               write(tmp_path, "fit.json", {**doc, "window": math.pi}))[0] == 0
    spec = write(tmp_path, "fit.json", {**doc, "window": window})
    rc, out, err = run(capsys, "measure-fit", "--in", spec)
    assert (rc, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert payload["message"] == f"{spec}.window: expected a number in (0, pi], got {window!r}"


def test_non_numeric_density_piece_names_key(capsys, tmp_path):
    density = write(tmp_path, "d.json", {"pieces": [["a", 0.2, 1]]})
    rc, _, err = run(capsys, "quartiles", "--density", density)
    _assert_names_key(rc, err, "pieces[0]")


POLY_ONE = {"kind": "polynomial", "data": {"coeffs": [[1, 0]]}}
POINTS = {"points": [[0.5, 0.0], [0.75, 0.0]]}


@pytest.mark.parametrize("case", ["rotation", "functions", "cluster_functions",
                                  "solutions", "targets", "eps", "grid_count",
                                  "grid_huge_count", "grid_fractional_count",
                                  "rotation_numeric_string", "rotation_nan_string",
                                  "rotation_bool", "grid_ratio_string",
                                  "density_piece_string", "eps_string", "rotation_nan",
                                  "rotation_infinity", "density_level_nan", "delta_hat_nan",
                                  "delta_hat_nan_numeric_solve"])
def test_malformed_input_names_key(capsys, tmp_path, case):
    files = {"f.json": {"kind": "finite_blaschke",
                        "data": {"zeros": [[0.5, 0]], "rotation": "x"}},
             "inst.json": {"functions": 3},
             "good.json": {"functions": [POLY_ONE]},
             "cert.json": {"solutions": 7},
             "fit.json": {"targets": 5, "partition": [[0.0, 0.1]]},
             "zeros.json": {"zeros": [[0.5, 0.0]]},
             "pts.json": POINTS,
             "grid.json": {"functions": [POLY_ONE],
                           "grid": {"radial": 8, "angular": 1e400,
                                    "boundary": 256, "ratio": 0.5}},
             "huge.json": {"functions": [POLY_ONE],
                           "grid": {"radial": 1e300, "angular": 64,
                                    "boundary": 256, "ratio": 0.5}},
             "frac.json": {"functions": [POLY_ONE],
                           "grid": {"radial": 9.99, "angular": 64,
                                    "boundary": 256, "ratio": 0.5}},
             "ratio.json": {"functions": [POLY_ONE],
                            "grid": {"radial": 8, "angular": 64,
                                     "boundary": 256, "ratio": "0.5"}},
             "d.json": {"pieces": [["-0.5", 0.5, 2 * math.pi]]},
             "dnan.json": {"pieces": [[-0.5, 0.5, math.nan]]},
             "pair.json": {"functions": [{"kind": "polynomial",
                                          "data": {"coeffs": [[0, 0], [0, 0], [1, 0]]}},
                                         {"kind": "polynomial",
                                          "data": {"coeffs": [[-0.5, 0], [1, 0]]}}],
                           "delta_hat": math.nan}}
    # json writes math.nan and math.inf as NaN and Infinity, which its reader takes back
    for name, rotation in (("f15.json", "1.5"), ("fnan.json", "nan"), ("ftrue.json", True),
                           ("fNaN.json", math.nan), ("finf.json", math.inf)):
        files[name] = {"kind": "finite_blaschke",
                       "data": {"zeros": [[0.5, 0]], "rotation": rotation}}
    paths = {name: write(tmp_path, name, doc) for name, doc in files.items()}
    argv, key = {
        "rotation": (["hoffman-trace", "--function", paths["f.json"],
                      "--points", paths["pts.json"]], "rotation"),
        "functions": (["delta", "--in", paths["inst.json"]], "functions"),
        "cluster_functions": (["cluster-scenario", "--functions", paths["inst.json"],
                               "--points", paths["pts.json"]], "functions"),
        "solutions": (["corona-check", "--in", paths["good.json"],
                       "--cert", paths["cert.json"]], "solutions"),
        "targets": (["measure-fit", "--in", paths["fit.json"]], "targets"),
        "eps": (["ladder", "--zeros", paths["zeros.json"], "--candidates",
                 paths["pts.json"], "--eps", '"a"', "--eta", "[0.5]",
                 "--ell", "0.5"], "--eps"),
        "grid_count": (["delta", "--in", paths["grid.json"]], "grid.angular"),
        "grid_huge_count": (["delta", "--in", paths["huge.json"]], "grid.radial"),
        "grid_fractional_count": (["delta", "--in", paths["frac.json"]], "grid.radial"),
        "rotation_numeric_string": (["hoffman-trace", "--function", paths["f15.json"],
                                     "--points", paths["pts.json"]], "rotation"),
        "rotation_nan_string": (["hoffman-trace", "--function", paths["fnan.json"],
                                 "--points", paths["pts.json"]], "rotation"),
        "rotation_bool": (["hoffman-trace", "--function", paths["ftrue.json"],
                           "--points", paths["pts.json"]], "rotation"),
        "grid_ratio_string": (["delta", "--in", paths["ratio.json"]], "grid.ratio"),
        "density_piece_string": (["quartiles", "--density", paths["d.json"]],
                                 "pieces[0][0]"),
        "eps_string": (["ladder", "--zeros", paths["zeros.json"], "--candidates",
                        paths["pts.json"], "--eps", '["0.1"]', "--eta", "[0.5]",
                        "--ell", "0.5"], "--eps[0]"),
        "rotation_nan": (["hoffman-trace", "--function", paths["fNaN.json"],
                          "--points", paths["pts.json"]], "rotation"),
        "rotation_infinity": (["hoffman-trace", "--function", paths["finf.json"],
                               "--points", paths["pts.json"]], "rotation"),
        "density_level_nan": (["quartiles", "--density", paths["dnan.json"]], "pieces[0][2]"),
        "delta_hat_nan": (["delta", "--in", paths["pair.json"]], "delta_hat"),
        "delta_hat_nan_numeric_solve": (["corona-solve", "--in", paths["pair.json"],
                                         "--method", "numeric", "--degree-cap", "2"],
                                        "delta_hat"),
    }[case]
    rc, _, err = run(capsys, *argv)
    _assert_names_key(rc, err, key)


@pytest.mark.parametrize("command, doc, key", [
    ("corona-solve", {"functions": [{"kind": "polynomial",
                                     "data": {"coeffs": [[1, 0], [math.nan, 0]]}}]},
     "coeffs[1]"),
    ("corona-solve", {"functions": [{"kind": "polynomial",
                                     "data": {"coeffs": [[math.inf, 0]]}}]}, "coeffs[0]"),
    ("corona-solve", {"functions": [{"kind": "rational",
                                     "data": {"num": [[1, 0]], "den": [[1, math.nan]]}}]},
     "den[0]"),
    ("delta", {"functions": [{"kind": "polynomial",
                              "data": {"coeffs": [[math.nan, 0]]}}]}, "coeffs[0]"),
    ("delta", {"functions": [{"kind": "finite_blaschke",
                              "data": {"zeros": [[0, -math.inf]]}}]}, "zeros[0]"),
])
def test_non_finite_parts_are_usage_errors(capsys, tmp_path, command, doc, key):
    inst = write(tmp_path, "inst.json", doc)       # json writes NaN and Infinity
    rc, out, err = run(capsys, command, "--in", inst)
    assert out == ""
    _assert_names_key(rc, err, key)


def test_non_finite_point_is_a_usage_error(capsys, tmp_path):
    points = write(tmp_path, "p.json", {"points": [[0.5, 0.0], [math.nan, 0.0]]})
    rc, out, err = run(capsys, "interp-check", "--points", points)
    assert out == ""
    _assert_names_key(rc, err, "points[1]")


@pytest.mark.parametrize("case", ["at", "c", "coeffs", "points"])
def test_a_json_boolean_is_not_a_number(capsys, tmp_path, case):
    # bool is an int to isinstance: each of these ran at z = 1 or 0 and exited 0,
    # or, for the point, failed later with a DomainError naming no key
    argv, message = {
        "at": (["blaschke-eval", "--zeros", "[[0.5,0]]", "--at", "true"],
               "--at: expected a number, got True"),
        "c": (["l2-identity", "--zeros", "[[0.5,0]]", "--c", "false"],
              "--c: expected a number, got False"),
        "coeffs": (["corona-solve", "--in", write(tmp_path, "inst.json", {"functions": [
            {"kind": "polynomial", "data": {"coeffs": [True, [0.5, False]]}}]})],
            f"{tmp_path / 'inst.json'}.functions[0].data.coeffs[0]: expected a number, got True"),
        "points": (["interp-check", "--points", write(tmp_path, "p.json",
                                                      {"points": [[0.1, 0], True]})],
                   f"{tmp_path / 'p.json'}.points[1]: expected a number, got True"),
    }[case]
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": "ConfigError", "message": message}


def test_pushforward_csv_matches_per_row_formatting(capsys, tmp_path):
    level = 2 * math.pi / 0.75
    pieces = [[-0.5, 0.25, level / 4], [0.25, 1.0, 3 * level / 4]]
    density = write(tmp_path, "d.json", {"pieces": pieces})
    rc, out, _ = run(capsys, "pushforward", "--density", density,
                     "--c", "[0.3,-0.2]", "--samples", "64")
    assert rc == 0
    s = SimpleDensity.from_dict({"pieces": pieces})
    u = PushforwardDensity(s, 0.3 - 0.2j)
    theta = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    expected = "theta,u\n" + "".join(f"{t:.17g},{v:.17g}\n"
                                     for t, v in zip(theta, u(theta)))
    assert out == expected


def test_exit_code_two_on_unknown_key(capsys, tmp_path):
    inst = write(tmp_path, "inst.json", {"functions": [], "bogus": 1})
    rc, _, err = run(capsys, "delta", "--in", inst)
    assert rc == 2
    assert "bogus" in json.loads(err)["message"]


def test_output_file_determinism(capsys, tmp_path):
    inst = write(tmp_path, "inst.json", {"functions": [
        {"kind": "polynomial", "data": {"coeffs": [[0, 0], [0, 0], [1, 0]]}},
        {"kind": "polynomial", "data": {"coeffs": [[-0.5, 0], [1, 0]]}},
    ]})
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(capsys, "corona-solve", "--in", inst, "--out", out1)[0] == 0
    assert run(capsys, "corona-solve", "--in", inst, "--out", out2)[0] == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    inst = write(tmp_path, "inst.json", {"functions": [
        {"kind": "polynomial", "data": {"coeffs": [[0, 0], [0, 0], [1, 0]]}},
        {"kind": "polynomial", "data": {"coeffs": [[-0.5, 0], [1, 0]]}},
    ]})
    bad = str(tmp_path / "no-such-dir" / "c.json")
    rc, _, err = run(capsys, "corona-solve", "--in", inst, "--out", bad)
    assert rc == 2
    assert "--out" in err


@pytest.mark.parametrize("argv, flag", [
    ([], "command"),
    (["no-such-command"], "command"),
    (["delta", "--in", "x.json", "--bogus"], "--bogus"),
    (["corona-check", "--in", "x.json", "--cert", "c.json", "--samples", "ten"], "--samples"),
    (["corona-solve", "--in", "x.json", "--method", "zz"], "--method"),
    (["corona-solve", "--method", "exact"], "--in"),
    (["corona-solve", "--in", "x.json", "--tol", "0"], "--tol"),
    (["corona-check", "--in", "x.json", "--cert", "c.json", "--tol", "nan"], "--tol"),
    (["corona-check", "--in", "x.json", "--cert", "c.json", "--tol", "-1"], "--tol"),
    (["quartiles", "--density", "d.json", "--window", "nan"], "--window"),
    (["quartiles", "--density", "d.json", "--window", "-1"], "--window"),
    (["quartiles", "--density", "d.json", "--window", "0"], "--window"),
    (["quartiles", "--density", "d.json", "--window", "3.1415926535897936"], "--window"),
    (["hoffman-trace", "--function", "f.json", "--points", "p.json",
      "--grid-radius", "1"], "--grid-radius"),
    (["hoffman-trace", "--function", "f.json", "--points", "p.json", "--tol", "inf"], "--tol"),
    (["ladder", "--zeros", "z.json", "--candidates", "p.json", "--eps", "[0.5]",
      "--eta", "[0.5]", "--ell", "0"], "--ell"),
    (["measure-fit", "--in", "x.json", "--eps=-inf"], "--eps"),
    (["cluster-scenario", "--functions", "f.json", "--points", "p.json",
      "--eps", "nan"], "--eps"),
    (["align-arcs", "--density", "d.json", "--alpha", "inf", "--beta", "0.1",
      "--case", "a"], "--alpha"),
    (["align-arcs", "--density", "d.json", "--alpha", "0.1", "--beta", "nan",
      "--case", "a"], "--beta"),
    (["corona-check", "--in", "x.json", "--cert", "c.json", "--seed", "-1"], "--seed"),
    (["corona-solve", "--in", "x.json", "--degree-cap", "-1"], "--degree-cap"),
    (["corona-solve", "--in", "x.json", "--degree-cap", "2.5"], "--degree-cap"),
    (["hoffman-trace", "--function", "f.json", "--points", "p.json",
      "--grid-size", "0"], "--grid-size"),
    (["l2-identity", "--zeros", "[]", "--n-fft", "0"], "--n-fft"),
    (["l2-identity", "--zeros", "[]", "--n-fft", "128"], "--n-fft"),
    (["l2-identity", "--zeros", "[]", "--n-fft", "1000"], "--n-fft"),
    (["cluster-scenario", "--functions", "f.json", "--points", "p.json",
      "--min-tail", "1"], "--min-tail"),
    (["cluster-scenario", "--functions", "f.json", "--points", "p.json",
      "--min-tail", "-2"], "--min-tail"),
    (["pushforward", "--density", "d.json", "--c", "[0,0]", "--nodes", "3"], "--nodes"),
    (["hoffman-trace", "--function", "f.json", "--points", "p.json", "--tol", "1e-3"], "--tol"),
])
def test_every_usage_error_is_one_json_config_error(capsys, argv, flag):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    payload = json.loads(err)            # the whole of stderr is one object
    assert payload["error"] == "ConfigError"
    assert flag in payload["message"]


def test_missing_required_flags_are_all_named(capsys):
    rc, _, err = run(capsys, "align-arcs", "--alpha", "0.1")
    assert rc == 2
    assert json.loads(err)["message"] == (
        "the following arguments are required: --density, --beta, --case")


@pytest.mark.parametrize("command", ["corona-check", "pushforward"])
def test_negative_samples_is_a_usage_error(capsys, tmp_path, command):
    inst = write(tmp_path, "inst.json", {"functions": [
        {"kind": "polynomial", "data": {"coeffs": [[0, 0], [0, 0], [1, 0]]}},
        {"kind": "polynomial", "data": {"coeffs": [[-0.5, 0], [1, 0]]}},
    ]})
    cert = write(tmp_path, "cert.json", {"solutions": [
        {"kind": "polynomial", "data": {"coeffs": [[4, 0]]}},
        {"kind": "polynomial", "data": {"coeffs": [[-2, 0], [-4, 0]]}},
    ]})
    density = write(tmp_path, "d.json", {"pieces": [[-0.5, 0.5, 2 * math.pi]]})
    argv = {"corona-check": ["--in", inst, "--cert", cert, "--samples", "-1"],
            "pushforward": ["--density", density, "--c", "[0.3,0]", "--samples", "-3"]}
    rc, out, err = run(capsys, command, *argv[command])
    assert out == ""
    _assert_names_key(rc, err, "--samples")


def test_selftest_with_other_flags_runs_only_the_suite(capsys, tmp_path):
    _, alone, _ = run(capsys, "corona-solve", "--selftest")
    out_path = tmp_path / "cert.json"
    rc, out, err = run(capsys, "corona-solve", "--in", str(tmp_path / "missing.json"),
                       "--method", "exact", "--out", str(out_path), "--selftest")
    assert (rc, out, err) == (0, alone, "")
    assert not out_path.exists()


def _src_env():
    """Environment of a fresh process that imports this corona_lab."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(corona_lab.__file__)))


def test_in_process_calls_match_fresh_processes(capsys, tmp_path):
    # One parser serves every main call of the process; calls that leave
    # through a usage error, --selftest or --help leave no state in it, so
    # each call gives the bytes of a fresh process.  A fresh process ends
    # through cli.run without the interpreter's teardown: a domain error's
    # report and a stdout artifact larger than a pipe buffer arrive whole.
    a = ["blaschke-eval", "--zeros", "[[0.5,0.1]]", "--at", "[0.3,-0.2]",
         "--rotation", "1.25"]
    b = ["l2-identity", "--zeros", "[[0.5,0.1],[0,0.2]]", "--c", "[0.1,0]"]
    usage = ["blaschke-eval", "--zeros", "[[0.5,0.1]]", "--rotation", "x"]
    domain = ["blaschke-eval", "--zeros", "[[1.5,0]]", "--at", "[0.3,0]"]
    trace = ["hoffman-trace", "--grid-size", "128",
             "--function", write(tmp_path, "f.json", _poly([0, 1])),
             "--points", write(tmp_path, "pts.json",
                               {"points": [[1 - 2.0 ** -j, 0.0] for j in range(1, 11)]})]
    selftest = ["blaschke-eval", "--selftest"]

    def fresh(argv):
        proc = subprocess.run([sys.executable, "-m", "corona_lab"] + argv, env=_src_env(),
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    calls = (a, b, usage, domain, trace, selftest, a)
    expected = [fresh(argv) for argv in calls]
    assert [rc for rc, _, _ in expected] == [0, 0, 2, 1, 0, 0, 0]
    assert json.loads(expected[3][2])["error"] == "DomainError"
    assert len(expected[4][1]) > 65536
    for argv, want in zip(calls, expected):
        assert run(capsys, *argv) == want
    rc, out, _ = run(capsys, "blaschke-eval", "--help")
    assert rc == 0 and out.startswith("usage: corona-lab blaschke-eval")
    assert run(capsys, *a) == expected[0]
    assert build_parser() is build_parser()


def test_the_installed_script_runs_what_python_m_runs():
    # __main__.py hands the process to one function of cli, and the
    # corona-lab script names the same one, so both end the same way
    tomllib = pytest.importorskip("tomllib")
    package = Path(corona_lab.__file__).parent
    tree = ast.parse((package / "__main__.py").read_text())
    from_cli = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                and node.module == "cli" for alias in node.names}
    calls = [node.value.func for node in tree.body
             if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)]
    assert len(calls) == 1 and isinstance(calls[0], ast.Name) and calls[0].id in from_cli
    with open(package.parent.parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"corona-lab": f"corona_lab.cli:{calls[0].id}"}


def test_a_closed_stdout_is_reported_by_the_interpreter():
    # with stdout block-buffered, the artifact is still in its buffer when
    # main returns; the flush in cli.run fails on the closed pipe and leaves
    # the exit to the interpreter, which reports it and exits 120
    env = {k: v for k, v in _src_env().items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "corona_lab", "blaschke-eval",
                               "--zeros", "[[0.5,0]]", "--at", "[0.3,0]"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
                              timeout=120)
    finally:
        os.close(write_end)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 120
    assert lines[0].startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    assert lines[1:] == ["BrokenPipeError: [Errno 32] Broken pipe"]


def test_measure_fit_runs_without_scipy(capsys, tmp_path):
    spec = write(tmp_path, "fit.json", {
        "targets": [{"function": {"kind": "polynomial", "data": {"coeffs": [[0, 0], [1, 0]]}},
                     "value": [0.99, 0]}],
        "partition": [[-0.25 + 0.5 * k / 16, -0.25 + 0.5 * (k + 1) / 16]
                      for k in range(16)]})
    code = ("import sys, corona_lab.cli\n"
            f"rc = corona_lab.cli.main(['measure-fit', '--in', {spec!r}])\n"
            "print('scipy' in sys.modules, rc, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.stderr == "False 0\n"
    # a fresh process gives the bytes of an in-process fit
    assert run(capsys, "measure-fit", "--in", spec) == (0, proc.stdout, "")


# a valid argv of each subcommand, optional flags included; the files need not exist
_VALID_ARGV = {
    "corona-solve": ["--in", "i.json", "--method", "numeric", "--degree-cap", "3",
                     "--tol", "1e-6"],
    "corona-check": ["--in", "i.json", "--cert", "c.json", "--samples", "5", "--seed", "3"],
    "delta": ["--in", "i.json", "--out", "o.json"],
    "interp-check": ["--points", "p.json"],
    "blaschke-eval": ["--zeros", "[[0.5,0]]", "--at", "[0.3,0]", "--rotation", "0.5"],
    "ladder": ["--zeros", "z.json", "--candidates", "p.json", "--eps", "[0.5]",
               "--eta", "[0.5]", "--ell", "0.5"],
    "hoffman-trace": ["--function", "f.json", "--points", "p.json", "--grid-radius", "0.5",
                      "--grid-size", "16"],
    "l2-identity": ["--zeros", "[[0.5,0]]", "--c", "[0.1,0]", "--n-fft", "512"],
    "measure-fit": ["--in", "fit.json", "--eps", "1e-2"],
    "quartiles": ["--density", "d.json", "--window", "3"],
    "pushforward": ["--density", "d.json", "--c", "[0.3,0]", "--samples", "4"],
    "align-arcs": ["--density", "d.json", "--alpha", "0.5", "--beta", "2", "--case", "b"],
    "cluster-scenario": ["--functions", "f.json", "--points", "p.json", "--eps", "1e-3",
                         "--min-tail", "2"],
}


@pytest.mark.parametrize("command", sorted(_VALID_ARGV))
def test_a_subcommand_parser_parses_and_reports_as_the_full_one(capsys, command):
    assert sorted(_VALID_ARGV) == sorted(subcommands())
    own, full = build_parser(command), build_parser()
    assert own is build_parser(command) and own is not full
    argv = [command] + _VALID_ARGV[command]
    assert own.parse_args(argv) == full.parse_args(argv)
    texts = []
    for parser in (own, full):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        texts.append(capsys.readouterr())
    assert texts[0] == texts[1]
    assert texts[0].out.startswith(f"usage: corona-lab {command} [-h]")
    for bad in ([command], argv + ["--bogus"], argv + ["delta"]):
        messages = []
        for parser in (own, full):
            with pytest.raises(ConfigError) as error:
                parser.parse_args(bad)
            messages.append(str(error.value))
        assert messages[0] == messages[1]


def test_main_builds_the_parser_of_the_subcommand_it_runs(capsys, monkeypatch):
    # the full parser serves the top-level --help, no subcommand and an unknown one
    built = []

    def spy(*args):
        built.append(args)
        return build_parser(*args)
    monkeypatch.setattr(cli, "build_parser", spy)
    assert run(capsys, "blaschke-eval", "--zeros", "[[0.5,0]]", "--at", "[0.3,0]")[0] == 0
    assert run(capsys, "delta", "--help")[0] == 0
    assert run(capsys, "--help")[0] == 0
    assert run(capsys)[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "--out", "x", "delta")[0] == 2
    assert built == [("blaschke-eval",), ("delta",), (None,), (None,), (None,), (None,)]


# the modules every subcommand below loads: the CLI, its three module-level
# imports, disc_geometry and the records it builds; each case adds its own
_CLI_MODULES = {"cli", "disc_geometry", "errors", "quadrature", "records", "serialize"}


@pytest.mark.parametrize("command, extra", [
    ("blaschke-eval", {"blaschke"}),
    ("delta", {"corona", "functions"}),
    ("quartiles", {"functions", "measures"}),
    ("l2-identity", {"blaschke", "hoffman"}),
    ("corona-solve", {"corona", "exactpoly", "functions"}),
    # --selftest loads the suites and the modules they check; no other run
    # loads the suites
    ("blaschke-eval --selftest", {"blaschke", "selftest"}),
])
def test_a_subcommand_loads_only_the_modules_it_uses(capsys, tmp_path, command, extra):
    instance = {"functions": [_poly([0, 0, 1]), _poly([-0.5, 1])]}
    argv = command.split() + {
        "blaschke-eval": ["--zeros", "[[0.5,0.1]]", "--at", "[0.3,-0.2]"],
        "delta": ["--in", write(tmp_path, "inst.json", instance)],
        "corona-solve": ["--in", write(tmp_path, "inst.json", instance)],
        "quartiles": ["--density", write(tmp_path, "d.json",
                                         {"pieces": [[-0.5, 0.5, 2 * math.pi]]})],
        "l2-identity": ["--zeros", "[[0.5,0.1],[0,0.2]]", "--c", "[0.1,0]"],
        "blaschke-eval --selftest": [],
    }[command]
    code = ("import json, sys, corona_lab.cli\n"
            "try:\n"
            f"    rc = corona_lab.cli.main({argv!r})\n"
            "except SystemExit as e:\n"
            "    rc = e.code\n"
            "json.dump([rc, sorted(m for m in sys.modules if m.startswith('corona_lab.')),\n"
            "           'numpy.polynomial' in sys.modules, 'dataclasses' in sys.modules],\n"
            "          sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                          text=True, timeout=120)
    rc, loaded, polynomial, dataclasses = json.loads(proc.stderr)
    assert rc == 0
    assert loaded == sorted(f"corona_lab.{m}" for m in _CLI_MODULES | extra)
    # the Gauss-Legendre table, and numpy.polynomial with it, wait for a panel
    assert not polynomial
    # records are built without dataclasses' code generation
    assert not dataclasses
    # a fresh process gives the bytes of an in-process call
    assert run(capsys, *argv) == (0, proc.stdout, "")


def test_delta_on_blaschke_data_keeps_its_bytes(capsys, tmp_path):
    # functions imports blaschke only inside the Blaschke readers; these bytes
    # were printed while it still imported it at module level
    path = write(tmp_path, "inst.json", {
        "functions": [{"kind": "finite_blaschke",
                       "data": {"zeros": [[0.5, 0.25], [-0.125, 0.0]], "rotation": 0.75}},
                      _poly([-0.5, 1])],
        "grid": {"radial": 8, "angular": 16, "boundary": 32, "ratio": 0.5}})
    assert run(capsys, "delta", "--in", path) == (
        0, '{\n  "argmin": [\n    0.5,\n    0.0\n  ],\n  "value": 0.19341057330042033\n}\n', "")


def test_the_package_surface_resolves_on_first_access():
    # every public name is the object its defining module holds
    for name in corona_lab.__all__:
        obj = getattr(corona_lab, name)
        assert obj.__module__.startswith("corona_lab.")
        assert vars(importlib.import_module(obj.__module__))[name] is obj
    assert set(corona_lab.__all__) <= set(dir(corona_lab))
    with pytest.raises(AttributeError, match="no_such_name"):
        corona_lab.no_such_name
    # a bare import loads no submodule
    code = "import sys, corona_lab; print(sorted(m for m in sys.modules if 'corona_lab' in m))"
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                          text=True, timeout=120)
    assert (proc.stdout, proc.stderr) == ("['corona_lab']\n", "")


def test_every_module_suite_is_reachable_from_a_subcommand():
    # every suite runs from some subcommand, and every module a subcommand
    # names has a suite
    reached = {module for p in subcommands().values() for a in p._actions
               if isinstance(a, _Selftest) for module in a.modules}
    assert "corona_lab.exactpoly" in reached
    assert reached == set(SUITES)
    modules = {f"corona_lab.{m.name}" for m in pkgutil.iter_modules(corona_lab.__path__)}
    assert reached <= modules


@pytest.mark.parametrize("content", [None, b"\xff\xfe", b"[" * 100000],
                         ids=["directory", "not-utf8", "nested-too-deep"])
def test_unreadable_input_file_is_a_usage_error(capsys, tmp_path, content):
    # regression cases of the fuzz test below: each ended in a traceback
    path = tmp_path
    if content is not None:
        path = tmp_path / "in.json"
        path.write_bytes(content)
    rc, out, err = run(capsys, "delta", "--in", str(path))
    assert (rc, out) == (2, "")
    assert json.loads(err)["error"] == "ConfigError"
    assert str(path) in json.loads(err)["message"]


def test_inline_json_nested_too_deep_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "blaschke-eval", "--zeros", "[" * 5000, "--at", "[0,0]")
    assert (rc, out) == (2, "")
    assert json.loads(err)["message"].startswith("--zeros: invalid inline JSON")


# ------------------------------------------------------------------ fuzzing
# argv drawn over every subcommand: junk and out-of-range flag values,
# malformed and random JSON files.  Point-count flags are bounded
# (cli.MAX_POINTS) and so are grid counts read from files
# (corona.MAX_COUNT), but a value at a bound still asks for a large
# computation, so the pools draw small counts only.

def _poly(coeffs):
    return {"kind": "polynomial", "data": {"coeffs": [[c, 0] for c in coeffs]}}


_FUZZ_FILES = {
    "inst.json": {"functions": [_poly([0, 0, 1]), _poly([-0.5, 1])]},
    "cert.json": {"solutions": [_poly([4]), _poly([-2, -4])]},
    "seq.json": {"points": [[0.1, 0], [0.5, 0.2], [-0.3, 0.6]]},
    "zeros.json": {"zeros": [[0.5, 0], [0.6, 0.1]]},
    "density.json": {"pieces": [[-math.pi, math.pi, 1.0]]},
    "fn.json": _poly([1, 0.5]),
    "fit.json": {"targets": [{"function": _poly([0, 1]), "value": [0.5, 0]}],
                 "partition": [[-1.5 + k / 4, -1.25 + k / 4] for k in range(12)]},
}
_FUZZ_RAW = {"broken.json": b"{", "empty.json": b"", "deep.json": b"[" * 100000,
             "latin1.json": b"\xff\xfe", "nan.json": b'{"points": [[NaN, 0]]}'}
_FUZZ_TEXT = ["0", "-1", "2", "0.5", "nan", "inf", "-inf", "1e-320", "1e400", "x", "",
              "[[0,0]]", "[[0.5,0.1],[0,0.2]]", "[0.3,0]", "[2,0]", "[NaN,0]", "[",
              "null", "{}", '"x"', "[1e400,0]", "[]", "[0.5]", "[0.5,0.25]", "[" * 5000]
# values that let a call get past parsing; file names are resolved in tmp_path
_FUZZ_GOOD = {
    "--in": ["inst.json", "fit.json"], "--cert": ["cert.json"], "--points": ["seq.json"],
    "--candidates": ["seq.json"], "--functions": ["inst.json"], "--function": ["fn.json"],
    "--density": ["density.json"], "--zeros": ["[[0.5,0.1],[0,0.2]]", "zeros.json"],
    "--at": ["[0.3,0]"], "--c": ["[0.3,0]", "[0,0]"], "--eps": ["1e-3", "[0.5,0.25]"],
    "--eta": ["[0.5,0.75]"], "--ell": ["0.5"], "--alpha": ["0.5"], "--beta": ["2"],
    "--method": ["auto", "exact", "numeric"], "--case": ["a", "b", "c"],
    "--degree-cap": ["3"], "--samples": ["5"], "--n-fft": ["256"], "--grid-size": ["8"],
    "--nodes": ["16"], "--min-tail": ["2"], "--tol": ["1e-6"], "--window": ["3"],
    "--grid-radius": ["0.5"], "--rotation": ["0.5"], "--seed": ["3"],
}
_FUZZ_KEYS = ("functions", "kind", "data", "coeffs", "num", "den", "zeros", "rotation",
              "points", "pieces", "solutions", "targets", "partition", "function",
              "value", "window", "delta_hat", "polynomial", "rational", "finite_blaschke",
              "grid", "radial", "angular", "boundary", "ratio")
_FUZZ_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.sampled_from(_FUZZ_KEYS)
    | st.sampled_from([0.5, -0.25, 0.9999999999999999, 1.5, 1e-300, 1e300,
                       math.nan, math.inf, -math.inf]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_FUZZ_KEYS), inner, max_size=3),
    max_leaves=12)


@st.composite
def _fuzz_argv(draw, commands, good, junk):
    """A subcommand with each required flag present nine times in ten and
    each optional one half the time; a flag's value is good half the time."""
    cmd = draw(st.sampled_from(sorted(commands)))
    argv = [cmd]
    for flag, required in commands[cmd]:
        if draw(st.sampled_from([True] * 9 + [False]) if required else st.booleans()):
            pool = good[flag] if flag in good and draw(st.booleans()) else junk
            argv += [flag, draw(st.sampled_from(pool))]
    return argv + draw(st.sampled_from([[]] * 4 + [["--bogus"], ["stray"]]))


def test_cli_fuzz_ends_in_an_exit_code_and_one_json_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)      # a junk --out value is a relative path
    parser = build_parser()
    commands = {
        name: [(a.option_strings[0], a.required) for a in p._actions
               if a.option_strings and a.option_strings[0] not in ("-h", "--selftest")]
        for name, p in subcommands().items()}
    assert len(commands) == 13
    good = {flag: [str(tmp_path / v) if v.endswith(".json") else v for v in values]
            for flag, values in _FUZZ_GOOD.items()}
    junk = [str(tmp_path / n) for n in (*_FUZZ_FILES, *_FUZZ_RAW, "random.json", "missing")]
    junk += [str(tmp_path), str(tmp_path / "out.json"), *_FUZZ_TEXT]
    reference = ["blaschke-eval", "--zeros", "[[0.5,0.1]]", "--at", "[0.3,-0.2]"]
    expected = run(capsys, *reference)

    @settings(max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_fuzz_argv(commands, good, junk), _FUZZ_JSON)
    def check(argv, doc):
        # every example starts from the same files: --out may overwrite one
        for name, content in _FUZZ_FILES.items():
            write(tmp_path, name, content)
        for name, raw in _FUZZ_RAW.items():
            (tmp_path / name).write_bytes(raw)
        (tmp_path / "random.json").write_text(json.dumps(doc))
        rc, out, err = run(capsys, *argv)
        assert rc in (0, 1, 2)
        assert "Traceback" not in out + err
        if err:
            assert isinstance(json.loads(err), dict)
        # the cached parser keeps nothing from the call
        assert build_parser() is parser
        assert run(capsys, *reference) == expected

    check()
