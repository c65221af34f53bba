"""End-to-end command-line behavior: outputs, determinism, exit codes."""

import argparse
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import corona_lab
from corona_lab.cli import _Selftest, build_parser, main
from corona_lab.measures import SimpleDensity, pushforward_density


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


def test_blaschke_eval_rejects_nan_input(capsys):
    rc, out, err = run(capsys, "blaschke-eval", "--zeros", "[[0,0]]",
                       "--at", "[NaN,0]")
    assert (rc, out) == (2, "")
    assert json.loads(err)["error"] == "ConfigError"
    assert "--at" in json.loads(err)["message"]
    rc, out, err = run(capsys, "blaschke-eval", "--zeros", "[[0,0]]",
                       "--at", "[0.3,0]", "--rotation", "nan")
    assert (rc, out) == (1, "")
    assert json.loads(err) == {"error": "DomainError",
                               "message": "rotation must be finite"}


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


def test_flags_only_where_they_take_effect(capsys, tmp_path):
    points = write(tmp_path, "pts.json", {"points": [[0.1, 0.0], [0.5, 0.0]]})
    assert run(capsys, "interp-check", "--points", points)[0] == 0
    rc, _, err = run(capsys, "interp-check", "--points", points, "--seed", "1")
    assert rc == 2
    assert "--seed" in err
    rc, _, err = run(capsys, "interp-check", "--points", points, "--nodes", "9")
    assert rc == 2
    assert "--nodes" in err


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


def test_non_numeric_density_piece_names_key(capsys, tmp_path):
    density = write(tmp_path, "d.json", {"pieces": [["a", 0.2, 1]]})
    rc, _, err = run(capsys, "quartiles", "--density", density)
    _assert_names_key(rc, err, "pieces[0]")


POLY_ONE = {"kind": "polynomial", "data": {"coeffs": [[1, 0]]}}
POINTS = {"points": [[0.5, 0.0], [0.75, 0.0]]}


@pytest.mark.parametrize("case", ["rotation", "functions", "cluster_functions",
                                  "solutions", "targets", "eps", "grid_count"])
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
                                    "boundary": 256, "ratio": 0.5}}}
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


def test_pushforward_csv_matches_per_row_formatting(capsys, tmp_path):
    level = 2 * math.pi / 0.75
    pieces = [[-0.5, 0.25, level / 4], [0.25, 1.0, 3 * level / 4]]
    density = write(tmp_path, "d.json", {"pieces": pieces})
    rc, out, _ = run(capsys, "pushforward", "--density", density,
                     "--c", "[0.3,-0.2]", "--samples", "64")
    assert rc == 0
    s = SimpleDensity.from_dict({"pieces": pieces})
    u = pushforward_density(s, 0.3 - 0.2j)
    theta = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    expected = "theta,u\n" + "".join(f"{t:.17g},{v:.17g}\n"
                                     for t, v in zip(theta, u(theta)))
    assert out == expected


def test_exit_code_two_on_unknown_key(capsys, tmp_path):
    inst = write(tmp_path, "inst.json", {"functions": [], "bogus": 1})
    rc, _, err = run(capsys, "delta", "--in", inst)
    assert rc == 2
    assert "bogus" in json.loads(err)["message"]


def test_nodes_env_override(capsys, tmp_path, monkeypatch):
    level = 2 * math.pi / 1.0
    density = write(tmp_path, "d.json", {"pieces": [[-0.5, 0.5, level]]})
    monkeypatch.setenv("CORONA_LAB_NODES", "512")
    rc, out, _ = run(capsys, "pushforward", "--density", density,
                     "--c", "[0.1,0]")
    assert rc == 0
    monkeypatch.setenv("CORONA_LAB_NODES", "junk")
    rc, _, _ = run(capsys, "pushforward", "--density", density,
                   "--c", "[0.1,0]")
    assert rc == 2
    monkeypatch.setenv("CORONA_LAB_NODES", "2")
    rc, _, _ = run(capsys, "pushforward", "--density", density,
                   "--c", "[0.1,0]")
    assert rc == 2


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
    # each call gives the bytes of a fresh process.
    a = ["blaschke-eval", "--zeros", "[[0.5,0.1]]", "--at", "[0.3,-0.2]",
         "--rotation", "1.25"]
    b = ["l2-identity", "--zeros", "[[0.5,0.1],[0,0.2]]", "--c", "[0.1,0]"]
    usage = ["blaschke-eval", "--zeros", "[[0.5,0.1]]", "--rotation", "x"]
    selftest = ["blaschke-eval", "--selftest"]

    def fresh(argv):
        proc = subprocess.run([sys.executable, "-m", "corona_lab"] + argv, env=_src_env(),
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    calls = (a, b, usage, selftest, a)
    expected = [fresh(argv) for argv in calls]
    assert [rc for rc, _, _ in expected] == [0, 0, 2, 0, 0]
    for argv, want in zip(calls, expected):
        assert run(capsys, *argv) == want
    rc, out, _ = run(capsys, "blaschke-eval", "--help")
    assert rc == 0 and out.startswith("usage: corona-lab blaschke-eval")
    assert run(capsys, *a) == expected[0]
    assert build_parser() is build_parser()


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


def test_every_module_suite_is_reachable_from_a_subcommand():
    reached = {module.__name__ for p in subcommands().values() for a in p._actions
               if isinstance(a, _Selftest) for module in a.modules}
    with_suite = {f"corona_lab.{m.name}" for m in pkgutil.iter_modules(corona_lab.__path__)
                  if not m.name.startswith("__")
                  and hasattr(importlib.import_module(f"corona_lab.{m.name}"), "selftest")}
    assert "corona_lab.exactpoly" in with_suite
    assert reached == with_suite


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
# malformed and random JSON files.  Counts in the pools stay small, so no
# drawn value asks for a large computation.

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
              "value", "window", "delta_hat", "polynomial", "rational", "finite_blaschke")
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
