"""End-to-end command-line behavior: outputs, determinism, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corona_lab
from corona_lab.cli import build_parser, main
from corona_lab.measures import SimpleDensity, pushforward_density


def run(capsys, *argv):
    """Invoke the entry point, returning (exit_code, stdout, stderr)."""
    try:
        rc = main(list(argv))
    except SystemExit as e:       # --selftest and --help exit from the parser
        rc = e.code
    out = capsys.readouterr()
    return rc, out.out, out.err


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
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
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


def test_scipy_is_imported_only_by_a_fit(capsys, tmp_path):
    spec = write(tmp_path, "fit.json", {
        "targets": [{"function": {"kind": "polynomial", "data": {"coeffs": [[0, 0], [1, 0]]}},
                     "value": [0.99, 0]}],
        "partition": [[-0.25 + 0.5 * k / 16, -0.25 + 0.5 * (k + 1) / 16]
                      for k in range(16)]})
    code = ("import sys, corona_lab, corona_lab.cli\n"
            "before = 'scipy' in sys.modules\n"
            f"rc = corona_lab.cli.main(['measure-fit', '--in', {spec!r}])\n"
            "print(before, 'scipy.optimize' in sys.modules, rc, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.stderr == "False True 0\n"
    # the fit gives the same bytes whether scipy is loaded by it or before it
    assert run(capsys, "measure-fit", "--in", spec) == (0, proc.stdout, "")
