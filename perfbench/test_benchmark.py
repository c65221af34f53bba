"""Tests of the benchmark itself: the smoke mode runs every op of every
workload at tiny sizes through its validator and the tracer, and the
validators reject corrupted artifacts."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import validate  # noqa: E402


def test_smoke_runs_every_op_and_validator():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(" 0 failed") == len(run.WORKLOADS), proc.stdout


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()


def _tails_op(points):
    return {"data": {"points": [[z.real, z.imag] for z in points]}}


def test_tails_validator_rejects_a_wrong_tail():
    pts = [0.1 + 0.2j, -0.5 + 0j, 0.3 - 0.6j]
    tails = validate._tails(np.array(pts)).tolist()
    doc = {"count": 3, "gap_sum": sum(1 - abs(z) for z in pts),
           "carleson_constant": min(tails), "tails": tails}
    validate.tails(_tails_op(pts), json.dumps(doc).encode())
    doc["tails"][1] *= 1 + 1e-9
    with pytest.raises(validate.Invalid):
        validate.tails(_tails_op(pts), json.dumps(doc).encode())


def test_bezout_validator_rejects_a_wrong_cofactor():
    op = {"data": {"functions": [[[0, 0], [0, 0], [1, 0]], [[-0.5, 0], [1, 0]]],
                   "tol": 1e-8, "seed": 3}}
    cert = {"solutions": [{"kind": "polynomial", "data": {"coeffs": [[4, 0]]}},
                          {"kind": "polynomial", "data": {"coeffs": [[-2, 0], [-4, 0]]}}],
            "residual_sup": 0.0, "passing": True}
    validate.bezout(op, json.dumps(cert).encode())
    cert["solutions"][0]["data"]["coeffs"] = [[4 + 1e-6, 0]]
    with pytest.raises(validate.Invalid):
        validate.bezout(op, json.dumps(cert).encode())


def test_pushforward_validator_rejects_lost_mass():
    pieces = [[-1.0, 1.0, math.pi]]
    op = {"data": {"pieces": pieces, "c": [0.0, 0.0]}}
    doc = {"mass": 1.0, "breakpoints": [-1.0, 1.0]}
    validate.pushforward(op, json.dumps(doc).encode())
    doc["mass"] = 1 - 1e-9
    with pytest.raises(validate.Invalid):
        validate.pushforward(op, json.dumps(doc).encode())


def test_quartiles_validator_rejects_a_shifted_quartile():
    pieces = [[-0.8, 0.8, math.pi / 0.8]]
    op = {"data": {"pieces": pieces, "window": math.pi}}
    doc = {"alpha": -0.4, "beta": 0.4, "case_tag": "straddle"}
    validate.quartiles(op, json.dumps(doc).encode())
    doc["alpha"] = -0.4 + 1e-8
    with pytest.raises(validate.Invalid):
        validate.quartiles(op, json.dumps(doc).encode())
