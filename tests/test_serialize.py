"""The artifact encoding: dumps, JSON round trips of every to_dict/from_dict
pair, and the frozen bytes of every error payload."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corona_lab import errors
from corona_lab.blaschke import BlaschkeProduct, DiscSequence
from corona_lab.corona import BezoutCertificate, CoronaInstance, GridSpec
from corona_lab.errors import ConfigError
from corona_lab.functions import FunctionSpec
from corona_lab.measures import SimpleDensity
from corona_lab.serialize import as_complex, as_finite, as_number, dumps


@pytest.mark.parametrize("value, text", [
    (1 - 2j, "[1.0, -2.0]"),
    (np.complex128(0.1 + 3j), "[0.1, 3.0]"),
    (np.array([1j, 2.5]), "[[0.0, 1.0], [2.5, 0.0]]"),
    (np.array([0.1, -2.0]), "[0.1, -2.0]"),
    (np.float64(0.1), "0.1"),
    (np.int64(7), "7"),
    ((np.float64(1e-300), 1 + 0j), "[1e-300, [1.0, 0.0]]"),
])
def test_dumps_encodes_complex_and_numpy_values(value, text):
    assert json.dumps(json.loads(dumps(value))) == text


def test_dumps_rejects_other_objects():
    with pytest.raises(TypeError):
        dumps({"x": object()})


@pytest.mark.parametrize("pair", [[math.nan, 0], [0, math.inf], [-math.inf, 1],
                                  complex(math.nan, 0), math.inf, [10 ** 400, 0]])
def test_as_complex_rejects_non_finite_parts(pair):
    with pytest.raises(ConfigError) as exc:
        as_complex(pair, "f.coeffs[1]")
    assert str(exc.value).startswith("f.coeffs[1]: expected finite [re, im] parts")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, json.loads("1e400")])
def test_as_finite_rejects_what_as_number_passes(value):
    # the JSON reader takes NaN, Infinity and 1e400 as floats
    assert not math.isfinite(as_number(value, "f.rotation"))
    with pytest.raises(ConfigError) as exc:
        as_finite(value, "f.rotation")
    assert str(exc.value).startswith("f.rotation: expected a finite number")
    assert as_finite(-3, "f.rotation") == -3.0


# ------------------------------------------------------------ round trips

_real = st.floats(-1e6, 1e6, allow_nan=False)
_complex = st.builds(complex, _real, _real)
_inside = st.builds(complex, st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))
_rotation = st.floats(-20.0, 20.0)
_eighth = st.integers(-12, 12).map(lambda k: k / 128)
_small = st.builds(complex, _eighth, _eighth)

_function = st.one_of(
    st.lists(_complex, min_size=1, max_size=5).map(FunctionSpec.polynomial),
    st.builds(FunctionSpec.finite_blaschke, st.lists(_inside, max_size=4), _rotation),
    # 1 + (at most four terms of modulus < 0.14) has no zero in the closed disc
    st.builds(FunctionSpec.rational, st.lists(_complex, min_size=1, max_size=4),
              st.lists(_small, max_size=4).map(lambda tail: [1 + 0j, *tail])),
)
_grid = st.builds(GridSpec, st.integers(8, 64), st.integers(8, 64), st.integers(8, 64),
                  st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@st.composite
def _density(draw):
    cuts = sorted(draw(st.sets(st.integers(0, 64), min_size=2, max_size=8)))
    angles = [-math.pi + k * math.pi / 32 for k in cuts]
    values = draw(st.lists(st.floats(0.0, 10.0), min_size=len(cuts) - 1,
                           max_size=len(cuts) - 1).filter(lambda v: max(v) > 0.01))
    return SimpleDensity.normalized(tuple(zip(angles, angles[1:], values)))


_ARTIFACTS = st.one_of(
    st.builds(BlaschkeProduct, st.lists(_inside, max_size=5).map(tuple), _rotation),
    st.lists(_inside, min_size=1, max_size=6).map(lambda pts: DiscSequence(tuple(pts))),
    _function,
    _grid,
    st.builds(CoronaInstance, st.lists(_function, min_size=1, max_size=3).map(tuple), _grid),
    st.builds(BezoutCertificate, st.lists(_function, max_size=3).map(tuple), _real,
              st.lists(st.floats(0.0, 1e6), max_size=3).map(tuple), st.booleans(),
              st.sampled_from(["exact", "numeric"]), st.none() | st.floats(0.0, 1.0)),
    _density(),
)


@settings(max_examples=150, deadline=None)
@given(_ARTIFACTS)
def test_every_artifact_round_trips_in_process_and_through_json(obj):
    d = obj.to_dict()
    for doc in (d, json.loads(dumps(d))):
        back = type(obj).from_dict(doc)
        assert back == obj
        assert dumps(back.to_dict()) == dumps(d)


# ------------------------------------------------------------ error payloads

@pytest.mark.parametrize("error, text", [
    (errors.DomainError("point outside the disc"),
     '{\n  "error": "DomainError",\n  "message": "point outside the disc"\n}\n'),
    (errors.ConfigError("cfg: missing key 'a'"),
     '{\n  "error": "ConfigError",\n  "message": "cfg: missing key \'a\'"\n}\n'),
    (errors.QuadratureError("quadrature estimate 1.000e-03 above tol", estimate=1e-3),
     '{\n  "error": "QuadratureError",\n  "estimate": 0.001,\n'
     '  "message": "quadrature estimate 1.000e-03 above tol"\n}\n'),
    (errors.AliasingError("energy beyond a quarter of the band", energy=0.25),
     '{\n  "energy": 0.25,\n  "error": "AliasingError",\n'
     '  "message": "energy beyond a quarter of the band"\n}\n'),
    (errors.InfeasibleError("fit misses a target", residuals=[np.float64(0.1), 2.5]),
     '{\n  "error": "InfeasibleError",\n  "message": "fit misses a target",\n'
     '  "residuals": [\n    0.1,\n    2.5\n  ]\n}\n'),
    (errors.InfeasibleError("derived endpoints do not span a valid arc"),
     '{\n  "error": "InfeasibleError",\n'
     '  "message": "derived endpoints do not span a valid arc"\n}\n'),
    (errors.ConstructionError("rung 2: no admissible next radius", rung=2),
     '{\n  "error": "ConstructionError",\n  "message": "rung 2: no admissible next radius",\n'
     '  "rung": 2\n}\n'),
    (errors.UnsolvableError("the functions share zeros",
                            roots=[0.5 + 0j, complex(-0.25, 0.1)]),
     '{\n  "error": "UnsolvableError",\n  "message": "the functions share zeros",\n'
     '  "roots": [\n    [\n      0.5,\n      0.0\n    ],\n    [\n      -0.25,\n'
     '      0.1\n    ]\n  ]\n}\n'),
    (errors.UnsolvableError("measured delta is zero", roots=[]),
     '{\n  "error": "UnsolvableError",\n  "message": "measured delta is zero",\n'
     '  "roots": []\n}\n'),
    (errors.ExtractionError("only 1 points survive", report={"stage_counts": [4, 1]}),
     '{\n  "error": "ExtractionError",\n  "message": "only 1 points survive",\n'
     '  "report": {\n    "stage_counts": [\n      4,\n      1\n    ]\n  }\n}\n'),
    (errors.ExtractionError("no report"),
     '{\n  "error": "ExtractionError",\n  "message": "no report"\n}\n'),
])
def test_error_payload_bytes_are_frozen(error, text):
    assert dumps(error.payload()) == text


def test_error_diagnostics_are_attributes():
    assert errors.ConstructionError("m", rung=2).rung == 2
    assert errors.QuadratureError("m", estimate=1e-3).estimate == 1e-3
    assert errors.AliasingError("m", energy=0.5).energy == 0.5
    roots = errors.UnsolvableError("m", roots=[0.5 + 0j]).roots
    assert roots == [0.5 + 0j] and isinstance(roots[0], complex)
    assert errors.InfeasibleError("m").residuals is None
    assert errors.ExtractionError("m").report is None
    assert isinstance(errors.DomainError("m"), ValueError)
    assert isinstance(errors.ConfigError("m"), ValueError)
