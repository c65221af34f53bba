"""The artifact encoding: dumps against json.dumps, the readers against the
readers they replaced, JSON round trips of every to_dict/from_dict pair,
and the frozen bytes of every error payload."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from corona_lab import errors
from corona_lab.blaschke import DiscSequence
from corona_lab.corona import BezoutCertificate, CoronaInstance, GridSpec
from corona_lab.errors import ConfigError
from corona_lab.functions import FunctionSpec
from corona_lab.measures import SimpleDensity, fit_simple_density
from corona_lab.serialize import (_encode, as_complex, as_finite, as_list, as_number,
                                  complex_list, dumps)

from helpers import identity_function, instance_dict


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


def test_dumps_writes_a_record_held_in_a_record_as_its_to_dict():
    # Record.to_dict holds the field records themselves; dumps writes each
    # as its own to_dict, the bytes of json.dumps with _encode
    instance = CoronaInstance((identity_function(), FunctionSpec.polynomial((0.5, 1j))),
                              GridSpec(8, 16, 32, 0.25))
    partition = [(-0.25 + 0.0625 * k, -0.25 + 0.0625 * (k + 1)) for k in range(8)]
    fit = fit_simple_density(((identity_function(), 0.99),), partition, eps=1e-2)
    for record, d in ((instance, instance_dict(instance)),
                      (fit, {"density": fit.density.to_dict(), "residuals": fit.residuals,
                             "mass_error": fit.mass_error})):
        text = dumps(d)
        assert dumps(record.to_dict()) == dumps(record) == text
        assert json.dumps(record, sort_keys=True, indent=2, default=_encode) + "\n" == text


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


# ------------------------------------------------------------ writer oracle

def _json_dumps(obj) -> str:
    """The writer dumps replaced, kept as its oracle."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_encode) + "\n"


def _outcome(write, obj):
    """The text written, or the type of the exception raised."""
    try:
        return write(obj)
    except (TypeError, ValueError) as e:
        return type(e)


_special = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2e-308,
                            1.7976931348623157e308, 0.1])
_number = st.one_of(st.floats(), _special, st.integers(-10 ** 30, 10 ** 30),
                    st.integers(10 ** 300, 10 ** 301), st.booleans())
_array = hnp.arrays(st.sampled_from([np.float64, np.complex128, np.int64, np.bool_]),
                    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3))
_leaf = st.one_of(
    st.none(), _number, st.text(max_size=6),
    st.builds(complex, st.floats() | _special, st.floats() | _special),
    _number.map(np.float64) | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.builds(np.complex128, st.floats()), st.booleans().map(np.bool_), _array,
)


def _containers(children):
    key = st.one_of(st.text(max_size=4), st.integers(-20, 20) | st.floats(allow_nan=False),
                    st.booleans(), st.none())
    same_kind_keys = key.flatmap(
        lambda k: st.dictionaries(st.from_type(type(k)) if k is not None else st.none(),
                                  children, max_size=4))
    return st.one_of(
        st.lists(children, max_size=5), st.lists(children, max_size=5).map(tuple),
        st.dictionaries(key, children, max_size=4), same_kind_keys,
        # equal-length float rows and complex lists, the shapes written by one template
        st.lists(st.lists(st.floats() | _special, min_size=2, max_size=2).map(tuple), max_size=4),
        st.lists(st.builds(complex, st.floats(), st.floats()), max_size=4))


_document = st.recursive(_leaf, _containers, max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_document)
def test_dumps_writes_the_bytes_of_json_dumps(obj):
    assert _outcome(dumps, obj) == _outcome(_json_dumps, obj)


@settings(max_examples=60, deadline=None)
@given(_document, st.sampled_from([object(), {1, 2}, b"x", np.datetime64("2020-01-01")]))
def test_dumps_rejects_what_json_dumps_rejects(obj, bad):
    doc = [obj, {"bad": bad}]
    assert _outcome(dumps, doc) is _outcome(_json_dumps, doc) is TypeError


def test_dumps_rejects_a_container_that_holds_itself():
    lst, dct = [1.0], {"a": 1}
    lst.append(lst)
    dct["b"] = [dct]
    for doc in (lst, dct, {"x": [[lst]]}):
        assert _outcome(dumps, doc) is _outcome(_json_dumps, doc) is ValueError
    shared = [0.5, 1.5]
    assert dumps([shared, shared, {"s": shared}]) == _json_dumps([shared, shared, {"s": shared}])


@pytest.mark.parametrize("doc", [
    {10: 1, 9: 2, -1.5: 3, True: 4},          # sorted as numbers, then written as strings
    {math.inf: 1, -math.inf: 2, 0.5: 3},
    {None: [1.0, math.nan]},
    {"é": "ü\u2028", "a": []},
    {np.float64(2.5): 1, 1: 2},
    [[0.5, 1.5], (2.5, -0.0)],
    [[1.0, 2.0], [3.0]],
    [np.zeros((0, 3)), np.zeros((2, 0)), np.array([[1 + 2j, 3j]])],
    [1 + 2j, complex(math.nan, 1)],
])
def test_dumps_matches_json_dumps_on_edge_cases(doc):
    assert dumps(doc) == _json_dumps(doc)


# ------------------------------------------------------------ reader oracle
# the readers as they were before as_list named entries only to reject them

def _old_as_complex(pair, where="value"):
    if isinstance(pair, (int, float, complex)):
        parts = (pair.real, pair.imag)
    elif isinstance(pair, (list, tuple)) and len(pair) == 2:
        parts = pair
    else:
        raise ConfigError(f"{where}: expected [re, im] pair, got {pair!r}")
    # a JSON boolean is rejected as as_number rejects it, bare or as a part
    for value in (pair, *parts):
        if isinstance(value, bool):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
    if not all(isinstance(part, (int, float)) for part in parts):
        raise ConfigError(f"{where}: expected numeric [re, im] pair")
    try:
        z = complex(*parts)
    except OverflowError:
        z = complex(cmath.inf)
    if not cmath.isfinite(z):
        raise ConfigError(f"{where}: expected finite [re, im] parts, got {pair!r}")
    return z


def _old_as_finite(value, where="value"):
    number = as_number(value, where)
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return number


def _old_as_list(value, where="list", item=None):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    return [x if item is None else item(x, f"{where}[{i}]") for i, x in enumerate(value)]


def _read(reader, *args):
    """repr of what reader returns, or the type and message of what it raises."""
    try:
        return repr(reader(*args))
    except (ConfigError, errors.DomainError) as e:
        return type(e), str(e)


_json_scalar = st.one_of(st.integers(-3, 3), st.integers(10 ** 400, 10 ** 400 + 1),
                         st.floats(), st.sampled_from([1e400, -0.0, 5e-324]),
                         st.booleans(), st.none(), st.text(max_size=3))
_json_value = st.recursive(_json_scalar, lambda c: st.lists(c, max_size=4), max_leaves=12)
_json_pair = st.lists(_json_scalar, min_size=2, max_size=2) | _json_value
_mostly_pairs = st.lists(_json_pair, max_size=5) | _json_value
_mostly_rows = st.lists(st.lists(_json_scalar, min_size=3, max_size=3) | _json_value,
                        max_size=5) | _json_value


def _pieces(new: bool):
    read_list, read_finite = (as_list, as_finite) if new else (_old_as_list, _old_as_finite)
    return lambda p, at: tuple(read_list(p, at, read_finite))


@settings(max_examples=200, deadline=None)
@given(_json_value)
def test_number_readers_match_the_old_readers(value):
    assert _read(as_finite, value, "f.rotation") == _read(_old_as_finite, value, "f.rotation")
    assert _read(as_complex, value, "--at") == _read(_old_as_complex, value, "--at")


@settings(max_examples=200, deadline=None)
@given(_mostly_pairs, _mostly_rows)
def test_list_readers_match_the_old_readers(pairs, rows):
    assert (_read(complex_list, pairs, "f.coeffs")
            == _read(_old_as_list, pairs, "f.coeffs", _old_as_complex))
    assert (_read(as_list, rows, "d.json.pieces", _pieces(True))
            == _read(_old_as_list, rows, "d.json.pieces", _pieces(False)))


@pytest.mark.parametrize("rows, message", [
    ([[0.0, 1.0, 2.0]] * 3 + [[0.0, "1", 2.0]],
     "d.json.pieces[3][1]: expected a number, got '1'"),
    ([[0.0, 1.0, True], [0.0, math.nan, 2.0]],
     "d.json.pieces[0][2]: expected a number, got True"),
    ([[0.0, 1.0, 2.0], [0.0, 1e400, 2.0]],
     "d.json.pieces[1][1]: expected a finite number, got inf"),
    ([[1, 2.5, 3], 4], "d.json.pieces[1]: expected a list, got 4"),
])
def test_a_rejected_entry_is_named_by_its_indices(rows, message):
    assert (_read(as_list, rows, "d.json.pieces", _pieces(True))
            == _read(_old_as_list, rows, "d.json.pieces", _pieces(False))
            == (ConfigError, message))


def test_list_entries_raise_other_errors_unnamed():
    # the first bad entry's error wins, whichever kind it is and however it is read
    empty = {"kind": "polynomial", "data": {"coeffs": []}}
    bad_pair = {"kind": "polynomial", "data": {"coeffs": [[0.5, "x"]]}}
    olds = []
    for functions in ([empty, bad_pair], [bad_pair, empty]):
        olds.append(_read(_old_as_list, functions, "in.json.functions", FunctionSpec.from_dict))
        assert _read(as_list, functions, "in.json.functions", FunctionSpec.from_dict) == olds[-1]
    assert olds == [(errors.DomainError, "polynomial needs at least one coefficient"),
                    (ConfigError, "in.json.functions[0].data.coeffs[0]: "
                                  "expected numeric [re, im] pair")]


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
    # an instance is written only as an input file; a product, as a finite
    # Blaschke function's data
    to_dict = instance_dict if isinstance(obj, CoronaInstance) else type(obj).to_dict
    d = to_dict(obj)
    for doc in (d, json.loads(dumps(d))):
        back = type(obj).from_dict(doc)
        assert back == obj
        assert dumps(to_dict(back)) == dumps(d)


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
