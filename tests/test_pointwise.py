"""One point-evaluation path: every kernel rounds a lone point as it does
inside an array, keeps shapes, and gives 0-d input back as a Python scalar."""

import ast
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corona_lab
from corona_lab.blaschke import BlaschkeProduct, Sector, _factor_product
from corona_lab.disc_geometry import MobiusAut, one_minus_abs2, pseudo_hyperbolic
from corona_lab.functions import FunctionSpec
from corona_lab.measures import PushforwardDensity, SimpleDensity, poisson_kernel

_B = BlaschkeProduct((0.5 + 0.1j, -0.3j, 0.7, 0.2 - 0.6j, -0.45 + 0.45j, 0.05), 0.7)
_M = MobiusAut(0.4 - 0.3j)
_S = SimpleDensity.normalized(((-2.5, -1.0, 1.0), (-1.0, 0.5, 3.0), (1.2, 2.9, 0.5)))
_U = PushforwardDensity(_S, 0.3 + 0.25j)

_POINTS = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)
_ANGLES = st.floats(-4.0, 4.0, allow_nan=False)

# every decorated kernel: (callable of its points, point strategy, 0-d result type)
KERNELS = {
    "_factor_product": (functools.partial(_factor_product, 0.6 - 0.8j, _B.zeros,
                                          _B.one_minus_abs2), _POINTS, complex),
    "BlaschkeProduct.__call__": (_B, _POINTS, complex),
    "BlaschkeProduct.derivative": (_B.derivative, _POINTS, complex),
    "Sector.contains": (Sector(0.2).contains, _POINTS, bool),
    "MobiusAut.apply": (_M.apply, _POINTS, complex),
    "MobiusAut.inverse": (_M.inverse, _POINTS, complex),
    "FunctionSpec.__call__[polynomial]": (
        FunctionSpec.polynomial((0.3, -1.2 + 0.4j, 0.7j, 2.5, -0.1 + 0.05j)), _POINTS, complex),
    "FunctionSpec.__call__[rational]": (
        FunctionSpec.rational((1, 0.5j, -0.25), (2 + 0.5j, -1)), _POINTS, complex),
    "FunctionSpec.__call__[finite_blaschke]": (
        FunctionSpec.finite_blaschke(_B.zeros, _B.rotation), _POINTS, complex),
    "poisson_kernel": (functools.partial(poisson_kernel, 0.3 + 0.2j), _ANGLES, float),
    "SimpleDensity.__call__": (_S, _ANGLES, float),
    "PushforwardDensity.__call__": (_U, _ANGLES, float),
    "PushforwardDensity.jacobian": (_U.jacobian, _ANGLES, float),
}


def _bits(x) -> bytes:
    return np.asarray(x).reshape(-1).tobytes()


@pytest.mark.parametrize("name", sorted(KERNELS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lone_point_rounds_as_inside_an_array(name, data):
    kernel, points, scalar = KERNELS[name]
    z = data.draw(points)
    others = data.draw(st.lists(points, min_size=1, max_size=8))
    at = data.draw(st.integers(0, len(others)))
    inside = kernel(np.array(others[:at] + [z] + others[at:]))
    for lone in (z, np.array(z), np.array([z]), np.array([[z]])):
        got = kernel(lone)
        assert np.shape(got) == np.shape(lone)
        assert _bits(got) == _bits(inside[at]), type(lone)
    assert type(kernel(z)) is scalar
    assert type(kernel(np.array(z))) is scalar


# points anywhere in the disc and points 10^-k from the circle
_DISC = _POINTS | st.builds(lambda k, t: (1 - 10.0 ** -k) * complex(math.cos(t), math.sin(t)),
                            st.integers(1, 15), _ANGLES)


@settings(max_examples=200, deadline=None)
@given(z=_DISC, w=_DISC, others=st.lists(_DISC, min_size=1, max_size=8), data=st.data())
def test_pseudo_hyperbolic_rounds_a_lone_point_as_inside_an_array(z, w, others, data):
    # not a pointwise kernel: it broadcasts its two point arguments, every
    # step is one correctly rounded real operation, and swapping z and w
    # keeps every bit
    at = data.draw(st.integers(0, len(others)))
    arr = np.array(others[:at] + [z] + others[at:])
    p = np.array([one_minus_abs2(a) for a in arr.tolist()])
    lone = pseudo_hyperbolic(z, one_minus_abs2(z), w, one_minus_abs2(w))
    for inside in (pseudo_hyperbolic(arr, p, w, one_minus_abs2(w)),
                   pseudo_hyperbolic(w, one_minus_abs2(w), arr, p),
                   pseudo_hyperbolic(arr[:, None], p[:, None], w, one_minus_abs2(w))):
        for got, want in zip(lone, inside):
            assert _bits(got) == _bits(want.reshape(-1)[at])


@pytest.mark.parametrize("name", sorted(KERNELS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_shapes_are_kept_and_empty_input_is_an_empty_array(name, data):
    kernel, points, _ = KERNELS[name]
    shape = data.draw(st.sampled_from([(0,), (2, 0), (2,), (3, 1), (2, 3, 2)]))
    pts = data.draw(st.lists(points, min_size=math.prod(shape), max_size=math.prod(shape)))
    z = np.array(pts).reshape(shape)
    got = kernel(z)
    assert isinstance(got, np.ndarray)
    assert got.shape == shape
    flat = kernel(z.ravel())
    assert _bits(got) == _bits(flat)


def _scalar_branches(path: Path) -> list:
    """(enclosing function, line) of every test of a point array's ndim, size
    or shape against 0, 1 or () and every atleast_1d call in one module."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name if where is None else where
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            probes = any(isinstance(o, ast.Attribute) and o.attr in ("ndim", "size", "shape")
                         for o in operands)
            lone = any(isinstance(o, ast.Constant) and o.value in (0, 1)
                       or isinstance(o, ast.Tuple) and not o.elts for o in operands)
            if probes and lone:
                found.append((where, node.lineno))
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
            if name == "atleast_1d":
                found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), None)
    return found


def test_scalar_branches_live_only_in_pointwise():
    """0-d conversions and lone-point padding happen in pointwise alone, plus
    canonical_angle's one branch: its real arithmetic is exactly rounded, and
    it runs in every MobiusAut and BlaschkeProduct constructor."""
    src = Path(corona_lab.__file__).parent
    found = {}
    for path in sorted(src.glob("*.py")):
        for where, line in _scalar_branches(path):
            found.setdefault(f"{path.name}:{where}", []).append(line)
    assert sorted(found) == ["disc_geometry.py:canonical_angle", "disc_geometry.py:pointwise"]
    assert len(found["disc_geometry.py:canonical_angle"]) == 1
