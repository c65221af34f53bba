"""Function specs, JSON helpers, and circle quadrature."""

import json
import math

import numpy as np
import pytest

from corona_lab.blaschke import BlaschkeProduct
from corona_lab.errors import ConfigError, DomainError
from corona_lab.functions import FunctionSpec
from corona_lab.quadrature import (circle_nodes, integrate_piecewise,
                                   integrate_uniform_checked)
from corona_lab.serialize import as_complex, complex_list, dumps, strict_keys

from helpers import constant_function, identity_function

RNG = np.random.default_rng(771004)


def test_polynomial_eval_matches_numpy():
    for _ in range(20):
        coeffs = RNG.normal(size=5) + 1j * RNG.normal(size=5)
        f = FunctionSpec.polynomial(coeffs)
        z = complex(RNG.normal(), RNG.normal()) * 0.4
        ref = np.polyval(coeffs[::-1], z)
        assert abs(f(z) - ref) < 1e-12


def test_in_place_horner_matches_the_allocating_form():
    def allocating(coeffs, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        for c in reversed(coeffs):
            out = out * z + c
        return out

    rng = np.random.default_rng(5120)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        coeffs = tuple(complex(a, b) for a, b in rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-3, 4))
        for z in (complex(*rng.normal(size=2)), rng.normal(size=(1, 1)) + 0.5j,
                  rng.normal(size=(7, 9)) + 1j * rng.normal(size=(7, 9))):
            got = FunctionSpec.polynomial(coeffs)(z)
            assert np.shape(got) == np.shape(z)
            assert np.array_equal(got, allocating(coeffs, z))


def test_polynomial_trims_trailing_zeros():
    f = FunctionSpec.polynomial([1, 2, 0, 0])
    assert f.payload == ((1 + 0j, 2 + 0j),)
    g = FunctionSpec.polynomial([0, 0])
    assert g.payload == ((0j,),)
    with pytest.raises(DomainError):
        FunctionSpec.polynomial([])


def test_finite_blaschke_roundtrip():
    b = BlaschkeProduct((0.3, -0.2j), 0.7)
    f = FunctionSpec.finite_blaschke(b.zeros, b.rotation)
    assert f.payload[0].zeros == b.zeros
    z = 0.4 - 0.1j
    assert abs(f(z) - b(z)) < 1e-15


def test_rational_rejects_interior_poles():
    with pytest.raises(DomainError):
        FunctionSpec.rational([1], [-0.5, 1])        # pole at 0.5
    f = FunctionSpec.rational([1], [-2, 1])          # pole at 2 is fine
    assert abs(f(0) - (-0.5)) < 1e-15
    with pytest.raises(DomainError):
        FunctionSpec.rational([1], [0])              # zero denominator


def test_sup_norm_dominates_boundary_samples():
    specs = [
        FunctionSpec.polynomial([0.3, -1j, 0.2]),
        FunctionSpec.finite_blaschke((0.5, 0.1j)),
        FunctionSpec.rational([1, 1], [-3, 0, 1]),
    ]
    theta = RNG.uniform(-math.pi, math.pi, 400)
    for f in specs:
        vals = np.abs(f(np.exp(1j * theta)))
        assert f.sup_norm_estimate() >= np.max(vals) * (1 - 1e-9)
    assert FunctionSpec.finite_blaschke((0.5,)).sup_norm_estimate() == 1.0


def test_function_dict_roundtrip_all_kinds():
    specs = [
        FunctionSpec.polynomial([1, 2j]),
        FunctionSpec.finite_blaschke((0.3,), 0.4),
        FunctionSpec.rational([1], [-2, 1]),
        identity_function(),
        constant_function(3 - 1j),
    ]
    for f in specs:
        g = FunctionSpec.from_dict(json.loads(dumps(f.to_dict())))
        assert g.kind == f.kind
        z = 0.3 + 0.2j
        assert abs(g(z) - f(z)) < 1e-15


def test_function_dict_strictness():
    with pytest.raises(ConfigError):
        FunctionSpec.from_dict({"kind": "polynomial"})
    with pytest.raises(ConfigError):
        FunctionSpec.from_dict({"kind": "sine", "data": {}})


def test_serialize_helpers():
    assert as_complex([1, 2]) == 1 + 2j
    assert as_complex(1 - 2j) == 1 - 2j
    with pytest.raises(ConfigError):
        as_complex([1])
    with pytest.raises(ConfigError):
        as_complex("nope")
    assert complex_list([[0, 1], [2, 0]]) == [1j, 2 + 0j]
    with pytest.raises(ConfigError) as exc:
        strict_keys({"a": 1, "zz": 2}, required=("a",), where="cfg")
    assert "zz" in str(exc.value)
    with pytest.raises(ConfigError):
        strict_keys({}, required=("a",))


def test_dumps_is_canonical():
    s1 = dumps({"b": 1, "a": [1.5, 2]})
    s2 = dumps({"a": [1.5, 2], "b": 1})
    assert s1 == s2
    assert s1.endswith("\n")
    assert json.loads(s1) == {"a": [1.5, 2], "b": 1}


def test_circle_nodes_and_exactness():
    nodes = circle_nodes(8)
    assert nodes[0] == -math.pi
    assert len(nodes) == 8
    # mean over the circle kills every nonzero frequency below n
    for k in (1, 3, 7, -2):
        val = integrate_uniform_checked(lambda t, k=k: np.exp(1j * k * t), 64)[0]
        assert abs(val) < 1e-14
    assert abs(integrate_uniform_checked(lambda t: np.ones_like(t), 64)[0] - 1) < 1e-15


def test_checked_integration_reports_deviation():
    val, dev = integrate_uniform_checked(lambda t: np.cos(t) ** 2, 512)
    assert abs(val - 0.5) < 1e-14
    assert dev < 1e-14
    with pytest.raises(DomainError):
        integrate_uniform_checked(lambda t: t, 7)   # halving needs even count
    with pytest.raises(DomainError):
        integrate_uniform_checked(lambda t: t, 1)[0]


def test_piecewise_handles_jumps():
    # periodic step * smooth: exact value known in closed form
    def f(t):
        tc = np.mod(np.asarray(t) + math.pi, 2 * math.pi) - math.pi
        return np.where(tc < 0.5, np.cos(tc), 0.0)

    exact = math.sin(0.5) / (2 * math.pi)
    approx = integrate_piecewise(f, [-math.pi, 0.5], 256)
    assert abs(approx - exact) < 1e-13
    # same integrand without the breakpoint knowledge converges far slower
    naive = integrate_uniform_checked(f, 256)[0]
    assert abs(naive - exact) > abs(approx - exact)
