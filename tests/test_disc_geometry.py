"""Geometry primitives: angles, automorphisms, pseudo-discs, arcs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corona_lab.disc_geometry import (MobiusAut, OrthogonalArc, canonical_angle, check_disc,
                                      geodesic_endpoints, pseudo_disc_euclidean,
                                      pseudo_distance)
from corona_lab.errors import DomainError

RNG = np.random.default_rng(771001)


def random_disc_point(rng, rmax=0.95):
    return complex(rmax * rng.uniform(0, 1) * np.exp(1j * rng.uniform(-np.pi, np.pi)))


def test_canonical_angle_range_and_endpoints():
    assert canonical_angle(math.pi) == -math.pi
    assert canonical_angle(-math.pi) == -math.pi
    assert canonical_angle(0.0) == 0.0
    vals = canonical_angle(np.array([3 * math.pi, -3 * math.pi, 7.0]))
    assert np.all(vals >= -math.pi) and np.all(vals < math.pi)
    assert abs(canonical_angle(2 * math.pi + 0.3) - 0.3) < 1e-12


def test_disc_membership_guards():
    assert check_disc(0.5) == 0.5
    with pytest.raises(DomainError):
        check_disc(1.0)


def test_pseudo_distance_symmetry_and_range():
    for _ in range(50):
        z, w = random_disc_point(RNG), random_disc_point(RNG)
        d = pseudo_distance(z, w)
        assert d == pseudo_distance(w, z)
        assert 0 <= d < 1
    assert pseudo_distance(0, 0.5) == 0.5


def test_mobius_inverse_roundtrip():
    for _ in range(50):
        m = MobiusAut(random_disc_point(RNG))
        z = random_disc_point(RNG)
        assert abs(m.inverse(m.apply(z)) - z) < 1e-13
        assert abs(m.apply(m.inverse(z)) - z) < 1e-13


def test_mobius_preserves_pseudo_distance():
    for _ in range(50):
        m = MobiusAut(random_disc_point(RNG))
        z, w = random_disc_point(RNG), random_disc_point(RNG)
        assert abs(pseudo_distance(m.apply(z), m.apply(w))
                   - pseudo_distance(z, w)) < 1e-12


def test_mobius_boundary_to_boundary():
    m = MobiusAut(0.4 - 0.3j)
    theta = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    image = m.apply(np.exp(1j * theta))
    assert np.max(np.abs(np.abs(image) - 1)) < 1e-14


def test_pseudo_disc_closed_form_anchor():
    center, radius = pseudo_disc_euclidean(0.5, 0.5)
    assert abs(center - 0.4) < 1e-15
    assert abs(radius - 0.4) < 1e-15


def test_pseudo_disc_boundary_consistency():
    # sampled Euclidean boundary sits at pseudo-distance eta from c
    for _ in range(20):
        c = random_disc_point(RNG, 0.9)
        eta = RNG.uniform(0.05, 0.9)
        center, radius = pseudo_disc_euclidean(c, eta)
        for t in np.linspace(-np.pi, np.pi, 25, endpoint=False):
            p = center + radius * np.exp(1j * t)
            assert abs(pseudo_distance(p, c) - eta) < 1e-10


def test_pseudo_disc_eta_guard():
    with pytest.raises(DomainError):
        pseudo_disc_euclidean(0.2, 1.0)


def test_arc_midpoint_anchor_value():
    m = OrthogonalArc(-math.pi / 3, math.pi / 3).midpoint
    assert abs(m - (2 - math.sqrt(3))) < 1e-15
    assert m.imag == 0


def test_arc_midpoint_lies_on_orthogonal_circle():
    for _ in range(30):
        a = RNG.uniform(-3.0, 1.5)
        b = a + RNG.uniform(0.05, 1.5)
        arc = OrthogonalArc(a, b)
        m = arc.midpoint
        center, radius = arc.circle()
        assert abs(abs(m - center) - radius) < 1e-12
        # orthogonality to the unit circle
        assert abs(abs(center) ** 2 - (1 + radius ** 2)) < 1e-12


def test_arc_midpoint_guards():
    with pytest.raises(DomainError):
        OrthogonalArc(0.5, 0.5).midpoint
    with pytest.raises(DomainError):
        OrthogonalArc(-2.0, 2.0).midpoint


def test_geodesic_endpoints_passes_through_point():
    for _ in range(30):
        a = RNG.uniform(-math.pi, math.pi)
        p = random_disc_point(RNG, 0.9)
        t1, t2 = geodesic_endpoints(a, p)
        assert t1 == canonical_angle(a)
        lo, hi = min(t1, t2), max(t1, t2)
        if hi - lo < math.pi:
            arc = OrthogonalArc(lo, hi)
            assert arc.miss(p) < 1e-8


def test_geodesic_diameter_degenerate_case():
    t1, t2 = geodesic_endpoints(0.0, 0.5)
    assert t1 == 0.0
    assert abs(abs(t2) - math.pi) < 1e-12


def test_mobius_denominator_vanishes_only_outside_the_closed_disc():
    # (1 - |c|^2) + conj(c)(z + c) keeps its relative accuracy on the closed
    # disc, c one ulp inside the circle included: the geodesic through 1 and
    # c is the diameter
    assert geodesic_endpoints(0.0, 0.9999999999999999) == (0.0, -math.pi)
    m = MobiusAut(0.5)
    for z in (-2.0, np.array([0.3, -2.0])):
        with pytest.raises(DomainError, match="outside closed disc"):
            m.apply(z)
    with pytest.raises(DomainError, match="outside closed disc"):
        m.inverse(2.0)


def _disc(rmax):
    return st.complex_numbers(max_magnitude=rmax, allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(_disc(0.9), _disc(0.9))
def test_mobius_inverse_property(c, z):
    m = MobiusAut(c)
    assert abs(m.inverse(m.apply(z)) - z) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.floats(-math.pi, math.pi), _disc(0.95))
def test_geodesic_endpoints_property(a, p):
    t1, t2 = geodesic_endpoints(a, p)
    # the circle orthogonal to the unit circle through e^{i t1} and e^{i t2}
    # is |z|^2 + 1 = 2 Re(conj(w) z) with w = e^{i mid} / cos(half); scaled
    # by cos(half) it stays finite for diameters
    mid, half = (t1 + t2) / 2, (t2 - t1) / 2
    lhs = 2 * (np.exp(-1j * mid) * p).real
    assert abs(lhs - (1 + abs(p) ** 2) * math.cos(half)) <= 1e-12 * (1 + abs(p) ** 2)


@settings(max_examples=100, deadline=None)
@given(st.floats(-math.pi, math.pi), st.floats(0.0, 0.95))
def test_geodesic_along_the_anchor_ray_is_a_diameter(a, r):
    t1, t2 = geodesic_endpoints(a, r * complex(np.exp(1j * a)))
    assert t1 == canonical_angle(a)
    assert abs(canonical_angle(t2 - a - math.pi)) < 1e-12


def test_orthogonal_arc_validation():
    with pytest.raises(DomainError):
        OrthogonalArc(0.5, 0.2)
    with pytest.raises(DomainError):
        OrthogonalArc(-2.0, 2.0)
    arc = OrthogonalArc(-0.4, 0.6)
    assert arc.miss(arc.midpoint) < 1e-8
