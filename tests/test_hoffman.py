"""Recentering traces, the invariant-derivative identity, and L2 distance."""

import math

import numpy as np
import pytest

from corona_lab.blaschke import BlaschkeProduct, DiscSequence, compose_with_mobius
from corona_lab.disc_geometry import MobiusAut
from corona_lab.errors import AliasingError, DomainError
from corona_lab.functions import FunctionSpec, constant_function, identity_function
from corona_lab.hoffman import (compose_trace, disc_grid, l2_distance_to_identity,
                                schwarz_check)

RNG = np.random.default_rng(771006)


def test_disc_grid_shape_and_bounds():
    g = disc_grid(40, 0.9)
    assert g.size == 40
    assert np.max(np.abs(g)) <= 0.9 + 1e-15
    assert np.min(np.abs(g)) > 0
    # ring-major: first eight points share a radius
    assert np.allclose(np.abs(g[:8]), np.abs(g[0]))
    assert disc_grid(41).size == 48   # rounded up to whole rings
    with pytest.raises(DomainError):
        disc_grid(0)
    with pytest.raises(DomainError):
        disc_grid(8, 1.0)


def test_trace_constant_function_settles_immediately():
    seq = DiscSequence(tuple(1 - 2.0 ** -j for j in range(1, 8)))
    tr = compose_trace(constant_function(2 - 1j), seq)
    assert np.all(tr.samples == 2 - 1j)
    assert all(d == 0 for d in tr.cauchy_profile)
    assert tr.tail_start == 0
    assert tr.settled_indices == tuple(range(len(seq) - 1))


def test_trace_samples_are_raw_compositions():
    seq = DiscSequence((0.3, 0.5))
    f = identity_function()
    tr = compose_trace(f, seq, grid_size=16)
    for j, c in enumerate(seq.points):
        expect = MobiusAut(c).apply(tr.grid)
        assert np.max(np.abs(tr.samples[j] - expect)) == 0.0


def test_trace_identity_approaches_unimodular_constant():
    # recentering the coordinate function along c_j -> 1 pushes the grid
    # image toward the constant 1
    seq = DiscSequence(tuple(1 - 2.0 ** -j for j in range(1, 29)))
    tr = compose_trace(identity_function(), seq, grid_radius=0.5, grid_size=8)
    last_gap = float(np.max(np.abs(tr.samples[-1] - 1)))
    r = 0.5
    c_last = seq.points[-1]
    assert last_gap <= 2 * (1 - abs(c_last)) / (1 - r) + 1e-15
    assert tr.tail_start is not None
    assert tr.cauchy_profile[-1] < 1e-7


def test_trace_requires_two_points():
    with pytest.raises(DomainError):
        compose_trace(identity_function(), (0.5,))


def test_trace_csv_layout():
    seq = DiscSequence((0.1, 0.2))
    tr = compose_trace(identity_function(), seq, grid_size=8)
    lines = tr.to_csv().splitlines()
    assert lines[0] == "grid_re,grid_im,j,re,im"
    assert len(lines) == 1 + 2 * 8
    assert lines[1].split(",")[2] == "0"
    # deterministic: identical rerun
    assert tr.to_csv() == compose_trace(identity_function(), seq, grid_size=8).to_csv()


def test_trace_csv_matches_per_row_formatting():
    # the row-by-row f-string writer the shared CSV helper replaced
    seq = DiscSequence(tuple(1 - 2.0 ** -j for j in range(1, 13)))
    f = FunctionSpec.finite_blaschke((0.3 - 0.2j, -0.5j), 0.7)
    tr = compose_trace(f, seq, grid_size=24)
    tr.samples[0, 0] = complex(-0.0, 1e-300)
    rows = ["grid_re,grid_im,j,re,im\n"]
    for j in range(len(tr.c_values)):
        for g, v in zip(tr.grid, tr.samples[j]):
            rows.append(f"{g.real:.17g},{g.imag:.17g},{j},{v.real:.17g},{v.imag:.17g}\n")
    assert tr.to_csv() == "".join(rows)


def test_schwarz_single_zero_invariant_is_one():
    for _ in range(10):
        c = complex(0.8 * RNG.uniform(0, 1)
                    * np.exp(1j * RNG.uniform(-math.pi, math.pi)))
        rows = schwarz_check(DiscSequence((c,)))
        assert abs(rows[0].derivative_invariant - 1) < 1e-12
        assert abs(rows[0].value) < 1e-14


def test_schwarz_invariant_matches_separation_tails():
    seq = DiscSequence((0.1, 0.5, 0.2j, -0.3 + 0.4j))
    rows = schwarz_check(seq)
    for row in rows:
        assert row.separation_tail is not None
        assert row.gap < 1e-12
        assert abs(row.value) < 1e-13


def test_schwarz_foreign_product_has_no_tails():
    seq = DiscSequence((0.1, 0.2))
    b = BlaschkeProduct((0.5,))
    rows = schwarz_check(seq, b)
    assert all(r.separation_tail is None for r in rows)
    assert all(math.isnan(r.gap) for r in rows)
    # nonzero values flag that the points are not zeros of b
    assert all(abs(r.value) > 0.1 for r in rows)


def test_schwarz_check_names_first_point_above_one():
    # B(z) = z has invariant 1 - |c|^2; a negative tol puts points 2 and 3
    # above the threshold, and the error names the first of them
    seq = DiscSequence((0.9, 0.8, 0.1, 0.2))
    with pytest.raises(DomainError, match="at point 2;"):
        schwarz_check(seq, BlaschkeProduct((0j,)), tol=-0.5)


def test_schwarz_thin_sequence_tail_large():
    seq = DiscSequence(tuple(1 - 40.0 ** -j for j in range(1, 11)))
    rows = schwarz_check(seq)
    assert abs(rows[-1].derivative_invariant - 0.9414505859189499) < 1e-12
    assert rows[-1].derivative_invariant > 0.9


def test_l2_identity_and_squaring_map():
    rep = l2_distance_to_identity(BlaschkeProduct((0j,)), n_fft=256)
    assert rep.distance < 1e-12
    assert abs(rep.parseval - 1) < 1e-12
    rep2 = l2_distance_to_identity(BlaschkeProduct((0j, 0j)), n_fft=256)
    assert abs(rep2.distance - math.sqrt(2)) < 1e-12


def test_l2_leading_coefficients_match_composition():
    # a_0 is the recentered value at the origin, a_1 its derivative there
    b = BlaschkeProduct((0.3, -0.2 + 0.4j, 0.1j), 0.7)
    c = 0.25 - 0.35j
    rep = l2_distance_to_identity(b, c, n_fft=1024)
    comp = compose_with_mobius(b, c)
    assert abs(rep.coefficients[0] - comp(0)) < 1e-12
    assert abs(rep.coefficients[1] - comp.derivative(0)) < 1e-10
    assert abs(abs(rep.coefficients[1])
               - (1 - abs(c) ** 2) * abs(b.derivative(c))) < 1e-10


def test_l2_parseval_and_gamma():
    for _ in range(5):
        deg = int(RNG.integers(1, 6))
        zeros = tuple(complex(0.6 * RNG.uniform(0, 1)
                              * np.exp(1j * RNG.uniform(-math.pi, math.pi)))
                      for _ in range(deg))
        rep = l2_distance_to_identity(BlaschkeProduct(zeros), n_fft=1024)
        assert abs(rep.parseval - 1) < 1e-8
        if abs(rep.coefficients[1]) > 0:
            assert abs(rep.gamma - np.angle(rep.coefficients[1])) < 1e-14


def test_l2_gamma_is_zero_at_rounding_level():
    # B is even, so a_1 vanishes exactly; the FFT leaves only rounding in it
    rep = l2_distance_to_identity(BlaschkeProduct((0.5, -0.5)), n_fft=1024)
    assert 0 < abs(rep.coefficients[1]) < 1e-15
    assert rep.gamma == 0.0


def test_l2_node_count_validation():
    b = BlaschkeProduct((0.1,))
    with pytest.raises(DomainError):
        l2_distance_to_identity(b, n_fft=300)
    with pytest.raises(DomainError):
        l2_distance_to_identity(b, n_fft=128)


def test_l2_aliasing_guard():
    # a monomial of degree past a quarter of the band puts all its energy
    # in the rejected frequencies
    b = BlaschkeProduct((0j,) * 100)
    with pytest.raises(AliasingError) as exc:
        l2_distance_to_identity(b, n_fft=256)
    assert exc.value.energy > 0.99
    # the same product resolves fine with enough nodes
    rep = l2_distance_to_identity(b, n_fft=1024)
    assert abs(rep.distance - math.sqrt(2)) < 1e-12


def test_trace_accepts_function_spec_kinds():
    seq = DiscSequence((0.2, 0.4))
    f = FunctionSpec.rational([1], [-2, 1])
    tr = compose_trace(f, seq, grid_size=8)
    assert tr.samples.shape == (2, 8)


def test_schwarz_invariant_near_the_circle_against_mpmath():
    # geometric points 1 - 0.85^k reach within 5e-7 of the circle, where
    # forming 1 - |c|^2 by subtraction cancels to a relative error of 1e-10
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    rng = np.random.default_rng(903)
    n = 90
    t = rng.uniform(-0.3, 0.3, n)
    pts = tuple(complex((1 - 0.85 ** k) * np.exp(1j * t[k - 1])) for k in range(1, n + 1))
    rows = schwarz_check(DiscSequence(pts))
    zs = [mp.mpc(c.real, c.imag) for c in pts]
    for j, row in enumerate(rows):
        ref = mp.fprod(abs(a - zs[j]) / abs(1 - mp.conj(a) * zs[j])
                       for k, a in enumerate(zs) if k != j)
        err = abs(row.derivative_invariant - ref) / ref
        assert err <= n * np.finfo(float).eps, (j, float(err))
