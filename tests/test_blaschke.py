"""Blaschke products, certified bounds, sequences, and the sector ladder."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corona_lab import blaschke
from corona_lab.blaschke import (BLOCK, GROUP_ENTRIES, MIN_GRID_ANGULAR, MIN_GRID_RADIAL,
                                 BlaschkeProduct, DiscSequence, Sector, _factor_product,
                                 carleson_diagnostics, compose_with_mobius, construct_ladder,
                                 min_modulus_on_disc, modulus_lower_bound)
from corona_lab.disc_geometry import MobiusAut, one_minus_abs2, pseudo_distance
from corona_lab.errors import ConfigError, ConstructionError, DomainError
from corona_lab.functions import FunctionSpec
from corona_lab.quadrature import polar_grid

from helpers import blaschke_values_by_the_loop, dyadic_rings, transport_tail_bounds

RNG = np.random.default_rng(771002)


def random_zero(rng, rmax=0.95):
    return complex(rmax * rng.uniform(0, 1) * np.exp(1j * rng.uniform(-np.pi, np.pi)))


def random_product(rng, max_deg=12, rmax=0.95):
    deg = int(rng.integers(1, max_deg + 1))
    zeros = tuple(random_zero(rng, rmax) for _ in range(deg))
    return BlaschkeProduct(zeros, float(rng.uniform(-math.pi, math.pi)))


def test_factor_conventions():
    # zero at the origin contributes the plain coordinate factor
    assert BlaschkeProduct((0,))(0.3) == 0.3
    # nonzero anchor: value at 0 is |a|
    assert abs(BlaschkeProduct((0.5,))(0) - 0.5) < 1e-15
    a = 0.3 + 0.4j
    assert abs(BlaschkeProduct((a,))(a)) < 1e-15


def test_product_vanishes_at_zeros():
    b = random_product(RNG)
    for a in b.zeros:
        assert abs(b(a)) < 1e-12


def test_boundary_unimodularity():
    theta = np.linspace(-np.pi, np.pi, 257, endpoint=False)
    for _ in range(10):
        b = random_product(RNG)
        vals = b(np.exp(1j * theta))
        assert np.max(np.abs(np.abs(vals) - 1)) < 1e-10


def test_rotation_canonicalized():
    b = BlaschkeProduct((0.5,), 2 * math.pi + 0.25)
    assert abs(b.rotation - 0.25) < 1e-12
    assert -math.pi <= b.rotation < math.pi


@pytest.mark.parametrize("rotation", [math.nan, math.inf, -math.inf])
def test_non_finite_rotation_rejected(rotation):
    with pytest.raises(DomainError, match="rotation"):
        BlaschkeProduct((0.5,), rotation)


def test_derivative_matches_central_difference():
    h = 1e-6
    for _ in range(20):
        b = random_product(RNG, max_deg=6, rmax=0.8)
        z = random_zero(RNG, 0.7)
        num = (b(z + h) - b(z - h)) / (2 * h)
        assert abs(b.derivative(z) - num) < 1e-6


def _factor_arrays(zeros, z):
    """Reference (n, m) arrays of every factor and its derivative."""
    a = np.array(zeros)[:, None]
    u = np.conj(a) / np.abs(a)
    den = 1 - np.conj(a) * z[None, :]
    return u * (a - z[None, :]) / den, u * (np.abs(a) ** 2 - 1) / den ** 2


def test_value_and_derivative_match_direct_product():
    rng = np.random.default_rng(20261018)
    rotation = 0.7
    for _ in range(5):
        zeros = tuple(random_zero(rng) for _ in range(25))
        b = BlaschkeProduct(zeros, rotation)
        theta = rng.uniform(-np.pi, np.pi, 264)
        radius = np.concatenate([0.97 * np.sqrt(rng.uniform(0, 1, 200)), np.ones(64)])
        z = radius * np.exp(1j * theta)
        f, fp = _factor_arrays(zeros, z)
        value = np.exp(1j * rotation) * np.prod(f, axis=0)
        np.testing.assert_allclose(b(z), value, rtol=1e-13)
        # B' = B * sum_j f_j'/f_j away from the zeros
        np.testing.assert_allclose(b.derivative(z), value * np.sum(fp / f, axis=0),
                                   rtol=1e-12)
        # at a zero a_k, B vanishes and B' = f_k'(a_k) prod_{j != k} f_j(a_k)
        a = np.array(zeros)
        f, fp = _factor_arrays(zeros, a)
        np.fill_diagonal(f, 1)
        want = np.exp(1j * rotation) * np.diag(fp) * np.prod(f, axis=0)
        assert np.all(b(a) == 0)
        got = b.derivative(a)
        assert np.all(got != 0)
        np.testing.assert_allclose(got, want, rtol=1e-13)


def test_subnormal_zero_keeps_the_prefactor_unimodular():
    b = BlaschkeProduct((5e-324 + 5e-324j,))
    assert abs(abs(b(1j)) - 1) < 1e-15


def test_kernel_shapes_and_empty_product():
    b = BlaschkeProduct((0.3 + 0.1j, -0.5j), 0.4)
    assert type(b(0.2)) is complex and type(b.derivative(0.2)) is complex
    z = np.linspace(-0.9, 0.9, 12).reshape(3, 4) * (1 + 0.5j)
    assert b(z).shape == b.derivative(z).shape == (3, 4)
    np.testing.assert_array_equal(b(z).ravel(), b(z.ravel()))
    empty = BlaschkeProduct((), 0.4)
    assert empty(0.5j) == np.exp(0.4j)
    np.testing.assert_array_equal(empty(z), np.full(z.shape, np.exp(0.4j)))
    assert empty.derivative(0.5j) == 0


def test_kernel_exact_zeros_and_double_zeros():
    zeros = tuple(0.8 * np.exp(1j * np.linspace(-3, 3, 2 * BLOCK + 3)))
    b = BlaschkeProduct(zeros, -1.1)
    a = np.array(zeros)
    assert np.all(b(a) == 0)
    assert np.all(b.derivative(a) != 0)
    double = BlaschkeProduct(zeros[:5] + zeros[3:], 0.2)
    assert np.all(double.derivative(a[3:5]) == 0)
    assert np.all(double.derivative(a[:3]) != 0)


@pytest.mark.parametrize("modulus", [1e-200, 1 - 1e-12])
def test_kernel_stays_finite_for_extreme_zeros(modulus):
    # each block multiplies BLOCK numerators and denominators before dividing;
    # on the closed disc neither overflows and no denominator underflows
    angles = np.linspace(-np.pi, np.pi, 3 * BLOCK + 1, endpoint=False)
    b = BlaschkeProduct(tuple(modulus * np.exp(1j * angles)), 0.3)
    circle = np.exp(1j * np.linspace(-np.pi, np.pi, 97))
    z = np.concatenate([circle, 0.5 * circle, modulus * circle, [0, 1e-200, 0.99999]])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        values, slopes = b(z), b.derivative(z)
    assert np.all(np.isfinite(values)) and np.all(np.isfinite(slopes))
    assert np.max(np.abs(np.abs(values[:97]) - 1)) < 1e-14


def _mp_value_and_derivative(mp, zeros, rotation, z):
    """B(z) and B'(z) at the working precision of mp, from the exact float inputs."""
    z = mp.mpc(z)
    p, d = mp.expj(rotation), mp.mpc(0)
    for a in map(mp.mpc, zeros):
        u = mp.mpc(-1) if a == 0 else mp.conj(a) / abs(a)
        den = 1 - mp.conj(a) * z
        f, fp = u * (a - z) / den, u * (abs(a) ** 2 - 1) / den ** 2
        d, p = d * f + p * fp, p * f
    return complex(p), complex(d)


def _adversarial_cases(rng):
    """(zeros, points) pairs where 1 - conj(a) z or a - z cancels."""
    def circle(k):
        return np.exp(1j * rng.uniform(-np.pi, np.pi, k))

    inner = tuple(0.9 * np.sqrt(rng.uniform(0, 1, 20)) * circle(20))
    rim = tuple((1 - 1e-12) * circle(12))
    tiny = tuple(1e-200 * rng.uniform(0.5, 2, 12) * circle(12))
    double = inner[:6] * 2
    near = np.array(inner) + 1e-9 * circle(20)
    return [
        (inner, np.concatenate([circle(30), near])),
        (rim, np.concatenate([circle(20), 0.9 * circle(10), np.array(rim)])),
        # on the circle at the zeros' own angles: 1 - conj(a) z is 1e-12
        (rim, np.array(rim) / np.abs(rim)),
        (tiny, np.concatenate([circle(10), [1e-200, 3e-200j, 0.5]])),
        (double, np.concatenate([0.95 * circle(15), np.array(double[:6]) + 1e-7])),
    ]


def test_kernel_relative_error_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    rotation = 0.3
    for zeros, z in _adversarial_cases(np.random.default_rng(5)):
        b = BlaschkeProduct(zeros, rotation)
        want = np.array([_mp_value_and_derivative(mp, zeros, rotation, w) for w in z])
        for got, ref in ((b(z), want[:, 0]), (b.derivative(z), want[:, 1])):
            nonzero = ref != 0
            assert np.all(got[~nonzero] == 0)
            err = np.abs(got[nonzero] - ref[nonzero]) / np.abs(ref[nonzero])
            assert err.max() <= 4 * len(zeros) * np.finfo(float).eps


def test_zero_outside_disc_rejected():
    with pytest.raises(DomainError):
        BlaschkeProduct((1.0,))
    with pytest.raises(DomainError):
        min_modulus_on_disc((0.5, 1.0), 0.5)


def test_modulus_lower_bound_values():
    b = BlaschkeProduct((0.9, 0.95))
    # (1 + 0.5)/(1 - 0.5) * 0.15 = 0.45
    assert abs(modulus_lower_bound(b, 0.5) - 0.55) < 1e-15
    assert modulus_lower_bound(BlaschkeProduct((0.5,)), 0.5) == 0.0
    assert modulus_lower_bound(BlaschkeProduct((), 0.3), 0.9) == 1.0
    with pytest.raises(DomainError):
        modulus_lower_bound(b, 1.0)


def test_modulus_lower_bound_sound():
    for _ in range(15):
        zeros = tuple(complex(1 - RNG.uniform(0.001, 0.02)
                              * np.exp(1j * RNG.uniform(-np.pi, np.pi)))
                      for _ in range(int(RNG.integers(1, 6))))
        zeros = tuple(z for z in zeros if abs(z) < 1)
        if not zeros:
            continue
        b = BlaschkeProduct(zeros)
        eta = float(RNG.choice([0.3, 0.5, 0.8]))
        bound = modulus_lower_bound(b, eta)
        assert min_modulus_on_disc(b.zeros, eta) >= bound - 1e-12


# point counts at each of the kernel's group sizes: many blocks at a few
# points, two blocks at GROUP_ENTRIES // 2, one block of 1-D rows above it,
# and either side of the cap itself
POINT_COUNTS = (1, 2, 3, 28, 256, 1600, 4096, GROUP_ENTRIES // 2, GROUP_ENTRIES // 2 + 1,
                GROUP_ENTRIES - 1, GROUP_ENTRIES, GROUP_ENTRIES + 1)


def _kernel_cases():
    """(degree, product, 4245 points) for the kernel's bit tests: the zeros
    lie anywhere, 1e-12 from the circle and transported by an automorphism
    at |c| = 0.9, and repeat their first two; 17, 42 and 505 of them end in
    a short block.  From two points on, each point prefix holds an exact
    zero of the product."""
    for degree in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, 400):
        rng = np.random.default_rng([2027, degree])
        zeros = tuple(random_zero(rng) for _ in range(degree))
        zeros += tuple((1 - 1e-12) * np.exp(1j * rng.uniform(-np.pi, np.pi, degree // 4)))
        moved = MobiusAut(0.9 * cmath.exp(1j * rng.uniform(-np.pi, np.pi))).inverse(zeros[-3:])
        zeros += tuple(moved.tolist()) + zeros[:2] + ((0j,) if degree % 2 else ())
        b = BlaschkeProduct(zeros, float(rng.uniform(-math.pi, math.pi)))
        radii = 0.97 * np.sqrt(rng.uniform(0, 1, 4200))
        inside = radii * np.exp(1j * rng.uniform(-np.pi, np.pi, 4200))
        pool = np.concatenate([[0], b.zeros[:1], [1e-200], b.zeros[1:3],
                               np.exp(1j * rng.uniform(-np.pi, np.pi, 40)), inside])
        yield degree, b, pool


def test_values_equal_the_block_loop_byte_for_byte():
    # __call__ passes its unimodular constant to _factor_product as the start
    for degree, b, pool in _kernel_cases():
        for m in POINT_COUNTS:
            points = pool[:m]
            want = blaschke_values_by_the_loop(b, np.resize(points, max(m, 2)))[:m]
            assert b(points).tobytes() == want.tobytes(), (degree, m)


def test_derivatives_have_the_same_bits_at_every_group_size():
    # all 4245 points take one block of 1-D rows at a time; a prefix of them
    # takes many blocks per group, and a shuffled set other neighbours
    for degree, b, pool in _kernel_cases():
        whole = b.derivative(pool)
        for m in POINT_COUNTS:
            assert b.derivative(pool[:m]).tobytes() == whole[:m].tobytes(), (degree, m)
        order = np.random.default_rng(degree).permutation(pool.size)
        assert b.derivative(pool[order]).tobytes() == whole[order].tobytes(), degree
        assert b.derivative(pool[order[:5]]).tobytes() == whole[order[:5]].tobytes(), degree


def test_derivative_at_double_zeros_across_block_boundaries_on_few_points():
    # a few points walk three blocks of zeros as one group of (blocks x
    # points) arrays and a short block as the next; the zeros at j BLOCK - 1
    # and j BLOCK are equal, so each copy sits in its own block, and for
    # j = 3 in its own group
    zeros = list(0.8 * np.exp(1j * np.linspace(-3, 3, 3 * BLOCK + 3)))
    for j in (1, 2, 3):
        zeros[j * BLOCK] = zeros[j * BLOCK - 1]
    b = BlaschkeProduct(tuple(zeros), 0.6)
    a = np.array(b.zeros)
    ends = [j * BLOCK - 1 for j in (1, 2, 3)]
    double = a[ends]
    simple = np.delete(a, ends + [j + 1 for j in ends])
    many = b.derivative(np.concatenate([double, simple, 0.5 * np.exp(1j * np.arange(4200))]))
    for points in (double, double[:1], simple[:1], simple[-3:], a[[0, BLOCK - 1, -1]]):
        got = b.derivative(points)
        assert np.all(b(points) == 0)
        assert np.all((got == 0) == np.isin(points, double))
        where = [np.flatnonzero(np.concatenate([double, simple]) == p)[0] for p in points]
        assert got.tobytes() == many[where].tobytes()


def test_derivative_relative_error_against_mpmath_at_block_edges():
    # one block short of full, full, one over, and three full blocks and a
    # short one, at group sizes from one point to 4096; the first 80 points
    # hold up to 26 zeros, points 1e-9 from them, the circle at their angles
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    eps = np.finfo(float).eps
    for degree in (BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5):
        rng = np.random.default_rng([2028, degree])
        angles = rng.uniform(-np.pi, np.pi, degree)
        radii = np.where(np.arange(degree) % 2, 1 - 1e-12, 0.9 * np.sqrt(rng.uniform(0, 1, degree)))
        zeros = tuple(radii * np.exp(1j * angles))
        b = BlaschkeProduct(zeros, 0.3)
        a, k = np.array(b.zeros[:26]), min(degree, 26)
        head = np.concatenate([a, a + 1e-9 * np.exp(1j * rng.uniform(-np.pi, np.pi, k)),
                               np.exp(1j * angles[:k]), [0]])
        head = np.concatenate([head, 0.99 * np.exp(1j * rng.uniform(-np.pi, np.pi, 80 - head.size))])
        pool = np.concatenate([head, 0.95 * np.exp(1j * rng.uniform(-np.pi, np.pi, 4016))])
        want = np.array([_mp_value_and_derivative(mp, zeros, 0.3, w) for w in head])[:, 1]
        for m in (1, 28, 80, 4096):
            got = b.derivative(pool[:m])[:80]
            ref = want[:got.size]
            nonzero = ref != 0
            assert np.all(got[~nonzero] == 0)
            err = np.abs(got[nonzero] - ref[nonzero]) / np.abs(ref[nonzero])
            assert err.max() <= 4 * degree * eps, (degree, m, err.max() / eps)


def _grid_minimum(zeros, radius):
    """Minimum of |_factor_product| from 1 over the whole grid of min_modulus_on_disc."""
    grid = polar_grid(np.linspace(0.0, radius, MIN_GRID_RADIAL), MIN_GRID_ANGULAR)
    zeros = [complex(a) for a in zeros]
    gaps = [one_minus_abs2(a) for a in zeros]
    return float(np.min(np.abs(_factor_product(1.0, zeros, gaps, grid))))


@st.composite
def _zero_sets(draw):
    """(zeros, radius): clusters 10^-k from the circle, zeros of modulus up to
    0.97, zeros on grid points, and piles of one zero next to a grid point,
    under which the product underflows there and nowhere else."""
    radius = draw(st.sampled_from([0.0, 0.5, 0.75, 0.875, 0.97, 0.999]) | st.floats(0, 0.99))
    grid = polar_grid(np.linspace(0.0, radius, MIN_GRID_RADIAL), MIN_GRID_ANGULAR)
    zeros = []
    for kind in draw(st.lists(st.sampled_from(["cluster", "disc", "grid", "pile"]), max_size=4)):
        if kind == "cluster":
            k = draw(st.integers(1, 15))
            theta = draw(st.floats(-math.pi, math.pi))
            zeros += [(1 - 10.0 ** -k) * cmath.exp(1j * (theta + 0.01 * j))
                      for j in range(draw(st.integers(1, 40)))]
        elif kind == "disc":
            zeros += draw(st.lists(_disc(0.97), min_size=1, max_size=30))
        elif kind == "grid":
            zeros.append(complex(grid[draw(st.integers(0, grid.size - 1))]))
        else:
            at = complex(grid[draw(st.integers(0, grid.size - 1))])
            zeros += [at * 0.999 + 1e-3j] * draw(st.integers(100, 300))
    return [a for a in zeros if abs(a) < 1], radius


# near ties that only the candidate test's slack settles: a far zero one or
# two ulps from the circle aligned with a grid point, and a few conjugate
# pairs, so that two grid points tie to rounding in the near part
NEAR_TIES = [
    ([-0.29558641526441054 - 0.08966515878984167j, 0.08863601595470183 - 0.373313855996057j,
      -0.9569403357322086 - 0.29028467725446233j, 0.08863601595470183 + 0.373313855996057j,
      0.3299930840304907 - 0.2188404424537029j, -0.29558641526441054 + 0.08966515878984167j,
      0.3299930840304907 + 0.2188404424537029j, -0.0012376073063235622 - 0.039857354677060974j,
      -0.0012376073063235622 + 0.039857354677060974j], 0.08921465419037265),
    ([-0.11055040184116745 - 0.28688155369489915j, 0.055095166690416385 + 0.5593906149415113j,
      0.3882335936102556 + 0.34383618780284547j, -0.11055040184116745 + 0.28688155369489915j,
      0.09801714032956031 - 0.9951847266721968j, 0.3882335936102556 - 0.34383618780284547j,
      0.055095166690416385 - 0.5593906149415113j], 0.18771470817385766),
    ([0.28747091333390246 - 0.6642947822677074j, -0.9807852804032303 - 0.19509032201612858j,
      -0.8594111253104797 + 0.17094750148792376j, 0.28747091333390246 + 0.6642947822677074j,
      -0.8594111253104797 - 0.17094750148792376j], 0.154258208143599),
]


@settings(max_examples=300, deadline=None)
@given(_zero_sets())
@example(([], 0.5))
@example(([0.3 - 0.2j], 0.0))
@example(NEAR_TIES[0])
@example(NEAR_TIES[1])
@example(NEAR_TIES[2])
def test_pruned_minimum_equals_the_whole_grid_minimum(case):
    zeros, radius = case
    assert min_modulus_on_disc(zeros, radius) == _grid_minimum(zeros, radius)


@pytest.mark.parametrize("eta", [0.25, 0.5, 0.75])
def test_modulus_lower_bound_holds_at_near_ties_against_mpmath(eta):
    # zeros on [0, 1) put every factor's minimum over |z| <= eta at z = eta,
    # so the product's minimum is prod (a - eta)/(1 - a eta); with gaps of
    # 2^-40 the gap-sum bound is within rounding of it
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    for k in range(1, 60):
        a = 1 - k * 2.0 ** -40
        for zeros in [(a,), (a, 1 - 2.0 ** -45, 1 - 3 * 2.0 ** -44)]:
            exact = mp.fprod((mp.mpf(x) - eta) / (1 - mp.mpf(x) * eta) for x in zeros)
            assert mp.mpf(modulus_lower_bound(BlaschkeProduct(zeros), eta)) <= exact, (k, zeros)


def test_compose_with_mobius_pointwise():
    for _ in range(20):
        b = random_product(RNG, max_deg=8)
        c = random_zero(RNG, 0.8)
        comp = compose_with_mobius(b, c)
        m = MobiusAut(c)
        for _ in range(5):
            z = random_zero(RNG, 0.9)
            assert abs(comp(z) - b(m.apply(z))) < 1e-10


def test_compose_identity_and_zero_anchor():
    b = random_product(RNG, max_deg=5)
    same = compose_with_mobius(b, 0)
    z = 0.2 - 0.3j
    assert abs(same(z) - b(z)) < 1e-13
    # composing at one of the zeros puts a zero at the origin
    comp = compose_with_mobius(BlaschkeProduct((0.5,)), 0.5)
    assert abs(comp(0)) < 1e-14
    assert abs(comp(0.25) - BlaschkeProduct((0.5,))(MobiusAut(0.5).apply(0.25))) < 1e-13


def test_compose_with_a_zero_at_every_old_anchor():
    # the transported zeros are 0, +-0.5, +-0.5i and 0.25+0.25i
    c = 0.3
    m = MobiusAut(c)
    b = BlaschkeProduct(tuple(m.apply(z) for z in (0, 0.5, -0.5, 0.5j, -0.5j, 0.25 + 0.25j)))
    comp = compose_with_mobius(b, c)
    assert comp.zeros[0] == 0
    z = np.array([0, 0.5, -0.5, 0.5j, -0.5j, 0.25 + 0.25j, 0.1 - 0.7j, -0.6 + 0.2j])
    np.testing.assert_allclose(comp(z), b(m.apply(z)), rtol=0, atol=1e-12)


def _disc(rmax):
    return st.complex_numbers(max_magnitude=rmax, allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(_disc(0.95), max_size=8), st.floats(-math.pi, math.pi), _disc(0.9), _disc(0.9))
def test_compose_with_mobius_property(zeros, rotation, c, z):
    b = BlaschkeProduct(tuple(zeros), rotation)
    assert abs(compose_with_mobius(b, c)(z) - b(MobiusAut(c).apply(z))) < 1e-12


def test_transport_tail_bounds_dominate():
    for _ in range(15):
        b = random_product(RNG, max_deg=8)
        c = random_zero(RNG, 0.7)
        actual, bound = transport_tail_bounds(b, c)
        assert actual.shape == bound.shape == (len(b.zeros),)
        assert np.all(actual <= bound + 1e-12)


def test_disc_sequence_diagnostics():
    seq = DiscSequence((0.0, 0.5))
    assert seq.gap_sum == 1.5
    assert seq.carleson_constant == 0.5
    assert seq.separation_tails == (0.5, 0.5)
    with pytest.raises(DomainError):
        DiscSequence(())


def test_a_sequence_keeps_the_points_its_diagnostics_describe():
    # an assignable sequence kept the tails and gap sum of its old points
    seq = DiscSequence((0.1, 0.5))
    tails = seq.separation_tails
    with pytest.raises(AttributeError):
        seq.points = (0.1, 0.9)
    assert seq.points == (0.1, 0.5) and seq.separation_tails is tails


def test_geometric_sequence_diagnostics():
    # radii 1 - 4^-j: the constant sits at an interior index, not the ends
    seq = DiscSequence(tuple(1 - 4.0 ** -j for j in range(1, 11)))
    const, tails = carleson_diagnostics(seq)
    assert abs(const - 0.2590225318258485) < 1e-15
    assert abs(tails[0] - 0.5453130159749326) < 1e-15
    assert abs(tails[-1] - 0.507810385734297) < 1e-15
    assert const == min(tails)
    # the tails dip in the middle: this family is not monotone either way
    assert min(tails) < tails[0] and min(tails) < tails[-1]


def test_carleson_diagnostics_match_pairwise_product():
    rng = np.random.default_rng(20261019)
    pts = tuple(random_zero(rng, 0.98) for _ in range(60))
    const, tails = carleson_diagnostics(DiscSequence(pts))
    want = [math.prod(pseudo_distance(w, z) for j, w in enumerate(pts) if j != k)
            for k, z in enumerate(pts)]
    np.testing.assert_allclose(tails, want, rtol=1e-12)
    assert const == min(tails)
    assert DiscSequence((0.3, 0.5j, 0.3)).carleson_constant == 0.0


@pytest.mark.parametrize("n", [7, 400])
def test_separation_tails_do_not_depend_on_the_block(monkeypatch, n):
    # each column's product runs over the same rows in the same order
    seq = DiscSequence(tuple(random_zero(np.random.default_rng(n), 0.98) for _ in range(n)))
    const, tails = carleson_diagnostics(seq)
    for width in (1, 3, 64):
        monkeypatch.setattr(blaschke, "TAIL_BLOCK", width * n)
        got_const, got = carleson_diagnostics(seq)
        assert np.array(got).tobytes() == np.array(tails).tobytes() and got_const == const


def test_separation_tails_of_4096_points_stay_in_bounded_memory():
    # a whole 4096 x 4096 matrix and its temporaries took about 400 MiB
    seq = DiscSequence(dyadic_rings(11) + (0j, 0.25j))
    tracemalloc.start()
    try:
        carleson_diagnostics(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_sector_membership():
    sec = Sector(0.5)
    assert sec.contains(0.8)
    assert sec.contains(0.5)            # inner radius included
    assert not sec.contains(0.49)
    assert sec.contains(np.nextafter(1.0, 0.0))
    assert not sec.contains(1.0)        # the circle excluded
    assert sec.contains(0.8 * np.exp(0.25j))
    assert not sec.contains(0.8 * np.exp(0.26j))
    for ell in (0.0, 1.0, -0.5):
        with pytest.raises(DomainError):
            Sector(ell)


def _ulps(x: float, k: int) -> float:
    """x moved k ulps, up for k > 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def _near_home_edge(draw, ell):
    """A zero within 4 ulps of the edge of S[ell, 1): the real part of a
    point with |z| = ell moved, or the imaginary part of a point with
    |arg z| = (1 - ell)/2 moved."""
    half = (1 - ell) / 2
    k = draw(st.integers(-4, 4))
    if draw(st.booleans()):
        z = ell * cmath.exp(1j * draw(st.sampled_from([0.0, half, -half])
                                      | st.floats(-half, half)))
        return complex(_ulps(z.real, k), z.imag)
    z = draw(st.floats(ell, 0.99)) * cmath.exp(1j * draw(st.sampled_from([half, -half])))
    return complex(z.real, _ulps(z.imag, k))


@settings(max_examples=300, deadline=None)
@given(st.floats(0.05, 0.95), st.data())
def test_home_sector_check_agrees_with_sector(ell, data):
    # construct_ladder refuses exactly the zero sets with a zero outside
    # Sector(ell), and names the first; a 1e-12 tolerance ends any
    # other set at rung 1 or after one cheap rung
    zeros = data.draw(st.lists(_near_home_edge(ell), min_size=1, max_size=4))
    home = Sector(ell)
    outside = [z for z in zeros if not home.contains(z)]
    try:
        construct_ladder(zeros, DiscSequence((0.5,)), [1e-12], [0.5], ell)
        message = None
    except ConstructionError:
        message = None
    except DomainError as e:
        message = str(e)
    assert message == (f"zero {outside[0]} lies outside the home sector" if outside else None)


LADDER_ZEROS = tuple(1 - 2.0 ** -k for k in range(1, 31))
LADDER_CANDIDATES = DiscSequence(tuple(1 - 3.0 ** -n for n in range(1, 33)))
LADDER_EPS = [2.0 ** -j for j in range(1, 6)]
LADDER_ETA = [1 - 2.0 ** -j for j in range(1, 6)]


def _rung_minima_against_mpmath(zeros, lad, exact=False):
    """Relative error of each rung's min_modulus against the same grid
    minimum at 50 digits: prod |(w - z)/(1 - conj(w) z)| over the zeros w
    that c transports (the doubles min_modulus_on_disc receives, or with
    exact set, the zeros transported at 50 digits), at the grid points whose
    double value is within 1e-9 of the double minimum; the doubles err by
    far less, so the minimum lies among them."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    zs = np.array(zeros, dtype=complex)
    moduli = np.hypot(zs.real, zs.imag)
    errors = []
    for rec, c, r, s_next in zip(lad.verification, lad.chosen_points, lad.r_values,
                                 lad.s_values[1:]):
        kept = zs[(moduli < r) | (moduli >= s_next)]
        moved = MobiusAut(c).inverse(kept).tolist()
        grid = polar_grid(np.linspace(0.0, rec.eta, MIN_GRID_RADIAL), MIN_GRID_ANGULAR)
        values = np.abs(_factor_product(1.0, moved, [one_minus_abs2(w) for w in moved], grid))
        x = mp.mpc(c.real, c.imag)
        ws = ([(a - x) / (1 - mp.conj(x) * a) for a in (mp.mpc(a.real, a.imag) for a in kept)]
              if exact else [mp.mpc(w.real, w.imag) for w in moved])
        near_min = grid[values <= values.min() * (1 + 1e-9)]
        ref = min(mp.fprod(abs((w - z) / (1 - mp.conj(w) * z)) for w in ws)
                  for z in (mp.mpc(p.real, p.imag) for p in near_min))
        errors.append(float(abs(mp.mpf(rec.min_modulus) - ref) / ref))
    return errors


def test_rung_minima_against_mpmath():
    # criterion 10's ladder, and a smoke-size ladder of the benchmark's
    # disc-sequences shape (gaps 1/(2 k^2), angles alternating about the
    # candidate ray); each error is a few ulps per zero
    rng = np.random.default_rng(1)
    angles = rng.uniform(0.04, 0.2, 10) * (-1.0) ** np.arange(10)
    bench = tuple(complex((1 - 0.5 / k ** 2) * np.exp(1j * angles[k - 1])) for k in range(1, 11))
    cases = [(LADDER_ZEROS, LADDER_CANDIDATES, LADDER_EPS, LADDER_ETA),
             (bench, DiscSequence(tuple(1 - 3.0 ** -m for m in range(1, 33))),
              [0.5, 0.25, 0.125], [0.5, 0.75, 0.875])]
    for zeros, cands, eps, eta in cases:
        lad = construct_ladder(zeros, cands, eps, eta, 0.5)
        errors = _rung_minima_against_mpmath(zeros, lad)
        assert len(errors) == len(eps)
        assert max(errors) < 4 * len(zeros) * np.finfo(float).eps, errors


def test_rung_minima_against_the_exactly_transported_product():
    # each transported zero is within 4 eps of L_c^-1(a) (test_owners), and
    # at a grid point z, |z| <= eta, where each factor is above 1/2 (the
    # product is above 1 - eps_j), moving w by dw moves log |factor| by at
    # most |dw| (1/|w - z| + |z|/|1 - conj(w) z|) <= 3 |dw|/(1 - eta); the
    # kernel adds its few ulps per zero.  Forming 1 - conj(c) a by
    # subtraction erred by up to 2.8e-10 on these rungs
    lad = construct_ladder(LADDER_ZEROS, LADDER_CANDIDATES, LADDER_EPS, LADDER_ETA, 0.5)
    errors = _rung_minima_against_mpmath(LADDER_ZEROS, lad, exact=True)
    n = len(LADDER_ZEROS)
    for error, eta in zip(errors, LADDER_ETA):
        assert error < 4 * n * np.finfo(float).eps * (1 + 3 / (1 - eta)), errors


def test_ladder_frozen_instance():
    lad = construct_ladder(LADDER_ZEROS, LADDER_CANDIDATES, LADDER_EPS,
                           LADDER_ETA, 0.5)
    assert lad.chosen_indices == (3, 12, 24, 26, 27)
    assert len(lad.r_values) == 5 and len(lad.s_values) == 6
    for s, r in zip(lad.s_values, lad.r_values):
        assert abs(r - (2 * s + 1) / 3) < 1e-15
    for rec in lad.verification:
        assert rec.min_modulus > 1 - rec.eps


def test_ladder_conjugate_pairs_frozen():
    # each modulus is shared by a conjugate pair, so both zeros must enter a
    # tail sum together; values computed with the per-modulus scan
    radii = [1 - 0.5 * 1.6 ** -k for k in range(1, 16)]
    zeros = tuple(r * np.exp(sign * 0.05j * (1 + k % 4))
                  for k, r in enumerate(radii) for sign in (1, -1))
    cands = DiscSequence(tuple(1 - 3.0 ** -n for n in range(1, 25)))
    lad = construct_ladder(zeros, cands, [0.5, 0.25, 0.125], [0.5, 0.75, 0.875], 0.5)
    assert lad.s_values == (0.5, 0.9971578290569595, 0.9982236431605997,
                            0.9988897769753748)
    assert lad.r_values == (0.6666666666666666, 0.9981052193713064,
                            0.9988157621070665)
    assert lad.chosen_indices == (0, 7, 9)
    assert [len(p) for p in lad.partition] == [4, 20, 0]


def test_ladder_partition_is_disjoint_cover():
    lad = construct_ladder(LADDER_ZEROS, LADDER_CANDIDATES, LADDER_EPS,
                           LADDER_ETA, 0.5)
    bands, odd, even = lad.partition
    pieces = list(bands) + list(odd) + list(even)
    assert len(pieces) == len(set(pieces))
    covered = [z for z in LADDER_ZEROS
               if lad.s_values[0] <= abs(z) < lad.s_values[-1]]
    assert sorted(pieces, key=abs) == sorted(covered, key=abs)


def loop_partition(zeros, s_values, r_values):
    """The ladder partition as a loop over zeros and rungs."""
    bands, odd_gaps, even_gaps = [], [], []
    for z in zeros:
        r = abs(complex(z))
        for j in range(len(r_values)):
            if s_values[j] <= r < r_values[j]:
                bands.append(z)
                break
            if r_values[j] <= r < s_values[j + 1]:
                (odd_gaps if j % 2 == 0 else even_gaps).append(z)
                break
    return tuple(bands), tuple(odd_gaps), tuple(even_gaps)


def test_ladder_partition_equals_the_loop():
    """Random ladders, with zeros on the cuts r_j = (2 s_j + 1)/3 whenever
    s_j is a zero modulus, split their zeros as the loop does."""
    rng = np.random.default_rng(1505)
    cands = DiscSequence(tuple(1 - 3.0 ** -k for k in range(1, 30)))
    built = on_a_cut = 0
    for _ in range(120):
        ell = rng.uniform(0.2, 0.8)
        mods = list(1 - (1 - ell) * rng.uniform(0.01, 1, rng.integers(0, 25)) ** rng.uniform(1, 6))
        mods += [(2 * r + 1) / 3 for r in mods[:len(mods) // 2]] + [(2 * ell + 1) / 3]
        half = (1 - ell) / 2
        zeros = [complex(r * np.exp(1j * rng.uniform(-half, half))) for r in mods]
        rungs = int(rng.integers(1, 5))
        eps = sorted(rng.uniform(0.05, 0.9, rungs), reverse=True)
        eta = sorted(rng.uniform(0.1, 0.95, rungs))
        try:
            lad = construct_ladder(zeros, cands, eps, eta, ell)
        except ConstructionError:
            continue
        built += 1
        on_a_cut += sum(abs(z) in lad.r_values for z in zeros)
        assert lad.partition == loop_partition(zeros, lad.s_values, lad.r_values)
    assert built > 100 and on_a_cut > 100


def test_ladder_products_assemble():
    # ratio-3 candidate spacing gives pseudo-gaps of 1/2, so the points
    # chosen from these candidates are too crowded for a thin part
    crowded = construct_ladder(LADDER_ZEROS, LADDER_CANDIDATES, LADDER_EPS,
                               LADDER_ETA, 0.5)
    assert DiscSequence(crowded.chosen_points).separation_tails[-1] <= 0.9
    # ratio-40 candidates over four rungs choose points whose last
    # separation tail is 0.9517
    sparse = DiscSequence(tuple(1 - 40.0 ** -n for n in range(1, 10)))
    lad = construct_ladder(LADDER_ZEROS, sparse, LADDER_EPS[:4], LADDER_ETA[:4], 0.5)
    assert lad.chosen_indices == (0, 3, 7, 8)
    assert 0.9 < DiscSequence(lad.chosen_points).separation_tails[-1] < 0.952
    # each candidate product is the product over bands, one gap set and the
    # chosen points
    bands, odd, even = lad.partition
    assert odd and even
    for gaps in (odd, even):
        candidate = BlaschkeProduct(bands + gaps + lad.chosen_points)
        assert np.all(candidate(np.array(lad.chosen_points)) == 0)


def test_ladder_infeasible_with_few_candidates():
    short = DiscSequence(tuple(1 - 3.0 ** -n for n in range(1, 6)))
    with pytest.raises(ConstructionError) as exc:
        construct_ladder(LADDER_ZEROS, short, [1e-9], [0.5], 0.5)
    assert exc.value.rung == 1


def test_ladder_schedule_validation():
    with pytest.raises(DomainError):
        construct_ladder(LADDER_ZEROS, LADDER_CANDIDATES, [0.5, 0.5],
                         [0.5, 0.6], 0.5)
    with pytest.raises(DomainError):
        construct_ladder(LADDER_ZEROS, LADDER_CANDIDATES, [0.5, 0.25],
                         [0.6, 0.6], 0.5)
    with pytest.raises(DomainError):
        construct_ladder(LADDER_ZEROS, LADDER_CANDIDATES, [0.5], [0.5], 1.5)
    with pytest.raises(DomainError):
        construct_ladder((0.5j,), LADDER_CANDIDATES, [0.5], [0.5], 0.5)


def test_serialization_roundtrip():
    seq = DiscSequence((0.1, 0.2 + 0.3j))
    assert DiscSequence.from_dict(seq.to_dict()).points == seq.points


def test_from_dict_non_numeric_rotation_names_key():
    # a product's JSON form is read back as a finite Blaschke function's data
    with pytest.raises(ConfigError, match=r"b\.data\.rotation"):
        FunctionSpec.from_dict({"kind": "finite_blaschke",
                                "data": {"zeros": [[0.5, 0]], "rotation": "x"}}, "b")
