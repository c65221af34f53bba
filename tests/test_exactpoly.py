"""Exact Gaussian-rational polynomial arithmetic used by the algebraic solver.

Polynomials are pairs (F, den): GZ numerators over one positive int
denominator, in lowest terms.  The oracle is extended Euclid over sympy's
Gaussian rationals QQ_I, which shares no code with exactpoly.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corona_lab import exactpoly
from corona_lab.errors import DomainError
from corona_lab.exactpoly import (GZ, combination, iterated_xgcd, poly_add,
                                  poly_degree, poly_divmod, poly_from_complex,
                                  poly_mul, poly_one, poly_scale, poly_sub,
                                  poly_to_complex, poly_xgcd, residual_l1_bound)

try:
    from sympy.polys.domains import QQ, QQ_I
except ImportError:
    QQ = QQ_I = None

needs_sympy = pytest.mark.skipif(QQ_I is None, reason="sympy's QQ_I is the oracle")

RNG = np.random.default_rng(771003)


def pair(parts):
    """The pair in lowest terms of coefficients given as (re, im) Fractions,
    ascending, the last one nonzero."""
    den = math.lcm(*(x.denominator for c in parts for x in c))
    cs = [GZ(int(re * den), int(im * den)) for re, im in parts]
    g = math.gcd(den, *(x for c in cs for x in (c.re, c.im)))
    return tuple(GZ(c.re // g, c.im // g) for c in cs), den // g


def rand_poly(rng, max_deg=5):
    """Monic, with Gaussian-rational coefficients of denominators up to 6."""
    deg = int(rng.integers(0, max_deg + 1))
    frac = lambda: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
    return pair([(frac(), frac()) for _ in range(deg)] + [(Fraction(1), Fraction(0))])


def test_gz_ring_ops():
    a, b = GZ(3, -7), GZ(-2, 5)
    assert a == GZ(3, -7) and a != b and a != (3, -7)
    assert (a + b) - b == a
    assert a * b == GZ(3 * -2 + 7 * 5, 3 * 5 + 7 * 2)
    assert (a * b) / b == a
    assert a * GZ(1) == a and -a + a == GZ(0)
    assert a.conj() == GZ(3, 7) and a.norm() == 58
    assert a ** 3 == a * a * a and a ** 0 == GZ(1)


def test_gz_division_is_exact_or_raises():
    a, b = GZ(3, -7), GZ(-2, 5)
    p = a * b
    assert p / b == a
    with pytest.raises(ArithmeticError):
        (p + GZ(1)) / b


def test_from_complex_is_exact_and_in_lowest_terms():
    # binary floats convert losslessly: 0.1 is 3602879701896397 / 2^55
    f = poly_from_complex([0.1 + 0.25j])
    assert f == ((GZ(3602879701896397, 2**53),), 2**55)
    assert poly_to_complex(f) == [0.1 + 0.25j]
    assert poly_from_complex([2, 4j, 0, 0]) == ((GZ(2), GZ(0, 4)), 1)
    assert poly_from_complex([0.5, 0.5j]) == ((GZ(1), GZ(0, 1)), 2)
    assert poly_from_complex([0j, 0]) == poly_from_complex([]) == ((), 1)


def test_to_complex_rounds_like_a_fraction():
    # unreduced pairs, subnormal and overflowing quotients included
    rng = np.random.default_rng(12)
    overflows = 0
    for _ in range(400):
        den = int(rng.integers(1, 2**62)) << int(rng.integers(0, 1100))
        re = int(rng.integers(-2**62, 2**62)) << int(rng.integers(0, 1200))
        im = int(rng.integers(-2**62, 2**62))
        try:
            expect = [complex(float(Fraction(re, den)), float(Fraction(im, den)))]
        except OverflowError:
            overflows += 1
            with pytest.raises(DomainError, match="float range"):
                poly_to_complex(((GZ(re, im),), den))
            continue
        assert poly_to_complex(((GZ(re, im),), den)) == expect
    assert overflows


def test_poly_ring_basics():
    f = poly_from_complex([1, 2, 3])
    g = poly_from_complex([0, 1])
    assert poly_degree(f) == 2
    assert poly_degree(((), 1)) == -1
    assert poly_sub(f[0], f[0]) == ()
    assert poly_add(f[0], g[0]) == (GZ(1), GZ(3), GZ(3))
    assert poly_mul(g[0], g[0]) == (GZ(0), GZ(0), GZ(1))
    assert poly_scale(g[0], GZ(0, 2)) == (GZ(0), GZ(0, 2))


def test_divmod_property():
    # pseudo-division: f lc(g)^(deg f - deg g + 1) divides exactly over Z[i]
    for _ in range(25):
        f, g = rand_poly(RNG, 6)[0], rand_poly(RNG, 3)[0]
        g = poly_scale(g, GZ(int(RNG.integers(1, 4)), int(RNG.integers(-3, 4))))
        f = poly_scale(f, g[-1] ** max(len(f) - len(g) + 1, 0))
        q, r = poly_divmod(f, g)
        assert poly_sub(f, poly_add(poly_mul(q, g), r)) == ()
        assert len(r) < len(g)
    with pytest.raises(DomainError):
        poly_divmod(poly_one()[0], ())


def test_xgcd_identity_exact():
    for _ in range(25):
        f = rand_poly(RNG, 4)
        g = rand_poly(RNG, 4)
        d, u, v = poly_xgcd(f, g)
        assert combination((f, g), (u, v)) == d
        assert d[0][-1] == GZ(d[1])      # monic normalization


def test_xgcd_detects_common_factor():
    common = poly_from_complex([-0.5, 1])          # z - 1/2
    f = combination([common], [poly_from_complex([1, 1])])
    g = combination([common], [poly_from_complex([2, 0, 1])])
    d, _, _ = poly_xgcd(f, g)
    assert d == common
    d2, _, _ = poly_xgcd(poly_from_complex([0, 1]), poly_from_complex([1, -1]))
    assert d2 == poly_one()


def test_iterated_xgcd_combination():
    polys = [rand_poly(RNG, 3) for _ in range(4)]
    d, cof = iterated_xgcd(polys)
    assert len(cof) == 4
    assert combination(polys, cof) == d
    with pytest.raises(DomainError):
        iterated_xgcd([((), 1), ((), 1)])
    with pytest.raises(DomainError):
        iterated_xgcd([])


def test_iterated_xgcd_unit_for_coprime_pair():
    # z^2 and z - 1/2 share no roots: the gcd is exactly 1
    f1 = poly_from_complex([0, 0, 1])
    f2 = poly_from_complex([-0.5, 1])
    d, cof = iterated_xgcd([f1, f2])
    assert poly_to_complex(d) == [1 + 0j]
    assert combination([f1, f2], cof) == poly_one()


# ----------------------------------------------- reference: Euclid over QQ_I
# Extended Euclid over the Gaussian rationals as the oracle: the monic gcd
# and the degree-minimal cofactors are unique, so the subresultant path over
# Z[i] must reproduce them with ==.

def to_qq_i(f):
    """A pair as a list of QQ_I coefficients."""
    coeffs, den = f
    return [QQ_I(QQ(c.re, den), QQ(c.im, den)) for c in coeffs]


def _ref_trim(f):
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def _ref_mul(f, g):
    if not f or not g:
        return []
    out = [QQ_I.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _ref_trim(out)


def _ref_sub(f, g):
    n = max(len(f), len(g))
    f, g = f + [QQ_I.zero] * (n - len(f)), g + [QQ_I.zero] * (n - len(g))
    return _ref_trim(a - b for a, b in zip(f, g))


def ref_xgcd(f, g):
    """(d, u, v, steps) for lists of QQ_I coefficients: Euclid over the
    Gaussian rationals; steps counts the divisions, one per remainder."""
    r0, r1 = _ref_trim(f), _ref_trim(g)
    s0, s1, t0, t1 = [QQ_I.one], [], [], [QQ_I.one]
    steps = 0
    while r1:
        q, r = [QQ_I.zero] * max(len(r0) - len(r1) + 1, 0), list(r0)
        for k in range(len(r0) - len(r1), -1, -1):
            c = r[k + len(r1) - 1] / r1[-1]
            q[k] = c
            for j, b in enumerate(r1):
                r[k + j] -= c * b
        q, r = _ref_trim(q), _ref_trim(r)
        r0, r1 = r1, r
        s0, s1 = s1, _ref_sub(s0, _ref_mul(q, s1))
        t0, t1 = t1, _ref_sub(t0, _ref_mul(q, t1))
        steps += 1
    inv = QQ_I.one / r0[-1]
    return ([c * inv for c in r0], _ref_trim(c * inv for c in s0),
            _ref_trim(c * inv for c in t0), steps)


def ref_iterated(polys):
    g, cofactors = _ref_trim(polys[0]), [[QQ_I.one]]
    for f in polys[1:]:
        g, u, v, _ = ref_xgcd(g, f)
        cofactors = [_ref_mul(u, c) for c in cofactors] + [v]
    return g, cofactors


def _53bit(rng, d):
    """Degree-d coefficients with full 53-bit mantissas, modulus in [1/2, 1)."""
    part = lambda: rng.uniform(0.5, 1.0, d + 1) * rng.choice((-1.0, 1.0), d + 1)
    return poly_from_complex(part() + 1j * part())


def _dyadic(rng, d):
    """Degree-d coefficients k/8 with a nonzero leading one."""
    cs = [complex(int(a), int(b)) / 8
          for a, b in zip(rng.integers(-8, 9, d + 1), rng.integers(-8, 9, d + 1))]
    cs[-1] = cs[-1] or 1
    return poly_from_complex(cs)


def _product(f, g):
    return combination([f], [g])


def assert_matches_reference(f, g):
    d, u, v = poly_xgcd(f, g)
    rd, ru, rv, _ = ref_xgcd(to_qq_i(f), to_qq_i(g))
    assert (to_qq_i(d), to_qq_i(u), to_qq_i(v)) == (rd, ru, rv)


@needs_sympy
def test_xgcd_equals_reference_on_seeded_pairs():
    rng = np.random.default_rng(20241)
    for d in range(1, 9):
        for make in (_53bit, _dyadic):
            assert_matches_reference(make(rng, d), make(rng, d))
    for _ in range(10):
        assert_matches_reference(rand_poly(RNG, 4), rand_poly(RNG, 4))


@needs_sympy
def test_xgcd_equals_reference_on_edge_pairs():
    rng = np.random.default_rng(5)
    low, high = _53bit(rng, 2), _53bit(rng, 6)
    factor = _dyadic(rng, 3)
    const = poly_from_complex([0.75 - 0.5j])
    zero = poly_from_complex([])
    pairs = [
        (low, high), (high, low),                        # degree mismatch
        (_product(high, factor), high),                  # g divides f
        (factor, _product(factor, low)),                 # f divides g
        (const, high), (high, const),                    # one constant
        (const, poly_from_complex([3])),                 # both constant
        (zero, high), (low, zero),                       # one zero
    ]
    for root in (0.25 + 0.5j, 1.5 - 1j):                 # inside, outside the disc
        common = poly_from_complex([-root, 1])
        pairs.append((_product(common, _dyadic(rng, 4)),
                      _product(common, _53bit(rng, 3))))
    for f, g in pairs:
        assert_matches_reference(f, g)


@needs_sympy
def test_iterated_xgcd_equals_reference_for_three_functions():
    rng = np.random.default_rng(77)
    polys = [_dyadic(rng, 4), _53bit(rng, 4), _dyadic(rng, 3)]
    g, cof = iterated_xgcd(polys)
    assert (to_qq_i(g), [to_qq_i(c) for c in cof]) == ref_iterated([to_qq_i(p) for p in polys])
    common = poly_from_complex([-2, 1])
    polys = [_product(common, p) for p in polys]
    g, cof = iterated_xgcd(polys)
    assert (to_qq_i(g), [to_qq_i(c) for c in cof]) == ref_iterated([to_qq_i(p) for p in polys])
    assert combination(polys, cof) == g == common


@needs_sympy
def test_xgcd_divides_once_per_remainder(monkeypatch):
    calls = []
    divmod_ = exactpoly.poly_divmod
    monkeypatch.setattr(exactpoly, "poly_divmod",
                        lambda f, g: calls.append(1) or divmod_(f, g))
    rng = np.random.default_rng(3)
    for f, g in ((_53bit(rng, 5), _53bit(rng, 5)), (_dyadic(rng, 2), _53bit(rng, 4)),
                 (poly_one(), _dyadic(rng, 3))):
        calls.clear()
        poly_xgcd(f, g)
        assert len(calls) == ref_xgcd(to_qq_i(f), to_qq_i(g))[3]


_dyadic_coeff = st.builds(lambda a, b: complex(a, b) / 4,
                          st.integers(-8, 8), st.integers(-8, 8))


@needs_sympy
@settings(max_examples=60, deadline=None)
@given(st.lists(_dyadic_coeff, max_size=5), st.lists(_dyadic_coeff, max_size=5))
def test_xgcd_property_small_dyadic_pairs(cf, cg):
    f, g = poly_from_complex(cf), poly_from_complex(cg)
    if f == g == ((), 1):
        with pytest.raises(DomainError):
            poly_xgcd(f, g)
        return
    d, u, v = poly_xgcd(f, g)
    assert (to_qq_i(d), to_qq_i(u), to_qq_i(v)) == ref_xgcd(to_qq_i(f), to_qq_i(g))[:3]
    assert combination((f, g), (u, v)) == d


def test_residual_bound_zero_for_exact_identity():
    assert residual_l1_bound([[0, 0, 1], [-0.5, 1]], [[4], [-2, -4]]) == 0.0


def test_residual_bound_rounds_an_irrational_norm_up():
    # 2^-30 (2^30 + 1 + i) - 1 = (1 + i) 2^-30, of modulus sqrt(2) 2^-30
    bound = residual_l1_bound([[2.0**-30]], [[2.0**30 + 1 + 1j]])
    assert Fraction(bound) ** 2 >= Fraction(2, 2**60)
    assert bound <= math.sqrt(2) * 2.0**-30 * (1 + 2.0**-50)


@needs_sympy
def test_residual_bound_is_the_l1_norm_of_the_exact_residual():
    rng = np.random.default_rng(8)
    for _ in range(10):
        f, g = _53bit(rng, 4), _53bit(rng, 4)
        _, (u, v) = iterated_xgcd((f, g))
        fl = [poly_to_complex(p) for p in (f, g, u, v)]       # fl(u), fl(v)
        f, g, u, v = (to_qq_i(poly_from_complex(c)) for c in fl)
        residual = _ref_sub(_ref_mul(f, u), _ref_sub([QQ_I.one], _ref_mul(g, v)))
        # sum |c| sandwiched between floor and ceiling square roots at 2^-300
        scaled = [math.isqrt(int((c.x * c.x + c.y * c.y) * 2**600)) for c in residual]
        lower = Fraction(sum(scaled), 2**300)
        upper = Fraction(sum(r + 1 for r in scaled), 2**300)
        bound = residual_l1_bound(fl[:2], fl[2:])
        assert lower <= Fraction(bound) <= upper * (1 + Fraction(1, 2**50))
        # and it dominates the exact residual at closed-disc points
        for z in np.exp(1j * rng.uniform(-np.pi, np.pi, 8)) * rng.uniform(0.5, 1, 8):
            z = to_qq_i(poly_from_complex([z]))[0]
            w = QQ_I.zero
            for c in reversed(residual):
                w = w * z + c
            assert QQ(*bound.as_integer_ratio()) ** 2 >= w.x * w.x + w.y * w.y
