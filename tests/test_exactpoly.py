"""Exact rational-complex polynomial arithmetic used by the algebraic solver."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corona_lab import exactpoly
from corona_lab.errors import DomainError
from corona_lab.exactpoly import (GQ, GQ_ONE, GQ_ZERO, GZ, combination,
                                  iterated_xgcd, poly_add, poly_degree,
                                  poly_divmod, poly_eval, poly_from_complex,
                                  poly_is_zero, poly_monic, poly_mul, poly_one,
                                  poly_sub, poly_to_complex, poly_xgcd,
                                  residual_l1_bound)

RNG = np.random.default_rng(771003)


def rand_gq(rng):
    return GQ(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
              Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))))


def rand_poly(rng, max_deg=5):
    deg = int(rng.integers(0, max_deg + 1))
    coeffs = tuple(rand_gq(rng) for _ in range(deg)) + (GQ.integer(1),)
    return coeffs


def test_gq_field_ops():
    a = GQ(Fraction(1, 2), Fraction(-1, 3))
    b = GQ(Fraction(2), Fraction(1, 5))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * GQ_ONE == a
    assert a + GQ_ZERO == a
    assert (-a) + a == GQ_ZERO
    with pytest.raises(ZeroDivisionError):
        a / GQ_ZERO


def test_gq_from_complex_is_exact():
    # binary floats convert losslessly to fractions
    g = GQ.from_complex(0.1 + 0.25j)
    assert g.re == Fraction(0.1)
    assert g.im == Fraction(1, 4)
    assert g.to_complex() == 0.1 + 0.25j


def test_poly_ring_basics():
    f = poly_from_complex([1, 2, 3])
    g = poly_from_complex([0, 1])
    assert poly_degree(f) == 2
    assert poly_degree(()) == -1
    assert poly_is_zero(poly_sub(f, f))
    assert poly_to_complex(poly_add(f, g)) == [1 + 0j, 3 + 0j, 3 + 0j]
    assert poly_to_complex(poly_mul(g, g)) == [0j, 0j, 1 + 0j]
    v = poly_eval(f, GQ.integer(2))
    assert v.to_complex() == 1 + 4 + 12


def test_divmod_property():
    for _ in range(25):
        f = rand_poly(RNG, 6)
        g = rand_poly(RNG, 3)
        q, r = poly_divmod(f, g)
        assert poly_is_zero(poly_sub(f, poly_add(poly_mul(q, g), r)))
        assert poly_degree(r) < poly_degree(g)
    with pytest.raises(DomainError):
        poly_divmod(poly_one(), ())


def test_xgcd_identity_exact():
    for _ in range(25):
        f = rand_poly(RNG, 4)
        g = rand_poly(RNG, 4)
        d, u, v = poly_xgcd(f, g)
        lhs = poly_add(poly_mul(u, f), poly_mul(v, g))
        assert poly_is_zero(poly_sub(lhs, d))
        if not poly_is_zero(d):
            assert d[-1] == GQ_ONE   # monic normalization


def test_xgcd_detects_common_factor():
    z = poly_from_complex([0, 1])
    common = poly_from_complex([-0.5, 1])          # z - 1/2
    f = poly_mul(common, poly_from_complex([1, 1]))
    g = poly_mul(common, poly_from_complex([2, 0, 1]))
    d, _, _ = poly_xgcd(f, g)
    assert poly_to_complex(poly_monic(common)) == poly_to_complex(d)
    d2, _, _ = poly_xgcd(z, poly_from_complex([1, -1]))
    assert poly_degree(d2) == 0


def test_iterated_xgcd_combination():
    polys = [rand_poly(RNG, 3) for _ in range(4)]
    d, cof = iterated_xgcd(polys)
    assert len(cof) == 4
    assert poly_is_zero(poly_sub(combination(polys, cof), d))


def test_iterated_xgcd_unit_for_coprime_pair():
    # z^2 and z - 1/2 share no roots: the gcd is exactly 1
    f1 = poly_from_complex([0, 0, 1])
    f2 = poly_from_complex([-0.5, 1])
    d, cof = iterated_xgcd([f1, f2])
    assert poly_to_complex(d) == [1 + 0j]
    assert poly_is_zero(poly_sub(combination([f1, f2], cof), poly_one()))


# ------------------------------------------------- reference: Euclid over GQ
# Extended Euclid over the Gaussian rationals as the oracle: the monic gcd
# and the degree-minimal cofactors are unique, so the subresultant path over
# Z[i] must reproduce them with ==.

def _ref_trim(f):
    f = list(f)
    while f and f[-1].is_zero():
        f.pop()
    return tuple(f)


def _ref_mul(f, g):
    if not f or not g:
        return ()
    out = [GQ_ZERO] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return _ref_trim(out)


def _ref_sub(f, g):
    n = max(len(f), len(g))
    f, g = list(f) + [GQ_ZERO] * (n - len(f)), list(g) + [GQ_ZERO] * (n - len(g))
    return _ref_trim(a - b for a, b in zip(f, g))


def ref_xgcd(f, g):
    """(d, u, v, steps): Euclid over the Gaussian rationals; steps counts
    the divisions, one per remainder."""
    r0, r1 = _ref_trim(f), _ref_trim(g)
    s0, s1, t0, t1 = (GQ_ONE,), (), (), (GQ_ONE,)
    steps = 0
    while r1:
        q, r = [GQ_ZERO] * max(len(r0) - len(r1) + 1, 0), list(r0)
        for k in range(len(r0) - len(r1), -1, -1):
            c = r[k + len(r1) - 1] / r1[-1]
            q[k] = c
            for j, b in enumerate(r1):
                r[k + j] = r[k + j] - c * b
        q, r = _ref_trim(q), _ref_trim(r)
        r0, r1 = r1, r
        s0, s1 = s1, _ref_sub(s0, _ref_mul(q, s1))
        t0, t1 = t1, _ref_sub(t0, _ref_mul(q, t1))
        steps += 1
    inv = GQ_ONE / r0[-1]
    return (_ref_trim(c * inv for c in r0), _ref_trim(c * inv for c in s0),
            _ref_trim(c * inv for c in t0), steps)


def ref_iterated(polys):
    g, cofactors = _ref_trim(polys[0]), [(GQ_ONE,)]
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


def assert_matches_reference(f, g):
    d, u, v = poly_xgcd(f, g)
    rd, ru, rv, _ = ref_xgcd(f, g)
    assert (d, u, v) == (rd, ru, rv)


def test_xgcd_equals_reference_on_seeded_pairs():
    rng = np.random.default_rng(20241)
    for d in range(1, 9):
        for make in (_53bit, _dyadic):
            assert_matches_reference(make(rng, d), make(rng, d))


def test_xgcd_equals_reference_on_edge_pairs():
    rng = np.random.default_rng(5)
    low, high = _53bit(rng, 2), _53bit(rng, 6)
    factor = _dyadic(rng, 3)
    const = poly_from_complex([0.75 - 0.5j])
    pairs = [
        (low, high), (high, low),                        # degree mismatch
        (poly_mul(high, factor), high),                  # g divides f
        (factor, poly_mul(factor, low)),                 # f divides g
        (const, high), (high, const),                    # one constant
        (const, poly_from_complex([3])),                 # both constant
        ((), high), (low, ()),                           # one zero
    ]
    for root in (0.25 + 0.5j, 1.5 - 1j):                 # inside, outside the disc
        common = poly_from_complex([-root, 1])
        pairs.append((poly_mul(common, _dyadic(rng, 4)),
                      poly_mul(common, _53bit(rng, 3))))
    for f, g in pairs:
        assert_matches_reference(f, g)


def test_iterated_xgcd_equals_reference_for_three_functions():
    rng = np.random.default_rng(77)
    polys = [_dyadic(rng, 4), _53bit(rng, 4), _dyadic(rng, 3)]
    assert iterated_xgcd(polys) == ref_iterated(polys)
    common = poly_from_complex([-2, 1])
    polys = [poly_mul(common, p) for p in polys]
    g, cof = iterated_xgcd(polys)
    assert (g, cof) == ref_iterated(polys)
    assert combination(polys, cof) == g == common


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
        assert len(calls) == ref_xgcd(f, g)[3]


_dyadic_coeff = st.builds(lambda a, b: complex(a, b) / 4,
                          st.integers(-8, 8), st.integers(-8, 8))


@settings(max_examples=60, deadline=None)
@given(st.lists(_dyadic_coeff, max_size=5), st.lists(_dyadic_coeff, max_size=5))
def test_xgcd_property_small_dyadic_pairs(cf, cg):
    f, g = poly_from_complex(cf), poly_from_complex(cg)
    if not f and not g:
        with pytest.raises(DomainError):
            poly_xgcd(f, g)
        return
    d, u, v = poly_xgcd(f, g)
    assert (d, u, v) == ref_xgcd(f, g)[:3]
    assert combination((f, g), (u, v)) == d


def test_gz_division_is_exact_or_raises():
    a, b = GZ(3, -7), GZ(-2, 5)
    p = a * b
    q = p / b
    assert (q.re, q.im) == (3, -7)
    with pytest.raises(ArithmeticError):
        (p + GZ(1)) / b


def test_residual_bound_zero_for_exact_identity():
    assert residual_l1_bound([[0, 0, 1], [-0.5, 1]], [[4], [-2, -4]]) == 0.0


def test_residual_bound_rounds_an_irrational_norm_up():
    # 2^-30 (2^30 + 1 + i) - 1 = (1 + i) 2^-30, of modulus sqrt(2) 2^-30
    bound = residual_l1_bound([[2.0**-30]], [[2.0**30 + 1 + 1j]])
    assert Fraction(bound) ** 2 >= Fraction(2, 2**60)
    assert bound <= math.sqrt(2) * 2.0**-30 * (1 + 2.0**-50)


def test_residual_bound_is_the_l1_norm_of_the_exact_residual():
    rng = np.random.default_rng(8)
    for _ in range(10):
        f, g = _53bit(rng, 4), _53bit(rng, 4)
        _, (u, v) = iterated_xgcd((f, g))
        fl = [poly_to_complex(p) for p in (f, g, u, v)]       # fl(u), fl(v)
        u, v = (poly_from_complex(c) for c in fl[2:])
        residual = _ref_sub(_ref_mul(f, u), _ref_sub((GQ_ONE,), _ref_mul(g, v)))
        # sum |c| sandwiched between floor and ceiling square roots at 2^-300
        scaled = [math.isqrt(int((c.re * c.re + c.im * c.im) * 2**600)) for c in residual]
        lower = Fraction(sum(scaled), 2**300)
        upper = Fraction(sum(r + 1 for r in scaled), 2**300)
        bound = residual_l1_bound(fl[:2], fl[2:])
        assert lower <= Fraction(bound) <= upper * (1 + Fraction(1, 2**50))
        # and it dominates the exact residual at closed-disc points
        for z in np.exp(1j * rng.uniform(-np.pi, np.pi, 8)) * rng.uniform(0.5, 1, 8):
            w = poly_eval(residual, GQ.from_complex(z))
            assert Fraction(bound) ** 2 >= w.re * w.re + w.im * w.im
