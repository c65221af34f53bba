"""Exact polynomial arithmetic over the Gaussian rationals, with gcds and
Bezout identities computed over the Gaussian integers.

Floats convert losslessly (every finite double is rational), so identities
certified here transfer verbatim to the floating inputs.  Polynomials are
tuples of coefficients in ascending order; the zero polynomial is the empty
tuple.  Results are GQ (Gaussian-rational) polynomials.  Internally the gcd
clears each input's denominators (a power of two for float data) and runs
the subresultant remainder sequence on GZ (Gaussian-integer) coefficients,
so no intermediate step pays for a rational gcd; the ring helpers below work
on either coefficient type.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class GQ:
    """Gaussian rational re + im*i with exact Fraction parts."""

    re: Fraction
    im: Fraction

    @classmethod
    def from_complex(cls, z) -> "GQ":
        z = complex(z)
        return cls(Fraction(z.real), Fraction(z.imag))

    @classmethod
    def integer(cls, n: int) -> "GQ":
        return cls(Fraction(n), Fraction(0))

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __add__(self, other: "GQ") -> "GQ":
        return GQ(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GQ") -> "GQ":
        return GQ(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GQ") -> "GQ":
        return GQ(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    def __truediv__(self, other: "GQ") -> "GQ":
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GQ((self.re * other.re + self.im * other.im) / den,
                  (self.im * other.re - self.re * other.im) / den)

    def __neg__(self) -> "GQ":
        return GQ(-self.re, -self.im)


GQ_ZERO = GQ(Fraction(0), Fraction(0))
GQ_ONE = GQ(Fraction(1), Fraction(0))


class GZ:
    """Gaussian integer re + im*i with int parts.

    ``/`` is exact division: it raises ArithmeticError when the quotient is
    not a Gaussian integer, which the gcd below never asks for.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0):
        self.re = re
        self.im = im

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def conj(self) -> "GZ":
        return GZ(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def __add__(self, other: "GZ") -> "GZ":
        return GZ(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GZ") -> "GZ":
        return GZ(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GZ":
        return GZ(-self.re, -self.im)

    def __mul__(self, other: "GZ") -> "GZ":
        # three products instead of four: the parts grow to thousands of bits
        a, b, c, d = self.re, self.im, other.re, other.im
        k = c * (a + b)
        return GZ(k - b * (c + d), k + a * (d - c))

    def __pow__(self, e: int) -> "GZ":
        out = GZ_ONE
        for _ in range(e):
            out = out * self
        return out

    def div_int(self, n: int) -> "GZ":
        """Exact quotient by a positive rational integer."""
        re, r1 = divmod(self.re, n)
        im, r2 = divmod(self.im, n)
        if r1 or r2:
            raise ArithmeticError(f"{n} does not divide the Gaussian integer")
        return GZ(re, im)

    def __truediv__(self, other: "GZ") -> "GZ":
        return (self * other.conj()).div_int(other.norm())


GZ_ONE = GZ(1)


def poly_from_complex(coeffs) -> tuple:
    return poly_trim(tuple(GQ.from_complex(c) for c in coeffs))


def poly_to_complex(f) -> list:
    try:
        return [c.to_complex() for c in f]
    except OverflowError:
        raise DomainError("an exact coefficient exceeds the float range, "
                          "so the exact result cannot be reported in floats") from None


def poly_trim(f) -> tuple:
    cs = list(f)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def poly_is_zero(f) -> bool:
    return len(f) == 0


def poly_degree(f) -> int:
    """Degree of a trimmed polynomial; -1 for the zero polynomial."""
    return len(f) - 1


def poly_one() -> tuple:
    return (GQ_ONE,)


def poly_add(f, g) -> tuple:
    if len(f) < len(g):
        f, g = g, f
    return poly_trim(tuple(a + b for a, b in zip(f, g)) + tuple(f[len(g):]))


def poly_sub(f, g) -> tuple:
    return poly_add(f, tuple(-c for c in g))


def poly_mul(f, g) -> tuple:
    if poly_is_zero(f) or poly_is_zero(g):
        return ()
    out = [None] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            p = a * b
            out[i + j] = p if out[i + j] is None else out[i + j] + p
    return poly_trim(out)


def poly_scale(f, c) -> tuple:
    return poly_trim(tuple(a * c for a in f))


def poly_eval(f, z: GQ) -> GQ:
    out = GQ_ZERO
    for c in reversed(f):
        out = out * z + c
    return out


def poly_divmod(f, g) -> tuple:
    """Quotient and remainder with deg(remainder) < deg(g).

    Every coefficient division must be exact: always so over GQ, and over
    GZ when f carries the factor lc(g)^(deg f - deg g + 1) (pseudo-division).
    """
    if poly_is_zero(g):
        raise DomainError("polynomial division by zero")
    rem = list(f)
    lead = g[-1]
    dg = len(g) - 1
    if len(rem) - 1 < dg:
        return (), poly_trim(rem)
    quot = [None] * (len(rem) - dg)
    for k in range(len(rem) - 1, dg - 1, -1):
        if rem[k].is_zero():
            quot[k - dg] = rem[k]
            continue
        q = rem[k] / lead
        quot[k - dg] = q
        for j in range(dg + 1):
            rem[k - dg + j] = rem[k - dg + j] - q * g[j]
    return poly_trim(quot), poly_trim(rem)


def poly_monic(f) -> tuple:
    if poly_is_zero(f):
        return ()
    lead = f[-1]
    return tuple(c / lead for c in f)


def _to_gz(parts) -> tuple:
    """(F, den) with F over Z[i] and F / den the polynomial with coefficients
    parts[0] + i parts[1], parts[2] + i parts[3], ...; the parts are ints,
    Fractions or floats, and den is the lcm of their denominators (a power
    of two for float data)."""
    ratios = [x.as_integer_ratio() for x in parts]
    den = math.lcm(*(d for _, d in ratios))
    ints = [n * (den // d) for n, d in ratios]
    return tuple(GZ(ints[k], ints[k + 1]) for k in range(0, len(ints), 2)), den


def _gq_parts(f) -> list:
    return [x for c in f for x in (c.re, c.im)]


def _complex_parts(coeffs) -> list:
    return [x for c in coeffs for x in (c.real, c.imag)]


def _to_gq(f, c: GZ) -> tuple:
    """f / c as a GQ polynomial, for f over Z[i] and a nonzero c."""
    cc, n = c.conj(), c.norm()
    out = []
    for a in f:
        p = a * cc
        out.append(GQ(Fraction(p.re, n), Fraction(p.im, n)))
    return poly_trim(out)


def _divide(f, c: GZ) -> tuple:
    """f / c for f over Z[i] whose every coefficient c divides exactly."""
    if c.im == 0 and c.re == 1:
        return f
    cc, n = c.conj(), c.norm()
    return tuple((a * cc).div_int(n) for a in f)


def poly_xgcd(f, g) -> tuple:
    """Monic gcd d with the cofactors (d, u, v) satisfying u f + v g = d.

    Runs the subresultant remainder sequence (Collins 1967; Brown-Traub
    1971; Knuth TAOCP 4.6.1, Algorithm C) over Z[i] on F = a f and G = b g,
    the inputs with their denominators cleared.  Each step pseudo-divides
    through poly_divmod and divides the remainder and both cofactors exactly
    by beta, so s F + t G = r holds over Z[i] throughout and coefficients
    grow only linearly with the step.  The last remainder's leading
    coefficient and the scales a, b are divided out once, at the end.

    u and v are the unique cofactors with deg u < deg g - deg d and
    deg v < deg f - deg d, the ones Euclid's algorithm over the Gaussian
    rationals yields, so the result is exactly that algorithm's.
    """
    (big_f, a), (big_g, b) = (_to_gz(_gq_parts(poly_trim(p))) for p in (f, g))
    if not big_f and not big_g:
        raise DomainError("gcd of zero polynomials is undefined")
    r0, s0, t0 = big_f, (GZ_ONE,), ()
    r1, s1, t1 = big_g, (), (GZ_ONE,)
    lead, h = GZ_ONE, GZ_ONE
    while r1:
        # delta < 0 only in a first step with deg f < deg g: a plain swap
        delta = len(r0) - len(r1)
        e = r1[-1] ** max(delta + 1, 0)
        q, r = poly_divmod(poly_scale(r0, e), r1)
        if not r:
            r0, s0, t0 = r1, s1, t1
            break
        beta = lead * h ** max(delta, 0)
        r0, s0, t0, r1, s1, t1 = (
            r1, s1, t1, _divide(r, beta),
            _divide(poly_sub(poly_scale(s0, e), poly_mul(q, s1)), beta),
            _divide(poly_sub(poly_scale(t0, e), poly_mul(q, t1)), beta))
        if delta >= 0:
            lead = r0[-1]
            if delta:
                h = lead ** delta / h ** (delta - 1)
    last = r0[-1]
    return (_to_gq(r0, last), _to_gq(poly_scale(s0, GZ(a)), last),
            _to_gq(poly_scale(t0, GZ(b)), last))


def iterated_xgcd(polys) -> tuple:
    """Monic gcd of the list plus one cofactor per entry.

    Back-substitution through pairwise steps: after each new polynomial the
    previous cofactors get multiplied by the left Bezout weight.  Returns
    (gcd, cofactors) with sum_k cofactors[k] * polys[k] == gcd exactly.
    """
    entries = [poly_trim(p) for p in polys]
    if not entries or all(poly_is_zero(p) for p in entries):
        raise DomainError("need at least one nonzero polynomial")
    g = entries[0]
    cofactors = [poly_one()]
    for f in entries[1:]:
        g, u, v = poly_xgcd(g, f)
        cofactors = [poly_mul(u, c) for c in cofactors]
        cofactors.append(v)
    return g, cofactors


def _combination_gz(terms) -> tuple:
    """(T, den) with T over Z[i] and T / den == sum_k (F_k / a_k) (C_k / b_k)
    for terms ((F_k, a_k), (C_k, b_k)) as _to_gz returns them.

    The products are numpy convolutions of object arrays of Python ints:
    exact, with the coefficient loop in C (three real products per
    Gaussian one, as in GZ.__mul__).
    """
    den = math.lcm(*(a * b for (_, a), (_, b) in terms))
    n = max((len(big_f) + len(big_c) - 1 for (big_f, _), (big_c, _) in terms), default=0)
    re, im = (np.zeros(max(n, 0), dtype=object) for _ in range(2))
    for (big_f, a), (big_c, b) in terms:
        if not big_f or not big_c:
            continue
        fr, fi, cr, ci = (np.array([getattr(c, part) for c in p], dtype=object)
                          for p in (big_f, big_c) for part in ("re", "im"))
        t = np.convolve(cr, fr + fi)
        w = den // (a * b)
        re[:t.size] += w * (t - np.convolve(fi, cr + ci))
        im[:t.size] += w * (t + np.convolve(fr, ci - cr))
    return poly_trim(GZ(x, y) for x, y in zip(re, im)), den


def combination(polys, cofactors) -> tuple:
    """sum_k polys[k] * cofactors[k], exact, computed over Z[i] after
    clearing one common denominator."""
    total, den = _combination_gz([(_to_gz(_gq_parts(f)), _to_gz(_gq_parts(c)))
                                  for f, c in zip(polys, cofactors)])
    return _to_gq(total, GZ(den))


def residual_l1_bound(functions, solutions) -> float:
    """A float at least the coefficient l1 norm of
    sum_k functions[k] * solutions[k] - 1, for polynomials given as lists of
    complex (float) coefficients.

    The residual is formed exactly on the dyadic coefficients; by the
    triangle inequality its l1 norm bounds its modulus everywhere on the
    closed unit disc.  Each |c| is rounded up to a multiple of 2^-64 / den,
    den being the common denominator, and the sum rounded up to a float.
    """
    total, den = _combination_gz([(_to_gz(_complex_parts(f)), _to_gz(_complex_parts(u)))
                                  for f, u in zip(functions, solutions)])
    total = poly_sub(total, (GZ(den),))
    acc = 0
    for c in total:
        n = c.norm() << 128
        root = math.isqrt(n)
        acc += root if root * root == n else root + 1
    exact = Fraction(acc, den << 64)
    out = float(exact)
    return out if Fraction(out) >= exact else math.nextafter(out, math.inf)


def selftest() -> list[tuple[str, bool]]:
    checks = []

    x = (GQ_ZERO, GQ_ONE)
    f = poly_mul(x, x)                                   # z^2
    g = poly_from_complex((-0.5, 1.0))                   # z - 1/2
    d, cof = iterated_xgcd((f, g))
    checks.append(("coprime pair has unit gcd", d == poly_one()))
    checks.append(("bezout identity exact", combination((f, g), cof) == d))
    checks.append(("anchor cofactors (4, -4z - 2)",
                   [poly_to_complex(c) for c in cof] == [[4], [-2, -4]]))
    checks.append(("exact identity has zero residual bound",
                   residual_l1_bound([[0, 0, 1], [-0.5, 1]], [[4], [-2, -4]]) == 0.0))

    h = poly_mul(f, g)
    d2, cof2 = iterated_xgcd((h, poly_mul(g, g)))
    checks.append(("common factor recovered",
                   poly_monic(d2) == poly_monic(g)
                   and combination((h, poly_mul(g, g)), cof2) == d2))

    q, r = poly_divmod(h, g)
    checks.append(("division exact", poly_is_zero(r) and q == f))
    return checks
