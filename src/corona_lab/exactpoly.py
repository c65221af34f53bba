"""Exact polynomial arithmetic over the Gaussian rationals, with gcds and
Bezout identities computed over the Gaussian integers.

Floats convert losslessly (every finite double is a dyadic rational), so
identities certified here transfer verbatim to the floating inputs.  An
exact polynomial is a pair (F, den): F a tuple of GZ (Gaussian-integer)
coefficients in ascending order with no trailing zero (the zero polynomial
is the empty tuple), den a positive int, and its value F / den.  Pairs are
kept in lowest terms (no prime divides den and every part of F), so equal
polynomials are equal pairs; for float data den is a power of two.  The
ring helpers below act on the GZ tuples alone, and the gcd runs the
subresultant remainder sequence on them, so no step pays for a rational
gcd.
"""

import math

import numpy as np

from .errors import DomainError


class GZ:
    """Gaussian integer re + im*i with int parts.

    ``/`` is exact division: it raises ArithmeticError when the quotient is
    not a Gaussian integer, which the gcd below never asks for.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0):
        self.re = re
        self.im = im

    def __repr__(self) -> str:
        return f"GZ({self.re}, {self.im})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, GZ):
            return NotImplemented
        return self.re == other.re and self.im == other.im

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


def _reduce(f, den: int) -> tuple:
    """The pair of f / den in lowest terms, for a trimmed f over Z[i] and
    den > 0."""
    g = math.gcd(den, *(x for c in f for x in (c.re, c.im)))
    if g == 1:
        return f, den
    return tuple(GZ(c.re // g, c.im // g) for c in f), den // g


def poly_from_complex(coeffs) -> tuple:
    """The pair of a list of complex (float or int) coefficients; den is the
    lcm of the parts' denominators, which keeps the pair in lowest terms."""
    ratios = [x.as_integer_ratio() for c in map(complex, coeffs) for x in (c.real, c.imag)]
    den = math.lcm(*(d for _, d in ratios))
    ints = [n * (den // d) for n, d in ratios]
    return poly_trim(GZ(ints[k], ints[k + 1]) for k in range(0, len(ints), 2)), den


def poly_to_complex(f) -> list:
    """Nearest complex floats of the coefficients: int / int rounds once."""
    coeffs, den = f
    try:
        return [complex(c.re / den, c.im / den) for c in coeffs]
    except OverflowError:
        raise DomainError("an exact coefficient exceeds the float range, "
                          "so the exact result cannot be reported in floats") from None


def poly_degree(f) -> int:
    """Degree of a pair; -1 for the zero polynomial."""
    return len(f[0]) - 1


def poly_one() -> tuple:
    return (GZ_ONE,), 1


def _times(f, g) -> tuple:
    """Product of two pairs."""
    return _reduce(poly_mul(f[0], g[0]), f[1] * g[1])


# ------------------------------------------------ ring helpers on GZ tuples

def poly_trim(f) -> tuple:
    cs = list(f)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def poly_add(f, g) -> tuple:
    if len(f) < len(g):
        f, g = g, f
    return poly_trim(tuple(a + b for a, b in zip(f, g)) + tuple(f[len(g):]))


def poly_sub(f, g) -> tuple:
    return poly_add(f, tuple(-c for c in g))


def poly_mul(f, g) -> tuple:
    if not f or not g:
        return ()
    out = [None] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            p = a * b
            out[i + j] = p if out[i + j] is None else out[i + j] + p
    return poly_trim(out)


def poly_scale(f, c) -> tuple:
    return poly_trim(tuple(a * c for a in f))


def poly_divmod(f, g) -> tuple:
    """Quotient and remainder with deg(remainder) < deg(g).

    Every coefficient division must be exact, which holds when f carries
    the factor lc(g)^(deg f - deg g + 1) (pseudo-division).
    """
    if not g:
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


def _divide(f, c: GZ) -> tuple:
    """f / c for f over Z[i] whose every coefficient c divides exactly."""
    if c.im == 0 and c.re == 1:
        return f
    cc, n = c.conj(), c.norm()
    return tuple((a * cc).div_int(n) for a in f)


# ------------------------------------------------------- gcds and identities

def poly_xgcd(f, g) -> tuple:
    """Monic gcd d with the cofactors (d, u, v) satisfying u f + v g = d,
    all pairs.

    Runs the subresultant remainder sequence (Collins 1967; Brown-Traub
    1971; Knuth TAOCP 4.6.1, Algorithm C) over Z[i] on F = a f and G = b g,
    the numerators of the pairs (F, a) and (G, b).  Each step pseudo-divides
    through poly_divmod and divides the remainder and both cofactors exactly
    by beta, so s F + t G = r holds over Z[i] throughout and coefficients
    grow only linearly with the step.  The last remainder's leading
    coefficient and the scales a, b are divided out once, at the end.

    u and v are the unique cofactors with deg u < deg g - deg d and
    deg v < deg f - deg d, the ones Euclid's algorithm over the Gaussian
    rationals yields, so the result is exactly that algorithm's.
    """
    (big_f, a), (big_g, b) = f, g
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
    # p / last == p conj(last) / norm(last)
    cc, n = r0[-1].conj(), r0[-1].norm()
    return (_reduce(poly_scale(r0, cc), n), _reduce(poly_scale(s0, GZ(a) * cc), n),
            _reduce(poly_scale(t0, GZ(b) * cc), n))


def iterated_xgcd(polys) -> tuple:
    """Monic gcd of the list of pairs plus one cofactor per entry.

    Back-substitution through pairwise steps: after each new polynomial the
    previous cofactors get multiplied by the left Bezout weight.  Returns
    (gcd, cofactors) with sum_k cofactors[k] * polys[k] == gcd exactly.
    """
    entries = list(polys)
    if not any(f for f, _ in entries):
        raise DomainError("need at least one nonzero polynomial")
    g = entries[0]
    cofactors = [poly_one()]
    for f in entries[1:]:
        g, u, v = poly_xgcd(g, f)
        cofactors = [_times(u, c) for c in cofactors]
        cofactors.append(v)
    return g, cofactors


def _combination_gz(terms) -> tuple:
    """(T, den) with T over Z[i] and T / den == sum_k (F_k / a_k) (C_k / b_k)
    for terms of pairs ((F_k, a_k), (C_k, b_k)); den is the lcm of the
    a_k b_k, and the result is not reduced.

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
    """sum_k polys[k] * cofactors[k] as a pair, exact, computed over Z[i]
    on one common denominator."""
    return _reduce(*_combination_gz(list(zip(polys, cofactors))))


def residual_l1_bound(functions, solutions) -> float:
    """A float at least the coefficient l1 norm of
    sum_k functions[k] * solutions[k] - 1, for polynomials given as lists of
    complex (float) coefficients.

    The residual is formed exactly on the dyadic coefficients; by the
    triangle inequality its l1 norm bounds its modulus everywhere on the
    closed unit disc.  Each |c| is rounded up to a multiple of 2^-64 / den,
    den being the common denominator, and the sum rounded up to a float.
    """
    total, den = _combination_gz([(poly_from_complex(f), poly_from_complex(u))
                                  for f, u in zip(functions, solutions)])
    total = poly_sub(total, (GZ(den),))
    acc = 0
    for c in total:
        n = c.norm() << 128
        root = math.isqrt(n)
        acc += root if root * root == n else root + 1
    scale = den << 64
    out = acc / scale
    num, q = out.as_integer_ratio()
    return out if num * scale >= acc * q else math.nextafter(out, math.inf)


def selftest() -> list[tuple[str, bool]]:
    checks = []

    f = poly_from_complex((0, 0, 1))                     # z^2
    g = poly_from_complex((-0.5, 1.0))                   # z - 1/2
    d, cof = iterated_xgcd((f, g))
    checks.append(("coprime pair has unit gcd", d == poly_one()))
    checks.append(("bezout identity exact", combination((f, g), cof) == d))
    checks.append(("anchor cofactors (4, -4z - 2)",
                   [poly_to_complex(c) for c in cof] == [[4], [-2, -4]]))
    checks.append(("exact identity has zero residual bound",
                   residual_l1_bound([[0, 0, 1], [-0.5, 1]], [[4], [-2, -4]]) == 0.0))

    h, g2 = _times(f, g), _times(g, g)
    d2, cof2 = iterated_xgcd((h, g2))
    checks.append(("common factor recovered",
                   d2 == g and combination((h, g2), cof2) == d2))

    checks.append(("division exact", poly_divmod(h[0], g[0]) == (f[0], ())))
    return checks
