"""Exact polynomial arithmetic over the Gaussian rationals, with gcds and
Bezout identities computed over the Gaussian integers.

Floats convert losslessly (every finite double is a dyadic rational), so
identities certified here transfer verbatim to the floating inputs.  A
Gaussian integer is a plain (re, im) pair of Python ints.  An exact
polynomial is a pair (F, den): F a tuple of Gaussian-integer coefficients
in ascending order with no trailing zero (the zero polynomial is the empty
tuple), den a positive int, and its value F / den.  Pairs are kept in
lowest terms (no prime divides den and every part of F), so equal
polynomials are equal pairs; for float data den is a power of two.  The
ring helpers below act on the coefficient tuples alone, and the gcd runs
the subresultant remainder sequence on them with one cofactor, recovering
the other by one exact division at the end, so no step pays for a
rational gcd.
"""

import math

from .errors import DomainError

ONE = (1, 0)


def gz_mul(x, y) -> tuple:
    """Product of two Gaussian integers with three real products instead of
    four: the parts grow to thousands of bits."""
    (a, b), (c, d) = x, y
    k = c * (a + b)
    return k - b * (c + d), k + a * (d - c)


def gz_div(x, y) -> tuple:
    """Exact quotient x / y; ArithmeticError when y does not divide x, which
    the gcd below never asks for."""
    return _divide((x,), y)[0]


def _gz_pow(x, e: int) -> tuple:
    out = ONE
    for _ in range(e):
        out = gz_mul(out, x)
    return out


def _reduce(f, den: int) -> tuple:
    """The pair of f / den in lowest terms, for a trimmed f over Z[i] and
    den > 0."""
    g = math.gcd(den, *(x for c in f for x in c))
    if g == 1:
        return f, den
    return tuple((re // g, im // g) for re, im in f), den // g


def poly_from_complex(coeffs) -> tuple:
    """The pair of a list of complex (float or int) coefficients; den is the
    lcm of the parts' denominators, which keeps the pair in lowest terms."""
    ratios = [x.as_integer_ratio() for c in map(complex, coeffs) for x in (c.real, c.imag)]
    den = math.lcm(*(d for _, d in ratios))
    ints = [n * (den // d) for n, d in ratios]
    return poly_trim(zip(ints[0::2], ints[1::2])), den


def poly_to_complex(f) -> list:
    """Nearest complex floats of the coefficients: int / int rounds once."""
    coeffs, den = f
    try:
        return [complex(re / den, im / den) for re, im in coeffs]
    except OverflowError:
        raise DomainError("an exact coefficient exceeds the float range, "
                          "so the exact result cannot be reported in floats") from None


def poly_degree(f) -> int:
    """Degree of a pair; -1 for the zero polynomial."""
    return len(f[0]) - 1


# --------------------------------------- ring helpers on Gaussian-int tuples
# The loops inline gz_mul's three products, with the sums of the fixed
# factor's parts formed once.

def poly_trim(f) -> tuple:
    cs = list(f)
    while cs and not (cs[-1][0] or cs[-1][1]):
        cs.pop()
    return tuple(cs)


def poly_add(f, g) -> tuple:
    if len(f) < len(g):
        f, g = g, f
    return poly_trim(tuple((a + c, b + d) for (a, b), (c, d) in zip(f, g)) + f[len(g):])


def poly_sub(f, g) -> tuple:
    return poly_add(f, tuple((-a, -b) for a, b in g))


def poly_mul(f, g) -> tuple:
    if not f or not g:
        return ()
    re, im = [0] * (len(f) + len(g) - 1), [0] * (len(f) + len(g) - 1)
    parts = [(c, c + d, d - c) for c, d in g]
    for i, (a, b) in enumerate(f):
        s = a + b
        for j, (c, cd, dc) in enumerate(parts, i):
            k = c * s
            re[j] += k - b * cd
            im[j] += k + a * dc
    return poly_trim(zip(re, im))


def poly_scale(f, w) -> tuple:
    c, d = w
    cd, dc = c + d, d - c
    out = []
    for a, b in f:
        k = c * (a + b)
        out.append((k - b * cd, k + a * dc))
    return poly_trim(out)


def poly_divmod(f, g) -> tuple:
    """Quotient and remainder with deg(remainder) < deg(g).

    Every coefficient division must be exact, which holds when f carries
    the factor lc(g)^(deg f - deg g + 1) (pseudo-division); gz_div raises
    ArithmeticError where it is not.
    """
    if not g:
        raise DomainError("polynomial division by zero")
    dg = len(g) - 1
    if len(f) - 1 < dg:
        return (), poly_trim(f)
    re, im = [c[0] for c in f], [c[1] for c in f]
    lead = g[-1]
    parts = [(c, c + d, d - c) for c, d in g[:-1]]
    quot = []
    for k in range(len(f) - 1, dg - 1, -1):
        # the top coefficient cancels exactly, so only the lower ones update
        a, b = q = gz_div((re[k], im[k]), lead)
        quot.append(q)
        s = a + b
        for j, (c, cd, dc) in enumerate(parts, k - dg):
            m = c * s
            re[j] -= m - b * cd
            im[j] -= m + a * dc
    return poly_trim(reversed(quot)), poly_trim(zip(re[:dg], im[:dg]))


def _divide(f, w) -> tuple:
    """f / w for f over Z[i] whose every coefficient w divides exactly:
    f conj(w) / norm(w), and ArithmeticError where a remainder is left."""
    if w == ONE:
        return f
    c, d = w
    n, cd, cmd = c * c + d * d, c + d, c - d
    out = []
    for a, b in f:
        k = c * (a + b)
        re, r1 = divmod(k - b * cmd, n)
        im, r2 = divmod(k - a * cd, n)
        if r1 or r2:
            raise ArithmeticError("a Gaussian-integer division is not exact")
        out.append((re, im))
    return tuple(out)


# ------------------------------------------------------- gcds and identities

def poly_xgcd(f, g) -> tuple:
    """Monic gcd d with the cofactors (d, u, v) satisfying u f + v g = d,
    all pairs.

    Runs the subresultant remainder sequence (Collins 1967; Brown-Traub
    1971; Knuth TAOCP 4.6.1, Algorithm C) over Z[i] on F = a f and G = b g,
    the numerators of the pairs (F, a) and (G, b).  Each step pseudo-divides
    through poly_divmod and divides the remainder and the cofactor t of G
    exactly by beta, so s F + t G = r holds over Z[i] throughout for an s
    that is never formed, and coefficients grow only linearly with the
    step.  The last remainder r fixes s = (r - t G) / F, recovered by one
    exact poly_divmod (the half-extended Euclidean algorithm; von zur
    Gathen & Gerhard, Modern Computer Algebra, 3.2).  The last remainder's
    leading coefficient and the scales a, b are divided out once, at the
    end.

    u and v are the unique cofactors with deg u < deg g - deg d and
    deg v < deg f - deg d, the ones Euclid's algorithm over the Gaussian
    rationals yields, so the result is exactly that algorithm's.
    """
    (big_f, a), (big_g, b) = f, g
    if not big_f and not big_g:
        raise DomainError("gcd of zero polynomials is undefined")
    r0, t0, r1, t1 = big_f, (), big_g, (ONE,)
    lead, h = ONE, ONE
    while r1:
        # delta < 0 only in a first step with deg f < deg g: a plain swap
        delta = len(r0) - len(r1)
        e = _gz_pow(r1[-1], max(delta + 1, 0))
        q, r = poly_divmod(poly_scale(r0, e), r1)
        if not r:
            r0, t0 = r1, t1
            break
        beta = gz_mul(lead, _gz_pow(h, max(delta, 0)))
        r0, t0, r1, t1 = (r1, t1, _divide(r, beta),
                          _divide(poly_sub(poly_scale(t0, e), poly_mul(q, t1)), beta))
        if delta >= 0:
            lead = r0[-1]
            if delta:
                h = gz_div(_gz_pow(lead, delta), _gz_pow(h, delta - 1))
    s0 = ()
    if big_f:
        s0, rest = poly_divmod(poly_sub(r0, poly_mul(t0, big_g)), big_f)
        if rest:
            raise ArithmeticError("the cofactor of f is not a Gaussian-integer polynomial")
    # p / last == p conj(last) / norm(last)
    x, y = r0[-1]
    cc, n = (x, -y), x * x + y * y
    return (_reduce(poly_scale(r0, cc), n), _reduce(poly_scale(s0, gz_mul((a, 0), cc)), n),
            _reduce(poly_scale(t0, gz_mul((b, 0), cc)), n))


def iterated_xgcd(polys) -> tuple:
    """Monic gcd of the list of pairs plus one cofactor per entry.

    Back-substitution through pairwise steps: the first pair's cofactors
    start the list, and after each further polynomial the previous
    cofactors get multiplied by the left Bezout weight.  A single entry
    pairs with the zero polynomial, which makes it monic.  Returns
    (gcd, cofactors) with sum_k cofactors[k] * polys[k] == gcd exactly.
    """
    entries = list(polys)
    if not any(f for f, _ in entries):
        raise DomainError("need at least one nonzero polynomial")
    if len(entries) == 1:
        g, u, _ = poly_xgcd(entries[0], ((), 1))
        return g, [u]
    g, u, v = poly_xgcd(entries[0], entries[1])
    cofactors = [u, v]
    for f in entries[2:]:
        g, u, v = poly_xgcd(g, f)
        cofactors = [combination([u], [c]) for c in cofactors] + [v]
    return g, cofactors


def _combination_gz(terms) -> tuple:
    """(T, den) with T over Z[i] and T / den == sum_k (F_k / a_k) (C_k / b_k)
    for terms of pairs ((F_k, a_k), (C_k, b_k)); den is the lcm of the
    a_k b_k, and the result is not reduced."""
    den = math.lcm(*(a * b for (_, a), (_, b) in terms))
    total = ()
    for (big_f, a), (big_c, b) in terms:
        total = poly_add(total, poly_scale(poly_mul(big_f, big_c), (den // (a * b), 0)))
    return total, den


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
    total = poly_sub(total, ((den, 0),))
    acc = 0
    for re, im in total:
        n = (re * re + im * im) << 128
        root = math.isqrt(n)
        acc += root if root * root == n else root + 1
    scale = den << 64
    out = acc / scale
    num, q = out.as_integer_ratio()
    return out if num * scale >= acc * q else math.nextafter(out, math.inf)
