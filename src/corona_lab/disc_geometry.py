"""Geometry of the open unit disc.

Points are plain complex numbers; interior points satisfy |z| < 1 and
boundary points |z| = 1.  Angles are canonical in [-pi, pi).  Kernels that
take points or angles evaluate them through ``pointwise``.
"""

import functools
import math

import numpy as np

from .errors import DomainError
from .records import Record


def pointwise(dtype):
    """Decorator for a kernel whose last argument holds its points.

    The kernel sees the points as one flat array of dtype with at least two
    entries unless it is empty: numpy rounds arithmetic on a one-element
    array by its scalar rule, apart from its array loop, so a lone point is
    padded with a copy of itself.  The values come back in the input's
    shape, a 0-d one as a Python scalar, so a lone point gets the bits it
    gets at any place in an array.
    """
    def decorate(kernel):
        @functools.wraps(kernel)
        def evaluate(*args):
            *head, points = args
            points = np.asarray(points, dtype=dtype)
            flat = points.ravel()
            out = kernel(*head, np.repeat(flat, 2) if flat.size == 1 else flat)
            out = out[:flat.size].reshape(points.shape)
            return out.item() if out.ndim == 0 else out
        return evaluate
    return decorate


def canonical_angle(theta):
    """Wrap an angle (scalar or array) into [-pi, pi).

    Angles already in range pass through bit-identically, so half-open
    interval membership at exact endpoints is stable under wrapping.
    """
    th = np.asarray(theta, dtype=float)
    wrapped = np.mod(th + np.pi, 2 * np.pi) - np.pi
    wrapped = np.where(wrapped >= np.pi, wrapped - 2 * np.pi, wrapped)
    out = np.where((th >= -np.pi) & (th < np.pi), th, wrapped)
    return float(out) if out.ndim == 0 else out


def check_disc(z, name: str = "z") -> complex:
    z = complex(z)
    if not (abs(z) < 1):
        raise DomainError(f"{name} must satisfy |{name}| < 1, got |{name}| = {abs(z)}")
    return z


def one_minus_abs2(z: complex) -> float:
    """1 - |z|^2 rounded once: each square splits exactly into three
    products of half-length parts (Veltkamp), and fsum adds them exactly."""
    x, y, split = z.real, z.imag, 134217729.0      # 2^27 + 1
    cx, cy = split * x, split * y
    xh, yh = cx - (cx - x), cy - (cy - y)
    xl, yl = x - xh, y - yh
    return math.fsum((1.0, -xh * xh, -2 * xh * xl, -xl * xl, -yh * yh, -2 * yh * yl, -yl * yl))


def pseudo_hyperbolic(z, pz, w, pw):
    """rho = |z - w| / |1 - conj(w) z| and 1 - rho, z broadcast against w,
    pz and pw the points' one_minus_abs2.  With d^2 = |z - w|^2 from the
    real and imaginary parts, |1 - conj(w) z|^2 = d^2 + pz pw, so
    rho^2 = d^2 / (d^2 + pz pw) and 1 - rho = (1 - rho^2) / (1 + rho) with
    1 - rho^2 = pz pw / (d^2 + pz pw): nothing cancels next to the circle.
    Each step is one correctly rounded real operation, so a lone point gets
    the bits it gets inside an array.  d^2 is normal for |z - w| > 2^-511.
    """
    rho = np.real(z) - np.real(w)
    gap = np.imag(z) - np.imag(w)
    rho *= rho
    gap *= gap
    rho += gap
    gap = pz * pw
    total = rho + gap
    rho /= total
    gap /= total
    del total                       # at most three broadcast-sized arrays stay alive
    rho = np.sqrt(rho)
    gap /= rho + 1
    return rho, gap


def pseudo_distance(z, w) -> float:
    """Pseudo-hyperbolic distance |z - w| / |1 - conj(w) z| for interior points."""
    z = check_disc(z, "z")
    w = check_disc(w, "w")
    return float(pseudo_hyperbolic(z, one_minus_abs2(z), w, one_minus_abs2(w))[0])


class MobiusAut(Record):
    """Disc automorphism z -> (z + c) / (1 + conj(c) z)."""

    c: complex

    def __post_init__(self):
        object.__setattr__(self, "c", check_disc(self.c, "c"))

    @pointwise(complex)
    def apply(self, z):
        """Evaluate at points of the closed disc."""
        return self._map(self.c, z)

    @pointwise(complex)
    def inverse(self, z):
        """Inverse map, the map at -c; inverse(apply(z)) equals z up to rounding."""
        return self._map(-self.c, z)

    def _map(self, c, z):
        """(z + c) / (1 + conj(c) z) for c = +-self.c, the denominator formed as
        (1 - |c|^2) + conj(c) (z + c): on the closed disc both terms are at most
        2 |1 + conj(c) z|, so nothing cancels and only a point outside gives 0."""
        s = z + c
        den = s * c.conjugate()
        den += one_minus_abs2(c)
        if not den.all():
            raise DomainError("mobius denominator vanished; point outside closed disc")
        s /= den
        return s


def pseudo_disc_euclidean(c, eta: float) -> tuple[complex, float]:
    """Euclidean center and radius of {z : pseudo_distance(z, c) <= eta}.

    The set is an honest Euclidean disc; center and radius come from the
    closed form (1 - eta^2) c / (1 - eta^2 |c|^2) and
    eta (1 - |c|^2) / (1 - eta^2 |c|^2), with the denominator written as
    (1 - eta^2) + eta^2 (1 - |c|^2) so that no term cancels near the circle.
    """
    c = check_disc(c, "c")
    eta = float(eta)
    if not (0 <= eta < 1):
        raise DomainError(f"eta must lie in [0, 1), got {eta}")
    g = (1 - eta) * (1 + eta)
    m = one_minus_abs2(c)
    den = g + eta * eta * m
    return g * c / den, eta * m / den


def orthogonal_arc_midpoint(alpha: float, beta: float) -> complex:
    """Point where the circle through e^{i alpha}, e^{i beta} orthogonal to the
    unit circle crosses the bisecting radius.

    Uses cos(g)/(1 + sin(g)) with g = (beta - alpha)/2, the numerically stable
    form of (1 - sin g)/cos g.  Requires 0 < beta - alpha < pi.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not beta > alpha:
        raise DomainError("need alpha < beta")
    g = (beta - alpha) / 2
    if not g < math.pi / 2:
        raise DomainError("arc spans half the circle or more; midpoint undefined")
    return complex(np.exp(1j * (alpha + beta) / 2)) * (math.cos(g) / (1 + math.sin(g)))


def geodesic_endpoints(anchor_angle: float, through) -> tuple[float, float]:
    """Boundary angles of the geodesic through e^{i anchor_angle} and an
    interior point.  First angle returned equals anchor_angle.

    m = MobiusAut(through) maps the diameter through 0 and
    w = m.inverse(e^{ia}) onto the geodesic, so the far endpoint is m(-w).
    """
    a = float(canonical_angle(anchor_angle))
    m = MobiusAut(check_disc(through, "through"))
    far = m.apply(-m.inverse(complex(np.exp(1j * a))))
    return a, float(canonical_angle(np.angle(far)))


class OrthogonalArc(Record):
    """Boundary arc (alpha, beta) together with the geodesic over it."""

    alpha: float
    beta: float

    def __post_init__(self):
        a, b = float(self.alpha), float(self.beta)
        if not (-math.pi <= a < b < math.pi):
            raise DomainError("need -pi <= alpha < beta < pi")
        if not (b - a < math.pi):
            raise DomainError("arc must span less than half the circle")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def midpoint(self) -> complex:
        return orthogonal_arc_midpoint(self.alpha, self.beta)

    def circle(self) -> tuple[complex, float]:
        """Center and radius of the circle through both endpoints, orthogonal
        to the unit circle.  The part of it inside the disc is the geodesic."""
        g = (self.beta - self.alpha) / 2
        return complex(np.exp(1j * (self.alpha + self.beta) / 2)) / math.cos(g), math.tan(g)

    def miss(self, z) -> float:
        """Distance of the point z from the circle of the geodesic."""
        center, radius = self.circle()
        return abs(abs(z - center) - radius)
