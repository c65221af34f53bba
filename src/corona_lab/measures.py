"""Step densities on the circle: fitting, quartiles, alignment, pushforward.

A density is a finite list of half-open arcs with nonnegative constant
values, normalized against dm = d(theta)/2pi to total mass one.  Values, cdf,
tail, mass, quartiles and breakpoints are read by bisection from one array
form built on first use: sorted starts, ends, values and two-sided prefix masses.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add

import numpy as np

from .disc_geometry import (MobiusAut, OrthogonalArc, canonical_angle, check_disc,
                            geodesic_endpoints, orthogonal_circle)
from .errors import DomainError, InfeasibleError, QuadratureError
from .functions import FunctionSpec
from .quadrature import (DEFAULT_NODES, GL_ORDER, gauss_legendre_panels,
                         integrate_piecewise, integrate_uniform_checked)
from .serialize import as_list, as_number, strict_keys

TWO_PI = 2 * math.pi

MASS_TOL = 1e-12
QUARTILE_TOL = 1e-10
ALIGN_TOL = 1e-8

# Eq-style three-way split of the circle by where the quartile arc sits
CASE_LEFT = "left"
CASE_STRADDLE = "straddle"
CASE_RIGHT = "right"


def _sorted_arcs(arcs: list, label: str, window: float | None = None) -> list:
    """Float arcs (start, end, ...) checked to lie inside [-pi, pi] and the
    optional +-window, sorted by start.  An arc may start up to 1e-15 before
    the previous one ends (rounded touching arcs) but not end before it, so
    the ends come out sorted too."""
    for idx, arc in enumerate(arcs):
        if not (-math.pi <= arc[0] < arc[1] <= math.pi):
            raise DomainError(f"{label} {idx}: need -pi <= start < end <= pi")
        if window is not None and not (-window <= arc[0] and arc[1] <= window):
            raise DomainError(f"{label} {idx}: outside window (+-{window})")
    out = sorted(arcs, key=lambda arc: arc[0])
    for prev, arc in zip(out, out[1:]):
        if arc[0] < prev[1] - 1e-15 or arc[1] < prev[1]:
            raise DomainError(f"{label}s overlap")
    return out


@dataclass(frozen=True)
class SimpleDensity:
    """Unit-mass step density given as disjoint (start, end, value) arcs."""

    pieces: tuple

    def __post_init__(self):
        pieces = []
        for idx, piece in enumerate(self.pieces):
            if len(piece) != 3:
                raise DomainError(f"piece {idx}: expected (start, end, value)")
            a, b, c = float(piece[0]), float(piece[1]), float(piece[2])
            if c < 0:
                raise DomainError(f"piece {idx}: negative value")
            pieces.append((a, b, c))
        cleaned = _sorted_arcs(pieces, "piece")
        mass = sum(c * (b - a) / TWO_PI for a, b, c in cleaned)
        if abs(mass - 1) > MASS_TOL:
            raise DomainError(f"total mass {mass} differs from 1 beyond {MASS_TOL}")
        object.__setattr__(self, "pieces", tuple(cleaned))

    @cached_property
    def _steps(self) -> tuple:
        """(starts, ends, values, left, right): left[k] is the mass before
        piece k summed from -pi, right[k] the mass from piece k on summed
        from pi; cumsum adds in sequence, as a running sum would."""
        starts, ends, values = np.array(list(zip(*self.pieces)))
        masses = values * (ends - starts) / TWO_PI
        return (starts, ends, values, np.concatenate(([0.0], np.cumsum(masses))),
                np.concatenate((np.cumsum(masses[::-1])[::-1], [0.0])))

    @classmethod
    def normalized(cls, pieces) -> "SimpleDensity":
        """Scale the values so the total mass is exactly one."""
        mass = sum(float(c) * (float(b) - float(a)) / TWO_PI for a, b, c in pieces)
        if mass <= 0:
            raise DomainError("cannot normalize a density with zero mass")
        return cls(tuple((a, b, c / mass) for a, b, c in pieces))

    @classmethod
    def uniform(cls, a: float = -math.pi, b: float = math.pi) -> "SimpleDensity":
        return cls.normalized(((a, b, 1.0),))

    def __call__(self, theta):
        th = canonical_angle(theta)
        starts, ends, values, _, _ = self._steps
        # the last piece starting at or before th holds it unless it ended
        k = np.searchsorted(starts, th, "right") - 1
        out = np.where((k >= 0) & (th < ends[k]), values[k], 0.0)
        return float(out) if out.ndim == 0 else out

    def mass(self) -> float:
        return float(self._steps[3][-1])

    def cdf(self, theta: float) -> float:
        """Mass of [-pi, theta)."""
        theta = float(theta)
        starts, ends, values, left, _ = self._steps
        # pieces i..j-1 hold theta (two only in the overlap slack), added in order
        i, j = bisect_right(ends, theta), bisect_left(starts, theta)
        cut = values[i:j] * (theta - starts[i:j]) / TWO_PI
        return reduce(add, cut.tolist(), float(left[i]))

    def tail(self, theta: float) -> float:
        """Mass of [theta, pi), accumulated from the right for mirror symmetry."""
        theta = float(theta)
        starts, ends, values, _, right = self._steps
        i, j = bisect_right(ends, theta), bisect_left(starts, theta)
        cut = values[i:j] * (ends[i:j] - theta) / TWO_PI
        return reduce(add, cut[::-1].tolist(), float(right[j]))

    def breakpoints(self) -> list[float]:
        starts, ends = self._steps[:2]
        return sorted(set(np.stack((starts, ends), axis=1).ravel().tolist()))

    def split_at(self, angles) -> list[tuple[float, float, float]]:
        """Piece list refined so every given angle is a piece endpoint."""
        cuts = sorted(set(float(t) for t in angles))
        out = []
        for a, b, c in self.pieces:
            inner = [t for t in cuts if a < t < b]
            edges = [a] + inner + [b]
            for lo, hi in zip(edges, edges[1:]):
                out.append((lo, hi, c))
        return out

    def canonical(self) -> "SimpleDensity":
        """Drop zero pieces and merge adjacent pieces of equal value."""
        kept = [p for p in self.pieces if p[2] > 0]
        merged = []
        for a, b, c in kept:
            if merged and merged[-1][1] == a and merged[-1][2] == c:
                merged[-1] = (merged[-1][0], b, c)
            else:
                merged.append((a, b, c))
        return SimpleDensity(tuple(tuple(p) for p in merged))

    def to_dict(self) -> dict:
        return {"pieces": self.pieces}

    @classmethod
    def from_dict(cls, d: dict, where: str = "density") -> "SimpleDensity":
        strict_keys(d, required=("pieces",), where=where)
        return cls(tuple(as_list(d["pieces"], f"{where}.pieces",
                                 lambda p, at: tuple(as_list(p, at, as_number)))))


def poisson_kernel(z, theta):
    """(1 - |z|^2) / |e^{i theta} - z|^2 for an interior evaluation point."""
    z = check_disc(z, "z")
    e = np.exp(1j * np.asarray(theta, dtype=float))
    out = (1 - abs(z) ** 2) / np.abs(e - z) ** 2
    return float(out) if out.ndim == 0 else out


def poisson_integral(f, z, nodes: int = DEFAULT_NODES, tol: float | None = None):
    """Boundary average of f against the kernel at z; reproduces f(z) for
    functions analytic on the closed disc.

    With tol set, the achieved error estimate (full rule against the half
    rule) is enforced and QuadratureError carries it on failure.
    """
    z = check_disc(z, "z")
    fn = f if callable(f) else FunctionSpec.from_dict(f)

    def integrand(theta):
        return np.asarray(fn(np.exp(1j * theta)), dtype=complex) * poisson_kernel(z, theta)

    value, estimate = integrate_uniform_checked(integrand, nodes)
    if tol is not None and estimate > tol:
        raise QuadratureError(
            f"quadrature estimate {estimate:.3e} above tol {tol:.3e}; raise nodes",
            estimate=estimate)
    return value


@dataclass(frozen=True)
class TargetFunctional:
    """Pairs (function, expected integral value) a density should reproduce."""

    entries: tuple

    def __post_init__(self):
        cleaned = []
        for idx, (f, v) in enumerate(self.entries):
            if not isinstance(f, FunctionSpec):
                raise DomainError(f"target {idx}: expected a FunctionSpec")
            v = complex(v)
            sup = f.sup_norm_estimate()
            if abs(v) > sup + 1e-12:
                raise InfeasibleError(
                    f"target {idx}: |value| = {abs(v):.6g} exceeds the sup norm "
                    f"estimate {sup:.6g}; no unit-mass density can reach it",
                    residuals=[abs(v) - sup])
            cleaned.append((f, v))
        object.__setattr__(self, "entries", tuple(cleaned))

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class DensityFit:
    density: SimpleDensity
    residuals: tuple
    mass_error: float


# Gauss-Legendre panels per full circle when integrating a target over a bin
BIN_PANELS = 64

MASS_ROW_WEIGHT = 1e6


def nnls(a, b):
    """scipy.optimize.nnls, imported on first use: scipy.optimize costs more
    to import than the rest of the package together, and only fits need it."""
    from scipy.optimize import nnls as solve
    return solve(a, b)


def fit_simple_density(targets, partition, eps: float,
                       window: float | None = None,
                       ridge: float = 1e-6) -> DensityFit:
    """Nonnegative least squares fit of a step density to integral targets.

    partition is a list of disjoint (start, end) arcs that carry the
    unknown constant values.  The unit-mass constraint rides along as a
    heavily weighted row and is then enforced exactly by renormalizing; a
    small ridge pulls toward the uniform density so underdetermined fits
    are reproducible.  Raises InfeasibleError with the achieved residuals
    when any target misses by more than eps.
    """
    if isinstance(targets, TargetFunctional):
        entries = targets.entries
    else:
        entries = TargetFunctional(tuple(targets)).entries
    bins = _sorted_arcs([(float(a), float(b)) for a, b in partition], "partition bin", window)
    if not bins:
        raise DomainError("partition must be nonempty")

    weights = np.array([(b - a) / TWO_PI for a, b in bins])
    uniform_value = 1.0 / weights.sum()

    if not entries:
        # maximum entropy default: the uniform density on the partition
        density = SimpleDensity(tuple((a, b, uniform_value) for a, b in bins))
        return DensityFit(density, tuple(), 0.0)

    # one evaluation of each target on the nodes of every bin, summed per bin
    panels = [max(1, math.ceil((b - a) / TWO_PI * BIN_PANELS)) for a, b in bins]
    x, w = gauss_legendre_panels(bins, panels)
    starts = GL_ORDER * np.cumsum([0] + panels[:-1])
    boundary = np.exp(1j * x)
    target_cols = np.array([
        np.add.reduceat(np.asarray(f(boundary), dtype=complex) * w, starts) / TWO_PI
        for f, _ in entries])
    target_vals = np.array([v for _, v in entries])

    rows = [MASS_ROW_WEIGHT * weights]
    rhs = [MASS_ROW_WEIGHT]
    for k in range(len(entries)):
        rows.append(target_cols[k].real)
        rhs.append(target_vals[k].real)
        rows.append(target_cols[k].imag)
        rhs.append(target_vals[k].imag)
    n = len(bins)
    a_mat = np.vstack(rows + [math.sqrt(ridge) * np.eye(n)])
    b_vec = np.array(rhs + list(math.sqrt(ridge) * np.full(n, uniform_value)))

    coeffs, _ = nnls(a_mat, b_vec)
    mass = float(coeffs @ weights)
    if mass <= 0:
        raise InfeasibleError("solver returned an empty density", residuals=[1.0])
    coeffs = coeffs / mass

    achieved = target_cols @ coeffs
    residuals = np.abs(achieved - target_vals)
    density = SimpleDensity(tuple((a, b, float(c)) for (a, b), c in zip(bins, coeffs)))
    fit = DensityFit(density, tuple(float(r) for r in residuals),
                     abs(float(coeffs @ weights) - 1.0))
    if residuals.size and float(residuals.max()) > eps:
        raise InfeasibleError(
            f"fit misses a target by {float(residuals.max()):.3e} > eps {eps:.3e}",
            residuals=list(fit.residuals))
    return fit


@dataclass(frozen=True)
class QuartilePair:
    """Angles splitting off a quarter of the mass on each side, plus the
    three-way location tag of the resulting arc."""

    alpha: float
    beta: float
    case_tag: str


def quartiles(s: SimpleDensity, window: float = math.pi) -> QuartilePair:
    """Quartile angles of a step density.

    alpha is the leftmost angle with a quarter of the mass below it and beta
    the rightmost angle with a quarter above; ties on flat stretches resolve
    outward, and the left and right prefix masses mirror each other so
    symmetric densities return beta == -alpha exactly.  The tag uses the
    mass mu on [0, window): left if mu <= 1/4, straddle if mu <= 3/4, else right.
    """
    quarter = 0.25
    starts, ends, values, left, right = s._steps
    # alpha lies in the first live piece through which the mass from the
    # left reaches a quarter, beta in the last one for the mass from the right
    live = values > 0
    first = np.flatnonzero(live & (left[1:] >= quarter))
    last = np.flatnonzero(live & (right[:-1] >= quarter))
    if not first.size or not last.size:
        raise DomainError("density too degenerate for quartiles")
    k, m = first[0], last[-1]
    alpha = float(starts[k] + (quarter - left[k]) * TWO_PI / values[k])
    beta = float(ends[m] - (quarter - right[m + 1]) * TWO_PI / values[m])
    if abs(s.cdf(alpha) - quarter) > QUARTILE_TOL or abs(s.tail(beta) - quarter) > QUARTILE_TOL:
        raise DomainError("quartile mass equations failed; density malformed")

    mu = s.cdf(window) - s.cdf(0.0)
    if mu <= 0.25:
        tag = CASE_LEFT
    elif mu <= 0.75:
        tag = CASE_STRADDLE
    else:
        tag = CASE_RIGHT
    return QuartilePair(alpha, beta, tag)


def _three_zone_rescale(s: SimpleDensity, a_star: float, b_star: float) -> SimpleDensity:
    """Rescale so [-pi, a*), [a*, b*), [b*, pi) carry mass 1/4, 1/2, 1/4."""
    left = s.cdf(a_star)
    right = s.tail(b_star)
    mid = 1.0 - left - right
    if left <= 0 or right <= 0 or mid <= 0:
        raise InfeasibleError(
            "alignment would empty a zone "
            f"(masses {left:.3e}, {mid:.3e}, {right:.3e})",
            residuals=[left, mid, right])
    k_left, k_mid, k_right = 0.25 / left, 0.5 / mid, 0.25 / right
    pieces = []
    for a, b, c in s.split_at((a_star, b_star)):
        midpt = (a + b) / 2
        scale = k_left if midpt < a_star else (k_mid if midpt < b_star else k_right)
        pieces.append((a, b, c * scale))
    return SimpleDensity.normalized(tuple(pieces)).canonical()


def align_arcs(s_sharp: SimpleDensity, target: OrthogonalArc, case: str) -> SimpleDensity:
    """Reshape a density so its quartile arc passes through target.midpoint.

    case selects which endpoints drive the construction:
      "a"  quartile arc straddles the target on both sides; move the
           quartiles exactly onto the target endpoints;
      "b"  everything sits on the nonnegative side; keep alpha and steer
           beta to the far end of the geodesic through e^{i alpha} and the
           target midpoint;
      "c"  mirror image of "b" on the nonpositive side.

    The result is verified by recomputing the quartiles and checking the
    recomputed arc passes within ALIGN_TOL of the midpoint.
    """
    qp = quartiles(s_sharp)
    a_sharp, b_sharp = qp.alpha, qp.beta
    alpha, beta = target.alpha, target.beta
    midpoint = target.midpoint
    slack = 1e-12

    if case == "a":
        if not (a_sharp <= alpha + slack and alpha <= 0 <= beta and beta <= b_sharp + slack):
            raise DomainError("case a needs alpha# <= alpha <= 0 <= beta <= beta#")
        a_star, b_star = alpha, beta
    elif case == "b":
        if not (alpha >= -slack and a_sharp >= -slack and beta <= b_sharp + slack):
            raise DomainError("case b needs 0 <= alpha, alpha# and beta <= beta#")
        a_star = a_sharp
        _, b_star = geodesic_endpoints(a_sharp, midpoint)
    elif case == "c":
        if not (beta <= slack and b_sharp <= slack and alpha >= a_sharp - slack):
            raise DomainError("case c needs beta, beta# <= 0 and alpha >= alpha#")
        b_star = b_sharp
        _, a_star = geodesic_endpoints(b_sharp, midpoint)
    else:
        raise DomainError(f"unknown case {case!r}; expected one of a, b, c")

    if not (-math.pi <= a_star < b_star <= math.pi and b_star - a_star < math.pi):
        raise InfeasibleError(
            f"derived endpoints ({a_star:.6f}, {b_star:.6f}) do not span a valid arc")

    aligned = _three_zone_rescale(s_sharp, a_star, b_star)

    qp2 = quartiles(aligned)
    center, radius = orthogonal_circle(qp2.alpha, qp2.beta)
    miss = abs(abs(midpoint - center) - radius)
    if miss > ALIGN_TOL:
        raise InfeasibleError(
            f"aligned quartile arc misses the midpoint by {miss:.3e}; "
            "density support has a gap at a required endpoint",
            residuals=[miss])
    return aligned


class PushforwardDensity:
    """Density of the image measure under the boundary map of a disc
    automorphism: u(theta) = s(arg L_c(e^{i theta})) |L_c'| with the boundary
    Jacobian (1 - |c|^2)/|1 + conj(c) e^{i theta}|^2."""

    def __init__(self, base: SimpleDensity, c):
        self.base = base
        self.c = check_disc(c, "c")
        self.automorphism = MobiusAut(self.c)
        # u jumps exactly at preimages of the base piece endpoints
        edges = np.exp(1j * np.array(base.breakpoints()))
        pre = self.automorphism.inverse(edges)
        self.breakpoints = sorted(float(t) for t in np.angle(np.atleast_1d(pre)))

    def jacobian(self, theta):
        e = np.exp(1j * np.asarray(theta, dtype=float))
        out = (1 - abs(self.c) ** 2) / np.abs(1 + np.conj(self.c) * e) ** 2
        return float(out) if out.ndim == 0 else out

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        image = self.automorphism.apply(np.exp(1j * theta))
        vals = np.asarray(self.base(np.angle(np.atleast_1d(image)))) * self.jacobian(theta)
        return float(vals.reshape(-1)[0]) if theta.ndim == 0 else vals

    def integrate(self, g, nodes: int = DEFAULT_NODES) -> complex:
        """Integral of g(theta) u(theta) dm with jump-aware quadrature."""
        return integrate_piecewise(
            lambda th: np.asarray(g(th), dtype=complex) * self(th),
            self.breakpoints, nodes)

    def mass(self, nodes: int = DEFAULT_NODES) -> float:
        return float(self.integrate(lambda th: np.ones_like(th), nodes).real)


def pushforward_density(s: SimpleDensity, c) -> PushforwardDensity:
    return PushforwardDensity(s, c)


def selftest() -> list[tuple[str, bool]]:
    checks = []

    checks.append(("poisson kernel closed form", abs(poisson_kernel(0.5, 0.0) - 3.0) < 1e-14))

    f = FunctionSpec.polynomial((1, 2, 0.5))
    z = 0.3 + 0.2j
    val = poisson_integral(f, z, nodes=1024)
    checks.append(("poisson integral reproduces values", abs(val - f(z)) < 1e-10))

    s = SimpleDensity.uniform(-0.8, 0.8)
    qp = quartiles(s)
    checks.append(("uniform quartiles mirror", qp.beta == -qp.alpha and abs(qp.alpha + 0.4) < 1e-15))

    u = pushforward_density(s, 0.3 + 0.1j)
    checks.append(("pushforward preserves mass", abs(u.mass(nodes=1024) - 1) < 1e-10))

    fit = fit_simple_density((), [(-0.5, 0.0), (0.0, 0.5)], eps=1e-6)
    vals = fit.density(np.array([-0.25, 0.25]))
    checks.append(("empty fit is uniform", abs(vals[0] - vals[1]) < 1e-14))
    return checks
