"""Step densities on the circle: fitting, quartiles, alignment, pushforward.

A density is a finite list of half-open arcs with nonnegative constant
values, normalized against dm = d(theta)/2pi to total mass one.  Values, cdf,
tail, quartiles and breakpoints are read by bisection from one array form
built on first use: sorted starts, ends, values and two-sided prefix masses.
The density files' formats live here: DensityFit.to_dict writes a fit,
SimpleDensity.from_dict reads any back, PushforwardDensity.to_csv samples u.
"""

import math
from bisect import bisect_left, bisect_right
from functools import cached_property, reduce
from operator import add

import numpy as np

from .disc_geometry import (MobiusAut, OrthogonalArc, canonical_angle, check_disc,
                            geodesic_endpoints, one_minus_abs2, pointwise)
from .errors import ConfigError, DomainError, InfeasibleError, QuadratureError
from .functions import FunctionSpec
from .quadrature import (DEFAULT_NODES, GL_ORDER, circle_nodes, gauss_legendre_panels,
                         integrate_piecewise, integrate_uniform_checked)
from .records import Record
from .serialize import as_finite, as_list, csv_rows, strict_keys

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


class SimpleDensity(Record):
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
    def uniform(cls, a: float, b: float) -> "SimpleDensity":
        return cls.normalized(((a, b, 1.0),))

    @pointwise(float)
    def __call__(self, theta):
        th = canonical_angle(theta)
        starts, ends, values, _, _ = self._steps
        # the last piece starting at or before th holds it unless it ended
        k = np.searchsorted(starts, th, "right") - 1
        return np.where((k >= 0) & (th < ends[k]), values[k], 0.0)

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

    @classmethod
    def from_dict(cls, d: dict, where: str = "density") -> "SimpleDensity":
        """A density file, a fit's too: the diagnostics DensityFit.to_dict
        writes beside the pieces are accepted and ignored."""
        strict_keys(d, required=("pieces",), optional=("residuals", "mass_error"), where=where)

        def piece(p, at):
            values = tuple(as_list(p, at, as_finite))
            if len(values) != 3:
                raise ConfigError(f"{at}: expected a [start, end, value] triple, got {p!r}")
            return values
        return cls(tuple(as_list(d["pieces"], f"{where}.pieces", piece)))


@pointwise(float)
def poisson_kernel(z, theta):
    """(1 - |z|^2) / |e^{i theta} - z|^2 for an interior evaluation point."""
    z = check_disc(z, "z")
    return one_minus_abs2(z) / np.abs(np.exp(1j * theta) - z) ** 2


def poisson_integral(f, z, nodes: int = DEFAULT_NODES, tol: float | None = None):
    """Boundary average of the callable f against the kernel at z; reproduces
    f(z) for functions analytic on the closed disc.

    With tol set, the achieved error estimate (full rule against the half
    rule) is enforced and QuadratureError carries it on failure.
    """
    z = check_disc(z, "z")

    def integrand(theta):
        return np.asarray(f(np.exp(1j * theta)), dtype=complex) * poisson_kernel(z, theta)

    value, estimate = integrate_uniform_checked(integrand, nodes)
    if tol is not None and estimate > tol:
        raise QuadratureError(
            f"quadrature estimate {estimate:.3e} above tol {tol:.3e}; raise nodes",
            estimate=estimate)
    return value


class DensityFit(Record):
    density: SimpleDensity
    residuals: tuple
    mass_error: float

    def to_dict(self) -> dict:
        """The measure-fit artifact: the pieces, with the diagnostics beside them."""
        return {"pieces": self.density.pieces, "residuals": self.residuals,
                "mass_error": self.mass_error}


# Gauss-Legendre panels per full circle when integrating a target over a bin
BIN_PANELS = 64

MASS_ROW_WEIGHT = 1e6
# pull toward the uniform level; any RIDGE > 0 makes the fit's optimum unique
RIDGE = 1e-6
# a dual entry within this many ulps of the problem's scale is rounding noise
DUAL_TOL_ULPS = 10
# nnls gives up after this many passive solves per variable, as scipy does
SOLVES_PER_VARIABLE = 3


def _passive_solve(d, t, a, u, passive) -> tuple:
    """(z, nu): the minimiser of |d z - t|^2 + W^2 (a.z - 1)^2 + RIDGE |z - u|^2
    with z held at 0 off the passive set P, and nu = W^2 (1 - a.z).

    Without the mass row the minimiser is u_P + K d_P^T (t - d_P u_P),
    K = (d_P^T d_P + RIDGE I)^-1, read off a thin SVD d_P = U S V^T.  The
    mass row joins by Sherman-Morrison, z = zh + nu K a, with nu in closed
    form: W^2 never enters a factorisation, so nu carries no W^2-scaled
    rounding into the dual vector.
    """
    z = np.zeros(len(a))
    if not passive.any():
        return z, MASS_ROW_WEIGHT ** 2
    dp, up, ap = d[:, passive], u[passive], a[passive]
    left, s, vt = np.linalg.svd(dp, full_matrices=False)
    inv = 1.0 / (s * s + RIDGE)
    zh = up + vt.T @ (s * inv * (left.T @ (t - dp @ up)))
    # K a: the range of V from the ridge formula, the rest (projected out
    # twice, so it is orthogonal to V to rounding) scaled by 1/RIDGE
    va = vt @ ap
    ka = vt.T @ (va * inv)
    if len(s) < len(ap):
        rest = ap - vt.T @ va
        rest -= vt.T @ (vt @ rest)
        ka += rest / RIDGE
    w2 = MASS_ROW_WEIGHT ** 2
    nu = w2 * (1.0 - ap @ zh) / (1.0 + w2 * (ap @ ka))
    z[passive] = zh + nu * ka
    return z, nu


def nnls(d, t, a, u) -> np.ndarray:
    """x >= 0 minimising |d x - t|^2 + W^2 (a.x - 1)^2 + RIDGE |x - u|^2,
    W = MASS_ROW_WEIGHT: the optimum scipy.optimize.nnls finds on the stacked
    matrix [W a; d; sqrt(RIDGE) I], unique because RIDGE > 0.  A complex d
    and t enter as their real rows [Re d; Im d] and [Re t; Im t].

    Lawson-Hanson active set (Solving Least Squares Problems, ch. 23) over
    _passive_solve.  It starts with every variable passive and drops the
    nonpositive ones until the passive solution is positive, then runs the
    LH outer and inner loops, rejecting an entering variable whose solve
    does not come out positive.  A dual entry counts as positive only above
    DUAL_TOL_ULPS ulps of the terms it sums, so rounding noise in a
    degenerate dual neither enters nor cycles.  After SOLVES_PER_VARIABLE
    solves per variable it raises InfeasibleError with the residuals
    |d x - t|, one per row of the d given, of the iterate it stopped at.
    """
    n = len(a)
    u = np.broadcast_to(np.asarray(u, dtype=float), (n,))
    budget = SOLVES_PER_VARIABLE * n
    cols, vals = d, t
    if np.iscomplexobj(d):
        d, t = np.concatenate((d.real, d.imag)), np.concatenate((t.real, t.imag))
    passive = np.ones(n, dtype=bool)
    x = np.zeros(n)
    solves = 0

    def solve():
        nonlocal solves
        solves += 1
        if solves > budget:
            raise InfeasibleError(f"nnls did not converge in {solves - 1} solves",
                                  residuals=np.abs(cols @ x - vals).tolist())
        return _passive_solve(d, t, a, u, passive)

    x, nu = solve()
    while (x[passive] <= 0).any():
        passive &= x > 0
        x, nu = solve()
    d_norm = np.linalg.norm(d)
    while not passive.all():
        w = d.T @ (t - d @ x) + RIDGE * (u - x) + nu * a
        x_norm = np.linalg.norm(x)
        tol = DUAL_TOL_ULPS * np.finfo(float).eps * (
            d_norm * (np.linalg.norm(t) + d_norm * x_norm)
            + RIDGE * (np.linalg.norm(u) + x_norm) + abs(nu) * np.linalg.norm(a))
        w[passive] = -np.inf
        while True:
            j = int(np.argmax(w))
            if w[j] <= tol:
                return x
            passive[j] = True
            z, z_nu = solve()
            if z[j] > 0:
                break
            passive[j] = False
            w[j] = -np.inf
        # step from x toward z until the passive solution is positive
        while (z[passive] <= 0).any():
            bad = np.flatnonzero(passive & (z <= 0))
            ratio = x[bad] / (x[bad] - z[bad])
            k = int(np.argmin(ratio))
            x = x + ratio[k] * (z - x)
            x[bad[k]] = 0.0
            passive &= x > 0
            x[~passive] = 0.0
            z, z_nu = solve()
        x, nu = z, z_nu
    return x


def fit_simple_density(targets, partition, eps: float,
                       window: float | None = None) -> DensityFit:
    """Nonnegative least squares fit of a step density to integral targets.

    targets holds (FunctionSpec, value) pairs, each |value| at most the sup
    norm estimate; partition is a list of disjoint (start, end) arcs that carry
    the unknown constant values.  The unit-mass constraint rides along as a
    heavily weighted row and is then enforced exactly by renormalizing; a
    small ridge pulls toward the uniform density so underdetermined fits
    are reproducible.  Raises DomainError when a target's integral over the
    partition is not finite, and InfeasibleError with the excess when a value
    is out of reach, or with the achieved residuals when any target misses
    by more than eps.
    """
    entries = []
    for idx, (f, v) in enumerate(targets):
        if not isinstance(f, FunctionSpec):
            raise DomainError(f"target {idx}: expected a FunctionSpec")
        v, sup = complex(v), f.sup_norm_estimate()
        if abs(v) > sup + 1e-12:
            raise InfeasibleError(
                f"target {idx}: |value| = {abs(v):.6g} exceeds the sup norm "
                f"estimate {sup:.6g}; no unit-mass density can reach it",
                residuals=[abs(v) - sup])
        entries.append((f, v))
    bins = _sorted_arcs([(float(a), float(b)) for a, b in partition], "partition bin", window)
    if not bins:
        raise DomainError("partition must be nonempty")

    starts, ends = np.array(bins).T
    weights = (ends - starts) / TWO_PI
    uniform_value = 1.0 / weights.sum()

    if not entries:
        # maximum entropy default: the uniform density on the partition
        density = SimpleDensity(tuple((a, b, uniform_value) for a, b in bins))
        return DensityFit(density, tuple(), 0.0)

    # one evaluation of each target on the nodes of every bin, summed per bin
    x, w, counts = gauss_legendre_panels(starts, ends, BIN_PANELS)
    offsets = GL_ORDER * (np.cumsum(counts) - counts)
    boundary = np.exp(1j * x)
    with np.errstate(all="ignore"):
        target_cols = np.array([
            np.add.reduceat(np.asarray(f(boundary), dtype=complex) * w, offsets) / TWO_PI
            for f, _ in entries])
    for k, col in enumerate(target_cols):
        if not np.isfinite(col).all():
            raise DomainError(f"targets[{k}]: integral over the partition is not finite")
    target_vals = np.array([v for _, v in entries])

    coeffs = nnls(target_cols, target_vals, weights, uniform_value)
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


class QuartilePair(Record):
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
    miss = OrthogonalArc(qp2.alpha, qp2.beta).miss(midpoint)
    if miss > ALIGN_TOL:
        raise InfeasibleError(
            f"aligned quartile arc misses the midpoint by {miss:.3e}; "
            "density support has a gap at a required endpoint",
            residuals=[miss])
    return aligned


class PushforwardDensity:
    """Density of the image measure under the boundary map of a disc
    automorphism: u(theta) = s(arg L_c(e^{i theta})) |L_c'|, the boundary Jacobian
    (1 - |c|^2)/|1 + conj(c) e^{i theta}|^2 being the Poisson kernel at -c."""

    def __init__(self, base: SimpleDensity, c):
        self.base = base
        self.c = check_disc(c, "c")
        self.automorphism = MobiusAut(self.c)
        # u jumps exactly at preimages of the base piece endpoints
        edges = np.exp(1j * np.array(base.breakpoints()))
        pre = self.automorphism.inverse(edges)
        self.breakpoints = sorted(np.angle(pre).tolist())

    @pointwise(float)
    def __call__(self, theta):
        image = self.automorphism.apply(np.exp(1j * theta))
        return self.base(np.angle(image)) * poisson_kernel(-self.c, theta)

    def to_csv(self, samples: int) -> str:
        """The pushforward CSV: u at circle_nodes(samples) under the header theta,u."""
        theta = circle_nodes(samples)
        return "theta,u\n" + csv_rows((theta, self(theta)))

    def integrate(self, g, nodes: int = DEFAULT_NODES) -> complex:
        """Integral of g(theta) u(theta) dm on the exact base pieces: theta = arg L_c^-1(e^{i phi})
        has d(phi) = |L_c'| d(theta), so it is that of g(theta) s(phi) dm(phi), with no Jacobian."""
        inverse = self.automorphism.inverse
        return integrate_piecewise(
            lambda phi: np.asarray(g(np.angle(inverse(np.exp(1j * phi)))), dtype=complex)
            * self.base(phi), self.base.breakpoints(), nodes)

    def mass(self, nodes: int = DEFAULT_NODES) -> float:
        return float(self.integrate(lambda th: np.ones_like(th), nodes).real)
