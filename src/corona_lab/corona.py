"""Corona-type solvers: measure the joint lower bound of a function tuple,
produce Bezout solutions sum_k u_k f_k = 1, and verify certificates.

Two solver paths: an exact one for polynomial data, through
Gaussian-integer subresultant gcds (exactpoly), and a least-squares one
with a polynomial ansatz fitted on boundary nodes.  Residuals of analytic
expressions attain their maximum on the boundary, so verification samples
the boundary; the reported residual_sup is the maximum over those samples,
a measurement rather than a bound.  When every function and every solution
is a polynomial, the certificate also carries residual_bound, the
coefficient l1 norm of sum_k u_k f_k - 1 formed exactly from the float
coefficients and rounded up: a true bound on the whole closed disc.
"""

import math

import numpy as np

from .errors import ConfigError, DomainError, ExtractionError, UnsolvableError
from .functions import FunctionSpec, roots_in_closed_disc
from .quadrature import CHECK_SAMPLES, circle_nodes, polar_grid
from .records import Record
from .serialize import as_finite, as_list, as_number, strict_keys

MIN_COUNT = 8
# grid counts read from input files stop here: radial * angular ring points
# then stay within 2**22, about 64 MB per complex array
MAX_COUNT = 2048


class GridSpec(Record):
    """Deterministic evaluation grid: rings accumulating at the boundary at
    rate `ratio`, plus uniform boundary nodes.

    Doubling angular or boundary and raising radial keeps all old nodes, so
    grid refinement can only lower a measured minimum.
    """

    radial: int
    angular: int
    boundary: int
    ratio: float

    def __post_init__(self):
        if min(self.radial, self.angular, self.boundary) < MIN_COUNT:
            raise DomainError(f"grid counts must all be >= {MIN_COUNT}")
        if not (0 < self.ratio < 1):
            raise DomainError("ratio must lie in (0, 1)")

    def radii(self) -> np.ndarray:
        return 1 - self.ratio ** np.arange(1, self.radial + 1)

    def points(self) -> np.ndarray:
        """Closed-disc evaluation points: center, rings, boundary nodes."""
        return np.concatenate(([0j], polar_grid(self.radii(), self.angular),
                               np.exp(1j * circle_nodes(self.boundary))))

    @classmethod
    def from_dict(cls, d: dict, where: str = "grid") -> "GridSpec":
        strict_keys(d, required=("radial", "angular", "boundary", "ratio"), where=where)
        values = {key: as_number(d[key], f"{where}.{key}", int)
                  for key in ("radial", "angular", "boundary")}
        values["ratio"] = as_finite(d["ratio"], f"{where}.ratio")
        for key in ("radial", "angular", "boundary"):
            if not MIN_COUNT <= values[key] <= MAX_COUNT:
                raise ConfigError(f"{where}.{key}: expected a count in [{MIN_COUNT}, "
                                  f"{MAX_COUNT}], got {d[key]!r}")
        if not 0 < values["ratio"] < 1:
            raise ConfigError(f"{where}.ratio: expected a number in (0, 1), got {d['ratio']!r}")
        return cls(**values)


DEFAULT_GRID = GridSpec(radial=8, angular=64, boundary=256, ratio=0.5)


class DeltaReport(Record):
    """Measured joint lower bound min_z sum_k |f_k(z)| over a grid.

    The sum of moduli is subharmonic, so the minimum can sit strictly inside
    the disc; interior rings are as essential as the boundary nodes.  Ties
    resolve to the lowest grid index.
    """

    value: float
    argmin: complex


def measure_delta(functions, grid: GridSpec = DEFAULT_GRID) -> DeltaReport:
    fns = tuple(functions)
    if not fns:
        raise DomainError("need at least one function")
    pts = grid.points()
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(np.abs(f(pts)) for f in fns)
    # a point whose sum is not finite cannot be the minimum
    total[~np.isfinite(total)] = np.inf
    k = int(np.argmin(total))
    if total[k] == np.inf:
        raise DomainError("sum of |f_k| is not finite at any grid point")
    return DeltaReport(float(total[k]), complex(pts[k]))


class CoronaInstance(Record):
    """A function tuple with the grid on which its joint lower bound is
    measured.  The bound itself is not stored: `measure_delta` forms it for
    the two readers that need it, the `delta` subcommand and `bezout_numeric`.
    """

    functions: tuple
    grid: GridSpec = DEFAULT_GRID

    def __post_init__(self):
        if not self.functions:
            raise DomainError("instance needs at least one function")
        for f in self.functions:
            if not isinstance(f, FunctionSpec):
                raise DomainError("instance functions must be FunctionSpec values")

    @classmethod
    def from_dict(cls, d: dict, where: str = "instance") -> "CoronaInstance":
        strict_keys(d, required=("functions",), optional=("grid",), where=where)
        fns = tuple(as_list(d["functions"], f"{where}.functions", FunctionSpec.from_dict))
        grid = (GridSpec.from_dict(d["grid"], f"{where}.grid")
                if "grid" in d else DEFAULT_GRID)
        return cls(fns, grid)


class BezoutCertificate(Record):
    """Solutions u_k with sum u_k f_k = 1, plus verification numbers.

    residual_sup is the measured maximum of |sum u_k f_k - 1| on the
    verification nodes; norms holds a sup estimate per solution; passing
    records whether the residual met the requested tolerance.
    residual_bound, present only when every function and solution is a
    polynomial, is a float at least the coefficient l1 norm of the exact
    residual polynomial, so it bounds |sum u_k f_k - 1| on the closed disc.
    """

    solutions: tuple
    residual_sup: float
    norms: tuple
    passing: bool
    method: str
    residual_bound: float | None = None

    def to_dict(self) -> dict:
        out = {"solutions": [u.to_dict() for u in self.solutions],
               "residual_sup": self.residual_sup,
               "norms": self.norms,
               "passing": self.passing,
               "method": self.method}
        if self.residual_bound is not None:
            out["residual_bound"] = self.residual_bound
        return out

    @classmethod
    def from_dict(cls, d: dict, where: str = "certificate") -> "BezoutCertificate":
        strict_keys(d, required=("solutions",),
                    optional=("residual_sup", "norms", "passing", "method",
                              "residual_bound"),
                    where=where)
        sols = tuple(as_list(d["solutions"], f"{where}.solutions", FunctionSpec.from_dict))
        bound = d.get("residual_bound")
        return cls(sols, as_number(d.get("residual_sup", math.nan), f"{where}.residual_sup"),
                   tuple(as_list(d.get("norms", ()), f"{where}.norms", as_number)),
                   bool(d.get("passing", False)), str(d.get("method", "unknown")),
                   None if bound is None else as_number(bound, f"{where}.residual_bound"))


def _residual_sup(functions, solutions, z) -> float:
    """Maximum of |sum_k f_k u_k - 1| over the points z."""
    acc = np.zeros(z.shape, dtype=complex)
    for f, u in zip(functions, solutions):
        acc = acc + np.asarray(f(z), dtype=complex) * np.asarray(u(z), dtype=complex)
    return float(np.max(np.abs(acc - 1)))


def verification_nodes(grid: GridSpec) -> np.ndarray:
    """Boundary nodes for residual checks, deliberately distinct from (and
    finer than) the fit nodes so the check is out of sample."""
    return circle_nodes(2 * grid.boundary + 17)


def _certificate(instance: CoronaInstance, solutions: tuple, tol: float,
                 method: str) -> BezoutCertificate:
    """Certificate for the solutions, checked on the verification nodes."""
    from .exactpoly import residual_l1_bound
    fns = instance.functions
    z = np.exp(1j * verification_nodes(instance.grid))
    residual = _residual_sup(fns, solutions, z)
    norms = tuple(u.sup_norm_estimate() for u in solutions)
    coeffs = [f.coeffs for f in (*fns, *solutions)]
    bound = (None if None in coeffs
             else residual_l1_bound(coeffs[:len(fns)], coeffs[len(fns):]))
    return BezoutCertificate(solutions, residual, norms, residual <= tol, method, bound)


def bezout_exact(instance: CoronaInstance, tol: float = 1e-10) -> BezoutCertificate:
    """Exact solutions via the Gaussian-integer subresultant gcd.

    Needs polynomial data.  The gcd of the tuple decides everything: a unit
    gcd gives polynomial solutions straight from the Bezout cofactors; a gcd
    with all roots strictly outside the closed disc divides out and leaves
    rational solutions; any gcd root in the closed disc is a common zero, so
    no bounded solution tuple exists and UnsolvableError reports the roots.
    """
    from .exactpoly import (combination, iterated_xgcd, poly_degree, poly_from_complex,
                            poly_to_complex)
    coeffs = [f.coeffs for f in instance.functions]
    if None in coeffs:
        raise DomainError("exact solver needs polynomial functions")
    polys = [poly_from_complex(c) for c in coeffs]
    gcd, cofactors = iterated_xgcd(polys)

    if combination(polys, cofactors) != gcd:
        raise DomainError("internal gcd identity failed")  # unreachable guard

    if poly_degree(gcd) == 0:
        solutions = tuple(FunctionSpec.polynomial(poly_to_complex(c) or [0j])
                          for c in cofactors)
    else:
        gcd_coeffs = poly_to_complex(gcd)
        if inside := roots_in_closed_disc(gcd_coeffs, "common zeros"):
            raise UnsolvableError(
                "the functions share zeros in the closed disc; "
                "no solution tuple exists", roots=inside)
        solutions = tuple(
            FunctionSpec.rational(poly_to_complex(c) or [0j], gcd_coeffs)
            for c in cofactors)
    return _certificate(instance, solutions, tol, "exact")


def bezout_numeric(instance: CoronaInstance, degree_cap: int,
                   tol: float = 1e-8) -> BezoutCertificate:
    """Least-squares polynomial solutions of degree at most degree_cap.

    The linear system sum_k u_k(z) f_k(z) = 1 is imposed on boundary nodes;
    since the residual is analytic, its maximum lies on the boundary, where
    it is sampled on the finer verification grid.  The certificate is
    returned with passing=False rather than raising when the residual stays
    above tol, so callers can inspect how close the cap came.
    """
    if degree_cap < 0:
        raise DomainError("degree_cap must be nonnegative")
    if not measure_delta(instance.functions, instance.grid).value > 0:
        raise UnsolvableError(
            "measured delta is zero: the functions vanish together on the grid",
            roots=[])
    n_unknown_per = degree_cap + 1
    n_funcs = len(instance.functions)
    n_nodes = max(instance.grid.boundary, 2 * n_funcs * n_unknown_per)
    z = np.exp(1j * circle_nodes(n_nodes))

    cols = []
    for f in instance.functions:
        fv = np.asarray(f(z), dtype=complex)
        for j in range(n_unknown_per):
            cols.append(fv * z ** j)
    a_mat = np.stack(cols, axis=1)
    rhs = np.ones(n_nodes, dtype=complex)
    coeffs, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)

    solutions = tuple(
        FunctionSpec.polynomial(coeffs[k * n_unknown_per:(k + 1) * n_unknown_per])
        for k in range(n_funcs))
    return _certificate(instance, solutions, tol, "numeric")


class CheckReport(Record):
    residual_sup: float
    norm_sup: float
    samples: int
    passing: bool


def check_certificate(instance: CoronaInstance, cert: BezoutCertificate,
                      tol: float = 1e-8, seed: int = 0,
                      samples: int = CHECK_SAMPLES) -> CheckReport:
    """Independent certificate check on seeded random closed-disc points.

    Random points decouple the check from any node set the solver used; the
    deterministic verification nodes are thrown in as well.  An empty
    solution list is a valid (vacuous) certificate and fails with residual
    one; a nonempty length mismatch is malformed input.
    """
    if cert.solutions and len(cert.solutions) != len(instance.functions):
        raise DomainError("certificate length does not match the instance")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-np.pi, np.pi, samples)
    # uniform over the area for the interior half, exact boundary for the rest
    radii = np.sqrt(rng.uniform(0, 1, samples // 2))
    radii = np.concatenate([radii, np.ones(samples - radii.size)])
    z = np.concatenate([radii * np.exp(1j * theta),
                        np.exp(1j * verification_nodes(instance.grid))])
    residual = _residual_sup(instance.functions, cert.solutions, z)
    norm_sup = max((u.sup_norm_estimate() for u in cert.solutions), default=0.0)
    return CheckReport(residual, norm_sup, z.size, residual <= tol)


class ClusterReport(Record):
    """Indices of the subsequence surviving every value filter, the limiting
    values, how many points survived after each stage, and per function the
    spread: the largest |f_k(z_j) - limit_k| over the surviving j, below
    eps by construction, which says how far the survivors have settled."""

    indices: tuple
    limits: tuple
    stage_counts: tuple
    spread: tuple


def cluster_scenario(functions, seq, eps: float, min_tail: int = 3) -> ClusterReport:
    """Extract a subsequence of the DiscSequence seq along which every
    function simultaneously settles near its value at the final point.

    Stage k keeps the indices j with |f_k(z_j) - f_k(z_last)| < eps (the
    last index always survives).  If fewer than min_tail indices survive all
    stages the sequence is too short to exhibit the cluster values and
    ExtractionError says to lengthen it.

    The points must approach 1: |1 - z_j| nonincreasing.  Each distance is
    computed with relative error e < 4u, u = 2^-53: 1 - Re z rounds once
    (exactly for Re z >= 1/2), the imaginary part is exact, and abs() errs
    by less than one ulp, 2u.  No distance is subnormal: d >= 1 - |z| >= u.
    So if the exact distances satisfy d_2 <= d_1, the computed ones satisfy
    d_2 <= d_1 (1 + e)/(1 - e) < d_1 (1 + 2^-50 + 2^-100), which the rounded
    product d_1 (1 + 2^-49) exceeds.  A pair is refused when d_2 exceeds
    that product: equal distances pass, and a point that moves away from 1
    by a larger factor is refused, however close to 1 it lies.
    """
    fns = tuple(functions)
    pts = seq.points
    if not fns:
        raise DomainError("need at least one function")
    if eps <= 0:
        raise DomainError("eps must be positive")
    dists = [abs(1 - z) for z in pts]
    if any(d2 > d1 * (1 + 2.0 ** -49) for d1, d2 in zip(dists, dists[1:])):
        raise DomainError("points must approach 1 (|1 - z_j| nonincreasing)")
    arr = np.array(pts, dtype=complex)
    last = len(pts) - 1

    indices = list(range(len(pts)))
    values, limits, stage_counts = [], [], []
    for f in fns:
        vals = np.asarray(f(arr), dtype=complex)
        limit = complex(vals[last])
        values.append(vals)
        limits.append(limit)
        indices = [j for j in indices if j == last or abs(vals[j] - limit) < eps]
        stage_counts.append(len(indices))

    if len(indices) < min_tail:
        raise ExtractionError(
            f"only {len(indices)} points survive the filters (need {min_tail}); "
            "lengthen the sequence",
            report={"stage_counts": stage_counts})
    spread = tuple(float(max(abs(vals[j] - limit) for j in indices))
                   for vals, limit in zip(values, limits))
    return ClusterReport(tuple(indices), tuple(limits), tuple(stage_counts), spread)
