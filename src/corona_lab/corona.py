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
from dataclasses import asdict, dataclass

import numpy as np

from .disc_geometry import check_disc
from .errors import DomainError, ExtractionError, UnsolvableError
from .exactpoly import (combination, iterated_xgcd, poly_degree, poly_from_complex,
                        poly_to_complex, residual_l1_bound)
from .functions import POLYNOMIAL, FunctionSpec
from .serialize import as_list, as_number, strict_keys

INSIDE_TOL = 1e-9

MIN_COUNT = 8


@dataclass(frozen=True)
class GridSpec:
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
        ang = np.linspace(-np.pi, np.pi, self.angular, endpoint=False)
        rings = (self.radii()[:, None] * np.exp(1j * ang[None, :])).ravel()
        return np.concatenate(([0j], rings, np.exp(1j * self.boundary_nodes())))

    def boundary_nodes(self) -> np.ndarray:
        return np.linspace(-np.pi, np.pi, self.boundary, endpoint=False)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict, where: str = "grid") -> "GridSpec":
        strict_keys(d, required=("radial", "angular", "boundary", "ratio"), where=where)
        values = {key: as_number(d[key], f"{where}.{key}", kind)
                  for key, kind in (("radial", int), ("angular", int),
                                    ("boundary", int), ("ratio", float))}
        return cls(**values)


DEFAULT_GRID = GridSpec(radial=8, angular=64, boundary=256, ratio=0.5)


@dataclass(frozen=True)
class DeltaReport:
    """Measured joint lower bound min_z sum_k |f_k(z)| over a grid.

    The sum of moduli is subharmonic, so the minimum can sit strictly inside
    the disc; interior rings are as essential as the boundary nodes.  Ties
    resolve to the lowest grid index.
    """

    value: float
    argmin: complex

    def to_dict(self) -> dict:
        return asdict(self)


def measure_delta(functions, grid: GridSpec = DEFAULT_GRID) -> DeltaReport:
    fns = tuple(functions)
    if not fns:
        raise DomainError("need at least one function")
    pts = grid.points()
    total = np.zeros(pts.shape)
    for f in fns:
        total = total + np.abs(f(pts))
    k = int(np.argmin(total))
    return DeltaReport(float(total[k]), complex(pts[k]))


@dataclass(frozen=True)
class CoronaInstance:
    """A function tuple with its grid and measured joint lower bound."""

    functions: tuple
    grid: GridSpec
    delta_hat: float

    def __post_init__(self):
        if not self.functions:
            raise DomainError("instance needs at least one function")
        for f in self.functions:
            if not isinstance(f, FunctionSpec):
                raise DomainError("instance functions must be FunctionSpec values")

    @classmethod
    def build(cls, functions, grid: GridSpec = DEFAULT_GRID) -> "CoronaInstance":
        fns = tuple(functions)
        report = measure_delta(fns, grid)
        return cls(fns, grid, report.value)

    def to_dict(self) -> dict:
        return {"functions": [f.to_dict() for f in self.functions],
                "grid": self.grid.to_dict(),
                "delta_hat": self.delta_hat}

    @classmethod
    def from_dict(cls, d: dict, where: str = "instance") -> "CoronaInstance":
        strict_keys(d, required=("functions",), optional=("grid", "delta_hat"),
                    where=where)
        fns = tuple(as_list(d["functions"], f"{where}.functions", FunctionSpec.from_dict))
        grid = (GridSpec.from_dict(d["grid"], f"{where}.grid")
                if "grid" in d else DEFAULT_GRID)
        if "delta_hat" in d:
            return cls(fns, grid, as_number(d["delta_hat"], f"{where}.delta_hat"))
        return cls.build(fns, grid)


@dataclass(frozen=True)
class BezoutCertificate:
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
    n = 2 * grid.boundary + 17
    return np.linspace(-np.pi, np.pi, n, endpoint=False)


def _certificate(instance: CoronaInstance, solutions: tuple, tol: float,
                 method: str) -> BezoutCertificate:
    """Certificate for the solutions, checked on the verification nodes."""
    fns = instance.functions
    z = np.exp(1j * verification_nodes(instance.grid))
    residual = _residual_sup(fns, solutions, z)
    norms = tuple(u.sup_norm_estimate() for u in solutions)
    bound = None
    if all(f.kind == POLYNOMIAL for f in (*fns, *solutions)):
        bound = residual_l1_bound([f.payload[0] for f in fns],
                                  [u.payload[0] for u in solutions])
    return BezoutCertificate(solutions, residual, norms, residual <= tol, method, bound)


def bezout_exact(instance: CoronaInstance, tol: float = 1e-10) -> BezoutCertificate:
    """Exact solutions via the Gaussian-integer subresultant gcd.

    Needs polynomial data.  The gcd of the tuple decides everything: a unit
    gcd gives polynomial solutions straight from the Bezout cofactors; a gcd
    with all roots strictly outside the closed disc divides out and leaves
    rational solutions; any gcd root in the closed disc is a common zero, so
    no bounded solution tuple exists and UnsolvableError reports the roots.
    """
    for f in instance.functions:
        if f.kind != POLYNOMIAL:
            raise DomainError("exact solver needs polynomial functions")
    polys = [poly_from_complex(f.payload[0]) for f in instance.functions]
    gcd, cofactors = iterated_xgcd(polys)

    if combination(polys, cofactors) != gcd:
        raise DomainError("internal gcd identity failed")  # unreachable guard

    if poly_degree(gcd) == 0:
        solutions = tuple(FunctionSpec.polynomial(poly_to_complex(c) or [0j])
                          for c in cofactors)
    else:
        gcd_coeffs = poly_to_complex(gcd)
        roots = np.roots(list(reversed(gcd_coeffs)))
        inside = [complex(r) for r in roots if abs(r) <= 1 + INSIDE_TOL]
        if inside:
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
    if not instance.delta_hat > 0:
        raise UnsolvableError(
            "measured delta is zero: the functions vanish together on the grid",
            roots=[])
    n_unknown_per = degree_cap + 1
    n_funcs = len(instance.functions)
    n_nodes = max(instance.grid.boundary, 2 * n_funcs * n_unknown_per)
    theta = np.linspace(-np.pi, np.pi, n_nodes, endpoint=False)
    z = np.exp(1j * theta)

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


@dataclass(frozen=True)
class CheckReport:
    residual_sup: float
    norm_sup: float
    samples: int
    passing: bool

    def to_dict(self) -> dict:
        return asdict(self)


def check_certificate(instance: CoronaInstance, cert: BezoutCertificate,
                      tol: float = 1e-8, seed: int = 0,
                      samples: int = 10000) -> CheckReport:
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


@dataclass(frozen=True)
class ClusterReport:
    """Indices of the subsequence surviving every value filter, the limiting
    values, and how many points survived after each stage."""

    indices: tuple
    limits: tuple
    stage_counts: tuple

    def to_dict(self) -> dict:
        return asdict(self)


def cluster_scenario(functions, points, eps: float,
                     min_tail: int = 3) -> ClusterReport:
    """Extract a subsequence along which every function simultaneously
    settles near its value at the final point.

    Stage k keeps the indices j with |f_k(z_j) - f_k(z_last)| < eps (the
    last index always survives).  If fewer than min_tail indices survive all
    stages the sequence is too short to exhibit the cluster values and
    ExtractionError says to lengthen it.
    """
    fns = tuple(functions)
    pts = tuple(check_disc(z, "point") for z in getattr(points, "points", points))
    if not fns or not pts:
        raise DomainError("need at least one function and one point")
    if eps <= 0:
        raise DomainError("eps must be positive")
    dists = [abs(1 - z) for z in pts]
    if any(d2 > d1 + 1e-15 for d1, d2 in zip(dists, dists[1:])):
        raise DomainError("points must approach 1 (|1 - z_j| nonincreasing)")
    arr = np.array(pts, dtype=complex)
    last = len(pts) - 1

    indices = list(range(len(pts)))
    limits = []
    stage_counts = []
    for f in fns:
        vals = np.asarray(f(arr), dtype=complex)
        limit = complex(vals[last])
        limits.append(limit)
        indices = [j for j in indices if j == last or abs(vals[j] - limit) < eps]
        stage_counts.append(len(indices))

    if len(indices) < min_tail:
        raise ExtractionError(
            f"only {len(indices)} points survive the filters (need {min_tail}); "
            "lengthen the sequence",
            report={"stage_counts": stage_counts})
    return ClusterReport(tuple(indices), tuple(limits), tuple(stage_counts))


def selftest() -> list[tuple[str, bool]]:
    checks = []

    inst = CoronaInstance.build((FunctionSpec.polynomial((0, 0, 1)),
                                 FunctionSpec.polynomial((-0.5, 1))))
    cert = bezout_exact(inst)
    checks.append(("exact solver closes the anchor pair",
                   cert.passing and cert.residual_sup < 1e-12))

    cert_n = bezout_numeric(inst, degree_cap=2)
    checks.append(("numeric solver matches at low degree",
                   cert_n.passing and cert_n.residual_sup < 1e-10))

    rep = check_certificate(inst, cert, tol=1e-10)
    checks.append(("random check accepts the certificate", rep.passing))

    bad = CoronaInstance.build((FunctionSpec.polynomial((0, 1)),
                                FunctionSpec.polynomial((0, 0, 1))))
    try:
        bezout_exact(bad)
        checks.append(("common zero detected", False))
    except UnsolvableError:
        checks.append(("common zero detected", True))
    return checks
