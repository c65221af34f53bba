"""Finite Blaschke products and the sector ladder construction.

A product is determined by its zero list and a rotation; the factor for a
zero a is (conj(a)/|a|) (a - z) / (1 - conj(a) z), with the convention that
the unimodular prefactor is -1 when a = 0, so the factor degenerates to z.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .disc_geometry import MobiusAut, canonical_angle, check_disc
from .errors import ConstructionError, DomainError, InfeasibleError
from .serialize import as_number, complex_list, strict_keys

DEFAULT_THIN_THRESHOLD = 0.9

# zeros per complex division in BlaschkeProduct.__call__
BLOCK = 8

# verification grid used when measuring minima of |B| over a closed disc
MIN_GRID_RADIAL = 25
MIN_GRID_ANGULAR = 64


def _unimodular_prefactor(a: complex) -> complex:
    if a == 0:
        return -1.0 + 0j
    # an exact power-of-two scale keeps abs() out of the subnormal range
    a = a * 2.0 ** 600
    return a.conjugate() / abs(a)


def _one_minus_abs2(a: complex) -> float:
    """1 - |a|^2 rounded once: each square splits exactly into three
    products of half-length parts (Veltkamp), and fsum adds them exactly."""
    terms = [1.0]
    for x in (a.real, a.imag):
        c = 134217729.0 * x         # 2^27 + 1
        hi = c - (c - x)
        lo = x - hi
        terms += (-hi * hi, -2 * hi * lo, -lo * lo)
    return math.fsum(terms)


def blaschke_factor(a: complex, z):
    """Single normalized factor; vanishes at a, unimodular on the boundary."""
    z = np.asarray(z, dtype=complex)
    u = _unimodular_prefactor(a)
    return u * (a - z) / (1 - a.conjugate() * z)


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product e^{i rotation} prod_k factor(zeros[k], z)."""

    zeros: tuple
    rotation: float = 0.0

    def __post_init__(self):
        zs = tuple(check_disc(z, "zero") for z in self.zeros)
        object.__setattr__(self, "zeros", zs)
        rot = float(self.rotation)
        if not math.isfinite(rot):
            raise DomainError("rotation must be finite")
        object.__setattr__(self, "rotation", float(canonical_angle(rot)))

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        """Values at z (scalar or array), BLOCK factors per complex division.

        The unimodular constant e^{i rotation} prod u_k is formed once; each
        block of zeros then contributes N / D with N = prod (a - z) and
        D = prod (1 - conj(a) z), built in place in reused buffers.  Each
        denominator is formed as (1 - |a|^2) + conj(a) (a - z): with
        1 - |a|^2 rounded once, both terms are at most 2 |1 - conj(a) z| on
        the closed disc, so it keeps its relative accuracy where
        1 - conj(a) z cancels (z near a zero close to the circle).  There
        1 - |a| <= |1 - conj(a) z| <= 2 and |a - z| <= |1 - conj(a) z|, so
        (1 - |a|)^BLOCK <= |D| <= 2^BLOCK never leaves the normal range, and
        N = (block value) D is subnormal only where the block's value is
        below 2^-1022 / |D|.  An exact zero gives exactly 0.
        """
        z = np.asarray(z, dtype=complex)
        constant = np.exp(1j * self.rotation)
        for a in self.zeros:
            constant *= _unimodular_prefactor(a)
        out = np.full(z.shape, constant, dtype=complex)
        num, den, tmp = (np.empty(z.shape, dtype=complex) for _ in range(3))
        for start in range(0, self.degree, BLOCK):
            a, *rest = self.zeros[start:start + BLOCK]
            np.subtract(a, z, out=num)
            np.multiply(a.conjugate(), num, out=den)
            den += _one_minus_abs2(a)
            for a in rest:
                num *= np.subtract(a, z, out=tmp)
                tmp *= a.conjugate()
                tmp += _one_minus_abs2(a)
                den *= tmp
            num /= den
            out *= num
        return complex(out) if out.ndim == 0 else out

    def derivative(self, z):
        """Analytic derivative by the product rule; valid at zeros too.

        One pass over the zeros carries the partial product P and its
        derivative D through D <- D f + P f', P <- P f.  With
        q = u / (1 - conj(a) z), the denominator formed as in __call__, the
        factor is f = (a - z) q and its derivative f' = -(1 - |a|^2) conj(u) q^2,
        so each zero costs one division and none divides by a - z.
        """
        z = np.asarray(z, dtype=complex)
        p = np.full(z.shape, np.exp(1j * self.rotation), dtype=complex)
        d = np.zeros(z.shape, dtype=complex)
        q, f = (np.empty(z.shape, dtype=complex) for _ in range(2))
        for a in self.zeros:
            u = _unimodular_prefactor(a)
            g = _one_minus_abs2(a)
            np.subtract(a, z, out=f)
            np.multiply(a.conjugate(), f, out=q)
            q += g
            np.divide(u, q, out=q)
            f *= q
            d *= f
            q *= q
            q *= -g * u.conjugate()
            q *= p
            d += q
            p *= f
        return complex(d) if d.ndim == 0 else d

    def __mul__(self, other: "BlaschkeProduct") -> "BlaschkeProduct":
        if not isinstance(other, BlaschkeProduct):
            return NotImplemented
        return BlaschkeProduct(self.zeros + other.zeros, self.rotation + other.rotation)

    def to_dict(self) -> dict:
        return {"zeros": self.zeros, "rotation": self.rotation}

    @classmethod
    def from_dict(cls, d: dict, where: str = "blaschke") -> "BlaschkeProduct":
        strict_keys(d, required=("zeros",), optional=("rotation",), where=where)
        zeros = complex_list(d["zeros"], f"{where}.zeros")
        return cls(tuple(zeros), as_number(d.get("rotation", 0.0), f"{where}.rotation"))


def min_modulus_on_disc(b: BlaschkeProduct, radius: float) -> float:
    """Measured minimum of |b| over a polar grid on the closed disc of the
    given radius.

    A grid minimum is at least the true minimum, so it is a measurement, not
    a lower bound; modulus_lower_bound gives a bound.
    """
    if not (0 <= radius < 1):
        raise DomainError("radius must lie in [0, 1)")
    rad = np.linspace(0.0, radius, MIN_GRID_RADIAL)
    ang = np.linspace(-np.pi, np.pi, MIN_GRID_ANGULAR, endpoint=False)
    grid = (rad[:, None] * np.exp(1j * ang[None, :])).ravel()
    return float(np.min(np.abs(b(grid))))


def modulus_lower_bound(b: BlaschkeProduct, eta: float) -> float:
    """Certified lower bound for |b| on |z| <= eta.

    Each factor drops below 1 by at most (1+eta)/(1-eta) (1-|a|) there, and
    a product of terms 1 - d_k is at least 1 - sum d_k, so the bound is
    max(0, 1 - (1+eta)/(1-eta) * sum_k (1 - |zeros[k]|)).
    """
    eta = float(eta)
    if not (0 <= eta < 1):
        raise DomainError("eta must lie in [0, 1)")
    gap_sum = sum(1 - abs(a) for a in b.zeros)
    m = (1 + eta) / (1 - eta)
    return max(0.0, 1.0 - m * gap_sum)


def _transport(zeros, m: MobiusAut) -> np.ndarray:
    """The zeros moved by m.inverse, z -> (z - c)/(1 - conj(c) z), as one array."""
    zs = np.array(zeros, dtype=complex)
    return m.inverse(zs) if zs.size else zs


def _transported_gaps(zeros, c: complex) -> np.ndarray:
    """1 - |(z_k - c)/(1 - conj(c) z_k)| for every zero."""
    return 1 - np.abs(_transport(zeros, MobiusAut(c)))


def compose_with_mobius(b: BlaschkeProduct, c) -> BlaschkeProduct:
    """Blaschke product equal to z -> b((z + c)/(1 + conj(c) z)) pointwise.

    With m = MobiusAut(c), each zero a moves to a' = m.inverse(a), and
    factor(a, m(z)) = u_a (1 - a conj(c)) / ((1 - conj(a) c) u_a') factor(a', z)
    with u the unimodular prefactor; the rotation gains the angles of these
    unimodular constants.
    """
    m = MobiusAut(c)
    moved = _transport(b.zeros, m).tolist()
    turn = b.rotation
    for a, w in zip(b.zeros, moved):
        k = (_unimodular_prefactor(a) * (1 - a * m.c.conjugate())
             / ((1 - a.conjugate() * m.c) * _unimodular_prefactor(w)))
        turn += math.atan2(k.imag, k.real)
    return BlaschkeProduct(tuple(moved), turn)


def transport_tail_bounds(b: BlaschkeProduct, c) -> tuple[np.ndarray, np.ndarray]:
    """Per-zero diagnostic for the zero transport under composition.

    Returns (actual, bound) with actual[k] = 1 - |(z_k - c)/(1 - conj(c) z_k)|
    and bound[k] = (1+|c|)/(1-|c|) (1 - |z_k|); actual <= bound always.
    """
    c = check_disc(c, "c")
    actual = _transported_gaps(b.zeros, c)
    factor = (1 + abs(c)) / (1 - abs(c))
    bound = factor * (1 - np.abs(np.array(b.zeros, dtype=complex)))
    return actual, bound


@dataclass
class DiscSequence:
    """Finite list of interior points with cached interpolation diagnostics."""

    points: tuple

    def __post_init__(self):
        pts = tuple(check_disc(z, "point") for z in self.points)
        if not pts:
            raise DomainError("sequence must be nonempty")
        self.points = pts

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def gap_sum(self) -> float:
        """sum_k (1 - |z_k|), the summability quantity behind convergence."""
        return float(sum(1 - abs(z) for z in self.points))

    @cached_property
    def separation_tails(self) -> tuple:
        return tuple(carleson_diagnostics(self)[1])

    @cached_property
    def carleson_constant(self) -> float:
        return min(self.separation_tails)

    def to_dict(self) -> dict:
        return {"points": self.points}

    @classmethod
    def from_dict(cls, d: dict, where: str = "sequence") -> "DiscSequence":
        strict_keys(d, required=("points",), where=where)
        return cls(tuple(complex_list(d["points"], f"{where}.points")))


def carleson_diagnostics(seq: DiscSequence) -> tuple[float, list[float]]:
    """Separation constant and per-point tails of an interior sequence.

    tails[k] = prod_{j != k} pseudo_distance(z_j, z_k), the product taken over
    the rows of one pseudo-distance matrix whose diagonal is set to one; the
    constant is the minimum tail.  Duplicate points give a zero constant.
    """
    z = np.array(seq.points, dtype=complex)
    dist = np.abs(z[:, None] - z[None, :]) / np.abs(1 - np.conj(z)[None, :] * z[:, None])
    np.fill_diagonal(dist, 1.0)
    tails = np.prod(dist, axis=0)
    return float(tails.min()), tails.tolist()


@dataclass(frozen=True)
class Sector:
    """Radial slice {r e^{i t} : s <= r < t_outer, |angle| <= (1 - ell)/2}."""

    ell: float
    s: float
    t: float

    def __post_init__(self):
        ell, s, t = float(self.ell), float(self.s), float(self.t)
        if not (0 < ell < 1):
            raise DomainError("ell must lie in (0, 1)")
        if not (ell <= s < t <= 1):
            raise DomainError("need ell <= s < t <= 1")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)

    @property
    def half_angle(self) -> float:
        return (1 - self.ell) / 2

    def contains(self, z) -> bool:
        z = complex(z)
        r = abs(z)
        if not (self.s <= r < self.t):
            return False
        return abs(float(np.angle(z))) <= self.half_angle


@dataclass(frozen=True)
class RungRecord:
    """Verification row for one rung: measured minimum on |z| <= eta."""

    rung: int
    eta: float
    eps: float
    min_modulus: float


@dataclass(frozen=True)
class LadderConstruction:
    """Result of the staged sector construction.

    s_values has one more entry than r_values; the covered region is the
    sector ring from s_values[0] to s_values[-1], split alternately into the
    kept bands [s_j, r_j) and the excluded bands [r_j, s_{j+1}).
    """

    ell: float
    s_values: tuple
    r_values: tuple
    chosen_indices: tuple
    chosen_points: tuple
    partition: tuple          # three zero tuples: bands, odd gaps, even gaps
    verification: tuple       # RungRecord per rung

    def band_products(self) -> tuple[BlaschkeProduct, BlaschkeProduct, BlaschkeProduct]:
        b1, b2, b3 = self.partition
        return (BlaschkeProduct(tuple(b1)), BlaschkeProduct(tuple(b2)),
                BlaschkeProduct(tuple(b3)))

    def thin_product(self, threshold: float = DEFAULT_THIN_THRESHOLD) -> BlaschkeProduct:
        """Product over the chosen transport points, gated by a thinness check.

        The last separation tail of the chosen subsequence must exceed the
        threshold, otherwise the points are too crowded to serve as the thin
        part of a candidate.
        """
        seq = DiscSequence(self.chosen_points)
        tail_last = seq.separation_tails[-1]
        if not tail_last > threshold:
            raise InfeasibleError(
                f"chosen points fail thinness: last tail {tail_last:.6f} <= {threshold}",
                residuals=[tail_last])
        return BlaschkeProduct(self.chosen_points)

    def candidate_products(self, threshold: float = DEFAULT_THIN_THRESHOLD
                           ) -> tuple[BlaschkeProduct, BlaschkeProduct]:
        """The two admissible assemblies band*oddgaps*thin and band*evengaps*thin.

        Which one the caller wants depends on measured behavior downstream,
        so both are returned.
        """
        b1, b2, b3 = self.band_products()
        b4 = self.thin_product(threshold)
        return b1 * b2 * b4, b1 * b3 * b4

    def to_dict(self) -> dict:
        b1, b2, b3 = self.partition
        return {
            "ell": self.ell,
            "s": self.s_values,
            "r": self.r_values,
            "indices": self.chosen_indices,
            "points": self.chosen_points,
            "partition": {"bands": b1, "odd_gaps": b2, "even_gaps": b3},
            "verification": [
                [rec.rung, rec.eta, rec.eps, rec.min_modulus] for rec in self.verification
            ],
        }


def construct_ladder(zeros, candidates: DiscSequence, eps_seq, eta_seq,
                     ell: float) -> LadderConstruction:
    """Build the staged sector ladder over a zero set confined to S[ell, 1).

    Stage j works at tolerance eps_j on the disc |z| <= eta_j.  It needs the
    transported gap sum of the rung's zero set below
    delta_j = eps_j (1 - eta_j)/(1 + eta_j), which certifies a modulus lower
    bound above 1 - eps_j.  The candidate scan and the choice of the next
    inner radius each take half of delta_j:

    * pick the first unused candidate whose transported gap sum over the
      inner band S[ell, r_j) is below delta_j / 2;
    * pick the smallest zero modulus above r_j whose transported tail sum is
      below delta_j / 2; if none qualifies, jump past the outermost zero.

    Every stage is verified by measuring the grid minimum of the composed
    product on |z| <= eta_j; failure to find a candidate raises
    ConstructionError naming the rung.
    """
    ell = float(ell)
    if not (0 < ell < 1):
        raise DomainError("ell must lie in (0, 1)")
    eps_seq = [float(e) for e in eps_seq]
    eta_seq = [float(e) for e in eta_seq]
    if len(eps_seq) != len(eta_seq) or not eps_seq:
        raise DomainError("eps and eta schedules must have equal nonzero length")
    if any(not (0 < e < 1) for e in eps_seq) or any(e2 >= e1 for e1, e2 in zip(eps_seq, eps_seq[1:])):
        raise DomainError("eps schedule must be strictly decreasing inside (0, 1)")
    if any(not (0 < h < 1) for h in eta_seq) or any(h2 <= h1 for h1, h2 in zip(eta_seq, eta_seq[1:])):
        raise DomainError("eta schedule must be strictly increasing inside (0, 1)")

    home = Sector(ell, ell, 1.0)
    zeros = tuple(check_disc(z, "zero") for z in zeros)
    for z in zeros:
        if not home.contains(z):
            raise DomainError(f"zero {z} lies outside the home sector")

    zs = np.array(zeros, dtype=complex)
    # hypot rounds like abs() on a Python complex, so the cut radii are the
    # moduli the sector check saw, bit for bit
    moduli = np.hypot(zs.real, zs.imag)
    order = np.argsort(moduli, kind="stable")
    by_modulus = zs[order]
    mods = moduli[order]
    # tail sums start at the first zero of each modulus, so tied zeros
    # (conjugate pairs) enter a tail together
    tail_start = np.searchsorted(mods, mods, "left")
    outermost = float(mods[-1]) if mods.size else 0.0

    s_values = [ell]
    r_values = []
    chosen_indices = []
    chosen_points = []
    records = []
    next_candidate = 0

    for j, (eps, eta) in enumerate(zip(eps_seq, eta_seq), start=1):
        s_j = s_values[-1]
        r_j = (2 * s_j + 1) / 3
        r_values.append(r_j)
        delta = eps * (1 - eta) / (1 + eta)

        inner = by_modulus[:np.searchsorted(mods, r_j, "left")]
        pick = None
        for n in range(next_candidate, len(candidates)):
            if float(np.sum(_transported_gaps(inner, candidates.points[n]))) < delta / 2:
                pick = n
                break
        if pick is None:
            raise ConstructionError(
                f"rung {j}: candidates exhausted before the inner gap sum fell "
                f"below {delta / 2:.3e}", rung=j)
        c = candidates.points[pick]
        chosen_indices.append(pick)
        chosen_points.append(c)
        next_candidate = pick + 1

        gaps = _transported_gaps(by_modulus, c)
        tails = np.cumsum(gaps[::-1])[::-1]
        ok = np.flatnonzero((mods > r_j) & (tails[tail_start] < delta / 2))
        if ok.size:
            s_next = float(mods[ok[0]])
        else:
            # no qualifying zero modulus: place the cut past every zero
            s_next = max((outermost + 1) / 2, (r_j + 1) / 2)
        if not (r_j < s_next < 1):
            raise ConstructionError(
                f"rung {j}: no admissible next radius above {r_j}", rung=j)
        s_values.append(s_next)

        rung_zeros = tuple(zs[(moduli < r_j) | (moduli >= s_next)])
        composed = compose_with_mobius(BlaschkeProduct(rung_zeros), c)
        measured = min_modulus_on_disc(composed, eta)
        records.append(RungRecord(j, eta, eps, measured))

    # zeros at or beyond the final cut stay outside the partition
    bands, odd_gaps, even_gaps = [], [], []
    for z, r in zip(zeros, moduli):
        for j in range(len(r_values)):
            if s_values[j] <= r < r_values[j]:
                bands.append(z)
                break
            if r_values[j] <= r < s_values[j + 1]:
                (odd_gaps if j % 2 == 0 else even_gaps).append(z)
                break

    return LadderConstruction(
        ell=ell,
        s_values=tuple(s_values),
        r_values=tuple(r_values),
        chosen_indices=tuple(chosen_indices),
        chosen_points=tuple(chosen_points),
        partition=(tuple(bands), tuple(odd_gaps), tuple(even_gaps)),
        verification=tuple(records),
    )


def selftest() -> list[tuple[str, bool]]:
    rng = np.random.default_rng(20240812)
    checks = []

    ok = True
    for _ in range(20):
        zs = tuple(0.95 * rng.uniform(0, 1) * np.exp(1j * rng.uniform(-np.pi, np.pi))
                   for _ in range(5))
        b = BlaschkeProduct(zs, rng.uniform(-3, 3))
        theta = rng.uniform(-np.pi, np.pi, 64)
        ok = ok and float(np.max(np.abs(np.abs(b(np.exp(1j * theta))) - 1))) < 1e-12
    checks.append(("boundary modulus one", ok))

    ok = True
    for _ in range(10):
        zs = tuple(0.7 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) for _ in range(4))
        b = BlaschkeProduct(zs)
        c = 0.6 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        bt = compose_with_mobius(b, c)
        m = MobiusAut(c)
        pts = 0.9 * rng.uniform(0, 1, 50) * np.exp(1j * rng.uniform(-np.pi, np.pi, 50))
        ok = ok and float(np.max(np.abs(b(m.apply(pts)) - bt(pts)))) < 1e-11
    checks.append(("composition transports zeros", ok))

    ok = True
    for _ in range(10):
        zs = tuple(1 - abs(rng.normal(0, 0.02)) - 0.001 for _ in range(6))
        b = BlaschkeProduct(zs)
        eta = 0.5
        bound = modulus_lower_bound(b, eta)
        ok = ok and min_modulus_on_disc(b, eta) >= bound
    checks.append(("modulus lower bound is sound", ok))

    seq = DiscSequence((0 + 0j, 0.5 + 0j))
    const, tails = carleson_diagnostics(seq)
    checks.append(("two point separation", abs(const - 0.5) < 1e-15 and len(tails) == 2))
    return checks
