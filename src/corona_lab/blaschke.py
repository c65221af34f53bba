"""Finite Blaschke products and the sector ladder construction.

A product is determined by its zero list and a rotation; the factor for a
zero a is (conj(a)/|a|) (a - z) / (1 - conj(a) z), with the convention that
the unimodular prefactor is -1 when a = 0, so the factor degenerates to z.
"""

import math
from functools import cached_property

import numpy as np

from .disc_geometry import (MobiusAut, canonical_angle, check_disc, one_minus_abs2, pointwise,
                            pseudo_hyperbolic)
from .errors import ConstructionError, DomainError
from .quadrature import polar_grid
from .records import Record
from .serialize import complex_list, strict_keys

# zeros per complex division in _groups' blocks
BLOCK = 8
# _groups: most entries in one group's (blocks x points) arrays
GROUP_ENTRIES = 2 ** 11
# carleson_diagnostics: entries per block of its pseudo-distance matrix
TAIL_BLOCK = 2 ** 18

# verification grid used when measuring minima of |B| over a closed disc
MIN_GRID_RADIAL = 25
MIN_GRID_ANGULAR = 64
# min_modulus_on_disc: the far part's share of the zeros' gap sum
FAR_SHARE = 0.1
# min_modulus_on_disc: relative slack per zero in the candidate test, and the
# least near minimum times floor at which that slack holds
SLACK_PER_ZERO = 2.0 ** -45
TINY = 2.0 ** -500


def _unimodular_prefactor(a: complex) -> complex:
    if a == 0:
        return -1.0 + 0j
    # an exact power-of-two scale keeps abs() out of the subnormal range
    a = a * 2.0 ** 600
    return a.conjugate() / abs(a)


def _groups(zeros, gaps, z, slope):
    """The zeros of a product a group of whole BLOCKs at a time, gaps[k] the
    zero's one_minus_abs2: for each group, (blocks x points) arrays of each
    block's N = prod (a - z) and Dn = prod s, s = (1 - |a|^2) + conj(a) (a - z),
    and with slope also Z = sum_k g_k prod_{j != k} (a_j - z) s_j, so that
    the block's factors are N / Dn and their derivative -Z / Dn^2.

    Each denominator is formed as (1 - |a|^2) + conj(a) (a - z): with
    1 - |a|^2 rounded once, both terms are at most 2 |1 - conj(a) z| on
    the closed disc, so it keeps its relative accuracy where
    1 - conj(a) z cancels (z near a zero close to the circle).  There
    1 - |a| <= |1 - conj(a) z| <= 2 and |a - z| <= |1 - conj(a) z|, so
    (1 - |a|)^BLOCK <= |Dn| <= 2^BLOCK never leaves the normal range, and
    N = (block value) Dn is subnormal only where the block's value is
    below 2^-1022 / |Dn|.  An exact zero gives exactly N = 0, and Z, which
    carries Z <- Z (a - z) s + g N Dn, never divides by a - z; Z / Dn and
    Z / Dn^2 = -F' are in range wherever the derivative F' is.

    A group holds GROUP_ENTRIES // len(z) blocks, or as many as the zeros
    fill, and step j of every block in a group is one numpy call on a
    (blocks x points) array, so that a few points do not pay numpy's
    per-call overhead once per zero.  Above GROUP_ENTRIES / 2 points, or
    below two full blocks, a group is one block: scalar zeros against 1-D
    rows, numpy's fastest form there.  Each element gets the same
    operations in the same order at any group size: products in zero
    order, a block's first denominator conj(a) (a - z) and the others
    (a - z) conj(a) (under FMA the complex product is not commutative in
    bits).  Every step is elementwise, so a point's values do not depend
    on the other points or on the group size.  The arrays are views into
    buffers that the next group reuses.
    """
    zeros = np.asarray(zeros, dtype=complex)
    blocks = max(1, min(GROUP_ENTRIES // max(z.size, 1), zeros.size // BLOCK))
    wide = blocks > 1
    if wide:
        # step j of a group's blocks takes their zeros as a column slice
        a = zeros[:, None]
        conj_a, g = a.conj(), np.asarray(gaps, dtype=complex)[:, None]
    else:
        a, conj_a, g = zeros.tolist(), zeros.conj().tolist(), np.asarray(gaps).tolist()
    buffers = [np.empty((blocks, z.size) if wide else z.shape, dtype=complex)
               for _ in range(5 if slope else 3)]
    for begin in range(0, zeros.size, blocks * BLOCK):
        end = min(begin + blocks * BLOCK, zeros.size)
        k = len(range(begin, end, BLOCK))
        rows = [buf[:k] for buf in buffers] if wide else buffers
        num, den = rows[:2]
        # the last block is short of zeros from step `last` on
        last = end - (k - 1) * BLOCK
        at = slice(begin, end, BLOCK) if wide else begin
        np.subtract(a[at], z, out=num)
        np.multiply(conj_a[at], num, out=den)
        den += g[at]
        if slope:
            np.copyto(rows[3], g[at])
        for j in range(begin + 1, min(begin + BLOCK, end)):
            at = slice(j, end, BLOCK) if wide else j
            step = rows if j < last else [row[:-1] for row in rows]
            if slope:
                n, d, t, zs, w = step
                # Z <- Z (a - z) s + g N Dn, N and Dn over the zeros before a
                np.multiply(n, d, out=w)
                w *= g[at]
                zs *= np.subtract(a[at], z, out=t)
                n *= t
                t *= conj_a[at]
                t += g[at]
                zs *= t
                zs += w
            else:
                n, d, t = step
                n *= np.subtract(a[at], z, out=t)
                t *= conj_a[at]
                t += g[at]
            d *= t
        group = rows[:2] + rows[3:4]        # N, Dn and, with slope, Z
        yield group if wide else [row[None] for row in group]


@pointwise(complex)
def _factor_product(start, zeros, gaps, z):
    """start * prod_k (a_k - z) / (1 - conj(a_k) z), BLOCK factors per complex
    division, gaps[k] the zero's one_minus_abs2.

    _groups gives each block's N and Dn; the block quotients N / Dn multiply
    into start in block order, the same bits at any group size.
    """
    out = np.full(z.shape, start, dtype=complex)
    for group, (num, den) in enumerate(_groups(zeros, gaps, z, False)):
        num /= den
        # reduce multiplies its rows into the initial value in order; it
        # takes no array for one, so later groups' rows go in one by one, as
        # does a lone row, for which reduce is the slower
        if group == 0 and len(num) > 1:
            out = np.multiply.reduce(num, axis=0, initial=start)
        else:
            for q in num:
                out *= q
    return out


class BlaschkeProduct(Record):
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

    @cached_property
    def one_minus_abs2(self) -> np.ndarray:
        """1 - |a|^2 of each zero, formed once per product."""
        return np.array([one_minus_abs2(a) for a in self.zeros])

    @cached_property
    def _constant(self) -> complex:
        """The unimodular constant e^{i rotation} prod u_k, formed once."""
        constant = np.exp(1j * self.rotation)
        for a in self.zeros:
            constant *= _unimodular_prefactor(a)
        return constant

    def __call__(self, z):
        """Values at z: the unimodular constant times _factor_product over the zeros."""
        return _factor_product(self._constant, self.zeros, self.one_minus_abs2, z)

    @pointwise(complex)
    def derivative(self, z):
        """Analytic derivative by the product rule; valid at zeros too.

        Each block of zeros from _groups gives its factors F = N / Dn and
        their derivative F' = -Z / Dn^2 from one complex division, 1 / Dn;
        the blocks carry the partial product P, from the unimodular
        constant, and its derivative D through D <- D F + P F', P <- P F in
        block order.  No step divides by a - z.
        """
        p = np.full(z.shape, self._constant, dtype=complex)
        d = np.zeros(z.shape, dtype=complex)
        for num, den, zsum in _groups(self.zeros, self.one_minus_abs2, z, True):
            np.divide(1.0, den, out=den)
            num *= den
            zsum *= den
            zsum *= den
            for f, h in zip(num, zsum):
                d *= f
                h *= p
                d -= h
                p *= f
        return d


def min_modulus_on_disc(zeros, radius: float) -> float:
    """Measured minimum of prod_k |(a_k - z)/(1 - conj(a_k) z)| over a polar
    grid on the closed disc of the given radius.

    A grid minimum is at least the true minimum, so it is a measurement, not
    a lower bound; modulus_lower_bound gives a bound.  The value is the
    grid minimum of _factor_product started from 1, found without
    evaluating every zero at every grid point:

    * the far part, the zeros of smallest gap 1 - |a| whose gap sum stays
      below FAR_SHARE of the whole, keeps its modulus above the floor
      _gap_sum_floor gives on the grid's closed disc;
    * the near part, the other zeros, is evaluated on the whole grid;
    * the full product is evaluated only where near * floor is at most the
      near part's minimum times 1 + slack.  There alone can the grid
      minimum lie: the far part's modulus is at most 1, and the slack
      covers the relative rounding of both evaluations, which stays below
      SLACK_PER_ZERO per zero while the near minimum times the floor is
      above TINY, so that no value the kernel forms is subnormal.  Below
      TINY every grid point is evaluated.

    The kernel is elementwise, so the result equals the minimum over the
    whole grid bit for bit.
    """
    if not (0 <= radius < 1):
        raise DomainError("radius must lie in [0, 1)")
    zeros = np.asarray(zeros, dtype=complex).ravel()
    moduli = np.hypot(zeros.real, zeros.imag)
    if not (moduli < 1).all():
        raise DomainError(f"zero must satisfy |zero| < 1, got |zero| = {moduli.max()}")
    grid = polar_grid(np.linspace(0.0, radius, MIN_GRID_RADIAL), MIN_GRID_ANGULAR)
    # the grid's points lie within a few ulps of the radius; next to the
    # circle the cap leaves the floor of any far zero at 0
    eta = min(radius * (1 + 2.0 ** -50), math.nextafter(1.0, 0.0))
    gaps = 1 - moduli
    order = np.argsort(gaps, kind="stable")
    far = np.zeros(zeros.size, dtype=bool)
    far[order[:np.searchsorted(np.cumsum(gaps[order]), FAR_SHARE * gaps.sum(), "right")]] = True
    floor = _gap_sum_floor(zeros[far], eta)
    p = np.array([one_minus_abs2(a) for a in zeros.tolist()])
    near = np.abs(_factor_product(1.0, zeros[~far], p[~far], grid))
    lowest = float(near.min())
    if lowest * floor >= TINY:
        grid = grid[near * floor <= lowest * (1 + SLACK_PER_ZERO * (zeros.size + 1))]
    return float(np.min(np.abs(_factor_product(1.0, zeros, p, grid))))


def _gap_sum_floor(zeros: np.ndarray, eta: float) -> float:
    """Lower bound for prod_k |(a_k - z)/(1 - conj(a_k) z)| on |z| <= eta,
    rounded down: max(0, 1 - (1+eta)/(1-eta) * sum_k (1 - |a_k|)).

    Each factor drops below 1 by at most (1+eta)/(1-eta) (1-|a|) there
    (Garnett, Bounded Analytic Functions, ch. I), and a product of terms
    1 - d_k is at least 1 - sum d_k.  In floating point: np.hypot errs by
    at most one ulp, so h = np.hypot less the spacing above h is at most
    |a|; math.fsum rounds the sum of the gaps from those once, and a second
    fsum of the residual rounds it up where it fell short; the rest is
    exact integer arithmetic on the binary fractions, rounded down once.
    """
    h = np.hypot(zeros.real, zeros.imag)
    below = h - (np.nextafter(h, 2) - h)
    terms = [float(h.size), *(-below).tolist()]
    total = math.fsum(terms)
    if math.fsum([*terms, -total]) > 0:
        total = math.nextafter(total, math.inf)
    p, q = float(eta).as_integer_ratio()
    s, t = total.as_integer_ratio()
    # 1 - (q+p)/(q-p) * s/t = num/den, den > 0
    num, den = (q - p) * t - (q + p) * s, (q - p) * t
    floor = num / den
    n, d = floor.as_integer_ratio()
    if n * den > num * d:
        floor = math.nextafter(floor, -math.inf)
    return max(0.0, floor)


def modulus_lower_bound(b: BlaschkeProduct, eta: float) -> float:
    """Certified lower bound for |b| on |z| <= eta.

    It is max(0, 1 - (1+eta)/(1-eta) * sum_k (1 - |zeros[k]|)), rounded
    down; _gap_sum_floor gives the inequality and its rounding.
    """
    eta = float(eta)
    if not (0 <= eta < 1):
        raise DomainError("eta must lie in [0, 1)")
    return _gap_sum_floor(np.array(b.zeros, dtype=complex), eta)


def compose_with_mobius(b: BlaschkeProduct, c) -> BlaschkeProduct:
    """Blaschke product equal to z -> b((z + c)/(1 + conj(c) z)) pointwise.

    With m = MobiusAut(c), each zero a moves to a' = m.inverse(a), and
    factor(a, m(z)) = u_a conj(d) / (d u_a') factor(a', z) with u the
    unimodular prefactor and d = 1 - conj(a) c = (1 - |c|^2) + c conj(c - a),
    the form that does not cancel; the rotation gains these constants' angles.
    """
    m = MobiusAut(c)
    moved = m.inverse(b.zeros).tolist()
    g = one_minus_abs2(m.c)
    turn = b.rotation
    for a, w in zip(b.zeros, moved):
        d = g + m.c * (m.c - a).conjugate()
        k = _unimodular_prefactor(a) * d.conjugate() / (d * _unimodular_prefactor(w))
        turn += math.atan2(k.imag, k.real)
    return BlaschkeProduct(tuple(moved), turn)


class DiscSequence(Record):
    """Finite list of interior points with cached interpolation diagnostics."""

    points: tuple

    def __post_init__(self):
        pts = tuple(check_disc(z, "point") for z in self.points)
        if not pts:
            raise DomainError("sequence must be nonempty")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def gap_sum(self) -> float:
        """sum_k (1 - |z_k|), each term as (1 - |z_k|^2)/(1 + |z_k|), which does not cancel."""
        return float(sum(p / (1 + abs(z)) for z, p in zip(self.points, self.one_minus_abs2)))

    @cached_property
    def one_minus_abs2(self) -> np.ndarray:
        """1 - |z_k|^2 for every point, each rounded once."""
        return np.array([one_minus_abs2(z) for z in self.points])

    @cached_property
    def separation_tails(self) -> tuple:
        return tuple(carleson_diagnostics(self)[1])

    @cached_property
    def carleson_constant(self) -> float:
        return min(self.separation_tails)

    @classmethod
    def from_dict(cls, d: dict, where: str = "sequence") -> "DiscSequence":
        strict_keys(d, required=("points",), where=where)
        return cls(tuple(complex_list(d["points"], f"{where}.points")))


def carleson_diagnostics(seq: DiscSequence) -> tuple[float, list[float]]:
    """Separation constant and per-point tails of an interior sequence.

    tails[k] = prod_{j != k} pseudo_distance(z_j, z_k), the product taken in
    row order down column k of a pseudo_hyperbolic matrix built TAIL_BLOCK
    entries of columns at a time, its diagonal set to one; the constant is
    the minimum tail.  Duplicate points give a zero constant.
    """
    z = np.array(seq.points, dtype=complex)
    p = seq.one_minus_abs2
    width = max(1, TAIL_BLOCK // len(z))
    tails = np.empty(len(z))
    for start in range(0, len(z), width):
        cols = slice(start, start + width)
        dist, _ = pseudo_hyperbolic(z[:, None], p[:, None], z[cols], p[cols])
        np.fill_diagonal(dist[start:], 1.0)
        tails[cols] = np.prod(dist, axis=0)
    return float(tails.min()), tails.tolist()


class Sector(Record):
    """The home sector S[ell, 1) = {r e^{i t} : ell <= r < 1, |t| <= (1 - ell)/2}."""

    ell: float

    def __post_init__(self):
        ell = float(self.ell)
        if not (0 < ell < 1):
            raise DomainError("ell must lie in (0, 1)")
        object.__setattr__(self, "ell", ell)

    @property
    def half_angle(self) -> float:
        return (1 - self.ell) / 2

    @pointwise(complex)
    def contains(self, z):
        """Membership of each point: the modulus from np.hypot, the angle
        from libm's atan2, not numpy's SIMD loop."""
        r = np.hypot(z.real, z.imag)
        angles = np.array([math.atan2(w.imag, w.real) for w in z.tolist()])
        return (self.ell <= r) & (r < 1.0) & (np.abs(angles) <= self.half_angle)


class RungRecord(Record):
    """Verification row for one rung: measured minimum on |z| <= eta."""

    rung: int
    eta: float
    eps: float
    min_modulus: float


class LadderConstruction(Record):
    """Result of the staged sector construction.

    s_values has one more entry than r_values; the covered region is the
    sector ring from s_values[0] to s_values[-1], split alternately into the
    kept bands [s_j, r_j) and the excluded bands [r_j, s_{j+1}).  It holds
    the zero sets of the construction's two candidate products, bands with
    the odd gaps and bands with the even gaps, each times the thin part over
    chosen_points; a caller assembles one as
    BlaschkeProduct(bands + gaps + chosen_points).
    """

    ell: float
    s_values: tuple
    r_values: tuple
    chosen_indices: tuple
    chosen_points: tuple
    partition: tuple          # three zero tuples: bands, odd gaps, even gaps
    verification: tuple       # RungRecord per rung

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
    transported gap sum, the sum of 1 - pseudo_distance(a, c_j) over the
    rung's zeros a, below delta_j = eps_j (1 - eta_j)/(1 + eta_j), which
    certifies a modulus lower bound above 1 - eps_j.  The candidate scan and
    the choice of the next inner radius each take half of delta_j:

    * pick the first unused candidate whose transported gap sum over the
      inner band S[ell, r_j) is below delta_j / 2;
    * pick the smallest zero modulus above r_j whose transported tail sum is
      below delta_j / 2; if none qualifies, jump past the outermost zero.

    Every stage is verified by measuring the grid minimum of |B o L_{c_j}|
    on |z| <= eta_j, B the product over the zeros outside the rung's
    excluded band.  Each factor's modulus is Mobius invariant, so
    min_modulus_on_disc takes the zeros transported by c_j and evaluates
    the whole product only at the grid points where the minimum can lie.
    Failure to find a candidate raises ConstructionError naming the rung.
    """
    home = Sector(ell)
    eps_seq = [float(e) for e in eps_seq]
    eta_seq = [float(e) for e in eta_seq]
    if len(eps_seq) != len(eta_seq) or not eps_seq:
        raise DomainError("eps and eta schedules must have equal nonzero length")
    if any(not (0 < e < 1) for e in eps_seq) or any(e2 >= e1 for e1, e2 in zip(eps_seq, eps_seq[1:])):
        raise DomainError("eps schedule must be strictly decreasing inside (0, 1)")
    if any(not (0 < h < 1) for h in eta_seq) or any(h2 <= h1 for h1, h2 in zip(eta_seq, eta_seq[1:])):
        raise DomainError("eta schedule must be strictly increasing inside (0, 1)")

    zeros = tuple(check_disc(z, "zero") for z in zeros)
    zs = np.array(zeros, dtype=complex)
    outside = np.flatnonzero(~home.contains(zs))
    if outside.size:
        raise DomainError(f"zero {zeros[outside[0]]} lies outside the home sector")
    moduli = np.hypot(zs.real, zs.imag)
    order = np.argsort(moduli, kind="stable")
    by_modulus = zs[order]
    mods = moduli[order]
    p_by_modulus = np.array([one_minus_abs2(z) for z in zeros])[order]
    # tail sums start at the first zero of each modulus, so tied zeros
    # (conjugate pairs) enter a tail together
    tail_start = np.searchsorted(mods, mods, "left")
    outermost = float(mods[-1]) if mods.size else 0.0

    s_values = [home.ell]
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

        inner = np.searchsorted(mods, r_j, "left")
        pick = None
        for n in range(next_candidate, len(candidates)):
            _, gaps = pseudo_hyperbolic(by_modulus[:inner], p_by_modulus[:inner],
                                        candidates.points[n], candidates.one_minus_abs2[n])
            if float(np.sum(gaps)) < delta / 2:
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

        _, gaps = pseudo_hyperbolic(by_modulus, p_by_modulus, c, candidates.one_minus_abs2[pick])
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

        moved = MobiusAut(c).inverse(zs[(moduli < r_j) | (moduli >= s_next)])
        measured = min_modulus_on_disc(moved, eta)
        records.append(RungRecord(j, eta, eps, measured))

    # slot k of the cuts s_0, r_0, s_1, ..., s_m is band k/2 for an even k, else the gap
    # after rung k//2, odd or even by its parity; zeros outside [s_0, s_m) stay out
    cuts = np.empty(2 * len(r_values) + 1)
    cuts[0::2], cuts[1::2] = s_values, r_values
    slots = np.searchsorted(cuts, moduli, "right") - 1
    partition = ([], [], [])
    for z, k in zip(zeros, slots.tolist()):
        if 0 <= k < len(cuts) - 1:
            partition[0 if k % 2 == 0 else 1 + k // 2 % 2].append(z)

    return LadderConstruction(
        ell=home.ell,
        s_values=tuple(s_values),
        r_values=tuple(r_values),
        chosen_indices=tuple(chosen_indices),
        chosen_points=tuple(chosen_points),
        partition=tuple(tuple(part) for part in partition),
        verification=tuple(records),
    )
