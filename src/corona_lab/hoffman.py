"""Limit behavior of functions recentered along interior sequences.

Recentering f at c means sampling f((z + c)/(1 + conj(c) z)) on a fixed
compact grid.  As c runs out along a sequence these samples exhibit the
normal-families convergence driving the interpolation picture; the helpers
here record the samples, check the invariant-derivative identity at Blaschke
zeros, and measure how far a product sits from the identity map in the
boundary L2 norm after recentering.
"""

import math
from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, DiscSequence, _one_minus_abs2, compose_with_mobius
from .disc_geometry import MobiusAut, check_disc
from .errors import AliasingError, DomainError
from .serialize import csv_rows

DEFAULT_GRID_RADIUS = 0.9
DEFAULT_GRID_SIZE = 40
GRID_ANGULAR = 8

CAUCHY_TOL = 1e-6

DEFAULT_FFT_NODES = 4096
MIN_FFT_NODES = 256
ALIAS_TOL = 1e-3


def disc_grid(grid_size: int = DEFAULT_GRID_SIZE,
              max_radius: float = DEFAULT_GRID_RADIUS) -> np.ndarray:
    """Deterministic polar grid on |z| <= max_radius, ring-major order, with
    eight angles per ring and at least grid_size points."""
    if grid_size < 1:
        raise DomainError("grid needs at least one point")
    if not (0 < max_radius < 1):
        raise DomainError("max_radius must lie in (0, 1)")
    radial = -(-grid_size // GRID_ANGULAR)
    radii = max_radius * np.arange(1, radial + 1) / radial
    angles = 2 * np.pi * np.arange(GRID_ANGULAR) / GRID_ANGULAR - np.pi
    return (radii[:, None] * np.exp(1j * angles[None, :])).ravel()


@dataclass(frozen=True)
class CompositionTrace:
    """Samples of the recentered function f o L_{c_j} on a fixed grid.

    samples[j] holds the raw grid values for c_values[j]; no normalization
    is applied.  cauchy_profile[j] is the sup over the grid of
    |samples[j+1] - samples[j]|; settled_indices lists the j whose step
    stays below the threshold, and tail_start is the first index after
    which every later step is settled (None when the profile never
    settles).
    """

    c_values: tuple
    grid: np.ndarray
    samples: np.ndarray
    cauchy_profile: tuple
    settled_indices: tuple
    tail_start: int | None

    def to_csv(self) -> str:
        """One line per sample; the grid columns are formatted once."""
        grid = csv_rows((self.grid.real, self.grid.imag)).splitlines()
        samples = self.samples.ravel()
        values = iter(csv_rows((samples.real, samples.imag)).splitlines())
        return "grid_re,grid_im,j,re,im\n" + "".join(
            f"{g},{j},{next(values)}\n" for j in range(len(self.c_values)) for g in grid)


def compose_trace(f, seq, grid_radius: float = DEFAULT_GRID_RADIUS,
                  grid_size: int = DEFAULT_GRID_SIZE,
                  tol: float = CAUCHY_TOL) -> CompositionTrace:
    """Record f recentered along the sequence on a compact polar grid."""
    cs = tuple(check_disc(c, "c") for c in getattr(seq, "points", seq))
    if len(cs) < 2:
        raise DomainError("need at least two recentering points")
    pts = disc_grid(grid_size, grid_radius)
    samples = np.empty((len(cs), pts.size), dtype=complex)
    for j, c in enumerate(cs):
        samples[j] = np.asarray(f(MobiusAut(c).apply(pts)), dtype=complex)
    profile = tuple(
        float(np.max(np.abs(samples[j + 1] - samples[j])))
        for j in range(len(cs) - 1))
    settled = tuple(j for j, d in enumerate(profile) if d < tol)
    tail_start = None
    for t in range(len(profile) - 1, -1, -1):
        if profile[t] < tol:
            tail_start = t
        else:
            break
    return CompositionTrace(cs, pts, samples, profile, settled, tail_start)


@dataclass(frozen=True)
class SchwarzRow:
    """Invariant-derivative data for a product at one sequence point.

    derivative_invariant is (1 - |c|^2) |B'(c)|.  When c is a zero of B the
    value vanishes and the invariant equals the pseudo-hyperbolic separation
    of c from the remaining zeros; a nonzero value is a diagnostic that c is
    not on the zero list.
    """

    index: int
    point: complex
    value: complex
    derivative_invariant: float
    separation_tail: float | None

    @property
    def gap(self) -> float:
        if self.separation_tail is None:
            return math.nan
        return abs(self.derivative_invariant - self.separation_tail)


def schwarz_check(seq: DiscSequence, b: BlaschkeProduct | None = None,
                  tol: float = 1e-9) -> list[SchwarzRow]:
    """Evaluate the invariant derivative of b at each sequence point.

    With b omitted, the product over the sequence itself is used, in which
    case every row also carries the matching separation tail for an exact
    cross-check of the derivative identity.
    """
    if b is None:
        b = BlaschkeProduct(seq.points)
    tails = seq.separation_tails if b.zeros == seq.points else None
    pts = np.array(seq.points, dtype=complex)
    values = b(pts)
    # 1 - |c|^2 rounded once: subtracting |c|^2 cancels next to the circle
    gaps = np.array([_one_minus_abs2(c) for c in seq.points])
    inv = gaps * np.abs(b.derivative(pts))
    bad = np.flatnonzero(inv > 1 + tol)
    if bad.size:
        j = int(bad[0])
        raise DomainError(
            f"invariant derivative {float(inv[j])} exceeds one at point {j}; "
            "evaluation is unreliable this close to the boundary")
    return [SchwarzRow(j, c, complex(values[j]), float(inv[j]),
                       float(tails[j]) if tails is not None else None)
            for j, c in enumerate(seq.points)]


@dataclass(frozen=True)
class L2Report:
    """Boundary L2 distance from a recentered product to the identity map.

    With Fourier coefficients a_k of the boundary trace and the rotation
    gamma = arg(a_1) dividing out the unimodular ambiguity, the squared
    distance is |a_0|^2 + (|a_1| - 1)^2 + sum_{k != 0,1} |a_k|^2, which
    collapses to parseval + 1 - 2|a_1|.  parseval records sum |a_k|^2 (one
    for an inner function up to rounding) and alias_energy the share of
    energy in the top half of the resolved band.  gamma is 0.0 when
    |a_1| <= 8 eps (eps = 2^-52, so 1.8e-15) at every n_fft: each
    coefficient averages unit-modulus samples rounded to a few eps, and even
    products, whose a_1 vanishes exactly, give about 4 eps at most.
    """

    distance: float
    gamma: float
    coefficients: np.ndarray
    parseval: float
    alias_energy: float
    n_fft: int

    def summary(self) -> dict:
        return {
            "distance": self.distance,
            "gamma": self.gamma,
            "parseval": self.parseval,
            "alias_energy": self.alias_energy,
            "n_fft": self.n_fft,
            "leading_moduli": np.abs(self.coefficients[:8]),
        }


def l2_distance_to_identity(b: BlaschkeProduct, c=0j,
                            n_fft: int = DEFAULT_FFT_NODES) -> L2Report:
    """Distance min_gamma || e^{-i gamma} (B o L_c) - z || in L2 of the circle.

    Recentering at c transports the zeros exactly, so the boundary trace
    stays unimodular.  Coefficients come from the FFT of uniform boundary
    samples; energy of more than ALIAS_TOL in frequencies |k| >= n_fft/4
    means the sample rate cannot represent the product and raises
    AliasingError (retry with more nodes).
    """
    if n_fft < MIN_FFT_NODES or n_fft & (n_fft - 1):
        raise DomainError(f"n_fft must be a power of two, at least {MIN_FFT_NODES}")
    c = check_disc(c, "c")
    if c != 0:
        b = compose_with_mobius(b, c)
    theta = 2 * np.pi * np.arange(n_fft) / n_fft - np.pi
    vals = b(np.exp(1j * theta))
    coeffs = np.fft.fft(vals) / n_fft
    # sampling starts at -pi, so demodulate to coefficients against e^{ik t}
    freqs = np.fft.fftfreq(n_fft, d=1.0 / n_fft)
    coeffs = coeffs * np.exp(1j * np.pi * freqs)

    energy = np.abs(coeffs) ** 2
    alias_energy = float(np.sum(energy[np.abs(freqs) >= n_fft / 4]))
    if alias_energy > ALIAS_TOL:
        raise AliasingError(
            f"energy {alias_energy:.3e} beyond a quarter of the band; "
            "increase n_fft", energy=alias_energy)

    a1 = coeffs[1]
    gamma = float(np.angle(a1)) if abs(a1) > 8 * np.finfo(float).eps else 0.0
    parseval = float(np.sum(energy))
    dist_sq = max(0.0, parseval + 1 - 2 * abs(a1))
    return L2Report(math.sqrt(dist_sq), gamma, coeffs, parseval, alias_energy, n_fft)


def selftest() -> list[tuple[str, bool]]:
    checks = []

    rep = l2_distance_to_identity(BlaschkeProduct((0j, 0j), math.pi), n_fft=256)
    checks.append(("squaring map distance", abs(rep.distance - math.sqrt(2)) < 1e-12))

    rep = l2_distance_to_identity(BlaschkeProduct((0j,)), n_fft=256)
    checks.append(("identity map distance", rep.distance < 1e-12))

    seq = DiscSequence((0.1 + 0j, 0.5 + 0j, 0.2j))
    rows = schwarz_check(seq)
    checks.append(("invariant equals separation tail",
                   max(r.gap for r in rows) < 1e-12
                   and max(abs(r.value) for r in rows) < 1e-12))

    single = schwarz_check(DiscSequence((0.37 - 0.11j,)))
    checks.append(("single factor invariant is one",
                   abs(single[0].derivative_invariant - 1) < 1e-12))

    trace = compose_trace(lambda z: np.full_like(z, 2.5), (0.9, 0.95, 0.99))
    checks.append(("constant trace is flat",
                   trace.samples.shape == (3, 40)
                   and max(trace.cauchy_profile) == 0.0
                   and trace.tail_start == 0))
    return checks
