"""Limit behavior of functions recentered along interior sequences.

Recentering f at c means sampling f((z + c)/(1 + conj(c) z)) on a fixed
compact grid.  As c runs out along a sequence these samples exhibit the
normal-families convergence driving the interpolation picture; the helpers
here record the samples, check the invariant-derivative identity at Blaschke
zeros, and measure how far a product sits from the identity map in the
boundary L2 norm after recentering.
"""

import math

import numpy as np

from .blaschke import BlaschkeProduct, DiscSequence, compose_with_mobius
from .disc_geometry import MobiusAut, check_disc
from .errors import AliasingError, DomainError
from .quadrature import (DEFAULT_FFT_NODES, DEFAULT_GRID_RADIUS, DEFAULT_GRID_SIZE,
                         MIN_FFT_NODES, circle_nodes, polar_grid)
from .records import Record
from .serialize import csv_rows

GRID_ANGULAR = 8

ALIAS_TOL = 1e-3
# rounding allowed above one in schwarz_check's invariant derivative
INVARIANT_SLACK = 1e-9


def disc_grid(grid_size: int = DEFAULT_GRID_SIZE,
              max_radius: float = DEFAULT_GRID_RADIUS) -> np.ndarray:
    """Deterministic polar grid on |z| <= max_radius, ring-major order, with
    eight angles per ring and at least grid_size points."""
    if grid_size < 1:
        raise DomainError("grid needs at least one point")
    if not (0 < max_radius < 1):
        raise DomainError("max_radius must lie in (0, 1)")
    radial = -(-grid_size // GRID_ANGULAR)
    return polar_grid(max_radius * np.arange(1, radial + 1) / radial, GRID_ANGULAR)


class CompositionTrace(Record):
    """Samples of the recentered function f o L_{c_j} on a fixed grid.

    samples[j] holds the raw grid values for c_values[j]; no normalization
    is applied.
    """

    c_values: tuple
    grid: np.ndarray
    samples: np.ndarray

    def to_csv(self) -> str:
        """One line per sample by one % over one template; the grid columns
        are formatted once and lead each recentering point's lines."""
        grid = csv_rows((self.grid.real, self.grid.imag)).splitlines()
        lead = np.array([line + "," for line in grid], dtype=object)
        points = np.array([f"{j}," for j in range(len(self.c_values))], dtype=object)
        samples = self.samples.ravel()
        return "grid_re,grid_im,j,re,im\n" + csv_rows(
            (samples.real, samples.imag), (np.tile(lead, len(points)), points.repeat(len(lead))))


def compose_trace(f, seq: DiscSequence, grid_radius: float = DEFAULT_GRID_RADIUS,
                  grid_size: int = DEFAULT_GRID_SIZE) -> CompositionTrace:
    """Record f recentered along the sequence on a compact polar grid; f is
    called once, on the (len(seq), grid size) array of recentred points."""
    cs = seq.points
    if len(cs) < 2:
        raise DomainError("need at least two recentering points")
    pts = disc_grid(grid_size, grid_radius)
    samples = np.asarray(f(np.array([MobiusAut(c).apply(pts) for c in cs])), dtype=complex)
    return CompositionTrace(cs, pts, samples)


class SchwarzRow(Record):
    """Invariant-derivative data for the product B over a sequence at one of
    its points c.

    derivative_invariant is (1 - |c|^2) |B'(c)|.  Since c is a zero of B,
    value vanishes up to rounding and the invariant equals separation_tail,
    the pseudo-hyperbolic separation of c from the other points; gap is how
    far the two computations differ.
    """

    index: int
    point: complex
    value: complex
    derivative_invariant: float
    separation_tail: float

    @property
    def gap(self) -> float:
        return abs(self.derivative_invariant - self.separation_tail)


def schwarz_check(seq: DiscSequence) -> list[SchwarzRow]:
    """Evaluate the invariant derivative of the product over the sequence at
    each of its points, beside the matching separation tail for an exact
    cross-check of the derivative identity.

    Schwarz-Pick keeps the invariant at most one, so a value above
    1 + INVARIANT_SLACK means the evaluation lost accuracy; DomainError names
    the first such point.
    """
    b = BlaschkeProduct(seq.points)
    # the product's zeros are the points, so it reads their 1 - |c|^2 from the sequence
    vars(b)["one_minus_abs2"] = seq.one_minus_abs2
    tails = seq.separation_tails
    pts = np.array(seq.points, dtype=complex)
    values = b(pts)
    inv = seq.one_minus_abs2 * np.abs(b.derivative(pts))
    bad = np.flatnonzero(inv > 1 + INVARIANT_SLACK)
    if bad.size:
        j = int(bad[0])
        raise DomainError(
            f"invariant derivative {float(inv[j])} exceeds one at point {j}; "
            "evaluation is unreliable this close to the boundary")
    return [SchwarzRow(j, c, complex(values[j]), float(inv[j]), float(tails[j]))
            for j, c in enumerate(seq.points)]


class L2Report(Record):
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

    def to_dict(self) -> dict:
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
    vals = b(np.exp(1j * circle_nodes(n_fft)))
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
