"""Quadrature over the unit circle against normalized arc length dm, and the
one module that knows how the program samples the circle and the disc:
every uniform angle set is circle_nodes and every polar grid is polar_grid.

Two rules, picked by integrand smoothness: the uniform-node rule converges
geometrically for periodic analytic integrands, and the piecewise rule
handles step-density weights by placing Gauss-Legendre panels between the
discontinuities.
"""

import functools

import numpy as np

from .errors import DomainError

DEFAULT_NODES = 4096
GL_ORDER = 16
# sampling defaults the library and the CLI share: the fewest and the default
# uniform nodes of the boundary FFT (hoffman.l2_distance_to_identity), the
# size and outer radius of hoffman's recentering grid (disc_grid), and the
# random points of corona.check_certificate
MIN_FFT_NODES = 256
DEFAULT_FFT_NODES = 4096
DEFAULT_GRID_SIZE = 40
DEFAULT_GRID_RADIUS = 0.9
CHECK_SAMPLES = 10000


@functools.cache
def gl_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the GL_ORDER-point Gauss-Legendre rule on [-1, 1],
    built on first use: numpy.polynomial loads only where panels are built."""
    return np.polynomial.legendre.leggauss(GL_ORDER)


def circle_nodes(n: int) -> np.ndarray:
    """n uniform angles on [-pi, pi), spaced 2pi/n, from -pi."""
    return np.linspace(-np.pi, np.pi, n, endpoint=False)


def polar_grid(radii, angular: int) -> np.ndarray:
    """Points radii[i] e^{i theta_j}, ring-major, theta = circle_nodes(angular)."""
    return (radii[:, None] * np.exp(1j * circle_nodes(angular))[None, :]).ravel()


def integrate_uniform_checked(f, nodes: int = DEFAULT_NODES) -> tuple[complex, float]:
    """Uniform rule plus an error estimate from comparing with half the nodes."""
    if nodes < 4 or nodes % 2:
        raise DomainError("checked rule needs an even node count >= 4")
    theta = circle_nodes(nodes)
    vals = np.asarray(f(theta), dtype=complex)
    full = complex(np.mean(vals))
    half = complex(np.mean(vals[::2]))
    return full, abs(full - half)


def gauss_legendre_panels(start, stop, per_circle) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, weights and panel counts of every interval's Gauss-Legendre panels.

    start and stop are float arrays.  Interval k, (a, b) = (start[k],
    stop[k]), is cut into counts[k] = max(1, ceil((b - a)/2pi * per_circle))
    equal panels of GL_ORDER nodes, so its nodes fill the next
    GL_ORDER * counts[k] entries; the weights integrate against d(theta).
    The panel edges are i * step + a, step = (b - a) / counts[k], with the
    last edge b: np.linspace(a, b, counts[k] + 1) to the bit.  linspace's
    other branch, for step == 0, cannot give other bits: with one panel it
    computes the same products, and two or more panels need
    b - a > 2pi / per_circle, which leaves step near pi / per_circle or above.
    """
    delta = stop - start
    counts = np.maximum(1, np.ceil(delta / (2 * np.pi) * per_circle)).astype(np.intp)
    ends = np.cumsum(counts)
    owner = np.repeat(np.arange(len(counts)), counts)
    i = np.arange(ends[-1]) - (ends - counts)[owner]
    lo = i * (delta / counts)[owner] + start[owner]
    # each panel ends where the next one of its interval starts, the last at b
    hi = np.empty_like(lo)
    hi[:-1] = lo[1:]
    hi[ends - 1] = stop
    half = (hi - lo) / 2
    gl_x, gl_w = gl_rule()
    nodes = ((lo + hi) / 2)[:, None] + half[:, None] * gl_x
    return nodes.ravel(), (half[:, None] * gl_w).ravel(), counts


def integrate_piecewise(f, breakpoints, nodes: int = DEFAULT_NODES) -> complex:
    """Integrate f dm with Gauss-Legendre panels between the breakpoints.

    Breakpoints are angles in [-pi, pi] where f may jump.  The distinct ones,
    with -pi and pi, cut [-pi, pi] into segments of nonzero width, so no
    segment wraps past pi; each is subdivided so roughly `nodes` evaluations
    are spent in total.  f is called once, on every node of every segment.
    Every node is clipped into its half-open segment [a, b): on a segment a
    few ulps wide an outer node may round onto b, where a step integrand
    already reads the next segment.
    """
    brk = np.sort(np.append(np.asarray(breakpoints, dtype=float), (-np.pi, np.pi)))
    brk = brk[np.append(True, brk[1:] != brk[:-1])]
    start, stop = brk[:-1], brk[1:]
    x, w, counts = gauss_legendre_panels(start, stop, nodes / GL_ORDER)
    per_segment = counts * GL_ORDER
    x = np.clip(x, np.repeat(start, per_segment),
                np.repeat(np.nextafter(stop, -np.inf), per_segment))
    return complex(np.sum(np.asarray(f(x), dtype=complex) * w) / (2 * np.pi))
