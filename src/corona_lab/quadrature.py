"""Quadrature over the unit circle against normalized arc length dm.

Two rules, picked by integrand smoothness: the uniform-node rule converges
geometrically for periodic analytic integrands, and the piecewise rule
handles step-density weights by placing Gauss-Legendre panels between the
discontinuities.
"""

import numpy as np

from .errors import DomainError

DEFAULT_NODES = 4096
GL_ORDER = 16

_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_ORDER)


def circle_nodes(n: int) -> np.ndarray:
    if n < 2:
        raise DomainError("need at least two quadrature nodes")
    return np.linspace(-np.pi, np.pi, n, endpoint=False)


def integrate_uniform_checked(f, nodes: int = DEFAULT_NODES) -> tuple[complex, float]:
    """Uniform rule plus an error estimate from comparing with half the nodes."""
    if nodes < 4 or nodes % 2:
        raise DomainError("checked rule needs an even node count >= 4")
    theta = circle_nodes(nodes)
    vals = np.asarray(f(theta), dtype=complex)
    full = complex(np.mean(vals))
    half = complex(np.mean(vals[::2]))
    return full, abs(full - half)


def gauss_legendre_panels(intervals, panels) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of every Gauss-Legendre panel of the intervals at once.

    Interval k, (a, b), is cut into panels[k] equal panels of GL_ORDER nodes,
    so its nodes fill the next GL_ORDER * panels[k] entries; the weights
    integrate against d(theta).
    """
    edges = [np.linspace(a, b, n + 1) for (a, b), n in zip(intervals, panels)]
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    half = (hi - lo) / 2
    nodes = ((lo + hi) / 2)[:, None] + half[:, None] * _GL_X
    return nodes.ravel(), (half[:, None] * _GL_W).ravel()


def integrate_piecewise(f, breakpoints, nodes: int = DEFAULT_NODES) -> complex:
    """Integrate f dm with Gauss-Legendre panels between the breakpoints.

    Breakpoints are angles where f may jump; the full circle is covered by
    the segments between consecutive (sorted) breakpoints, each segment
    subdivided so roughly `nodes` evaluations are spent in total.  f is
    called once, on every node of every segment.
    """
    brk = sorted({float(b) for b in breakpoints})
    if not brk:
        brk = [-np.pi]
    segments = list(zip(brk, brk[1:]))
    segments.append((brk[-1], brk[0] + 2 * np.pi))
    segments = [(a, b) for a, b in segments if b - a > 1e-15]
    panels = [max(1, int(np.ceil((b - a) / (2 * np.pi) * nodes / GL_ORDER)))
              for a, b in segments]
    x, w = gauss_legendre_panels(segments, panels)
    return complex(np.sum(np.asarray(f(x), dtype=complex) * w) / (2 * np.pi))
