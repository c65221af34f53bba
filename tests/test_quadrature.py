"""The Gauss-Legendre panel kernel against the per-interval np.linspace form
it replaced: nodes, weights and counts agree bit for bit, and so do the
integrals and density fits built on them."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corona_lab import measures
from corona_lab.functions import FunctionSpec
from corona_lab.measures import fit_simple_density
from corona_lab.quadrature import GL_ORDER, gauss_legendre_panels, gl_rule, integrate_piecewise

TWO_PI = 2 * math.pi


def oracle_panels(intervals, panels):
    """One np.linspace per interval, panels[k] panels on interval k."""
    edges = [np.linspace(a, b, n + 1) for (a, b), n in zip(intervals, panels)]
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    half = (hi - lo) / 2
    gl_x, gl_w = gl_rule()
    nodes = ((lo + hi) / 2)[:, None] + half[:, None] * gl_x
    return nodes.ravel(), (half[:, None] * gl_w).ravel()


def oracle_kernel(start, stop, per_circle):
    """The kernel's contract with the counts computed one interval at a time."""
    intervals = list(zip(start.tolist(), stop.tolist()))
    panels = [max(1, math.ceil((b - a) / TWO_PI * per_circle)) for a, b in intervals]
    return (*oracle_panels(intervals, panels), np.array(panels))


def oracle_piecewise(f, breakpoints, nodes):
    """integrate_piecewise with its segments and panel counts built in Python."""
    brk = sorted({float(b) for b in breakpoints} | {-np.pi, np.pi})
    segments = list(zip(brk, brk[1:]))
    panels = [max(1, int(np.ceil((b - a) / (2 * np.pi) * nodes / GL_ORDER)))
              for a, b in segments]
    x, w = oracle_panels(segments, panels)
    return complex(np.sum(np.asarray(f(x), dtype=complex) * w) / (2 * np.pi))


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


_start = st.floats(-math.pi, math.pi)
# from the smallest subnormal up to the full circle
_width = st.floats(5e-324, TWO_PI)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_start, _width), min_size=1, max_size=12),
       st.integers(1, 100))
def test_kernel_matches_per_interval_linspace(starts_widths, per_circle):
    # a + w may round back to a: zero-width intervals take linspace's step == 0
    # branch; widths of whole panels put the count's ceil next to an integer
    intervals = [(a, a + w) for a, w in starts_widths]
    a = starts_widths[0][0]
    intervals += [(a, a + k * TWO_PI / per_circle) for k in range(1, per_circle + 1)]
    x, w, counts = gauss_legendre_panels(*np.array(intervals).T, per_circle)
    ox, ow, ocounts = oracle_kernel(*np.array(intervals).T, per_circle)
    assert np.array_equal(counts, ocounts)
    _same_bits(x, ox)
    _same_bits(w, ow)


@settings(max_examples=300, deadline=None)
@given(_start, st.floats(0.0, TWO_PI, exclude_min=True), st.integers(4, 2 ** 22))
def test_nodes_over_gl_order_gives_the_old_piecewise_counts(a, width, nodes):
    # GL_ORDER is a power of two, so dividing nodes by it first rounds nothing
    b = a + width
    old = max(1, int(np.ceil((b - a) / (2 * np.pi) * nodes / GL_ORDER)))
    _, _, counts = gauss_legendre_panels(np.array([a]), np.array([b]), nodes / GL_ORDER)
    assert counts.tolist() == [old]


def test_piecewise_integral_equals_the_oracle():
    rng = np.random.default_rng(1307)

    def f(t):
        return np.exp(1j * t) * (1 + np.where(np.cos(3 * t) > 0, t, -t ** 2))

    for trial in range(60):
        brk = rng.uniform(-np.pi, np.pi, int(rng.integers(0, 40))).tolist()
        brk += brk[: trial % 4]                         # duplicate breakpoints
        if trial % 3 == 0:
            brk += [-np.pi, np.pi, 0.0, -0.0, brk[0] + 1e-16 if brk else 1.0]
        nodes = int(rng.choice([4, 16, 100, 1000, 4096]))
        assert integrate_piecewise(f, brk, nodes) == oracle_piecewise(f, brk, nodes)


def test_density_fit_equals_the_oracle(monkeypatch):
    rng = np.random.default_rng(1311)
    targets = [(FunctionSpec.polynomial([0] * k + [1]), complex(0.3 / k, -0.1))
               for k in range(1, 5)]
    partitions = []
    for m in (1, 3, 16, 64, 256):
        edges = np.sort(rng.uniform(-np.pi, np.pi, m + 1)).tolist()
        partitions.append(list(zip(edges, edges[1:])))
    got = [fit_simple_density(targets, bins, eps=2.5) for bins in partitions]
    monkeypatch.setattr(measures, "gauss_legendre_panels", oracle_kernel)
    want = [fit_simple_density(targets, bins, eps=2.5) for bins in partitions]
    assert got == want
