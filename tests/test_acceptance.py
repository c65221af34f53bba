"""Acceptance suite: twelve numbered criteria, one verdict line each.

Each test prints `criterion NN PASS|FAIL <label>` so a capture-off run
reads as a checklist; the asserts carry the same conditions.  Tolerances
and runtime budgets are part of the criteria and are asserted as stated,
not loosened.  Criterion 7 documents a trend claim that the measured
distances contradict; the test states the claim faithfully and is expected
to stay red (see the trend values in the assertion message).
"""

import math
import time

import numpy as np
import pytest

from corona_lab.blaschke import (BlaschkeProduct, DiscSequence,
                                 compose_with_mobius, construct_ladder,
                                 min_modulus_on_disc, modulus_lower_bound)
from corona_lab.corona import CoronaInstance, bezout_exact, bezout_numeric, cluster_scenario
from corona_lab.disc_geometry import MobiusAut, pseudo_disc_euclidean, pseudo_distance
from corona_lab.functions import FunctionSpec
from corona_lab.hoffman import l2_distance_to_identity, schwarz_check
from corona_lab.measures import (CASE_LEFT, CASE_RIGHT, CASE_STRADDLE,
                                 PushforwardDensity, SimpleDensity, poisson_integral,
                                 quartiles)
from corona_lab.quadrature import integrate_piecewise

from helpers import identity_function


class Budget:
    """Wall-clock guard: a criterion owns its runtime bound."""

    def __init__(self, seconds: float):
        self.limit = seconds
        self.start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def ok(self) -> bool:
        return self.elapsed() < self.limit


def verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {label}")
    assert ok, f"criterion {num} ({label}) {detail}"


def random_disc_point(rng, rmax):
    return complex(rmax * rng.uniform(0, 1)
                   * np.exp(1j * rng.uniform(-math.pi, math.pi)))


def test_criterion_01_boundary_unimodularity():
    budget = Budget(1.0)
    rng = np.random.default_rng(101)
    theta = np.linspace(-np.pi, np.pi, 1000, endpoint=False)
    worst = 0.0
    for _ in range(50):
        deg = int(rng.integers(1, 21))
        zeros = tuple(random_disc_point(rng, 0.98) for _ in range(deg))
        b = BlaschkeProduct(zeros, float(rng.uniform(-math.pi, math.pi)))
        vals = b(np.exp(1j * theta))
        worst = max(worst, float(np.max(np.abs(np.abs(vals) - 1))))
    verdict(1, "boundary unimodularity", worst < 1e-10 and budget.ok(),
            f"worst deviation {worst:.3e}, {budget.elapsed():.2f}s")


def test_criterion_02_certified_lower_bound_sound():
    budget = Budget(10.0)
    rng = np.random.default_rng(102)
    etas = [0.3, 0.5, 0.8]
    sound = True
    for i in range(50):
        count = int(rng.integers(1, 11))
        gaps = rng.uniform(0, 1, count)
        gaps = gaps / gaps.sum() * rng.uniform(0.02, 0.199)
        zeros = tuple(complex((1 - g) * np.exp(1j * rng.uniform(-math.pi, math.pi)))
                      for g in gaps)
        b = BlaschkeProduct(zeros)
        eta = etas[i % 3]
        bound = modulus_lower_bound(b, eta)
        measured = min_modulus_on_disc(b.zeros, eta)
        sound = sound and measured >= bound
    verdict(2, "certified lower bound is sound", sound and budget.ok(),
            f"{budget.elapsed():.2f}s")


def test_criterion_03_composition_transport_pointwise():
    budget = Budget(1.0)
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        deg = int(rng.integers(1, 9))
        zeros = tuple(random_disc_point(rng, 0.95) for _ in range(deg))
        b = BlaschkeProduct(zeros, float(rng.uniform(-math.pi, math.pi)))
        c = random_disc_point(rng, 0.9)
        comp = compose_with_mobius(b, c)
        m = MobiusAut(c)
        grid = np.array([random_disc_point(rng, 0.97) for _ in range(200)])
        gap = float(np.max(np.abs(comp(grid) - b(m.apply(grid)))))
        worst = max(worst, gap)
    verdict(3, "recentering agrees pointwise", worst < 1e-10 and budget.ok(),
            f"worst gap {worst:.3e}, {budget.elapsed():.2f}s")


def test_criterion_04_pseudo_disc_boundary():
    budget = Budget(1.0)
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        c = random_disc_point(rng, 0.95)
        eta = float(rng.uniform(0.05, 0.95))
        center, radius = pseudo_disc_euclidean(c, eta)
        t = rng.uniform(-math.pi, math.pi, 32)
        pts = center + radius * np.exp(1j * t)
        for p in pts:
            worst = max(worst, abs(pseudo_distance(complex(p), c) - eta))
    verdict(4, "pseudo-disc boundary distance", worst < 1e-10 and budget.ok(),
            f"worst deviation {worst:.3e}, {budget.elapsed():.2f}s")


def _random_density(rng, max_pieces=3):
    cuts = np.sort(rng.uniform(-math.pi, math.pi, 2 * max_pieces))
    pieces = []
    for k in range(max_pieces):
        a, b = float(cuts[2 * k]), float(cuts[2 * k + 1])
        if b - a > 0.05:
            pieces.append((a, b, float(rng.uniform(0.2, 2.0))))
    if not pieces:
        pieces = [(-1.0, 1.0, 1.0)]
    return SimpleDensity.normalized(tuple(pieces))


def _random_function(rng, kind_index):
    if kind_index % 3 == 0:
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        return FunctionSpec.polynomial(coeffs)
    if kind_index % 3 == 1:
        zeros = tuple(random_disc_point(rng, 0.8) for _ in range(3))
        return FunctionSpec.finite_blaschke(zeros, float(rng.uniform(-1, 1)))
    return FunctionSpec.rational([1.0, 0.5], [-2.0, 0.0, 1.0])


def test_criterion_05_pushforward_change_of_variables():
    budget = Budget(5.0)
    rng = np.random.default_rng(20240815)
    worst = 0.0
    for i in range(20):
        s = _random_density(rng)
        c = random_disc_point(rng, 0.8)
        f = _random_function(rng, i)
        u = PushforwardDensity(s, c)
        # the image-side rule: g u between the preimage breakpoints
        lhs = integrate_piecewise(
            lambda th: np.asarray(f(np.exp(1j * th)), dtype=complex) * u(th),
            u.breakpoints, 4096)
        rhs = u.integrate(lambda th: f(np.exp(1j * th)), 4096)
        worst = max(worst, abs(lhs - rhs))
    verdict(5, "pushforward change of variables", worst < 1e-8 and budget.ok(),
            f"worst two-sided gap {worst:.3e}, {budget.elapsed():.2f}s")


def test_criterion_06_quartiles_and_classifier():
    budget = Budget(1.0)
    rng = np.random.default_rng(106)
    ok = True
    # mass equations on random densities
    for _ in range(25):
        s = _random_density(rng)
        qp = quartiles(s)
        ok = ok and abs(s.cdf(qp.alpha) - 0.25) < 1e-10
        ok = ok and abs(s.tail(qp.beta) - 0.25) < 1e-10
    # exact mirror on symmetric densities
    for _ in range(10):
        hi = float(rng.uniform(0.8, 3.0))
        lo = float(rng.uniform(0.1, hi - 0.3))
        s = SimpleDensity.normalized((
            (-hi, -lo, 1.0), (-lo / 2, lo / 2, float(rng.uniform(0.5, 2.0))),
            (lo, hi, 1.0)))
        qp = quartiles(s)
        ok = ok and qp.beta == -qp.alpha
    # hand-computed classifier cases
    ok = ok and quartiles(SimpleDensity.uniform(-2.0, 2.0)).case_tag == CASE_STRADDLE
    ok = ok and quartiles(SimpleDensity.uniform(-2.0, -0.1)).case_tag == CASE_LEFT
    ok = ok and quartiles(SimpleDensity.uniform(0.1, 2.0)).case_tag == CASE_RIGHT
    qp = quartiles(SimpleDensity.uniform(-2.0, 2.0))
    ok = ok and abs(qp.alpha + 1.0) < 1e-14 and abs(qp.beta - 1.0) < 1e-14
    verdict(6, "quartile masses, mirror, classifier", ok and budget.ok(),
            f"{budget.elapsed():.2f}s")


def test_criterion_07_identity_distance_trend_and_parseval():
    budget = Budget(5.0)
    seq = tuple(1 - 4.0 ** -j for j in range(1, 11))
    b = BlaschkeProduct(seq)
    distances = []
    parseval_ok = True
    for c in seq:
        rep = l2_distance_to_identity(b, c, n_fft=4096)
        distances.append(rep.distance)
        parseval_ok = parseval_ok and abs(rep.parseval - 1) < 1e-6
    decreasing = all(d2 < d1 for d1, d2 in zip(distances[2:], distances[3:]))
    verdict(7, "recentered distance trend and energy identity",
            parseval_ok and decreasing and budget.ok(),
            f"distances[j>=3] not monotone decreasing: "
            f"{[round(d, 6) for d in distances]}, parseval_ok={parseval_ok}, "
            f"{budget.elapsed():.2f}s")


def test_criterion_08_derivative_invariant():
    budget = Budget(1.0)
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(20):
        c = random_disc_point(rng, 0.9)
        rows = schwarz_check(DiscSequence((c,)))
        ok = ok and abs(rows[0].derivative_invariant - 1) < 1e-12
    thin = DiscSequence(tuple(1 - 40.0 ** -j for j in range(1, 11)))
    rows = schwarz_check(thin)
    last = rows[-1].derivative_invariant
    ok = ok and last > 0.9
    verdict(8, "invariant derivative: single zero and thin tail",
            ok and budget.ok(),
            f"last invariant {last:.6f}, {budget.elapsed():.2f}s")


def test_criterion_09_exact_and_numeric_solver_anchor():
    budget = Budget(5.0)
    anchor = (FunctionSpec.polynomial([0, 0, 1]),
              FunctionSpec.polynomial([-0.5, 1]))
    inst = CoronaInstance(anchor)
    cert = bezout_exact(inst)
    g1, g2 = cert.solutions
    exact_ok = (cert.residual_sup < 1e-12
                and g1.payload[0] == (4 + 0j,)
                and g2.payload[0] == (-2 + 0j, -4 + 0j))
    num = bezout_numeric(inst, degree_cap=8)
    verdict(9, "algebraic anchor certificate",
            exact_ok and num.residual_sup < 1e-8 and budget.ok(),
            f"exact {cert.residual_sup:.3e}, numeric {num.residual_sup:.3e}, "
            f"{budget.elapsed():.2f}s")


def test_criterion_10_sector_ladder_rungs():
    budget = Budget(30.0)
    zeros = tuple(1 - 2.0 ** -k for k in range(1, 31))
    candidates = DiscSequence(tuple(1 - 3.0 ** -n for n in range(1, 33)))
    eps_seq = [2.0 ** -j for j in range(1, 6)]
    eta_seq = [1 - 2.0 ** -j for j in range(1, 6)]
    lad = construct_ladder(zeros, candidates, eps_seq, eta_seq, 0.5)
    ok = len(lad.verification) == 5
    for rec in lad.verification:
        ok = ok and rec.min_modulus > 1 - rec.eps
    verdict(10, "five-rung staged construction", ok and budget.ok(),
            f"minima {[round(r.min_modulus, 6) for r in lad.verification]}, "
            f"{budget.elapsed():.2f}s")


def test_criterion_11_cluster_limits():
    budget = Budget(1.0)
    pts = tuple(1 - 2.0 ** -j for j in range(1, 46))
    fns = (identity_function(), FunctionSpec.finite_blaschke(pts),
           FunctionSpec.finite_blaschke(pts * 2))
    rep = cluster_scenario(fns, DiscSequence(pts), eps=1e-6)
    limits_ok = (abs(rep.limits[0] - 1) < 1e-6
                 and abs(rep.limits[1]) < 1e-6
                 and abs(rep.limits[2]) < 1e-6)
    # all survivors hit every epsilon-neighborhood simultaneously
    arr = np.array(pts)
    tail_ok = len(rep.indices) >= 3
    for f, lim in zip(fns, rep.limits):
        vals = np.asarray(f(arr[list(rep.indices)]), dtype=complex)
        tail_ok = tail_ok and bool(np.all(np.abs(vals - lim) < 1e-6))
    verdict(11, "simultaneous cluster limits (1, 0, 0)",
            limits_ok and tail_ok and budget.ok(),
            f"limits {[complex(v) for v in rep.limits]}, "
            f"survivors {len(rep.indices)}, {budget.elapsed():.2f}s")


def test_criterion_12_jensen_spot_suite():
    budget = Budget(5.0)
    rng = np.random.default_rng(1204)
    worst = -math.inf
    for _ in range(100):
        deg = int(rng.integers(1, 7))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        z = random_disc_point(rng, 0.8)
        fz = np.polyval(coeffs[::-1], z)
        lhs = math.log(abs(fz))
        rhs = poisson_integral(
            lambda w: np.log(np.abs(np.polyval(coeffs[::-1], w))), z).real
        worst = max(worst, lhs - rhs)
    verdict(12, "interior log bound by boundary average",
            worst <= 1e-8 and budget.ok(),
            f"worst excess {worst:.3e}, {budget.elapsed():.2f}s")
