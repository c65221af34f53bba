"""Step densities, quartiles, fitting, arc alignment, and pushforwards."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corona_lab import measures
from corona_lab.disc_geometry import OrthogonalArc, canonical_angle
from corona_lab.errors import (ConfigError, DomainError, InfeasibleError,
                               QuadratureError)
from corona_lab.functions import FunctionSpec
from corona_lab.measures import (CASE_LEFT, CASE_RIGHT, CASE_STRADDLE,
                                 MASS_ROW_WEIGHT, RIDGE, PushforwardDensity,
                                 SimpleDensity, align_arcs, fit_simple_density,
                                 nnls, poisson_integral, poisson_kernel, quartiles)
from corona_lab.quadrature import integrate_piecewise

from helpers import constant_function, density_mass, identity_function

RNG = np.random.default_rng(771005)
TWO_PI = 2 * math.pi


def random_density(rng, max_pieces=4):
    # disjoint random supports with positive levels, then normalize
    cuts = np.sort(rng.uniform(-math.pi, math.pi, 2 * max_pieces))
    pieces = []
    for k in range(max_pieces):
        a, b = cuts[2 * k], cuts[2 * k + 1]
        if b - a > 1e-3:
            pieces.append((float(a), float(b), float(rng.uniform(0.2, 2.0))))
    if not pieces:
        return SimpleDensity.uniform(-math.pi, math.pi)
    return SimpleDensity.normalized(tuple(pieces))


# The per-piece scans the array form replaced, kept as the oracle it must
# match with ==: cumsum adds the masses in the same order these loops do.
def _oracle_mass(a, b, c):
    return c * (b - a) / TWO_PI


def oracle_call(s, theta):
    th = canonical_angle(theta)
    out = np.zeros(np.shape(th))
    for a, b, c in s.pieces:
        out = np.where((th >= a) & (th < b), c, out)
    return float(out) if out.ndim == 0 else out


def oracle_cdf(s, theta):
    acc = 0.0
    for a, b, c in s.pieces:
        if theta <= a:
            break
        acc += _oracle_mass(a, min(theta, b), c)
    return acc


def oracle_tail(s, theta):
    acc = 0.0
    for a, b, c in reversed(s.pieces):
        if theta >= b:
            break
        acc += _oracle_mass(max(theta, a), b, c)
    return acc


def oracle_total(s):
    acc = 0.0
    for p in s.pieces:
        acc += _oracle_mass(*p)
    return acc


def oracle_quartile_angles(s):
    alpha = beta = None
    acc = 0.0
    for a, b, c in s.pieces:
        m = _oracle_mass(a, b, c)
        if c > 0 and acc + m >= 0.25:
            alpha = a + (0.25 - acc) * TWO_PI / c
            break
        acc += m
    acc = 0.0
    for a, b, c in reversed(s.pieces):
        m = _oracle_mass(a, b, c)
        if c > 0 and acc + m >= 0.25:
            beta = b - (0.25 - acc) * TWO_PI / c
            break
        acc += m
    return alpha, beta


def rough_density(rng, n):
    """n pieces with gaps, touching pieces, pieces starting inside the
    1e-15 overlap slack, zero values, and ends at -pi and pi."""
    cuts = np.sort(rng.uniform(-math.pi, math.pi, 2 * n))
    cuts[0] = -math.pi if rng.random() < 0.3 else cuts[0]
    cuts[-1] = math.pi if rng.random() < 0.3 else cuts[-1]
    pieces = []
    for k in range(n):
        a, b = float(cuts[2 * k]), float(cuts[2 * k + 1])
        if pieces and rng.random() < 0.4:
            a = pieces[-1][1] - (1e-15 * rng.random() if rng.random() < 0.4 else 0.0)
        c = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.05, 3.0))
        pieces.append((a, b, c))
    if all(c == 0 for _, _, c in pieces):
        pieces[0] = (*pieces[0][:2], 1.0)
    return SimpleDensity.normalized(tuple(pieces))


def probe_angles(s, rng):
    edges = np.array([x for a, b, _ in s.pieces for x in (a, b)])
    return np.concatenate([
        edges, np.nextafter(edges, -4.0), np.nextafter(edges, 4.0),
        [-math.pi, math.pi, np.nextafter(math.pi, 0.0), 0.0, 2 * math.pi],
        rng.uniform(-4.0, 4.0, 16)])


def assert_matches_oracle(s, thetas):
    assert np.array_equal(s(thetas), oracle_call(s, thetas))
    grid = thetas.reshape(-1, 1)
    assert np.array_equal(s(grid), oracle_call(s, grid))
    for t in thetas.tolist():
        assert s(t) == oracle_call(s, t)
        assert type(s(t)) is float
        assert s.cdf(t) == oracle_cdf(s, t)
        assert s.tail(t) == oracle_tail(s, t)
    assert density_mass(s) == oracle_total(s)
    assert s.breakpoints() == sorted({x for a, b, _ in s.pieces for x in (a, b)})
    alpha, beta = oracle_quartile_angles(s)
    if alpha is not None and beta is not None:
        qp = quartiles(s)
        assert (qp.alpha, qp.beta) == (alpha, beta)


def test_density_core_matches_per_piece_scans():
    rng = np.random.default_rng(20261018)
    for n in [1, 2, 3, 5, 8, 13, 30, 60] * 6:
        s = rough_density(rng, n)
        assert_matches_oracle(s, probe_angles(s, rng))


def test_density_core_on_touching_and_overlapping_edges():
    # the second piece starts 8e-16 inside the first (within the slack), a
    # zero piece touches it, and gaps follow
    b1 = 0.5
    a2 = b1 - 8e-16
    s = SimpleDensity.normalized(((-1.0, b1, 1.0), (a2, 1.0, 2.0),
                                  (1.0, 1.9, 0.0), (2.0, math.pi, 0.5)))
    mid = (a2 + b1) / 2
    assert a2 < mid < b1          # inside both pieces: cdf and tail cut two
    thetas = np.array([-1.0, a2, mid, b1, 1.0, 1.5, 1.9, 2.0, math.pi, -math.pi])
    assert_matches_oracle(s, thetas)
    assert s(mid) == s.pieces[1][2]   # the later piece wins on the overlap
    assert s.breakpoints() == [-1.0, a2, b1, 1.0, 1.9, 2.0, math.pi]


def test_quartile_tie_at_a_piece_end_resolves_outward():
    # masses 1/4, 1/4, 1/2 exactly: a quarter is reached at the end of the
    # first piece, so alpha sits there and not at the start of the second
    s = SimpleDensity(((-2.0, -1.0, math.pi / 2), (0.0, 1.0, math.pi / 2),
                       (1.5, 2.5, math.pi)))
    assert s.cdf(-1.0) == 0.25
    assert_matches_oracle(s, probe_angles(s, np.random.default_rng(1)))
    assert quartiles(s).alpha == -1.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(1e-3, 1.0),
                          st.just(0.0) | st.floats(0.01, 4.0), st.booleans()),
                min_size=1, max_size=12),
       st.lists(st.floats(-7.0, 7.0), max_size=6))
def test_density_core_property(raw, extra):
    # widths, gaps (dropped when touching) and values laid out left to right
    total = sum(g * (not touch) + w for g, w, _, touch in raw)
    scale = 2 * math.pi / total
    pieces, x = [], -math.pi
    for gap, width, value, touch in raw:
        x = x if touch else min(x + gap * scale, math.pi)
        end = min(x + width * scale, math.pi)
        if x < end:
            pieces.append((x, end, value))
        x = end
    if not pieces or sum(c * (b - a) for a, b, c in pieces) <= 0:
        return
    s = SimpleDensity.normalized(tuple(pieces))
    thetas = np.concatenate([probe_angles(s, np.random.default_rng(0)), extra])
    assert_matches_oracle(s, thetas)
    # the mirror image has the mirrored tail, bit for bit
    mirror = SimpleDensity(tuple((-b, -a, c) for a, b, c in s.pieces))
    for t in thetas.tolist():
        assert mirror.tail(-t) == s.cdf(t)
        assert mirror.cdf(-t) == s.tail(t)


def test_nested_piece_is_an_overlap():
    # a piece that ends before its neighbour is an overlap, not the
    # rounding of touching pieces, even inside the 1e-15 slack
    b1 = 0.5
    a2 = float(np.nextafter(np.nextafter(b1, -1.0), -1.0))
    b2 = float(np.nextafter(b1, -1.0))
    with pytest.raises(DomainError, match="pieces overlap"):
        SimpleDensity.normalized(((0.0, b1, 1.0), (a2, b2, 1.0)))
    with pytest.raises(DomainError, match="partition bins overlap"):
        fit_simple_density((), [(0.0, b1), (a2, b2)], eps=1e-3)


def test_density_validation():
    with pytest.raises(DomainError):
        SimpleDensity(((0.0, 1.0, 1.0),))                    # mass != 1
    with pytest.raises(DomainError):
        SimpleDensity.normalized(((0.5, 0.2, 1.0),))         # reversed arc
    with pytest.raises(DomainError):
        SimpleDensity.normalized(((-4.0, 0.0, 1.0),))        # outside [-pi, pi]
    with pytest.raises(DomainError):
        SimpleDensity.normalized(((0.0, 1.0, -1.0),))        # negative level
    with pytest.raises(DomainError):
        SimpleDensity.normalized(((0.0, 1.0, 1.0), (0.5, 2.0, 1.0)))  # overlap


def test_density_evaluation_half_open():
    s = SimpleDensity.uniform(-0.2, 0.2)
    level = s.pieces[0][2]
    assert s(-0.2) == level
    assert s(0.2) == 0.0
    assert s(0.0) == level
    assert s(3.0) == 0.0
    vals = s(np.array([-0.2, 0.0, 0.2]))
    assert vals.tolist() == [level, level, 0.0]
    # periodic wrap: 2pi shift hits the same piece
    assert s(2 * math.pi) == level


def test_cdf_tail_complementarity():
    for _ in range(10):
        s = random_density(RNG)
        for theta in np.concatenate([RNG.uniform(-math.pi, math.pi, 8),
                                     np.array(s.breakpoints())]):
            assert abs(s.cdf(theta) + s.tail(theta) - 1) < 1e-12
    s = SimpleDensity.uniform(-1.0, 1.0)
    assert s.cdf(-1.0) == 0.0
    assert abs(s.cdf(0.0) - 0.5) < 1e-15
    assert s.tail(1.0) == 0.0


def test_split_preserves_mass_and_canonical_merges():
    s = SimpleDensity.uniform(-1.0, 1.0)
    parts = s.split_at((-0.5, 0.25))
    assert len(parts) == 3
    total = sum((b - a) * c for a, b, c in parts) / (2 * math.pi)
    assert abs(total - 1) < 1e-12
    merged = SimpleDensity(tuple(parts)).canonical()
    assert merged.pieces == s.pieces


def test_density_dict_roundtrip_and_strictness():
    s = random_density(RNG)
    t = SimpleDensity.from_dict(s.to_dict())
    assert t.pieces == s.pieces
    with pytest.raises(ConfigError):
        SimpleDensity.from_dict({"pieces": [[0, 1, 1]], "extra": 1})


def test_poisson_kernel_values():
    assert poisson_kernel(0, 1.23) == 1.0
    assert abs(poisson_kernel(0.5, 0.0) - 3.0) < 1e-15
    # kernel has unit average
    theta = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
    assert abs(np.mean(poisson_kernel(0.3 - 0.4j, theta)) - 1) < 1e-10


def test_poisson_integral_reproduces_interior_values():
    specs = [
        FunctionSpec.polynomial([1, 2j, -0.5]),
        FunctionSpec.finite_blaschke((0.3, -0.4j), 0.2),
        FunctionSpec.rational([1, 1], [-2, 0, 1]),
    ]
    for f in specs:
        for _ in range(5):
            z = complex(0.7 * RNG.uniform(0, 1)
                        * np.exp(1j * RNG.uniform(-math.pi, math.pi)))
            assert abs(poisson_integral(f, z) - f(z)) < 1e-10
    assert abs(poisson_integral(constant_function(1), 0.5) - 1) < 1e-14


def test_poisson_integral_tolerance_enforced():
    f = FunctionSpec.finite_blaschke((0.95,))
    with pytest.raises(QuadratureError) as exc:
        poisson_integral(f, 0.9, nodes=8, tol=1e-12)
    assert exc.value.estimate > 1e-12


def test_target_functional_screens_unreachable_values():
    # the fit screens its targets before it reads the partition: |5| is
    # beyond the sup norm 1 of z, and a plain callable is not a FunctionSpec
    partition = [(-0.5, 0.0), (0.0, 0.5)]
    with pytest.raises(InfeasibleError, match="^target 1: ") as exc:
        fit_simple_density(((identity_function(), 0.5), (identity_function(), 5.0)),
                           partition, eps=1e-3)
    assert exc.value.residuals == [4.0]
    with pytest.raises(DomainError, match="^target 0: expected a FunctionSpec$"):
        fit_simple_density(((lambda z: z, 0.5),), [], eps=1e-3)


def test_fit_empty_targets_gives_uniform():
    partition = [(-0.25 + 0.0625 * k, -0.25 + 0.0625 * (k + 1)) for k in range(8)]
    fit = fit_simple_density((), partition, eps=1e-3)
    levels = {c for _, _, c in fit.density.pieces}
    assert len(levels) == 1
    assert abs(density_mass(fit.density) - 1) < 1e-12
    assert fit.mass_error == 0.0


def test_fit_matches_moment_targets():
    # unit mass plus a first-moment target concentrated near angle zero
    partition = [(-0.25 + 0.5 * k / 64, -0.25 + 0.5 * (k + 1) / 64)
                 for k in range(64)]
    targets = ((constant_function(1), 1.0), (identity_function(), 0.99))
    fit = fit_simple_density(targets, partition, eps=1e-3)
    assert max(fit.residuals) < 1e-3
    assert fit.mass_error == 0.0
    assert all(c >= 0 for _, _, c in fit.density.pieces)
    assert abs(density_mass(fit.density) - 1) < 1e-12


def test_fit_infeasible_target_raises_with_residuals():
    partition = [(-0.25 + 0.5 * k / 16, -0.25 + 0.5 * (k + 1) / 16)
                 for k in range(16)]
    # support near angle 0 cannot average e^{i theta} anywhere close to -1
    with pytest.raises(InfeasibleError) as exc:
        fit_simple_density(((identity_function(), -1.0),), partition, eps=1e-3)
    assert exc.value.residuals and max(exc.value.residuals) > 1.5


def test_fit_partition_validation():
    with pytest.raises(DomainError):
        fit_simple_density((), [(0.2, 0.1)], eps=1e-3)
    with pytest.raises(DomainError):
        fit_simple_density((), [(0.0, 0.2), (0.1, 0.3)], eps=1e-3)
    with pytest.raises(DomainError):
        fit_simple_density((), [(-0.5, 0.5)], eps=1e-3, window=0.25)
    with pytest.raises(DomainError):
        fit_simple_density((), [], eps=1e-3)


def _stacked(d, t, a, u):
    """The fit's least squares as one matrix: mass row, data rows, ridge rows."""
    n = len(a)
    return (np.vstack([MASS_ROW_WEIGHT * a, d, math.sqrt(RIDGE) * np.eye(n)]),
            np.concatenate([[MASS_ROW_WEIGHT], t, math.sqrt(RIDGE) * np.broadcast_to(u, n)]))


def _objective(d, t, a, u, x):
    return float(np.sum((d @ x - t) ** 2) + (MASS_ROW_WEIGHT * (a @ x - 1)) ** 2
                 + RIDGE * np.sum((x - u) ** 2))


# a.x sits a few ulps from 1 at best, which the mass row weighs in at this much
OBJECTIVE_FLOOR = (MASS_ROW_WEIGHT * 8 * np.finfo(float).eps) ** 2


def _assert_same_optimum(d, t, a, u, x, oracle, zeros=True):
    assert np.all(x >= 0)
    if zeros:
        assert np.array_equal(x == 0, oracle == 0)
    mine, theirs = _objective(d, t, a, u, x), _objective(d, t, a, u, oracle)
    assert abs(mine - theirs) <= 1e-12 * theirs + OBJECTIVE_FLOOR


def _moment_problem(rng, n, targets, active):
    """The fit's own system: moments z^1..z^T of a step density on n bins;
    when active, some levels are zero and the targets are perturbed."""
    edges = np.linspace(-math.pi, math.pi, n + 1)
    if rng.random() < 0.5:
        edges[1:-1] = np.sort(rng.uniform(-math.pi, math.pi, n - 1))
    a = np.diff(edges) / TWO_PI
    k = np.arange(1, targets + 1)[:, None]
    cols = (np.exp(1j * k * edges[1:]) - np.exp(1j * k * edges[:-1])) / (2j * math.pi * k)
    d = np.concatenate([cols.real, cols.imag])
    levels = rng.uniform(0.2, 2.0, n)
    if active:
        levels[rng.random(n) < 0.4] = 0.0
        levels[0] = 1.0
    t = d @ (levels / (levels @ a))
    if active:
        t += rng.normal(0.0, 0.05, t.shape)
    return d, t, a, 1.0 / a.sum()


def _tied_problem(rng, n, rows):
    """Random rows with a third of the columns copies of the first one, so
    their duals tie."""
    d = rng.normal(size=(rows, n)) / n
    d[:, rng.integers(0, n, n // 3)] = d[:, [0]]
    a = rng.uniform(0.5, 1.5, n)
    a /= a.sum()
    return d, rng.normal(size=rows) * 0.3 / math.sqrt(n), a, 1.0 / a.sum()


def _kkt_problem(rng, n, rows, dual):
    """A problem built around a known optimum x whose zeros carry the dual
    entry -dual (0 makes them degenerate): the ridge centre u is solved
    from the optimality conditions."""
    d = rng.normal(size=(rows, n)) / n
    a = rng.uniform(0.5, 1.5, n)
    a /= a.sum()
    zero = rng.random(n) < 0.4
    zero[0] = False
    x = np.where(zero, 0.0, rng.uniform(0.2, 2.0, n))
    nu = rng.normal() * 1e-8
    x *= (1 - nu / MASS_ROW_WEIGHT ** 2) / (a @ x)
    r = rng.normal(size=rows) * 1e-8
    u = x - (d.T @ r + nu * a + dual * zero) / RIDGE
    return d, d @ x + r, a, u, x


def test_nnls_matches_scipy_on_the_stacked_system():
    solve = pytest.importorskip("scipy.optimize").nnls
    rng = np.random.default_rng(9001)
    active = 0
    for case in range(160):
        n, rows = int(rng.integers(2, 257)), 2 * int(rng.integers(1, 17))
        kind = case % 4
        if kind < 2:
            d, t, a, u = _moment_problem(rng, n, rows // 2, kind == 1)
        elif kind == 2:
            d, t, a, u = _tied_problem(rng, n, rows)
        else:
            # zeros held by small duals, far above rounding: the zero set is sharp
            d, t, a, u, _ = _kkt_problem(rng, n, rows, 1e-11)
        oracle, _ = solve(*_stacked(d, t, a, u))
        _assert_same_optimum(d, t, a, u, nnls(d, t, a, u), oracle)
        active += bool((oracle == 0).any())
    assert active >= 80


def test_nnls_degenerate_duals_reach_the_known_optimum():
    solve = pytest.importorskip("scipy.optimize").nnls
    rng = np.random.default_rng(9002)
    for _ in range(120):
        n, rows = int(rng.integers(2, 129)), 2 * int(rng.integers(1, 17))
        d, t, a, u, best = _kkt_problem(rng, n, rows, 0.0)
        x = nnls(d, t, a, u)
        # a zero with a zero dual may come out as rounding either side of 0
        oracle, _ = solve(*_stacked(d, t, a, u))
        _assert_same_optimum(d, t, a, u, x, oracle, zeros=False)
        assert np.max(np.abs(x - best)) <= 1e-13 * np.max(best)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_nnls_property_small_systems(n, rows, seed):
    solve = pytest.importorskip("scipy.optimize").nnls
    rng = np.random.default_rng(seed)
    d, t = rng.normal(size=(rows, n)), rng.normal(size=rows)
    a, u = rng.uniform(0.1, 1.0, n), rng.uniform(0.0, 2.0, n)
    oracle, _ = solve(*_stacked(d, t, a, u))
    _assert_same_optimum(d, t, a, u, nnls(d, t, a, u), oracle)


def test_nnls_rejects_an_entering_variable_that_solves_nonpositive(monkeypatch):
    # Rounding can leave an entering variable at or below 0 in its first
    # solve although its dual was positive; stepping toward that solution
    # would not move x.  Lawson-Hanson rejects the variable instead, here
    # forced once by zeroing it in the solve after its entry.
    d, t, a, u, best = _kkt_problem(np.random.default_rng(9003), 32, 8, 1e-3)
    solve, previous, rejected = measures._passive_solve, [np.ones(len(a), bool)], []

    def first_entry_solves_to_zero(d, t, a, u, passive):
        z, nu = solve(d, t, a, u, passive)
        entered = np.flatnonzero(passive & ~previous[0])
        # an entry adds one variable and drops none
        if not rejected and len(entered) == 1 and not (previous[0] & ~passive).any():
            rejected.append(entered[0])
            z[entered[0]] = 0.0
        previous[0] = passive.copy()
        return z, nu

    monkeypatch.setattr(measures, "_passive_solve", first_entry_solves_to_zero)
    x = nnls(d, t, a, u)
    assert rejected and np.array_equal(x == 0, best == 0)


def test_nnls_iteration_cap_raises_with_residuals(monkeypatch):
    d, t, a, u, best = _kkt_problem(np.random.default_rng(9003), 32, 8, 1e-3)
    assert np.array_equal(nnls(d, t, a, u) == 0, best == 0) and (best == 0).any()
    # a budget of one solve, where this problem needs more
    monkeypatch.setattr(measures, "SOLVES_PER_VARIABLE", 1 / len(a))
    with pytest.raises(InfeasibleError, match="in 1 solves") as exc:
        nnls(d, t, a, u)
    assert len(exc.value.residuals) == len(t)
    # complex rows report one residual per row, not per real part
    with pytest.raises(InfeasibleError) as exc:
        nnls(d[:4] + 1j * d[4:], t[:4] + 1j * t[4:], a, u)
    assert len(exc.value.residuals) == 4


def test_quartiles_uniform_and_tags():
    qp = quartiles(SimpleDensity.uniform(-2.0, 2.0))
    assert abs(qp.alpha + 1.0) < 1e-14
    assert abs(qp.beta - 1.0) < 1e-14
    assert qp.case_tag == CASE_STRADDLE
    assert quartiles(SimpleDensity.uniform(-2.0, -0.1)).case_tag == CASE_LEFT
    assert quartiles(SimpleDensity.uniform(0.1, 2.0)).case_tag == CASE_RIGHT


def test_quartiles_symmetric_exact_mirror():
    for _ in range(10):
        a = float(RNG.uniform(0.3, 3.0))
        b = float(RNG.uniform(0.05, a - 0.2)) if a > 0.3 else 0.1
        lo, hi = min(a, b), max(a, b)
        inner = float(RNG.uniform(0.2, 2.0))
        outer = float(RNG.uniform(0.2, 2.0))
        s = SimpleDensity.normalized((
            (-hi, -lo, outer), (-lo / 2, lo / 2, inner), (lo, hi, outer)))
        qp = quartiles(s)
        assert qp.beta == -qp.alpha   # exact float mirror, not approximate


def test_quartiles_window_changes_tag():
    s = SimpleDensity.uniform(0.1, 2.0)
    assert quartiles(s).case_tag == CASE_RIGHT
    assert quartiles(s, window=0.5).case_tag == CASE_LEFT


def test_align_case_a_hits_endpoints():
    s = SimpleDensity.uniform(-2.0, 2.0)
    target = OrthogonalArc(-0.6, 0.4)
    aligned = align_arcs(s, target, "a")
    qp = quartiles(aligned)
    assert abs(qp.alpha + 0.6) < 1e-10
    assert abs(qp.beta - 0.4) < 1e-10
    center, radius = OrthogonalArc(qp.alpha, qp.beta).circle()
    assert abs(abs(target.midpoint - center) - radius) < 1e-8


def test_align_identity_returns_same_density():
    s = SimpleDensity.uniform(-2.0, 2.0)
    aligned = align_arcs(s, OrthogonalArc(-1.0, 1.0), "a")
    assert aligned.pieces == s.pieces


def test_align_cases_b_and_c_pass_through_midpoint():
    sb = SimpleDensity.uniform(0.1, 2.9)
    tb = OrthogonalArc(0.9, 2.0)
    ab = align_arcs(sb, tb, "b")
    qb = quartiles(ab)
    center, radius = OrthogonalArc(qb.alpha, qb.beta).circle()
    assert abs(abs(tb.midpoint - center) - radius) < 1e-8

    sc = SimpleDensity.uniform(-2.9, -0.1)
    tc = OrthogonalArc(-2.0, -0.9)
    ac = align_arcs(sc, tc, "c")
    qc = quartiles(ac)
    center, radius = OrthogonalArc(qc.alpha, qc.beta).circle()
    assert abs(abs(tc.midpoint - center) - radius) < 1e-8


def test_align_case_preconditions():
    s = SimpleDensity.uniform(-2.0, 2.0)
    with pytest.raises(DomainError):
        align_arcs(s, OrthogonalArc(-1.5, 0.4), "a")    # alpha below alpha#
    with pytest.raises(DomainError):
        align_arcs(s, OrthogonalArc(0.2, 0.4), "b")     # alpha# negative
    with pytest.raises(DomainError):
        align_arcs(s, OrthogonalArc(-0.6, 0.4), "z")


def test_align_infeasible_gap_support():
    s = SimpleDensity.normalized(((-2.0, -1.0, 1.0), (1.0, 2.0, 1.0)))
    with pytest.raises(InfeasibleError):
        align_arcs(s, OrthogonalArc(-0.5, 0.5), "a")


def test_pushforward_identity_center():
    s = random_density(RNG)
    u = PushforwardDensity(s, 0)
    for theta in RNG.uniform(-math.pi, math.pi, 16):
        assert abs(u(theta) - s(theta)) < 1e-14


def test_pushforward_mass_and_breakpoints():
    s = SimpleDensity.normalized(((-1.0, -0.2, 0.7), (0.3, 1.4, 1.1)))
    c = 0.37 - 0.21j
    u = PushforwardDensity(s, c)
    assert abs(u.mass() - 1) < 1e-10
    # breakpoints map forward onto the base discontinuities
    images = sorted(float(np.angle(u.automorphism.apply(np.exp(1j * t))))
                    for t in u.breakpoints)
    assert np.allclose(sorted(images), sorted(s.breakpoints()), atol=1e-12)
    assert np.all(poisson_kernel(-c, np.linspace(-3, 3, 7)) > 0)


# Pieces and gaps this wide keep their mass anywhere on [-pi, pi].  Below
# about 190 ulps of its ends, the outermost of a segment's 16 Gauss-Legendre
# nodes (0.53% of the width from each end) can round onto the segment's open
# end and read the next segment's value: a narrow piece loses mass there and
# a narrow gap before a piece gains some.
NARROWEST = 256 * math.ulp(math.pi)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.01, 3.0)),
                min_size=1, max_size=12),
       st.floats(0.0, 0.9), st.floats(-math.pi, math.pi))
def test_pushforward_keeps_the_base_mass(raw, radius, angle):
    # gaps, widths and levels laid out from -pi and scaled to span the circle
    # (if they add up to 1e-3 or more).  A piece is NARROWEST plus its scaled
    # width and a gap is 0 or NARROWEST plus its scaled width, so draws of 0
    # give the narrowest pieces and touching ones; the last piece runs to pi
    # when less than NARROWEST is left.
    narrow = NARROWEST * (len(raw) + sum(g > 0 for g, _, _ in raw))
    scale = (2 * math.pi - narrow) / max(sum(g + w for g, w, _ in raw), 1e-3)
    pieces, x = [], -math.pi
    for gap, width, level in raw:
        x += NARROWEST + gap * scale if gap else 0.0
        pieces.append([x, min(x + NARROWEST + width * scale, math.pi), level])
        x = pieces[-1][1]
    if math.pi - x < NARROWEST:
        pieces[-1][1] = math.pi
    s = SimpleDensity.normalized(tuple(pieces))
    u = PushforwardDensity(s, radius * complex(np.exp(1j * angle)))
    assert abs(u.mass() - density_mass(s)) <= 1e-10


@pytest.mark.parametrize("width", [1e-12, 1e-14, 64 * math.ulp(0.3), 16 * math.ulp(0.3)],
                         ids=["1e-12", "1e-14", "64ulp", "16ulp"])
def test_pushforward_keeps_the_mass_of_a_narrow_piece(width):
    # the base pieces are exact, so no preimage rounding trims the piece; on
    # the ulp-wide ones, a node rounded onto the end must not read past it
    s = SimpleDensity.normalized(((0.3, 0.3 + width, 1.0),))
    assert abs(PushforwardDensity(s, 0.5 + 0.3j).mass() - 1) <= 1e-15


def test_pushforward_keeps_a_narrow_gap_empty():
    # a 16-ulp gap before a piece: its nodes must not read the piece's level
    gap = 16 * math.ulp(0.3)
    s = SimpleDensity.normalized(((0.3 - 1e-12, 0.3, 1.0), (0.3 + gap, 0.3 + 1e-12, 1.0)))
    assert abs(PushforwardDensity(s, 0.5 + 0.3j).mass() - 1) <= 1e-15


def test_pushforward_change_of_variables():
    s = SimpleDensity.normalized(((-1.2, 0.4, 0.9), (0.8, 2.0, 0.6)))
    c = -0.3 + 0.45j
    u = PushforwardDensity(s, c)
    f = FunctionSpec.polynomial([0.2, 1.0, -0.7j])

    # the image-side rule: f times the pushforward density u, whose jumps sit
    # at the preimage breakpoints, checks the base-side integral
    lhs = integrate_piecewise(
        lambda th: np.asarray(f(np.exp(1j * th)), dtype=complex) * u(th),
        u.breakpoints, 4096)
    rhs = u.integrate(lambda th: f(np.exp(1j * th)), 4096)
    assert abs(lhs - rhs) < 1e-10
