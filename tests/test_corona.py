"""Delta measurement, Bezout solvers, certificate checks, cluster values."""

import math
from fractions import Fraction

import numpy as np
import pytest

from corona_lab.blaschke import DiscSequence
from corona_lab.corona import (DEFAULT_GRID, BezoutCertificate, CoronaInstance,
                               GridSpec, bezout_exact, bezout_numeric,
                               check_certificate, cluster_scenario,
                               measure_delta, verification_nodes)
from corona_lab.errors import (ConfigError, DomainError, ExtractionError,
                               UnsolvableError)
from corona_lab.functions import FunctionSpec

from helpers import constant_function, identity_function, instance_dict

ANCHOR = (FunctionSpec.polynomial([0, 0, 1]),       # z^2
          FunctionSpec.polynomial([-0.5, 1]))        # z - 1/2


def test_grid_spec_validation_and_geometry():
    g = GridSpec(radial=8, angular=16, boundary=32, ratio=0.5)
    assert np.all(g.radii() < 1)
    assert np.all(np.diff(g.radii()) > 0)
    pts = g.points()
    assert pts[0] == 0j
    assert pts.size == 1 + 8 * 16 + 32
    assert abs(np.max(np.abs(pts)) - 1.0) < 1e-15
    for bad in (dict(radial=7), dict(angular=4), dict(boundary=2),
                dict(ratio=0.0), dict(ratio=1.0)):
        kw = dict(radial=8, angular=16, boundary=32, ratio=0.5)
        kw.update(bad)
        with pytest.raises(DomainError):
            GridSpec(**kw)


def test_grid_refinement_keeps_old_nodes():
    coarse = GridSpec(radial=8, angular=16, boundary=32, ratio=0.5)
    fine = GridSpec(radial=10, angular=32, boundary=64, ratio=0.5)
    coarse_set = set(coarse.points().tolist())
    fine_set = set(fine.points().tolist())
    assert coarse_set <= fine_set


def test_grid_dict_roundtrip():
    g = GridSpec(radial=9, angular=16, boundary=32, ratio=0.25)
    assert GridSpec.from_dict(g.to_dict()) == g


def test_measure_delta_values():
    rep = measure_delta((constant_function(2),))
    assert rep.value == 2.0
    rep = measure_delta((identity_function(), constant_function(1)))
    assert rep.value == 1.0
    assert rep.argmin == 0j          # the origin minimizes |z| + 1
    rep = measure_delta(ANCHOR)
    assert abs(rep.value - 0.25) < 1e-15
    assert abs(rep.argmin - 0.5) < 1e-15


def test_instance_roundtrip_keeps_functions_and_grid():
    grid = GridSpec(radial=9, angular=16, boundary=32, ratio=0.25)
    inst = CoronaInstance(ANCHOR, grid)
    d = instance_dict(inst)
    assert set(d) == {"functions", "grid"}
    assert CoronaInstance.from_dict(d) == inst
    d.pop("grid")
    assert CoronaInstance.from_dict(d) == CoronaInstance(inst.functions)
    with pytest.raises(ConfigError, match="unknown key 'delta_hat'"):
        CoronaInstance.from_dict({**instance_dict(inst), "delta_hat": 0.25})


def test_exact_solver_anchor_certificate():
    cert = bezout_exact(CoronaInstance(ANCHOR))
    assert cert.method == "exact"
    assert cert.passing
    assert cert.residual_sup < 1e-12
    u1, u2 = cert.solutions
    assert u1.payload[0] == (4 + 0j,)
    assert u2.payload[0] == (-2 + 0j, -4 + 0j)
    assert cert.residual_bound == 0.0          # 4 z^2 + (-4z - 2)(z - 1/2) == 1


def test_exact_solver_inverts_a_single_constant():
    # the gcd of one function is its monic associate, so u = 1/c, not 1
    cert = bezout_exact(CoronaInstance((constant_function(2 - 2j),)))
    assert cert.solutions[0].payload[0] == (0.25 + 0.25j,)
    assert cert.passing and cert.residual_bound == 0.0


def test_exact_solver_common_zero_unsolvable():
    inst = CoronaInstance((identity_function(),
                                 FunctionSpec.polynomial([0, 0, 1])))
    with pytest.raises(UnsolvableError) as exc:
        bezout_exact(inst)
    assert any(abs(r) < 1e-9 for r in exc.value.roots)


def test_exact_solver_outside_gcd_gives_rational_solutions():
    # common factor z - 2 has its root outside the closed disc
    f1 = FunctionSpec.polynomial([0, -2, 1])         # z(z - 2)
    f2 = FunctionSpec.polynomial([-1, 2.5, -1])      # -(z - 2)(z - 1/2)
    cert = bezout_exact(CoronaInstance((f1, f2)))
    assert cert.passing
    assert cert.residual_sup < 1e-10
    assert all(u.kind == "rational" for u in cert.solutions)
    assert cert.residual_bound is None
    assert "residual_bound" not in cert.to_dict()


def test_exact_solver_rejects_non_polynomials():
    inst = CoronaInstance((FunctionSpec.finite_blaschke((0.5,)),
                                 constant_function(1)))
    with pytest.raises(DomainError):
        bezout_exact(inst)


def test_exact_solver_near_collinear_norm_growth():
    f1 = identity_function()
    f2 = FunctionSpec.polynomial([1e-6, 1])       # z + 1e-6
    cert = bezout_exact(CoronaInstance((f1, f2)))
    assert max(cert.norms) > 1e5
    assert cert.residual_sup < 1e-8


def _exact_residual_sup_squared(instance, cert, theta) -> Fraction:
    """max |sum u_k f_k - 1|^2 at the float points e^{i theta} inside the
    closed disc, each evaluated in exact rational arithmetic."""
    worst = Fraction(0)
    for z in np.exp(1j * theta):
        zr, zi = Fraction(z.real), Fraction(z.imag)
        if zr * zr + zi * zi > 1:
            continue
        acc_r, acc_i = Fraction(-1), Fraction(0)
        for f, u in zip(instance.functions, cert.solutions):
            vals = []
            for coeffs in (f.payload[0], u.payload[0]):
                vr, vi = Fraction(0), Fraction(0)
                for c in reversed(coeffs):
                    vr, vi = vr * zr - vi * zi + Fraction(c.real), vr * zi + vi * zr + Fraction(c.imag)
                vals.append((vr, vi))
            (ar, ai), (br, bi) = vals
            acc_r, acc_i = acc_r + ar * br - ai * bi, acc_i + ar * bi + ai * br
        worst = max(worst, acc_r * acc_r + acc_i * acc_i)
    return worst


def test_residual_bound_dominates_the_exact_residual():
    # residual_sup is measured in floating point and, for exact cofactors, is
    # mostly rounding of the evaluation itself, so it may exceed the bound;
    # the bound must dominate the residual evaluated exactly.
    rng = np.random.default_rng(91)
    theta = verification_nodes(DEFAULT_GRID)[::5]
    for d in (1, 3, 5):
        funcs = tuple(FunctionSpec.polynomial(rng.normal(size=d + 1)
                                              + 1j * rng.normal(size=d + 1))
                      for _ in range(2))
        inst = CoronaInstance(funcs)
        for cert in (bezout_exact(inst), bezout_numeric(inst, degree_cap=d)):
            exact = _exact_residual_sup_squared(inst, cert, theta)
            assert Fraction(cert.residual_bound) ** 2 >= exact > 0
            assert cert.residual_bound < 1e-10


def test_residual_bound_needs_polynomial_data():
    inst = CoronaInstance((FunctionSpec.finite_blaschke((0.5,)),
                                 constant_function(1)))
    assert bezout_numeric(inst, degree_cap=4).residual_bound is None


def test_certificate_roundtrip_keeps_residual_bound():
    cert = bezout_numeric(CoronaInstance(ANCHOR), degree_cap=2)
    again = BezoutCertificate.from_dict(cert.to_dict())
    assert again.residual_bound == cert.residual_bound > 0
    bad = dict(cert.to_dict(), residual_bound="x")
    with pytest.raises(ConfigError, match="residual_bound"):
        BezoutCertificate.from_dict(bad)
    # a bare solution list loads, with residual_sup not measured
    bare = BezoutCertificate.from_dict({"solutions": cert.to_dict()["solutions"]})
    assert math.isnan(bare.residual_sup) and bare.solutions == cert.solutions
    with pytest.raises(ConfigError, match="residual_sup"):
        BezoutCertificate.from_dict(dict(cert.to_dict(), residual_sup="0.1"))
    # measured numbers may be non-finite in an emitted certificate and still load
    wild = BezoutCertificate.from_dict(dict(cert.to_dict(), residual_sup=math.inf,
                                            norms=[math.nan], residual_bound=math.inf))
    assert math.isinf(wild.residual_sup) and math.isnan(wild.norms[0])


def test_exact_solver_degree_20_pair():
    # full 53-bit coefficients at degree 20: the exact identity guard must hold
    rng = np.random.default_rng(2020)
    part = lambda: rng.uniform(0.5, 1.0, 21) * rng.choice((-1.0, 1.0), 21)
    funcs = tuple(FunctionSpec.polynomial(part() + 1j * part()) for _ in range(2))
    cert = bezout_exact(CoronaInstance(funcs))   # the identity guard raises on failure
    assert cert.passing
    assert all(len(u.payload[0]) == 20 for u in cert.solutions)
    assert cert.residual_bound < 1e-12


def test_numeric_solver_anchor():
    inst = CoronaInstance(ANCHOR)
    cert = bezout_numeric(inst, degree_cap=2)
    assert cert.method == "numeric"
    assert cert.passing
    assert cert.residual_sup < 1e-10


def test_numeric_solver_geometric_tail():
    # single function bounded away from zero: inversion truncates to a
    # geometric series whose tail the cap controls
    inst = CoronaInstance((FunctionSpec.polynomial([1, -0.5]),))
    cert = bezout_numeric(inst, degree_cap=20)
    assert cert.residual_sup < 1e-5
    low = bezout_numeric(inst, degree_cap=2)
    assert low.residual_sup > cert.residual_sup


def test_numeric_solver_preconditions():
    inst = CoronaInstance(ANCHOR)
    with pytest.raises(DomainError):
        bezout_numeric(inst, degree_cap=-1)
    dead = CoronaInstance((FunctionSpec.polynomial([0j]),))
    with pytest.raises(UnsolvableError):
        bezout_numeric(dead, degree_cap=2)


def test_check_certificate_confirms_and_rejects():
    inst = CoronaInstance(ANCHOR)
    cert = bezout_exact(inst)
    rep = check_certificate(inst, cert, tol=1e-12)
    assert rep.passing
    assert rep.samples == 10000 + verification_nodes(inst.grid).size
    # corrupt one coefficient: the residual moves by exactly that much
    bad = BezoutCertificate(
        (FunctionSpec.polynomial([4.01]), cert.solutions[1]),
        cert.residual_sup, cert.norms, cert.passing, cert.method)
    rep2 = check_certificate(inst, bad, tol=1e-8)
    assert not rep2.passing
    assert abs(rep2.residual_sup - 0.01) < 1e-3


def test_check_certificate_seed_stability():
    inst = CoronaInstance(ANCHOR)
    cert = bezout_exact(inst)
    for seed in (0, 1, 12345):
        assert check_certificate(inst, cert, tol=1e-10, seed=seed).passing


def test_check_certificate_shape_contract():
    inst = CoronaInstance(ANCHOR)
    empty = BezoutCertificate((), math.nan, (), False, "unknown")
    rep = check_certificate(inst, empty)
    assert not rep.passing
    assert abs(rep.residual_sup - 1.0) < 1e-15
    short = BezoutCertificate((constant_function(1),), math.nan, (), False, "x")
    with pytest.raises(DomainError):
        check_certificate(inst, short)


SEQ45 = tuple(1 - 2.0 ** -j for j in range(1, 46))


def test_cluster_identity_and_product_limits():
    fns = (identity_function(), FunctionSpec.finite_blaschke(SEQ45),
           FunctionSpec.finite_blaschke(SEQ45 * 2))
    rep = cluster_scenario(fns, DiscSequence(SEQ45), eps=1e-6)
    assert abs(rep.limits[0] - 1) < 1e-6
    assert rep.limits[1] == 0j
    assert rep.limits[2] == 0j
    assert len(rep.indices) >= 3
    assert rep.indices[-1] == len(SEQ45) - 1
    # survivors are a tail: consecutive indices up to the last
    assert list(rep.indices) == list(range(rep.indices[0], len(SEQ45)))


def test_cluster_spread_is_the_survivors_largest_distance_below_eps():
    fns = (identity_function(), FunctionSpec.finite_blaschke(SEQ45), constant_function(0.5j))
    for eps in (1e-2, 1e-6, 1e-9):
        rep = cluster_scenario(fns, DiscSequence(SEQ45), eps=eps)
        assert len(rep.spread) == len(fns)
        for f, limit, spread in zip(fns, rep.limits, rep.spread):
            vals = np.asarray(f(np.array(SEQ45)), dtype=complex)
            assert spread == max(abs(vals[j] - limit) for j in rep.indices)
            assert 0 <= spread < eps
        assert rep.spread[0] > 0 and rep.spread[2] == 0


def test_cluster_requires_approach_to_one():
    with pytest.raises(DomainError):
        cluster_scenario((identity_function(),), DiscSequence((0.9, 0.5)), eps=1e-3)


def test_cluster_refuses_points_that_move_away_next_to_one():
    # distances 0.5, 1.1e-16, 8.9e-16, 8.9e-16: the third point moves away
    # from 1 by far less than an absolute slack of 1e-15
    away = DiscSequence((0.5, 1 - 2.0 ** -53, 1 - 2.0 ** -50, 1 - 2.0 ** -50))
    with pytest.raises(DomainError, match="approach 1"):
        cluster_scenario((identity_function(),), away, eps=1e-3, min_tail=2)
    # equal distances pass: a repeated point and a conjugate pair
    for z in (1 - 2.0 ** -50, 0.9 + 0.1j):
        pts = DiscSequence((0.5, z, z.conjugate(), z))
        assert cluster_scenario((identity_function(),), pts, eps=1e-3, min_tail=2).indices


def test_cluster_extraction_error_reports_counts():
    pts = DiscSequence((0.5, 0.75, 0.875))
    with pytest.raises(ExtractionError) as exc:
        cluster_scenario((identity_function(),), pts, eps=1e-18, min_tail=3)
    assert exc.value.report["stage_counts"][-1] < 3


def test_cluster_parameter_validation():
    with pytest.raises(DomainError):
        cluster_scenario((), DiscSequence((0.5,)), eps=1e-3)
    with pytest.raises(DomainError):
        cluster_scenario((identity_function(),), DiscSequence((0.5,)), eps=0.0)
