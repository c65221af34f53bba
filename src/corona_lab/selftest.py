"""Invariant suites of the library modules, run by a subcommand's --selftest.

One suite per module: each imports the names it checks when it runs, so
--selftest loads only the modules its subcommand names, and no other
process loads this one.  A suite returns (check name, passed) pairs.
"""

import math

import numpy as np


def blaschke() -> list[tuple[str, bool]]:
    from .blaschke import (BlaschkeProduct, DiscSequence, carleson_diagnostics,
                           compose_with_mobius, min_modulus_on_disc, modulus_lower_bound)
    from .disc_geometry import MobiusAut

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
        ok = ok and min_modulus_on_disc(b.zeros, eta) >= bound
    checks.append(("modulus lower bound is sound", ok))

    seq = DiscSequence((0 + 0j, 0.5 + 0j))
    const, tails = carleson_diagnostics(seq)
    checks.append(("two point separation", abs(const - 0.5) < 1e-15 and len(tails) == 2))
    return checks


def corona() -> list[tuple[str, bool]]:
    from .corona import CoronaInstance, bezout_exact, bezout_numeric, check_certificate
    from .errors import UnsolvableError
    from .functions import FunctionSpec

    checks = []

    inst = CoronaInstance((FunctionSpec.polynomial((0, 0, 1)),
                           FunctionSpec.polynomial((-0.5, 1))))
    cert = bezout_exact(inst)
    checks.append(("exact solver closes the anchor pair",
                   cert.passing and cert.residual_sup < 1e-12))

    cert_n = bezout_numeric(inst, degree_cap=2)
    checks.append(("numeric solver matches at low degree",
                   cert_n.passing and cert_n.residual_sup < 1e-10))

    rep = check_certificate(inst, cert, tol=1e-10)
    checks.append(("random check accepts the certificate", rep.passing))

    bad = CoronaInstance((FunctionSpec.polynomial((0, 1)),
                          FunctionSpec.polynomial((0, 0, 1))))
    try:
        bezout_exact(bad)
        checks.append(("common zero detected", False))
    except UnsolvableError:
        checks.append(("common zero detected", True))
    return checks


def disc_geometry() -> list[tuple[str, bool]]:
    from .disc_geometry import MobiusAut, OrthogonalArc, pseudo_disc_euclidean, pseudo_distance

    rng = np.random.default_rng(20240811)
    checks = []

    ok = True
    for _ in range(50):
        c = (rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.9, 0.9)) * 0.7
        m = MobiusAut(c)
        z = (rng.uniform(-0.95, 0.95) + 1j * rng.uniform(-0.95, 0.95)) * 0.7
        ok = ok and abs(m.inverse(m.apply(z)) - z) < 1e-12
    checks.append(("mobius inverse composes to identity", ok))

    ok = True
    for _ in range(50):
        z = 0.7 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        w = 0.7 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        d = pseudo_distance(z, w)
        ok = ok and 0 <= d < 1 and abs(d - pseudo_distance(w, z)) < 1e-15
    checks.append(("pseudo distance symmetric and in [0, 1)", ok))

    c, r = pseudo_disc_euclidean(0.5, 0.5)
    checks.append(("pseudo disc closed form", abs(c - 0.4) < 1e-14 and abs(r - 0.4) < 1e-14))

    mid = OrthogonalArc(-math.pi / 3, math.pi / 3).midpoint
    checks.append(("arc midpoint anchor value", abs(mid - (2 - math.sqrt(3))) < 1e-14))

    arc = OrthogonalArc(-0.4, 0.7)
    center, radius = arc.circle()
    checks.append(("midpoint lies on its own arc",
                   abs(abs(arc.midpoint - center) - radius) < 1e-12))
    return checks


def exactpoly() -> list[tuple[str, bool]]:
    from .exactpoly import (ONE, combination, iterated_xgcd, poly_divmod, poly_from_complex,
                            poly_to_complex, residual_l1_bound)

    checks = []

    f = poly_from_complex((0, 0, 1))                     # z^2
    g = poly_from_complex((-0.5, 1.0))                   # z - 1/2
    d, cof = iterated_xgcd((f, g))
    checks.append(("coprime pair has unit gcd", d == ((ONE,), 1)))
    checks.append(("bezout identity exact", combination((f, g), cof) == d))
    checks.append(("anchor cofactors (4, -4z - 2)",
                   [poly_to_complex(c) for c in cof] == [[4], [-2, -4]]))
    checks.append(("exact identity has zero residual bound",
                   residual_l1_bound([[0, 0, 1], [-0.5, 1]], [[4], [-2, -4]]) == 0.0))

    h, g2 = combination([f], [g]), combination([g], [g])
    d2, cof2 = iterated_xgcd((h, g2))
    checks.append(("common factor recovered",
                   d2 == g and combination((h, g2), cof2) == d2))

    checks.append(("division exact", poly_divmod(h[0], g[0]) == (f[0], ())))
    return checks


def hoffman() -> list[tuple[str, bool]]:
    from .blaschke import BlaschkeProduct, DiscSequence
    from .hoffman import compose_trace, l2_distance_to_identity, schwarz_check

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

    trace = compose_trace(lambda z: np.full_like(z, 2.5), DiscSequence((0.9, 0.95, 0.99)))
    checks.append(("constant trace is flat",
                   trace.samples.shape == (3, 40) and bool(np.all(trace.samples == 2.5))))
    return checks


def measures() -> list[tuple[str, bool]]:
    from .functions import FunctionSpec
    from .measures import (PushforwardDensity, SimpleDensity, fit_simple_density,
                           poisson_integral, poisson_kernel, quartiles)

    checks = []

    checks.append(("poisson kernel closed form", abs(poisson_kernel(0.5, 0.0) - 3.0) < 1e-14))

    f = FunctionSpec.polynomial((1, 2, 0.5))
    z = 0.3 + 0.2j
    val = poisson_integral(f, z, nodes=1024)
    checks.append(("poisson integral reproduces values", abs(val - f(z)) < 1e-10))

    s = SimpleDensity.uniform(-0.8, 0.8)
    qp = quartiles(s)
    checks.append(("uniform quartiles mirror", qp.beta == -qp.alpha and abs(qp.alpha + 0.4) < 1e-15))

    u = PushforwardDensity(s, 0.3 + 0.1j)
    checks.append(("pushforward preserves mass", abs(u.mass(nodes=1024) - 1) < 1e-10))

    fit = fit_simple_density((), [(-0.5, 0.0), (0.0, 0.5)], eps=1e-6)
    vals = fit.density(np.array([-0.25, 0.25]))
    checks.append(("empty fit is uniform", abs(vals[0] - vals[1]) < 1e-14))
    return checks


# the suite of each module, by the dotted name cli._COMMANDS lists
SUITES = {f"corona_lab.{suite.__name__}": suite
          for suite in (blaschke, corona, disc_geometry, exactpoly, hoffman, measures)}
