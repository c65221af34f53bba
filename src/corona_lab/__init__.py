"""Constructions on the unit disc: Blaschke products, pseudo-hyperbolic
geometry, circle densities, recentering limits, and Bezout certificates.

The public names resolve on first access (PEP 562), so ``import corona_lab``
loads no submodule and a subcommand loads only the modules it uses."""

from importlib import import_module

__version__ = "0.1.0"

# public name -> defining module, the one list of the package surface
_SOURCE = {name: module for module, names in {
    "blaschke": ("BlaschkeProduct", "DiscSequence", "LadderConstruction", "Sector",
                 "carleson_diagnostics", "compose_with_mobius", "construct_ladder",
                 "modulus_lower_bound"),
    "corona": ("BezoutCertificate", "CoronaInstance", "GridSpec", "bezout_exact",
               "bezout_numeric", "check_certificate", "cluster_scenario", "measure_delta"),
    "disc_geometry": ("MobiusAut", "OrthogonalArc", "geodesic_endpoints",
                      "pseudo_disc_euclidean", "pseudo_distance"),
    "errors": ("AliasingError", "ConfigError", "ConstructionError", "CoronaLabError",
               "DomainError", "ExtractionError", "InfeasibleError", "QuadratureError",
               "UnsolvableError"),
    "functions": ("FunctionSpec",),
    "hoffman": ("CompositionTrace", "L2Report", "compose_trace", "l2_distance_to_identity",
                "schwarz_check"),
    "measures": ("DensityFit", "PushforwardDensity", "QuartilePair", "SimpleDensity",
                 "align_arcs", "fit_simple_density", "poisson_integral", "poisson_kernel",
                 "quartiles"),
}.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
