"""Constructions on the unit disc: Blaschke products, pseudo-hyperbolic
geometry, circle densities, recentering limits, and Bezout certificates."""

from .blaschke import (BlaschkeProduct, DiscSequence, LadderConstruction, Sector,
                       carleson_diagnostics, compose_with_mobius, construct_ladder,
                       modulus_lower_bound)
from .corona import (BezoutCertificate, CoronaInstance, GridSpec, bezout_exact,
                     bezout_numeric, check_certificate, cluster_scenario,
                     measure_delta)
from .disc_geometry import (MobiusAut, OrthogonalArc, geodesic_endpoints,
                            orthogonal_arc_midpoint, pseudo_disc_euclidean,
                            pseudo_distance)
from .errors import (AliasingError, ConfigError, ConstructionError, CoronaLabError,
                     DomainError, ExtractionError, InfeasibleError, QuadratureError,
                     UnsolvableError)
from .functions import FunctionSpec
from .hoffman import (CompositionTrace, L2Report, compose_trace,
                      l2_distance_to_identity, schwarz_check)
from .measures import (DensityFit, QuartilePair, SimpleDensity, TargetFunctional,
                       align_arcs, fit_simple_density, poisson_integral,
                       poisson_kernel, pushforward_density, quartiles)

__version__ = "0.1.0"

__all__ = [
    "AliasingError", "BezoutCertificate", "BlaschkeProduct", "CompositionTrace",
    "ConfigError", "ConstructionError", "CoronaInstance", "CoronaLabError",
    "DensityFit", "DiscSequence", "DomainError", "ExtractionError", "FunctionSpec",
    "GridSpec", "InfeasibleError", "L2Report", "LadderConstruction", "MobiusAut",
    "OrthogonalArc", "QuadratureError", "QuartilePair", "Sector", "SimpleDensity",
    "TargetFunctional", "UnsolvableError", "align_arcs", "bezout_exact",
    "bezout_numeric", "carleson_diagnostics", "check_certificate",
    "cluster_scenario", "compose_trace", "compose_with_mobius", "construct_ladder",
    "fit_simple_density", "geodesic_endpoints", "l2_distance_to_identity",
    "measure_delta", "modulus_lower_bound", "orthogonal_arc_midpoint",
    "poisson_integral", "poisson_kernel", "pseudo_disc_euclidean",
    "pseudo_distance", "pushforward_density", "quartiles", "schwarz_check",
]
