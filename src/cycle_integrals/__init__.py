"""Zero counting and certification for abelian integrals and displacement
functions on zero-dimensional cycles of polynomial deformations."""

__version__ = "0.1.0"

from .config import Settings, DEFAULT
from .cycles import (Cycle, SymmetryGroup, GenericityCertificate,
                     bound_infinitesimal, bound_simple, bound_tangential,
                     infinity_point_count, is_asymmetric, random_generic_cycle,
                     regular_at_infinity, symmetry_group)
from .counting import (AlienReport, ZeroReport, classify_alien,
                       count_infinitesimal_zeros, count_tangential_zeros,
                       run_sharpness_experiment)
from .melnikov import (BrieskornBasis, Instance, OraclePoly, abelian_integral,
                       brieskorn_dimension, brieskorn_generators,
                       build_infinitesimal_oracle, build_tangential_oracle,
                       design_g_with_zeros, displacement, reduce_deformation)
from .poly import (ComplexPoly, CriticalData, RatPoly, critical_values,
                   poly_gcd, roots)
from .tracking import (Fiber, MonodromyRep, circulant_rank, monodromy,
                       orbit_rank, solve_fiber, track_path)

__all__ = [
    "Settings", "DEFAULT",
    "Cycle", "SymmetryGroup", "GenericityCertificate",
    "bound_infinitesimal", "bound_simple", "bound_tangential",
    "infinity_point_count", "is_asymmetric", "random_generic_cycle",
    "regular_at_infinity", "symmetry_group",
    "AlienReport", "ZeroReport", "classify_alien",
    "count_infinitesimal_zeros", "count_tangential_zeros",
    "run_sharpness_experiment",
    "BrieskornBasis", "Instance", "OraclePoly", "abelian_integral",
    "brieskorn_dimension", "brieskorn_generators",
    "build_infinitesimal_oracle", "build_tangential_oracle",
    "design_g_with_zeros", "displacement", "reduce_deformation",
    "ComplexPoly", "CriticalData", "RatPoly", "critical_values",
    "poly_gcd", "roots",
    "Fiber", "MonodromyRep", "circulant_rank", "monodromy",
    "orbit_rank", "solve_fiber", "track_path",
]
