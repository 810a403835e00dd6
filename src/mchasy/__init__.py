"""Transition-zone asymptotics of a modified Camassa-Holm flow.

Evaluates the explicit large-time wave forms in the two Painleve zones and
the collisionless-shock zone from scattering data: a reflection coefficient
on the real line plus unit-circle discrete spectrum.
"""

__version__ = "0.1.0"

from .errors import MchasyError
from .numerics import airy, jacobi_theta
from .painleve2 import PIISolution, SolutionCache, eval_pii, solve_pii
from .phase import RegionConstants, RegionTag, SpaceTimePoint, classify, scaled_s
from .region1 import AsymptoticValue, u_region1
from .region2 import Region2Constants, f_II, lambda_ab, psi_ab, region2_constants, u_region2
from .region3 import ShockGeometry, ShockParams, build_geometry, delta0, nr7_coeffs, solve_band, u_region3
from .scattering import DiscreteSpectrum, ReflectionCoefficient, ScatteringData, check_symmetries, log_T_i, log_transforms, t_i_and_t1

__all__ = [
    "__version__", "MchasyError",
    "airy", "jacobi_theta",
    "PIISolution", "SolutionCache", "solve_pii", "eval_pii",
    "SpaceTimePoint", "RegionTag", "RegionConstants", "scaled_s", "classify",
    "ReflectionCoefficient", "DiscreteSpectrum", "ScatteringData",
    "check_symmetries", "log_T_i", "log_transforms", "t_i_and_t1",
    "AsymptoticValue", "u_region1",
    "Region2Constants", "region2_constants", "lambda_ab", "psi_ab", "f_II",
    "u_region2",
    "ShockParams", "ShockGeometry", "solve_band", "build_geometry", "delta0",
    "nr7_coeffs", "u_region3",
]
