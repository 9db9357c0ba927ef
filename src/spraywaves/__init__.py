"""Wave-stability analysis toolkit for kinetic-fluid (thick spray) models."""

__version__ = "0.1.0"

from . import errors
from .dispersion import (RootReport, SearchRegion, SprayParams, count_roots,
                         dispersion_value, find_roots, landau_dispersion,
                         make_params, spectral_verdict, thin_spray_expansion)
from .hyperbolic import (ModeVerdict, SystemCoupling, scalar_law, scalar_root,
                         stability_necessary_condition, symmetric_eigen,
                         track_secular_root)
from .modesim import (ModeState, SimConfig, Trajectory, growth_rate,
                      init_eigenmode, integrate, recurrence_time,
                      sobolev_scaling_experiment)
from .profiles import (VelocityProfile, compatibility_alpha, eval_df, eval_f,
                       make_bump_on_tail, maxwellian, moment, profile_sum)
from .quadrature import Branch, cauchy_transform, classify_branch

__all__ = [
    "__version__", "errors",
    "VelocityProfile", "maxwellian", "make_bump_on_tail", "profile_sum",
    "eval_f", "eval_df", "moment", "compatibility_alpha",
    "Branch", "classify_branch", "cauchy_transform",
    "SprayParams", "SearchRegion", "RootReport", "make_params",
    "dispersion_value", "landau_dispersion",
    "count_roots", "find_roots", "thin_spray_expansion", "spectral_verdict",
    "SystemCoupling", "scalar_law", "ModeVerdict", "scalar_root",
    "symmetric_eigen", "stability_necessary_condition", "track_secular_root",
    "ModeState", "SimConfig", "Trajectory", "init_eigenmode", "integrate",
    "growth_rate", "recurrence_time", "sobolev_scaling_experiment",
]
