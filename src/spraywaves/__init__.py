"""Wave-stability analysis toolkit for kinetic-fluid (thick spray) models."""

__version__ = "0.1.0"

from . import errors
from .dispersion import (RootReport, SearchRegion, SprayParams, count_roots,
                         dispersion_parts, dispersion_value, find_roots,
                         landau_dispersion, make_params, spectral_verdict,
                         thin_spray_expansion)
from .hyperbolic import (ModeVerdict, ScalarCoupling, SystemCoupling,
                         imag_derivative_at_zero, scalar_dispersion,
                         scalar_imag_leading, scalar_root, secular_function,
                         stability_necessary_condition, symmetric_eigen,
                         track_secular_root)
from .modesim import (ModeState, SimConfig, Trajectory, growth_rate,
                      init_eigenmode, integrate, recurrence_time,
                      sobolev_scaling_experiment)
from .profiles import (VelocityProfile, compatibility_alpha, eval_df, eval_f,
                       make_bump_on_tail, maxwellian, moment, profile_sum)
from .quadrature import (Branch, QuadratureConfig, cauchy_transform, classify_branch,
                         resonance_asymptotic, resonance_integral)

__all__ = [
    "__version__", "errors",
    "VelocityProfile", "maxwellian", "make_bump_on_tail", "profile_sum",
    "eval_f", "eval_df", "moment", "compatibility_alpha",
    "QuadratureConfig", "Branch", "classify_branch", "cauchy_transform",
    "resonance_integral", "resonance_asymptotic",
    "SprayParams", "SearchRegion", "RootReport", "make_params",
    "dispersion_value", "dispersion_parts", "landau_dispersion",
    "count_roots", "find_roots", "thin_spray_expansion", "spectral_verdict",
    "ScalarCoupling", "SystemCoupling", "ModeVerdict", "scalar_dispersion",
    "scalar_root", "scalar_imag_leading", "symmetric_eigen", "secular_function",
    "imag_derivative_at_zero", "stability_necessary_condition",
    "track_secular_root",
    "ModeState", "SimConfig", "Trajectory", "init_eigenmode", "integrate",
    "growth_rate", "recurrence_time", "sobolev_scaling_experiment",
]
