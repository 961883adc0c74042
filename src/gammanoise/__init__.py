"""gammanoise: a spectral laboratory for colored Gaussian noise on the torus.

Builds truncated Gaussian series against orthonormal systems, measures their
negative-smoothness norms three ways (Monte Carlo, square function, exact
Hilbert-Schmidt), studies the convolution-type operators behind multiplier
bounds, integrates the additive stochastic heat equation, and sweeps the
parameter boundaries where the sharp convergence conditions flip.
"""

from .conditions import ParamTuple, predicted_exponent, sharp_condition
from .fit import classify_growth
from .grid import (Grid, SpectralField, constant_field, field_from_function,
                   forward_transform, mode_field)
from .norms import bessel_kernel, hsq_norm, lq_norm, weak_lp_norm
from .operators import (ConvPair, afg_bruteforce_hs, afg_gamma_norm, gamma_young_check,
                        mg_sobolev_gamma_norm, schatten_heat_norm)
from .series import (MCEstimate, SeriesSpec, hs_gamma_norm_exact, mc_gamma_norm,
                     sq_function_gamma_norm)
from .spde import (DiagonalNoise, SpdeConfig, SystemNoise, Trajectory,
                   scaling_diagnostic, second_moment_closed_form, simulate)
from .systems import (Coloring, FourierSystem, HaarSystem, ShiftedBumpSystem,
                      SyntheticGrowthSystem, haar_lattice_sums)

__version__ = "0.1.0"

__all__ = [
    "Grid", "SpectralField", "forward_transform",
    "constant_field", "mode_field", "field_from_function",
    "lq_norm", "weak_lp_norm", "hsq_norm", "bessel_kernel",
    "Coloring", "FourierSystem", "HaarSystem", "ShiftedBumpSystem",
    "SyntheticGrowthSystem", "haar_lattice_sums",
    "ParamTuple", "sharp_condition", "predicted_exponent",
    "SeriesSpec", "MCEstimate", "mc_gamma_norm",
    "sq_function_gamma_norm", "hs_gamma_norm_exact", "classify_growth",
    "ConvPair", "afg_gamma_norm", "afg_bruteforce_hs", "gamma_young_check",
    "mg_sobolev_gamma_norm", "schatten_heat_norm",
    "DiagonalNoise", "SystemNoise", "SpdeConfig", "Trajectory", "simulate",
    "second_moment_closed_form", "scaling_diagnostic",
]
