"""SWIFT: Shannon-wavelet pricing of European vanilla options.

The price of a put is B(t,T) sum_k c_{m,k} V_{m,k}, with density
coefficients c_{m,k} computed from the characteristic function (midpoint
FFT, trapezoidal FFT, or adaptive Filon quadrature) and payoff
coefficients V_{m,k} from Si/Ein closed forms; or (em_fft) the Parseval
sum of the payoff transform against the cf on the density's own nodes.
"""

from .density import (CoefficientArray, DensityJob, FilonConvergenceError,
                      density_filon, density_mass, density_midpoint_fft,
                      density_trapezoidal_fft, density_vieta_direct)
from .models import (Cumulants, HestonParams, LognormalParams, ModelSpec,
                     char_fn, cumulants, model_from_dict, model_from_json)
from .payoff import (PayoffJob, payoff_classic_si_ein, payoff_classic_simpson,
                     payoff_classic_vieta, payoff_fft_euler_maclaurin,
                     payoff_forward_si_ein)
from .pricer import (GridSelectionError, PricingContext, PricingResult,
                     ReferenceError, WaveletGrid, auto_grid, reference_put,
                     select_k_range, select_scale, truncation_interval)
from .specfun import ein, exp_sin_integral, si
from .transform import dct2_via_fft, dst2_via_fft

__version__ = "0.1.0"

__all__ = [
    "CoefficientArray", "Cumulants", "DensityJob", "FilonConvergenceError",
    "GridSelectionError", "HestonParams", "LognormalParams", "ModelSpec",
    "PayoffJob", "PricingContext", "PricingResult", "ReferenceError",
    "WaveletGrid", "auto_grid", "char_fn", "cumulants", "dct2_via_fft", "density_filon",
    "density_mass", "density_midpoint_fft", "density_trapezoidal_fft",
    "density_vieta_direct", "dst2_via_fft", "ein", "exp_sin_integral",
    "model_from_dict", "model_from_json",
    "payoff_classic_si_ein", "payoff_classic_simpson", "payoff_classic_vieta",
    "payoff_fft_euler_maclaurin", "payoff_forward_si_ein", "reference_put",
    "select_k_range", "select_scale", "si", "truncation_interval",
]
