"""qtrace: power functions Tr{rho^m} and Tr{rho ln rho} of ensemble-prepared
random quantum states, via Hadamard-test Monte Carlo and subspace gate-set
tomography, verified against an exact span-space oracle.
"""

from .qcore import ProductGate, RotationParams, make_single_qubit_gate
from .ensemble import (
    EnsembleSpec,
    exact_combination_trace,
    exact_entropy_trace,
    exact_g_power_trace,
    exact_power_trace,
    exact_rho_g_power_trace,
)
from .noise_bounds import MeasureMode
from .gst import CombinationTrace, SubspaceBasis
from .series import SeriesWeights, TraceEstimate, binomial_weights, entropy_weights, evaluate_series

__version__ = "0.1.0"

__all__ = [
    "CombinationTrace",
    "EnsembleSpec",
    "MeasureMode",
    "ProductGate",
    "RotationParams",
    "SeriesWeights",
    "SubspaceBasis",
    "TraceEstimate",
    "binomial_weights",
    "entropy_weights",
    "evaluate_series",
    "exact_combination_trace",
    "exact_entropy_trace",
    "exact_g_power_trace",
    "exact_power_trace",
    "exact_rho_g_power_trace",
    "make_single_qubit_gate",
]
