"""qtrace: power functions Tr{rho^m} and Tr{rho ln rho} of ensemble-prepared
random quantum states, via Hadamard-test Monte Carlo and subspace gate-set
tomography, verified against an exact span-space oracle.
"""

from .qcore import (
    ProductGate,
    Reflection,
    RotationParams,
    StateVector,
    apply_reflection,
    make_single_qubit_gate,
    overlap,
    prepare_state,
)
from .ensemble import (
    DensityMatrix,
    EnsembleSpec,
    build_density_matrix,
    exact_combination_trace,
    exact_entropy_trace,
    exact_g_power_trace,
    exact_power_trace,
    sample_component,
)
from .ht import HtSample, TraceEstimate
from .gst import Combination, CombinationTrace, MeasureMode, SubspaceBasis
from .series import SeriesWeights, binomial_weights, entropy_weights, evaluate_series

__version__ = "0.1.0"

__all__ = [
    "Combination",
    "CombinationTrace",
    "DensityMatrix",
    "EnsembleSpec",
    "HtSample",
    "MeasureMode",
    "ProductGate",
    "Reflection",
    "RotationParams",
    "SeriesWeights",
    "StateVector",
    "SubspaceBasis",
    "TraceEstimate",
    "apply_reflection",
    "binomial_weights",
    "build_density_matrix",
    "entropy_weights",
    "evaluate_series",
    "exact_combination_trace",
    "exact_entropy_trace",
    "exact_g_power_trace",
    "exact_power_trace",
    "make_single_qubit_gate",
    "overlap",
    "prepare_state",
    "sample_component",
]
