"""qtrace: power functions Tr{rho^m} and Tr{rho ln rho} of ensemble-prepared
random quantum states, via Hadamard-test Monte Carlo and subspace gate-set
tomography, verified against an exact span-space oracle.
"""

from .ensemble import (
    EnsembleSpec,
    exact_combination_trace,
    exact_entropy_trace,
    exact_g_power_trace,
    exact_power_trace,
    exact_rho_g_power_trace,
    rotation_ket,
)
from .noise_bounds import MeasureMode
from .gst import CombinationTrace, SubspaceBasis
from .series import SeriesWeights, TraceEstimate, binomial_weights, entropy_weights, evaluate_series

__version__ = "0.1.0"

__all__ = [
    "CombinationTrace",
    "EnsembleSpec",
    "MeasureMode",
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
    "rotation_ket",
]


# Outside the API: perfbench/tests still builds EnsembleSpec(n, probs, gates)
# from these two names, which stay as ket builders until it builds kets.
def RotationParams(theta: float, phi: float, lam: float) -> tuple[complex, complex]:  # noqa: N802
    return rotation_ket(theta, phi)


def ProductGate(n: int, factors: tuple) -> tuple:  # noqa: N802
    return factors
