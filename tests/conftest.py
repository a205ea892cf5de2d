import math

import numpy as np
import pytest
from hypothesis import strategies as st

from qtrace import EnsembleSpec, ProductGate, RotationParams

#: The four-gate, n=3 reference model used throughout (probabilities
#: .1/.2/.3/.4; each component the same single-qubit gate on every qubit).
REFERENCE_ANGLES = [
    (0.29, 0.07, 0.11),
    (0.46, 0.62, 0.82),
    (0.41, 0.59, 0.53),
    (0.55, 0.31, 0.60),
]
REFERENCE_PROBS = [0.1, 0.2, 0.3, 0.4]


def reference_spec(n: int = 3) -> EnsembleSpec:
    gates = tuple(
        ProductGate.uniform(n, RotationParams(t * math.pi, p * math.pi, l * math.pi))
        for t, p, l in REFERENCE_ANGLES
    )
    return EnsembleSpec(n, np.array(REFERENCE_PROBS), gates)


@pytest.fixture(scope="session")
def ref3() -> EnsembleSpec:
    return reference_spec(3)


def random_rotation(rng: np.random.Generator) -> RotationParams:
    return RotationParams(*(rng.uniform(-2 * math.pi, 2 * math.pi) for _ in range(3)))


def random_product_gate(rng: np.random.Generator, n: int) -> ProductGate:
    return ProductGate(n, tuple(random_rotation(rng) for _ in range(n)))


def random_ensemble(rng: np.random.Generator, n: int, alpha: int) -> EnsembleSpec:
    probs = rng.uniform(0.2, 1.0, size=alpha)
    probs /= probs.sum()
    gates = tuple(random_product_gate(rng, n) for _ in range(alpha))
    return EnsembleSpec(n, probs, gates)


@st.composite
def small_ensembles(draw) -> EnsembleSpec:
    """Random ensembles with n <= 6 and alpha <= 6; some repeat a component,
    which makes the Gram rank-deficient."""
    n = draw(st.integers(1, 6))
    alpha = draw(st.integers(1, 6))
    spec = random_ensemble(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, alpha)
    if alpha > 1 and draw(st.booleans()):
        gates = spec.gates[:-1] + spec.gates[:1]
        spec = EnsembleSpec(n, spec.probs, gates)
    return spec
