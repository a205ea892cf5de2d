import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from qtrace import EnsembleSpec, rotation_ket

#: The four-gate, n=3 reference model used throughout (probabilities
#: .1/.2/.3/.4; each component the same single-qubit gate on every qubit).
REFERENCE_ANGLES = [
    (0.29, 0.07, 0.11),
    (0.46, 0.62, 0.82),
    (0.41, 0.59, 0.53),
    (0.55, 0.31, 0.60),
]
REFERENCE_PROBS = [0.1, 0.2, 0.3, 0.4]

SRC = str(Path(__file__).resolve().parents[1] / "src")


def cli_env(**extra: str) -> dict[str, str]:
    """Environment for a ``python -m qtrace`` child process: this checkout's
    ``src`` first on PYTHONPATH, plus ``extra``."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else ""), **extra}


def ket(theta: float, phi: float, lam: float) -> tuple[complex, complex]:
    """u|0> of the rotation (theta, phi, lam), radians, as the CLI builds it."""
    return rotation_ket(theta, phi)


def angle_spec(n: int, probs, *components, ket=ket) -> EnsembleSpec:
    """The ensemble whose component i rotates qubit q by the angle triple
    ``components[i][q]`` (radians); a component given as one triple rotates
    every qubit alike.  ``ket`` maps a triple to u|0>."""
    kets = [[ket(*t) for t in (c if np.ndim(c) == 2 else [c] * n)] for c in components]
    return EnsembleSpec(n, probs, np.array(kets))


def reference_spec(n: int = 3) -> EnsembleSpec:
    return angle_spec(n, REFERENCE_PROBS,
                      *((t * math.pi, p * math.pi, l * math.pi) for t, p, l in REFERENCE_ANGLES))


@pytest.fixture(scope="session")
def ref3() -> EnsembleSpec:
    return reference_spec(3)


def random_ensemble(rng: np.random.Generator, n: int, alpha: int, ket=ket) -> EnsembleSpec:
    """Probabilities in [0.2, 1) renormalized, and one uniform angle triple
    in [-2 pi, 2 pi) per qubit, drawn component by component."""
    probs = rng.uniform(0.2, 1.0, size=alpha)
    probs /= probs.sum()
    angles = [[[rng.uniform(-2 * math.pi, 2 * math.pi) for _ in range(3)] for _ in range(n)]
              for _ in range(alpha)]
    return angle_spec(n, probs, *angles, ket=ket)


@st.composite
def small_ensembles(draw) -> EnsembleSpec:
    """Random ensembles with n <= 6 and alpha <= 6; some repeat a component,
    which makes the Gram rank-deficient."""
    n = draw(st.integers(1, 6))
    alpha = draw(st.integers(1, 6))
    spec = random_ensemble(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, alpha)
    if alpha > 1 and draw(st.booleans()):
        spec = EnsembleSpec(n, spec.probs, np.concatenate([spec.kets[:-1], spec.kets[:1]]))
    return spec
