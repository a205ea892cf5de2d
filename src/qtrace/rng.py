"""Deterministic RNG stream derivation.

Estimators derive one independent substream per (master seed, index...) so
that results are reproducible and no chunk of work shares a stream with
another.  ``rng_stream(seed, *key)`` is the definition: a PCG64 generator
seeded from ``np.random.SeedSequence([seed, *key])``.  HT and GST Monte
Carlo each open one stream per fixed chunk of draws, keyed by the chunk's
first index, so a chunk pays for one SeedSequence whatever its size.
"""

from __future__ import annotations

import numpy as np

#: Master seeds drawn from a Generator live in [0, 2**63).
_SEED_SPAN = 1 << 63


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the given (seed, *key) coordinates."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def as_master_seed(rng: "int | np.random.Generator") -> int:
    """Normalize a seed-or-generator argument to a master seed integer.

    Passing an int gives fully reproducible derived streams; passing a
    Generator draws a master seed from it (reproducible iff the generator
    state is).
    """
    if isinstance(rng, (int, np.integer)):
        if rng < 0:
            raise ValueError(f"seed must be non-negative, got {rng}")
        return int(rng)
    if isinstance(rng, np.random.Generator):
        return int(rng.integers(_SEED_SPAN))
    raise TypeError(f"expected int seed or numpy Generator, got {type(rng)!r}")
