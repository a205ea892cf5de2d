"""Deterministic RNG stream derivation.

Estimators derive one independent substream per (master seed, index...) so
that results are reproducible and no chunk of work shares a stream with
another.  ``rng_stream(seed, *key)`` is the definition: a PCG64 generator
seeded from ``np.random.SeedSequence([seed, *key])``.

A loop that wants the streams (seed, *key, t) of many consecutive t uses a
``StreamFamily`` instead.  It computes the SeedSequence hash for aligned
blocks of STREAM_BLOCK indices at once with uint32 array operations, seeds
PCG64 from the hash in Python integers, and writes the result into one
reused generator, so each index costs a state write rather than a
SeedSequence, a PCG64 and a Generator.  The generator it hands out starts in
exactly the state of ``rng_stream(seed, *key, t)``.  The hash follows
numpy's SeedSequence (after M. O'Neill's ``seed_seq_fe``); the PCG64 seeding
follows O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically
Good Algorithms for Random Number Generation" (HMC-CS-2014-0905).
"""

from __future__ import annotations

import numpy as np

#: Master seeds drawn from a Generator live in [0, 2**63).
_SEED_SPAN = 1 << 63

#: Indices whose stream states a ``StreamFamily`` derives together.  Block
#: edges are multiples of it, and 2**32 is one, so every index of a block
#: has the same number of 32-bit entropy words.
STREAM_BLOCK = 256

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants, its pool of four uint32 words and its shift.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_XSHIFT = 16

#: PCG64's 128-bit LCG multiplier.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the given (seed, *key) coordinates."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's entropy words of one non-negative int, low word first."""
    if n < 0:
        raise ValueError(f"stream coordinates must be non-negative, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashmix(value: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    value = value ^ np.uint32(hash_const)
    hash_const = (hash_const * mult) & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> np.uint32(_XSHIFT)), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> np.uint32(_XSHIFT))


def _pcg64_seeds(entropy: list[np.ndarray]) -> tuple[list[int], list[int]]:
    """(state, inc) of PCG64 seeded from ``SeedSequence(row)`` for each row
    of ``entropy``, given as its uint32 columns, one array per word."""
    # SeedSequence.mix_entropy: fill the pool, mix it with itself, then fold
    # in the words past the pool.
    hash_const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        word = entropy[i] if i < len(entropy) else np.zeros_like(entropy[0])
        mixed, hash_const = _hashmix(word, hash_const, _MULT_A)
        pool.append(mixed)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixed, hash_const = _hashmix(pool[i_src], hash_const, _MULT_A)
                pool[i_dst] = _mix(pool[i_dst], mixed)
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            mixed, hash_const = _hashmix(word, hash_const, _MULT_A)
            pool[i_dst] = _mix(pool[i_dst], mixed)
    # generate_state(4, uint64): eight uint32 words cycling over the pool,
    # paired little-endian into (seed hi, seed lo, initseq hi, initseq lo).
    hash_const = _INIT_B
    out32 = []
    for i in range(8):
        word, hash_const = _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B)
        out32.append(word.astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (
        (out32[2 * j] | (out32[2 * j + 1] << np.uint64(32))).tolist() for j in range(4)
    )
    # pcg_setseq_128_srandom_r: inc = 2 initseq + 1, then two LCG steps with
    # the seed added in between.
    states, incs = [], []
    for s_hi, s_lo, q_hi, q_lo in zip(seed_hi, seed_lo, seq_hi, seq_lo):
        inc = (((q_hi << 64) | q_lo) << 1 | 1) & _MASK128
        states.append(((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128)
        incs.append(inc)
    return states, incs


class StreamFamily:
    """The streams ``rng_stream(seed, *key, t)`` for t = 0, 1, 2, ...

    ``at(t)`` returns one reused generator set to the start of stream t; it
    stays valid until the next ``at`` call.  The states of the block of
    STREAM_BLOCK indices around the last t asked for are held, so a loop
    over consecutive t derives each block once.
    """

    def __init__(self, seed: int, *key: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._prefix = [w for n in (int(seed), *map(int, key)) for w in _uint32_words(n)]
        # Seeded only to read no OS entropy; ``at`` overwrites the state.
        self._bitgen = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bitgen)
        self._base = -1
        self._states: list[int] = []
        self._incs: list[int] = []

    def _derive_block(self, base: int) -> None:
        # Only the low word of the index varies inside an aligned block.
        low, *high = _uint32_words(base)
        words = [np.full(STREAM_BLOCK, w, dtype=np.uint32) for w in self._prefix]
        words.append(np.arange(low, low + STREAM_BLOCK, dtype=np.uint32))
        words += [np.full(STREAM_BLOCK, w, dtype=np.uint32) for w in high]
        self._states, self._incs = _pcg64_seeds(words)
        self._base = base

    def at(self, t: int) -> np.random.Generator:
        if t < 0:
            raise ValueError(f"stream index must be non-negative, got {t}")
        base = t - t % STREAM_BLOCK
        if base != self._base:
            self._derive_block(base)
        i = t - base
        self._bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": self._states[i], "inc": self._incs[i]},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._generator


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
