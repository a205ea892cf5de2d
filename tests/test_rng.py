import ast
import math
from pathlib import Path

import numpy as np
import pytest

import qtrace
from qtrace import rng
from qtrace.gst import estimate_g_power_trace
from qtrace.rng import STREAM_BLOCK, StreamFamily, rng_stream

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1)
KEYS = ((), (3,), (10_003,), (2, 5))
INDICES = (0, 1, 255, 256, 257, 2**32 - 1, 2**32, 2**32 + 5)


def draws(g):
    """Three draws in a row, each from where the previous one left the stream."""
    return g.random(5), g.binomial(1000, 0.3, 4), g.standard_normal(4)


def assert_same_stream(family, seed, key, t):
    for got, want in zip(draws(family.at(t)), draws(rng_stream(seed, *key, t)), strict=True):
        assert np.array_equal(got, want), (seed, key, t)


class TestStreamFamily:
    @pytest.mark.parametrize("key", KEYS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_rng_stream(self, seed, key):
        family = StreamFamily(seed, *key)
        for t in INDICES:
            assert_same_stream(family, seed, key, t)

    def test_consecutive_indices_across_block_edges(self):
        family = StreamFamily(2**32 + 7, 4)
        for t in range(STREAM_BLOCK - 3, 2 * STREAM_BLOCK + 3):
            assert_same_stream(family, 2**32 + 7, (4,), t)

    def test_descending_indices(self):
        family = StreamFamily(99, 1)
        for t in (*range(2 * STREAM_BLOCK + 2, STREAM_BLOCK - 3, -1), 2**32 + 1, 2**32 - 1, 0):
            assert_same_stream(family, 99, (1,), t)

    def test_one_generator_is_reused(self):
        family = StreamFamily(5)
        assert family.at(0) is family.at(STREAM_BLOCK + 1)

    @pytest.mark.parametrize("args, t", [((-1,), 0), ((1, -3), 0), ((1,), -1)])
    def test_negative_coordinates_raise(self, args, t):
        with pytest.raises(ValueError):
            StreamFamily(*args).at(t)
        with pytest.raises(ValueError):
            rng_stream(*args, t)


def test_gst_monte_carlo_derives_streams_per_block(ref3, monkeypatch):
    built = []

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    def counting_default_rng(*args, **kwargs):
        built.append(args)
        return np.random.Generator(np.random.PCG64(*args, **kwargs))

    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
    budget = 1000
    estimate_g_power_trace(ref3, 3, strategy="mc", budget=budget, rng=17)
    assert len(built) <= math.ceil(budget / STREAM_BLOCK)


def _called_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id


def test_streams_are_seeded_only_in_rng_module():
    package = Path(qtrace.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert Path(rng.__file__) in sources
    for path in sources:
        if path.name == "rng.py":
            continue
        names = set(_called_names(ast.parse(path.read_text(encoding="utf-8"))))
        assert not names & {"SeedSequence", "default_rng"}, path.name
