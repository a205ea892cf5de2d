import ast
import math
from pathlib import Path

import numpy as np
import pytest

import qtrace
from qtrace import gst, rng
from qtrace.gst import estimate_g_power_trace
from qtrace.noise_bounds import EXACT, MeasureMode
from qtrace.rng import rng_stream


@pytest.mark.parametrize("args, t", [((-1,), 0), ((1, -3), 0), ((1,), -1)])
def test_negative_coordinates_raise(args, t):
    with pytest.raises(ValueError):
        rng_stream(*args, t)


@pytest.mark.parametrize("mode", [EXACT, MeasureMode("shots", shots=1000)], ids=["exact", "shots"])
def test_gst_monte_carlo_seeds_one_stream_per_chunk(ref3, monkeypatch, mode):
    seeded = []

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            seeded.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    budget = 1000
    estimate_g_power_trace(ref3, 3, strategy="mc", budget=budget, rng=17, mode=mode,
                           allow_pseudoinverse=True)
    # Exactly one SeedSequence per chunk, keyed by the chunk's first draw.
    assert seeded == [([17, lo],) for lo in range(0, budget, gst._WORD_CHUNK)]
    assert len(seeded) == math.ceil(budget / gst._WORD_CHUNK)


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
