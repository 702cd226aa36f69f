"""Shared fixtures for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, so a failure they
# find reproduces instead of reading as a flaky test.  The deep profile
# draws ten times the default examples, for a suite run on its own
# (``--hypothesis-profile derandomized-deep``): a branch only a long
# sequence reaches still fails on every run.
settings.register_profile("derandomized", derandomize=True)
settings.register_profile("derandomized-deep", derandomize=True,
                          max_examples=10 * settings.default.max_examples)
settings.load_profile("derandomized")

from repro.core import HaloSystem
from repro.sim import Engine, MemoryHierarchy, SKYLAKE_SP_16C, TINY_MACHINE, Tracer


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def hierarchy():
    """The full paper machine (Table 2)."""
    return MemoryHierarchy(SKYLAKE_SP_16C)


@pytest.fixture
def tiny_hierarchy():
    """A small machine for eviction-path tests."""
    return MemoryHierarchy(TINY_MACHINE)


@pytest.fixture
def tracer():
    return Tracer()


@pytest.fixture
def system():
    return HaloSystem()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_keys(count, seed=0, key_bytes=16):
    """Distinct deterministic byte keys (key values are baked into some
    recorded expectations)."""
    keys = set()
    out = []
    generator = np.random.default_rng(seed)
    while len(out) < count:
        key = bytes(generator.integers(0, 256, size=key_bytes,
                                       dtype=np.uint8))
        if key not in keys:
            keys.add(key)
            out.append(key)
    return out


@pytest.fixture
def keys16():
    return make_keys(64, seed=7)
