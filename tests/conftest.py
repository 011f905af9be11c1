"""Shared fixtures and hypothesis strategies."""

import importlib.util
import os
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from flatiso.diagrep import DiagonalRep

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("quick", max_examples=25, deadline=None)
settings.load_profile(os.getenv("HYPOTHESIS_PROFILE", "default"))


@st.composite
def diagonal_reps(draw, max_k=4, max_n=12, min_n=1, q0_zero=False):
    k = draw(st.integers(1, max_k))
    size = 1 << k
    q = [0] * size
    n = draw(st.integers(max(min_n, 1), max_n))
    for _ in range(n):
        lo = 1 if q0_zero else 0
        q[draw(st.integers(lo, size - 1))] += 1
    return DiagonalRep(k, tuple(q))


def random_rep(rng: random.Random, k: int, n: int, q0_zero=True, faithful=False) -> DiagonalRep:
    """Multiplicity vector n thrown uniformly over the (nonzero) characters;
    when faithful is set, resample until the support spans."""
    from flatiso.diagrep import is_faithful
    size = 1 << k
    while True:
        q = [0] * size
        for _ in range(n):
            q[rng.randrange(1 if q0_zero else 0, size)] += 1
        rep = DiagonalRep(k, tuple(q))
        if not faithful or is_faithful(rep):
            return rep


@pytest.fixture
def rng():
    return random.Random(20240811)


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    """Import scripts/<name>.py as a module, without running its main()."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
