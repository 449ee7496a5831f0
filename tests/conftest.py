import numpy as np
import pytest

from freezeflow import ProblemSpec, SolutionField, get_fixture


@pytest.fixture(scope="session")
def wedge_spec() -> ProblemSpec:
    return get_fixture("wedge").build()


@pytest.fixture(scope="session")
def wedge_field(wedge_spec) -> SolutionField:
    return SolutionField(wedge_spec, tolerance=1e-12)


@pytest.fixture(scope="session")
def tent_spec() -> ProblemSpec:
    return get_fixture("tent").build()


@pytest.fixture(scope="session")
def tent_field(tent_spec) -> SolutionField:
    return SolutionField(tent_spec, tolerance=1e-12)


@pytest.fixture(scope="session")
def frozen_ramp_field() -> SolutionField:
    return SolutionField(get_fixture("frozen-ramp").build(), tolerance=1e-12)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)


@pytest.fixture()
def work_counts(monkeypatch) -> dict:
    """Counts of ``_cell`` calls, level builds (``__init__``) and membership
    probes, updated as the test runs."""
    from freezeflow.levelset import _LevelPair, _LevelSlice

    counts = {"_cell": 0, "__init__": 0, "membership": 0}

    def count(cls, name):
        real = getattr(cls, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    for cls, name in ((SolutionField, "_cell"), (_LevelPair, "__init__"), (_LevelSlice, "membership")):
        count(cls, name)
    return counts
