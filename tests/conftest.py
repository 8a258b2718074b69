"""Shared fixtures: the two hand-checked toy economies and generators
for random productive economies."""

import tracemalloc

import numpy as np
import pytest

#: one line per acceptance criterion, printed after the test run
ACCEPTANCE_REPORT = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_REPORT:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_REPORT):
            terminalreporter.write_line(line)

from ioshock import (
    Constraints,
    ShockScenario,
    build_economy,
    coefficients,
    make_constraints,
)

# pair2: two industries trading with each other.
PAIR2_Z = np.array([[0.0, 2.0], [3.0, 0.0]])
PAIR2_F = np.array([8.0, 5.0])

# chain3: industry 1 supplies industries 2 and 3, which only serve consumers.
CHAIN3_Z = np.array([[0.0, 4.0, 2.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
CHAIN3_F = np.array([4.0, 6.0, 8.0])


@pytest.fixture
def pair2():
    return build_economy(PAIR2_Z, PAIR2_F)


@pytest.fixture
def pair2_op(pair2):
    return coefficients(pair2)


@pytest.fixture
def pair2_constraints():
    # the canonical pair2 shock: output of industry 2 halved
    return Constraints(x_max=np.array([10.0, 4.0]), f_max=np.array([8.0, 5.0]))


@pytest.fixture
def pair2_scenario():
    # the scenario whose ceilings are pair2_constraints
    return ShockScenario(np.array([0.0, 0.5]), np.zeros(2))


@pytest.fixture
def chain3():
    return build_economy(CHAIN3_Z, CHAIN3_F)


@pytest.fixture
def chain3_op(chain3):
    return coefficients(chain3)


@pytest.fixture
def chain3_scenario():
    # the canonical chain3 scenario: 50% supply shock to the supplier
    return ShockScenario(np.array([0.5, 0.0, 0.0]), np.zeros(3))


@pytest.fixture
def chain3_constraints(chain3, chain3_scenario):
    return make_constraints(chain3, chain3_scenario)


def productive_economy(rng, n, density):
    """A productive economy of n industries whose flows are present with
    probability ``density``: column sums of A bounded below 0.9."""
    A = rng.random((n, n)) * (rng.random((n, n)) < density)
    col = A.sum(axis=0)
    target = 0.1 + 0.8 * rng.random(n)
    A = A / np.where(col > 0, col, 1.0)[np.newaxis, :] * target[np.newaxis, :]
    f = 0.1 + 10.0 * rng.random(n)
    x = np.linalg.solve(np.eye(n) - A, f)
    return build_economy(A * x[np.newaxis, :], f)


def random_economy(rng, n=None):
    """A random productive economy of 2 to 8 industries unless n is given."""
    if n is None:
        n = int(rng.integers(2, 9))
    return productive_economy(rng, n, 0.8)


def sized_economy(seed, n, density):
    """The seeded economies of the benchmark's inputs."""
    return productive_economy(np.random.default_rng(seed), n, density)


def random_scenario(rng, n, max_supply=1.0, max_demand=1.0):
    return ShockScenario(
        max_supply * rng.random(n) * (rng.random(n) < 0.7),
        max_demand * rng.random(n) * (rng.random(n) < 0.7),
    )


def traced_peak(fn, *args):
    """Peak bytes tracemalloc saw allocated while fn(*args) ran."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
