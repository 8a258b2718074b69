"""End-to-end acceptance checks, one test per criterion.

Each criterion reports a single pass/fail line in the terminal summary.
Criterion 10 needs externally licensed national IO tables and is skipped
unless the data directory is supplied via IOSHOCK_WIOD_DIR.
"""

import functools
import os
import time

import numpy as np
import numpy.testing as npt
import pytest

from ioshock import (
    ALL_METHODS,
    ShockScenario,
    SweepSpec,
    aggregate_shocks,
    build_economy,
    build_max_output_lp,
    classify,
    coefficients,
    make_constraints,
    optimal_allocation,
    parse_economy_csv,
    parse_shocks_csv,
    ration_largest_first,
    ration_mixed,
    ration_proportional,
    ration_random,
    run_method,
    solve,
    solve_meem,
    sweep_density,
    sweep_scale,
    write_results,
)

from conftest import ACCEPTANCE_REPORT, random_economy, random_scenario
from test_lp import enumerate_vertices

RATIONING = ("proportional", "mixed", "largest_first", "random")


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_REPORT.append(
                    f"criterion {number:2d}: FAIL - {description}")
                raise
            ACCEPTANCE_REPORT.append(
                f"criterion {number:2d}: PASS - {description}")
        return wrapper
    return decorate


def evaluate(method, e, op, c, seed=0):
    allocation = run_method(method, e, op, c, seed=seed)
    assert allocation.converged
    return allocation


@criterion(1, "baseline recovery at zero shock scale for every method")
def test_baseline_recovery(pair2, chain3):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    economies = [pair2, chain3] + [random_economy(rng) for _ in range(50)]
    for e in economies:
        op = coefficients(e)
        s = ShockScenario(rng.random(e.n), rng.random(e.n),
                          alpha_supply=0.0, alpha_demand=0.0)
        c = make_constraints(e, s)
        for method in ALL_METHODS:
            a = evaluate(method, e, op, c)
            npt.assert_allclose(a.x, e.x, rtol=1e-9)
            npt.assert_allclose(a.f, e.f, rtol=1e-9, atol=1e-9 * e.f.max())
    assert time.perf_counter() - start < 1.0


@criterion(2, "three-industry chain fixture table across all methods")
def test_chain3_fixture_table(chain3, chain3_op, chain3_constraints):
    start = time.perf_counter()
    e, op, c = chain3, chain3_op, chain3_constraints
    res = ration_proportional(e, op, c)
    npt.assert_allclose(res.x, [5.0, 3.0, 4.0], atol=1e-6)
    npt.assert_allclose(res.f, [2.0, 3.0, 4.0], atol=1e-6)
    res = ration_mixed(e, op, c)
    npt.assert_allclose(res.x, [5.0, 5.0, 20.0 / 3.0], atol=1e-6)
    npt.assert_allclose(res.f, [0.0, 5.0, 20.0 / 3.0], atol=1e-6)
    res = ration_largest_first(e, op, c)
    npt.assert_allclose(res.x, [5.0, 6.0, 4.0], atol=1e-6)
    npt.assert_allclose(res.f, [0.0, 6.0, 4.0], atol=1e-6)
    best = optimal_allocation(op, c, "output")
    assert best.x.sum() == pytest.approx(17.5, abs=1e-6)
    npt.assert_allclose(best.x, [5.0, 4.5, 8.0], atol=1e-6)
    sol = solve_meem(e, op, c, classify(e, c))
    assert sol.f[0] == pytest.approx(-1.0, abs=1e-6)
    assert sol.negative_consumption[0] and not sol.feasible
    assert time.perf_counter() - start < 1.0


@criterion(3, "two-industry pair fixture table and degenerate ensemble")
def test_pair2_fixture_table(pair2, pair2_op, pair2_constraints, pair2_scenario):
    from ioshock import summarize

    e, op, c = pair2, pair2_op, pair2_constraints
    best = optimal_allocation(op, c, "output")
    npt.assert_allclose(best.f, [8.0, 1.3], atol=1e-6)
    npt.assert_allclose(best.x, [9.0, 4.0], atol=1e-6)
    res = ration_proportional(e, op, c)
    npt.assert_allclose(res.x, [5.0, 4.0], atol=1e-6)
    npt.assert_allclose(res.f, [4.0, 2.5], atol=1e-6)
    expect_x = np.array([330.0, 136.0]) / 37.0
    for res in (ration_mixed(e, op, c), ration_largest_first(e, op, c),
                *(ration_random(e, op, c, seed) for seed in range(5))):
        npt.assert_allclose(res.x, expect_x, atol=1e-6)
        npt.assert_allclose(res.f, [8.0, 1.0], atol=1e-6)
    same = make_constraints(e, pair2_scenario)
    npt.assert_array_equal(same.x_max, c.x_max)
    npt.assert_array_equal(same.f_max, c.f_max)
    spec = SweepSpec(methods=("random",), grid=((1.0, 1.0),), random_samples=100)
    (stats,) = summarize(sweep_scale(e, pair2_scenario, spec)[0])
    assert stats.q75_output - stats.q25_output == pytest.approx(0.0, abs=1e-12)


@criterion(4, "demand-only shocks: methods coincide and scale affinely")
def test_demand_only_linearity(chain3):
    rng = np.random.default_rng(104)
    alphas = np.linspace(0.0, 1.0, 11)
    economies = [chain3] + [random_economy(rng) for _ in range(20)]
    # the pass-through ceiling allocator pins output at the unshocked
    # ceilings, so agreement is asserted across the shock-responding methods
    methods = tuple(m for m in ALL_METHODS if m != "direct")
    for e in economies:
        s = ShockScenario(np.zeros(e.n), rng.random(e.n))
        spec = SweepSpec(methods=methods,
                         grid=tuple((0.0, a) for a in alphas))
        records, _ = sweep_scale(e, s, spec)
        curve = {}
        for r in records:
            curve.setdefault(r.alpha_demand, []).append(r.norm_output)
        values = []
        for a in alphas:
            group = curve[a]
            assert max(group) - min(group) <= 1e-8
            values.append(group[0])
        # affine in alpha: vanishing second differences
        second = np.diff(values, n=2)
        assert np.max(np.abs(second)) < 1e-8


@criterion(5, "rationing feasibility and best-case dominance at scale")
def test_dominance_and_feasibility():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    for k in range(200):
        e = random_economy(rng)
        op = coefficients(e)
        c = make_constraints(e, random_scenario(rng, e.n))
        best = optimal_allocation(op, c, "output").x.sum()
        for method in RATIONING:
            a = run_method(method, e, op, c, seed=k)
            if not a.converged:
                continue
            assert a.feasible
            assert np.all(a.x >= -1e-9) and np.all(a.x <= c.x_max + 1e-9)
            assert np.all(a.f >= -1e-9) and np.all(a.f <= c.f_max + 1e-9)
            npt.assert_allclose(a.x, op.L @ a.f,
                                atol=1e-8 * e.x.sum(), rtol=1e-8)
            assert a.x.sum() <= best + 1e-8
    assert time.perf_counter() - start < 30.0


@criterion(6, "simplex agrees with exhaustive vertex enumeration")
def test_lp_oracle_equivalence():
    rng = np.random.default_rng(106)
    checked = 0
    while checked < 100:
        e = random_economy(rng, n=int(rng.integers(2, 4)))
        op = coefficients(e)
        c = make_constraints(e, random_scenario(rng, e.n))
        for objective in ("output", "consumption"):
            lp = build_max_output_lp(op, c, objective)
            sol = solve(lp)
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(enumerate_vertices(lp),
                                                  abs=1e-6)
            checked += 1


@criterion(7, "block-solve diagnostics fire exactly where predicted")
def test_meem_diagnostics():
    Z = np.array([[0.0, 5.0], [0.0, 0.0]])
    e = build_economy(Z, np.array([5.0, 10.0]))
    op = coefficients(e)
    alphas = np.linspace(0.05, 1.0, 20)

    # both industries supply-constrained: upstream consumption turns
    # negative once the shock scale crosses 10/17 and stays negative
    for alpha in alphas:
        s = ShockScenario(np.array([0.9, 0.1]), np.zeros(2), alpha, alpha)
        c = make_constraints(e, s)
        sol = solve_meem(e, op, c, classify(e, c))
        assert sol.f[0] == pytest.approx(5.0 - 8.5 * alpha)
        expect = alpha > 10.0 / 17.0
        assert bool(sol.negative_consumption[0]) == expect
        assert not sol.consumption_above_max.any()
        assert not sol.output_above_max.any()

    # mild upstream supply shock with a deep downstream demand shock:
    # the upstream residual exceeds its consumption ceiling at any scale
    for alpha in alphas:
        s = ShockScenario(np.array([0.1, 0.0]), np.array([0.0, 0.8]),
                          alpha, alpha)
        c = make_constraints(e, s)
        sol = solve_meem(e, op, c, classify(e, c))
        assert sol.f[0] == pytest.approx(5.0 + 3.0 * alpha)
        assert sol.consumption_above_max[0]
        assert not sol.negative_consumption.any()

    # endogenous output stays nonnegative on the random economy family
    rng = np.random.default_rng(105)
    for _ in range(200):
        re = random_economy(rng)
        c = make_constraints(re, random_scenario(rng, re.n))
        sol = solve_meem(re, coefficients(re), c, classify(re, c))
        assert not sol.negative_output.any()


@criterion(8, "density-sweep degenerate ends match closed forms")
def test_density_sweep_ends(chain3, chain3_scenario):
    current = 2.0 / 9.0
    spec = SweepSpec(grid=(current,), random_samples=3)
    dens = sweep_density(chain3, chain3_scenario, spec)
    plain, _ = sweep_scale(chain3, chain3_scenario,
                           SweepSpec(grid=((1.0, 1.0),), random_samples=3))
    assert len(dens) == len(plain)
    for d, p in zip(dens, plain):
        assert (d.method, d.sample) == (p.method, p.sample)
        assert d.total_output == p.total_output  # bit-exact
        assert d.total_consumption == p.total_consumption

    def empty_network_total(alpha):
        records = sweep_density(chain3, chain3_scenario.with_alphas(alpha, alpha),
                                SweepSpec(grid=(0.0,),
                                          removal_mode="smallest_first"))
        return {r.method: r.total_output for r in records}

    # with every link removed each industry produces min(x_max, f_max)
    assert all(v == pytest.approx(18.0, abs=1e-9)
               for v in empty_network_total(0.0).values())
    assert all(v == pytest.approx(16.0, abs=1e-9)
               for v in empty_network_total(1.0).values())


@criterion(9, "sweeps are byte-identical across reruns")
def test_sweep_determinism(tmp_path, chain3, chain3_scenario):
    from ioshock import file_digest, summarize

    def emit(tag):
        spec = SweepSpec(grid=tuple((a, a) for a in (0.0, 0.5, 1.0)),
                         repetitions=2, random_samples=5, master_seed=7)
        records, _ = sweep_scale(chain3, chain3_scenario, spec)
        return write_results(tmp_path / tag, [], records,
                             summarize(records), {"master_seed": 7})

    digests = [[file_digest(p) for p in emit(tag)] for tag in ("a", "b", "c")]
    assert digests[0] == digests[1] == digests[2]


WIOD_DIR = os.environ.get("IOSHOCK_WIOD_DIR", "")


@pytest.mark.skipif(not WIOD_DIR, reason="set IOSHOCK_WIOD_DIR to run "
                    "against user-supplied national IO tables")
@criterion(10, "national-table aggregates and best-case output range")
def test_national_tables():
    economy = parse_economy_csv(os.path.join(WIOD_DIR, "germany.csv"))
    scenario = parse_shocks_csv(os.path.join(WIOD_DIR, "germany_shocks.csv"),
                                economy.labels)
    op = coefficients(economy)
    c = make_constraints(economy, scenario)
    eps_s, eps_d = aggregate_shocks(economy, c)
    assert eps_s == pytest.approx(0.31, abs=0.005)
    assert eps_d == pytest.approx(0.09, abs=0.005)
    best = optimal_allocation(op, c, "output")
    norm = best.x.sum() / economy.x.sum()
    assert 0.61 <= norm <= 0.65
