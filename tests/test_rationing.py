import numpy as np
import numpy.testing as npt
import pytest

from ioshock import (
    Constraints,
    RationingOptions,
    ShockScenario,
    SweepSpec,
    build_economy,
    coefficients,
    make_constraints,
    optimal_allocation,
    ration_largest_first,
    ration_mixed,
    ration_proportional,
    ration_random,
    summarize,
    sweep_scale,
    total_demand,
)
from ioshock.rationing import random_rankings

from conftest import random_economy, random_scenario

PAIR2_MIXED_X = np.array([330.0, 136.0]) / 37.0

# seed 3 makes supplier 1 rank customer 3 ahead of customer 2 on chain3
CHAIN3_SEED_32 = 3
CHAIN3_SEED_23 = 0

ALGORITHMS = (ration_proportional, ration_mixed, ration_largest_first)


def no_shock(e):
    return Constraints(np.array(e.x), np.array(e.f))


class TestProportional:
    def test_pair2_fixture(self, pair2, pair2_op, pair2_constraints):
        res = ration_proportional(pair2, pair2_op, pair2_constraints)
        assert res.converged and res.iterations == 2
        npt.assert_allclose(res.allocation.x, [5.0, 4.0], atol=1e-9)
        npt.assert_allclose(res.allocation.f, [4.0, 2.5], atol=1e-9)
        assert res.allocation.feasible

    def test_no_shock_one_sweep(self, pair2, pair2_op):
        res = ration_proportional(pair2, pair2_op, no_shock(pair2))
        assert res.converged and res.iterations == 1
        npt.assert_allclose(res.allocation.x, pair2.x, rtol=1e-12)
        npt.assert_allclose(res.allocation.f, pair2.f, rtol=1e-12)

    def test_chain3_fixture(self, chain3, chain3_op, chain3_constraints):
        res = ration_proportional(chain3, chain3_op, chain3_constraints)
        npt.assert_allclose(res.allocation.x, [5.0, 3.0, 4.0], atol=1e-9)
        npt.assert_allclose(res.allocation.f, [2.0, 3.0, 4.0], atol=1e-9)

    def test_matches_plain_reimplementation(self, pair2, pair2_op, pair2_constraints):
        # unvectorized sweep of the five update rules, as an oracle
        A, L = pair2_op.A, pair2_op.L
        x_max, f_max = pair2_constraints.x_max, pair2_constraints.f_max
        n = 2
        d = L @ f_max
        for _ in range(200):
            r = [x_max[i] / d[i] if d[i] > 0 else np.inf for i in range(n)]
            s = [min([min(r[j], 1.0) for j in range(n) if A[j, i] > 0] or [1.0])
                 for i in range(n)]
            x = [min(x_max[i], s[i] * d[i]) for i in range(n)]
            f = [min(f_max[i], max(x[i] - sum(A[i, j] * x[j] for j in range(n)), 0.0))
                 for i in range(n)]
            d = L @ np.array(f)
        res = ration_proportional(pair2, pair2_op, pair2_constraints)
        npt.assert_allclose(res.allocation.x, x, atol=1e-9)
        npt.assert_allclose(res.allocation.f, f, atol=1e-9)


class TestMixed:
    def test_pair2_fixture(self, pair2, pair2_op, pair2_constraints):
        res = ration_mixed(pair2, pair2_op, pair2_constraints)
        npt.assert_allclose(res.allocation.x, PAIR2_MIXED_X, atol=1e-9)
        npt.assert_allclose(res.allocation.f, [8.0, 1.0], atol=1e-9)
        # the fixed point satisfies the production recipe
        npt.assert_allclose(res.allocation.x,
                            total_demand(pair2_op, res.allocation.f), atol=1e-9)

    def test_no_shock(self, chain3, chain3_op):
        res = ration_mixed(chain3, chain3_op, no_shock(chain3))
        npt.assert_allclose(res.allocation.x, chain3.x, rtol=1e-12)

    def test_chain3_fixture(self, chain3, chain3_op, chain3_constraints):
        res = ration_mixed(chain3, chain3_op, chain3_constraints)
        assert res.iterations == 2
        npt.assert_allclose(res.allocation.x, [5.0, 5.0, 20.0 / 3.0], atol=1e-9)
        npt.assert_allclose(res.allocation.f, [0.0, 5.0, 20.0 / 3.0], atol=1e-9)

    def test_consumption_stays_under_ceiling(self, pair2, pair2_op, pair2_constraints):
        res = ration_mixed(pair2, pair2_op, pair2_constraints)
        assert np.all(res.allocation.f <= pair2_constraints.f_max + 1e-9)


class TestLargestFirst:
    def test_chain3_fixture(self, chain3, chain3_op, chain3_constraints):
        res = ration_largest_first(chain3, chain3_op, chain3_constraints)
        assert res.converged
        npt.assert_allclose(res.allocation.x, [5.0, 6.0, 4.0], atol=1e-8)
        npt.assert_allclose(res.allocation.f, [0.0, 6.0, 4.0], atol=1e-8)

    def test_pair2_equals_mixed(self, pair2, pair2_op, pair2_constraints):
        # one intermediate customer per supplier: cumulative = total demand
        res = ration_largest_first(pair2, pair2_op, pair2_constraints)
        npt.assert_allclose(res.allocation.x, PAIR2_MIXED_X, atol=1e-9)

    def test_no_shock(self, chain3, chain3_op):
        res = ration_largest_first(chain3, chain3_op, no_shock(chain3))
        npt.assert_allclose(res.allocation.x, chain3.x, rtol=1e-12)

    def test_non_convergence_reported(self, chain3, chain3_op, chain3_constraints):
        # demand still moves after the first sweep, so one sweep cannot pass
        # the convergence test
        res = ration_largest_first(chain3, chain3_op, chain3_constraints,
                                   RationingOptions(max_iter=1))
        assert not res.converged
        assert res.iterations == 1
        assert res.residual > 1e-10


class TestRandom:
    def test_pair2_any_seed(self, pair2, pair2_op, pair2_constraints):
        for seed in range(5):
            res = ration_random(pair2, pair2_op, pair2_constraints, seed)
            npt.assert_allclose(res.allocation.x, PAIR2_MIXED_X, atol=1e-9)

    def test_no_shock(self, pair2, pair2_op):
        res = ration_random(pair2, pair2_op, no_shock(pair2), 99)
        npt.assert_allclose(res.allocation.x, pair2.x, rtol=1e-12)

    def test_chain3_reversed_ranking(self, chain3, chain3_op, chain3_constraints):
        assert list(random_rankings(chain3_op, CHAIN3_SEED_32)[0]) == [2, 1]
        res = ration_random(chain3, chain3_op, chain3_constraints, CHAIN3_SEED_32)
        npt.assert_allclose(res.allocation.x, [5.0, 4.5, 8.0], atol=1e-8)
        npt.assert_allclose(res.allocation.f, [0.0, 4.5, 8.0], atol=1e-8)

    def test_chain3_natural_ranking_matches_largest_first(
            self, chain3, chain3_op, chain3_constraints):
        assert list(random_rankings(chain3_op, CHAIN3_SEED_23)[0]) == [1, 2]
        res = ration_random(chain3, chain3_op, chain3_constraints, CHAIN3_SEED_23)
        ref = ration_largest_first(chain3, chain3_op, chain3_constraints)
        npt.assert_array_equal(res.allocation.x, ref.allocation.x)

    def test_seed_determinism(self, chain3, chain3_op, chain3_constraints):
        a = ration_random(chain3, chain3_op, chain3_constraints, 1234)
        b = ration_random(chain3, chain3_op, chain3_constraints, 1234)
        npt.assert_array_equal(a.allocation.x, b.allocation.x)
        npt.assert_array_equal(a.allocation.f, b.allocation.f)


def random_ensemble(e, scenario, samples, seed):
    """Summary of `samples` random-rationing runs at full shock scale."""
    spec = SweepSpec(methods=("random",), grid=((1.0, 1.0),),
                     random_samples=samples, master_seed=seed)
    (summary,) = summarize(sweep_scale(e, scenario, spec))
    return summary


class TestEnsemble:
    def test_pair2_iqr_zero(self, pair2, pair2_scenario, pair2_constraints):
        c = make_constraints(pair2, pair2_scenario)
        npt.assert_array_equal(c.x_max, pair2_constraints.x_max)
        npt.assert_array_equal(c.f_max, pair2_constraints.f_max)
        stats = random_ensemble(pair2, pair2_scenario, 100, 7)
        assert stats.q75_output - stats.q25_output == pytest.approx(0.0, abs=1e-12)
        assert stats.failures == 0

    def test_single_sample(self, chain3, chain3_scenario):
        stats = random_ensemble(chain3, chain3_scenario, 1, 0)
        assert stats.count == 1
        assert stats.q25_output == stats.q75_output
        assert stats.mean_output == pytest.approx(stats.q50_output)

    def test_chain3_mean_between_outcomes(self, chain3, chain3_scenario):
        stats = random_ensemble(chain3, chain3_scenario, 400, 5)
        mean_output = stats.mean_output * chain3.x.sum()
        # the two equally likely rankings give total output 15 and 17.5
        assert 15.0 < mean_output < 17.5
        assert mean_output == pytest.approx(16.25, abs=0.35)

    def test_quartile_ordering(self, chain3, chain3_scenario):
        stats = random_ensemble(chain3, chain3_scenario, 50, 21)
        assert stats.q25_output <= stats.q50_output <= stats.q75_output

    def test_rejects_zero_samples(self, chain3, chain3_scenario):
        with pytest.raises(ValueError):
            random_ensemble(chain3, chain3_scenario, 0, 0)


class TestSharedProperties:
    def test_feasibility_at_convergence(self):
        rng = np.random.default_rng(41)
        for k in range(40):
            e = random_economy(rng)
            op = coefficients(e)
            c = make_constraints(e, random_scenario(rng, e.n))
            runs = [algo(e, op, c) for algo in ALGORITHMS]
            runs.append(ration_random(e, op, c, k))
            for res in runs:
                if not res.converged:
                    continue
                a = res.allocation
                assert a.feasible
                assert np.all(a.x >= -1e-9) and np.all(a.x <= c.x_max + 1e-9)
                assert np.all(a.f >= -1e-9) and np.all(a.f <= c.f_max + 1e-9)
                npt.assert_allclose(a.x, op.L @ a.f,
                                    atol=1e-8 * e.x.sum(), rtol=1e-8)

    def test_deliveries_never_exceed_production(self):
        # at convergence output meets demand exactly, so intermediate
        # demand served plus final consumption stays within production
        rng = np.random.default_rng(53)
        converged = 0
        for k in range(30):
            e = random_economy(rng)
            op = coefficients(e)
            c = make_constraints(e, random_scenario(rng, e.n))
            for algo in ALGORITHMS:
                res = algo(e, op, c)
                if not res.converged:
                    continue
                converged += 1
                a = res.allocation
                assert np.all(op.A @ a.x + a.f <= a.x + 1e-8 * e.x.sum())
        assert converged >= 60

    def test_dominance_on_chain3(self, chain3, chain3_op, chain3_constraints):
        prop = ration_proportional(chain3, chain3_op, chain3_constraints)
        large = ration_largest_first(chain3, chain3_op, chain3_constraints)
        mixed = ration_mixed(chain3, chain3_op, chain3_constraints)
        best = optimal_allocation(chain3, chain3_constraints, "output", chain3_op)
        totals = [prop.allocation.x.sum(), large.allocation.x.sum(),
                  mixed.allocation.x.sum()]
        npt.assert_allclose(totals, [12.0, 15.0, 50.0 / 3.0], atol=1e-6)
        assert all(t <= best.x.sum() + 1e-8 for t in totals)

    def test_demand_only_shocks_hit_optimum_in_one_sweep(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            e = random_economy(rng)
            op = coefficients(e)
            c = make_constraints(e, random_scenario(rng, e.n, max_supply=0.0))
            expect = op.L @ c.f_max
            for algo in ALGORITHMS:
                res = algo(e, op, c)
                assert res.iterations == 1
                npt.assert_allclose(res.allocation.x, expect, rtol=1e-9)
            res = ration_random(e, op, c, 0)
            npt.assert_allclose(res.allocation.x, expect, rtol=1e-9)
            best = optimal_allocation(e, c, "output", op)
            assert best.x.sum() == pytest.approx(expect.sum(), rel=1e-9)

    def test_single_customer_suppliers_make_priority_rules_equal(self):
        # ring economy: every supplier has exactly one intermediate customer
        Z = np.array([[0.0, 4.0, 0.0], [0.0, 0.0, 3.0], [2.0, 0.0, 0.0]])
        e = build_economy(Z, np.array([5.0, 6.0, 7.0]))
        op = coefficients(e)
        c = make_constraints(e, ShockScenario(np.array([0.4, 0.0, 0.2]), np.zeros(3)))
        mixed = ration_mixed(e, op, c)
        large = ration_largest_first(e, op, c)
        rand = ration_random(e, op, c, 11)
        npt.assert_allclose(large.allocation.x, mixed.allocation.x, atol=1e-9)
        npt.assert_allclose(rand.allocation.x, mixed.allocation.x, atol=1e-9)
