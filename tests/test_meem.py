import numpy as np
import numpy.testing as npt
import pytest

from ioshock import (
    Constraints,
    ShockScenario,
    build_economy,
    classify,
    coefficients,
    make_constraints,
    solve_meem,
)
from ioshock.economy import LeontiefOperator
from ioshock.errors import SingularBlock
from ioshock.meem import check_feasibility

from conftest import random_economy, random_scenario


def run(e, c):
    op = coefficients(e)
    return solve_meem(e, op, c, classify(e, c))


def sides(supply):
    """The (supply, demand) index sets of classify's mask."""
    return np.flatnonzero(supply), np.flatnonzero(~supply)


class TestClassify:
    def test_no_shock_all_demand_side(self, chain3):
        c = Constraints(np.array(chain3.x), np.array(chain3.f))
        S, D = sides(classify(chain3, c))
        assert S.size == 0
        npt.assert_array_equal(D, [0, 1, 2])

    def test_chain3_fixture(self, chain3, chain3_constraints):
        S, D = sides(classify(chain3, chain3_constraints))
        npt.assert_array_equal(S, [0])
        npt.assert_array_equal(D, [1, 2])

    def test_magnitudes_not_rates_decide(self, chain3):
        # 20% output shock and 50% consumption shock on industry 1 remove
        # the same 2 units; the tie goes to the demand side
        s = ShockScenario(np.array([0.2, 0.0, 0.0]), np.array([0.5, 0.0, 0.0]))
        S, D = sides(classify(chain3, make_constraints(chain3, s)))
        assert S.size == 0
        npt.assert_array_equal(D, [0, 1, 2])

    def test_strictly_larger_supply_shock_wins(self, chain3):
        s = ShockScenario(np.array([0.21, 0.0, 0.0]), np.array([0.5, 0.0, 0.0]))
        S, _ = sides(classify(chain3, make_constraints(chain3, s)))
        assert 0 in S

    def test_partition_is_exhaustive(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            e = random_economy(rng)
            supply = classify(e, make_constraints(e, random_scenario(rng, e.n)))
            assert supply.dtype == bool and supply.shape == (e.n,)
            merged = np.sort(np.concatenate(sides(supply)))
            npt.assert_array_equal(merged, np.arange(e.n))


class TestSolve:
    def test_chain3_negative_consumption(self, chain3, chain3_constraints):
        sol = run(chain3, chain3_constraints)
        npt.assert_allclose(sol.x, [5.0, 6.0, 8.0])
        npt.assert_allclose(sol.f, [-1.0, 6.0, 8.0])
        assert not sol.feasible
        npt.assert_array_equal(sol.negative_consumption, [True, False, False])
        assert not sol.consumption_above_max.any()
        assert not sol.output_above_max.any()
        assert not sol.negative_output.any()

    def test_pair2_feasible_case(self, pair2):
        c = make_constraints(pair2, ShockScenario(np.array([0.5, 0.0]), np.zeros(2)))
        sol = run(pair2, c)
        npt.assert_allclose(sol.x, [5.0, 6.5])
        npt.assert_allclose(sol.f, [3.375, 5.0])
        assert sol.feasible

    def test_pair2_deep_shock_goes_negative(self, pair2):
        c = make_constraints(pair2, ShockScenario(np.array([0.9, 0.0]), np.zeros(2)))
        sol = run(pair2, c)
        npt.assert_allclose(sol.x, [1.0, 5.3])
        npt.assert_allclose(sol.f, [-0.325, 5.0])
        assert not sol.feasible
        npt.assert_array_equal(sol.negative_consumption, [True, False])

    def test_pair2_supply_binding_matches_lp_optimum(self, pair2, pair2_constraints):
        sol = run(pair2, pair2_constraints)
        npt.assert_allclose(sol.x, [9.0, 4.0])
        npt.assert_allclose(sol.f, [8.0, 1.3])
        assert sol.feasible

    def test_zero_shock_recovers_baseline(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            e = random_economy(rng)
            sol = run(e, Constraints(np.array(e.x), np.array(e.f)))
            npt.assert_allclose(sol.x, e.x, rtol=1e-9)
            npt.assert_allclose(sol.f, e.f, rtol=1e-9, atol=1e-12)
            assert sol.feasible

    def test_pinned_values_hold_exactly(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            e = random_economy(rng)
            c = make_constraints(e, random_scenario(rng, e.n))
            supply = classify(e, c)
            sol = solve_meem(e, coefficients(e), c, supply)
            S, D = sides(supply)
            npt.assert_array_equal(sol.x[S], c.x_max[S])
            npt.assert_array_equal(sol.f[D], c.f_max[D])

    def test_accounting_identity(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            e = random_economy(rng)
            op = coefficients(e)
            c = make_constraints(e, random_scenario(rng, e.n))
            sol = solve_meem(e, op, c, classify(e, c))
            npt.assert_allclose(sol.x, op.A @ sol.x + sol.f,
                                rtol=1e-8, atol=1e-8)

    def test_endogenous_output_nonnegative(self):
        # (I - A_dd)^-1 is nonnegative for productive economies, so the
        # demand block's output cannot go negative under ceiling shocks
        rng = np.random.default_rng(47)
        for _ in range(30):
            e = random_economy(rng)
            c = make_constraints(e, random_scenario(rng, e.n))
            sol = run(e, c)
            assert not sol.negative_output.any()
            assert np.all(sol.x >= -1e-9)

    def test_all_supply_constrained(self):
        Z = np.array([[0.0, 5.0], [0.0, 0.0]])
        e = build_economy(Z, np.array([5.0, 10.0]))
        c = make_constraints(e, ShockScenario(np.array([0.9, 0.1]), np.zeros(2)))
        sol = run(e, c)
        npt.assert_allclose(sol.x, [1.0, 9.0])
        npt.assert_allclose(sol.f, [1.0 - 4.5, 9.0])
        npt.assert_array_equal(sol.negative_consumption, [True, False])

    def test_singular_block_raised(self, pair2):
        # a hand-built operator whose demand block hits spectral radius one
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        op = LeontiefOperator(A=A, L=np.eye(2))
        c = Constraints(np.array([10.0, 8.0]), np.array([8.0, 5.0]))
        with pytest.raises(SingularBlock):
            solve_meem(pair2, op, c, classify(pair2, c))


class TestDiagnostics:
    def test_consumption_above_max(self):
        # a mild supply shock upstream plus a deep demand shock downstream
        # leaves the upstream residual above its consumption ceiling
        Z = np.array([[0.0, 5.0], [0.0, 0.0]])
        e = build_economy(Z, np.array([5.0, 10.0]))

        def solve_at(alpha):
            s = ShockScenario(np.array([0.1, 0.0]), np.array([0.0, 0.8]),
                              alpha_supply=alpha, alpha_demand=alpha)
            return run(e, make_constraints(e, s))

        sol = solve_at(0.5)
        npt.assert_allclose(sol.f[0], 6.5)
        npt.assert_array_equal(sol.consumption_above_max, [True, False])
        assert not sol.feasible

    def test_violation_persists_as_shocks_scale_up(self):
        Z = np.array([[0.0, 5.0], [0.0, 0.0]])
        e = build_economy(Z, np.array([5.0, 10.0]))
        fired = False
        for alpha in np.linspace(0.05, 1.0, 20):
            s = ShockScenario(np.array([0.9, 0.1]), np.zeros(2),
                              alpha_supply=alpha, alpha_demand=alpha)
            sol = run(e, make_constraints(e, s))
            # f_1 = 5 - 8.5 alpha crosses zero at alpha = 10/17 and stays
            npt.assert_allclose(sol.f[0], 5.0 - 8.5 * alpha)
            if fired:
                assert sol.negative_consumption[0]
            if sol.negative_consumption[0]:
                fired = True
                assert alpha > 10.0 / 17.0 - 1e-12
        assert fired

    def test_check_feasibility_respects_partition_sides(self, pair2):
        c = Constraints(np.array([10.0, 4.0]), np.array([8.0, 5.0]))
        supply = classify(pair2, c)
        # violations on the pinned side are never reported: only the
        # endogenous quantities are diagnosed
        sol = check_feasibility(np.array([9.0, 4.0]), np.array([-2.0, 1.3]), supply, c)
        assert not sol.negative_consumption.any()
        sol = check_feasibility(np.array([20.0, 4.0]), np.array([8.0, 1.3]), supply, c)
        npt.assert_array_equal(sol.output_above_max, [True, False])
        assert not sol.feasible

    def test_tolerance_scales_with_magnitude(self, pair2):
        c = Constraints(np.array([10.0, 4.0]), np.array([8.0, 5.0]))
        supply = classify(pair2, c)
        x = np.array([1.0e9, 4.0])
        sol = check_feasibility(x, np.array([8.0, -0.1]), supply, c)
        # an absolute 0.1 violation is below the relative tolerance here
        assert not sol.negative_consumption.any()
