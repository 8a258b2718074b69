import numpy as np
import numpy.testing as npt
import pytest

from ioshock import (
    Constraints,
    ShockScenario,
    aggregate_shocks,
    build_economy,
    coefficients,
    direct_allocation,
    make_constraints,
    supply_shock,
)
from ioshock.errors import DimensionMismatch, NegativeEntry, OutOfRange, ZeroAggregate

from conftest import random_economy


class TestSupplyShock:
    # published examples: non-essential forestry, fully essential
    # agriculture, half-remote electronics manufacturing
    @pytest.mark.parametrize("rli,essential,expected", [
        (0.15, 0.0, 0.85),
        (0.136, 1.0, 0.0),
        (0.569, 0.0, 0.431),
    ])
    def test_published_values(self, rli, essential, expected):
        assert supply_shock(rli, essential) == pytest.approx(expected, abs=1e-12)

    def test_vectorized(self):
        out = supply_shock(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        npt.assert_allclose(out, [1.0, 0.0])

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            supply_shock(1.2, 0.0)
        with pytest.raises(OutOfRange):
            supply_shock(0.5, -0.1)

    def test_nan_rejected(self):
        with pytest.raises(OutOfRange, match="rli must lie in"):
            supply_shock(np.nan, 0.0)


class TestScenario:
    def test_validation(self):
        with pytest.raises(OutOfRange):
            ShockScenario(np.array([1.5]), np.array([0.0]))
        with pytest.raises(OutOfRange):
            ShockScenario(np.array([0.5]), np.array([0.0]), alpha_supply=2.0)

    def test_nan_shock_rejected(self):
        with pytest.raises(OutOfRange, match="eps_supply must lie in"):
            ShockScenario(np.array([np.nan, 0.0]), np.zeros(2))

    def test_nan_alpha_rejected(self):
        with pytest.raises(OutOfRange, match="alpha_supply must lie in"):
            ShockScenario(np.zeros(2), np.zeros(2), alpha_supply=np.nan)


class TestConstraints:
    @pytest.mark.parametrize("x_max,message", [
        # a NaN ceiling once ran every rationing sweep up to max_iter
        ([np.nan, 1.0], r"x_max\[0\] = nan is not finite"),
        # a negative one once stalled ration_mixed at x = [-1, 0]
        ([-1.0, 1.0], r"x_max\[0\] = -1.0 is negative"),
        ([1.0, np.inf], r"x_max\[1\] = inf is not finite"),
    ], ids=["nan", "negative", "inf"])
    def test_bad_ceiling_rejected(self, x_max, message):
        with pytest.raises(NegativeEntry, match=message):
            Constraints(np.array(x_max), np.ones(2))

    def test_bad_consumption_ceiling_rejected(self):
        with pytest.raises(NegativeEntry, match=r"f_max\[1\] = nan"):
            Constraints(np.ones(2), np.array([1.0, np.nan]))

    @pytest.mark.parametrize("x_max,f_max", [
        (np.ones(3), np.ones(2)),
        (np.ones((1, 2)), np.ones((1, 2))),
    ], ids=["two_lengths", "two_dimensional"])
    def test_shape_rejected(self, x_max, f_max):
        with pytest.raises(DimensionMismatch, match="ceilings must be 1-D"):
            Constraints(x_max, f_max)


class TestMakeConstraints:
    def test_no_shock(self, chain3):
        s = ShockScenario(np.array([0.5, 0.0, 0.0]), np.zeros(3),
                          alpha_supply=0.0, alpha_demand=0.0)
        c = make_constraints(chain3, s)
        npt.assert_array_equal(c.x_max, chain3.x)
        npt.assert_array_equal(c.f_max, chain3.f)

    def test_large_supply_shock(self):
        e = build_economy(np.zeros((1, 1)), [100.0])
        c = make_constraints(e, ShockScenario(np.array([0.85]), np.array([0.0])))
        npt.assert_allclose(c.x_max, [15.0])

    def test_chain3_fixture(self, chain3, chain3_constraints):
        npt.assert_allclose(chain3_constraints.x_max, [5.0, 6.0, 8.0])
        npt.assert_allclose(chain3_constraints.f_max, [4.0, 6.0, 8.0])

    def test_dimension_mismatch(self, chain3):
        with pytest.raises(DimensionMismatch):
            make_constraints(chain3, ShockScenario(np.zeros(2), np.zeros(2)))

    def test_zero_final_demand_stays_zero(self):
        e = build_economy([[0.0, 1.0], [0.0, 0.0]], [1.0, 2.0])
        c = make_constraints(e, ShockScenario(np.zeros(2), np.array([0.0, 0.5])))
        assert c.f_max[0] == e.f[0]
        assert c.f_max[1] == 1.0

    def test_monotone_in_alpha_and_eps(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            e = random_economy(rng)
            eps_s = rng.random(e.n)
            eps_d = rng.random(e.n)
            a1, a2 = sorted(rng.random(2))
            lo = make_constraints(e, ShockScenario(eps_s, eps_d, a2, a2))
            hi = make_constraints(e, ShockScenario(eps_s, eps_d, a1, a1))
            assert np.all(lo.x_max <= hi.x_max + 1e-12)
            assert np.all(lo.f_max <= hi.f_max + 1e-12)

    def test_affine_in_alpha(self, chain3):
        eps_s = np.array([0.5, 0.2, 0.1])
        eps_d = np.array([0.1, 0.3, 0.0])

        def at(a):
            return make_constraints(chain3, ShockScenario(eps_s, eps_d, a, a))

        mid = at(0.5)
        npt.assert_allclose(mid.x_max, 0.5 * (at(0.0).x_max + at(1.0).x_max))
        npt.assert_allclose(mid.f_max, 0.5 * (at(0.0).f_max + at(1.0).f_max))


class TestAggregateShocks:
    def test_no_shock(self, chain3):
        c = Constraints(np.array(chain3.x), np.array(chain3.f))
        assert aggregate_shocks(chain3, c) == (0.0, 0.0)

    def test_chain3_fixture(self, chain3, chain3_constraints):
        eps_s, eps_d = aggregate_shocks(chain3, chain3_constraints)
        assert eps_s == pytest.approx(5.0 / 24.0)
        assert eps_d == 0.0

    def test_zero_aggregate(self):
        e = build_economy(np.zeros((1, 1)), [0.0])
        with pytest.raises(ZeroAggregate):
            aggregate_shocks(e, Constraints(np.zeros(1), np.zeros(1)))

    def test_weighted_average_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            e = random_economy(rng)
            s = ShockScenario(rng.random(e.n), rng.random(e.n),
                              rng.random(), rng.random())
            eps_s, eps_d = aggregate_shocks(e, make_constraints(e, s))
            expect_s = s.alpha_supply * (s.eps_supply @ e.x) / e.x.sum()
            expect_d = s.alpha_demand * (s.eps_demand @ e.f) / e.f.sum()
            assert eps_s == pytest.approx(expect_s, abs=1e-12)
            assert eps_d == pytest.approx(expect_d, abs=1e-12)


class TestDirectAllocation:
    def test_no_shock_is_feasible(self, chain3, chain3_op):
        c = Constraints(np.array(chain3.x), np.array(chain3.f))
        a = direct_allocation(chain3_op, c)
        assert a.feasible
        assert a.method == "direct"
        assert a.iterations == 0

    def test_chain3_fixture_infeasible(self, chain3, chain3_op, chain3_constraints):
        a = direct_allocation(chain3_op, chain3_constraints)
        npt.assert_allclose(a.x, [5.0, 6.0, 8.0])
        npt.assert_allclose(a.f, [4.0, 6.0, 8.0])
        assert not a.feasible

    def test_pair2_infeasible(self, pair2, pair2_op, pair2_constraints):
        assert not direct_allocation(pair2_op, pair2_constraints).feasible
