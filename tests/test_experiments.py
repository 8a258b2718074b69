import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ioshock import (
    ALL_METHODS,
    ShockScenario,
    SweepSpec,
    build_economy,
    summarize,
    sweep_density,
    sweep_scale,
)
from ioshock.experiments import _quartiles

DEMAND_ONLY = ShockScenario(np.zeros(3), np.array([0.5, 0.0, 0.0]))


def by_method(records):
    out = {}
    for r in records:
        out.setdefault(r.method, []).append(r)
    return out


class TestSweepSpec:
    def test_defaults(self):
        spec = SweepSpec()
        assert spec.methods == ALL_METHODS

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            SweepSpec(methods=("direct", "oracle"))

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            SweepSpec(grid=((0.5, 1.2),))
        with pytest.raises(ValueError):
            SweepSpec(grid=(-0.1,))

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError):
            SweepSpec(repetitions=0)


class TestSweepScale:
    def test_baseline_point_is_one(self, chain3, chain3_scenario):
        records = sweep_scale(chain3, chain3_scenario,
                              SweepSpec(grid=((0.0, 0.0),)))
        assert len(records) == len(ALL_METHODS)
        for r in records:
            assert r.norm_output == pytest.approx(1.0, abs=1e-9)
            assert r.norm_consumption == pytest.approx(1.0, abs=1e-9)
            assert r.feasible and r.converged and not r.error

    def test_chain3_full_shock_ordering(self, chain3, chain3_scenario):
        records = sweep_scale(chain3, chain3_scenario,
                              SweepSpec(grid=((1.0, 1.0),)))
        norm = {r.method: r.norm_output for r in records}
        assert norm["proportional"] == pytest.approx(0.5)
        assert norm["largest_first"] == pytest.approx(0.625)
        assert norm["mixed"] == pytest.approx((50.0 / 3.0) / 24.0)
        assert norm["lp_output"] == pytest.approx(17.5 / 24.0)
        assert norm["direct"] == pytest.approx(19.0 / 24.0)

    def test_lp_output_dominates_rationing(self, chain3, chain3_scenario):
        grid = tuple((a, a) for a in np.linspace(0.0, 1.0, 6))
        records = sweep_scale(chain3, chain3_scenario, SweepSpec(grid=grid))
        groups = {}
        for r in records:
            groups.setdefault(r.alpha_supply, {})[r.method] = r
        for methods in groups.values():
            best = methods["lp_output"].total_output
            for name in ("proportional", "mixed", "largest_first", "random"):
                assert methods[name].total_output <= best + 1e-8

    def test_zero_alpha_supply_makes_methods_coincide(self, chain3):
        grid = tuple((0.0, a) for a in (0.0, 0.4, 0.8))
        records = sweep_scale(chain3, DEMAND_ONLY, SweepSpec(grid=grid))
        for r in records:
            # f_max = [4(1 - a/2), 6, 8] and x = L f_max for every method
            # except direct, which stays pinned at the unshocked ceilings
            a = r.alpha_demand
            expect = (24.0 - 2.0 * a) / 24.0
            if r.method == "direct":
                assert r.norm_output == pytest.approx(1.0)
            else:
                assert r.norm_output == pytest.approx(expect, abs=1e-9)

    def test_affine_in_alpha_demand(self, chain3):
        grid = tuple((0.0, a) for a in (0.0, 0.5, 1.0))
        records = sweep_scale(chain3, DEMAND_ONLY, SweepSpec(grid=grid))
        lp = sorted((r for r in records if r.method == "lp_output"),
                    key=lambda r: r.alpha_demand)
        mid = 0.5 * (lp[0].total_output + lp[2].total_output)
        assert lp[1].total_output == pytest.approx(mid, abs=1e-9)

    def test_record_count_and_grid_layout(self, chain3, chain3_scenario):
        grid = tuple((a, 0.0) for a in np.linspace(0.0, 1.0, 11))
        spec = SweepSpec(methods=("proportional", "random"), grid=grid,
                         repetitions=2, random_samples=3)
        records = sweep_scale(chain3, chain3_scenario, spec)
        # per grid point: 2 reps x (1 proportional + 3 random samples)
        assert len(records) == 11 * 2 * (1 + 3)
        alphas = {r.alpha_supply for r in records}
        assert len(alphas) == 11

    def test_empty_grid_rejected(self, chain3, chain3_scenario):
        with pytest.raises(ValueError):
            sweep_scale(chain3, chain3_scenario, SweepSpec(grid=()))


class TestSweepDensity:
    def test_current_density_reproduces_plain_run(self, chain3, chain3_scenario):
        current = 2.0 / 9.0
        spec = SweepSpec(grid=(current,), random_samples=2)
        dens = sweep_density(chain3, chain3_scenario, spec)
        scale = sweep_scale(chain3, chain3_scenario,
                            SweepSpec(grid=((1.0, 1.0),), random_samples=2))
        assert len(dens) == len(scale)
        for d, s in zip(dens, scale):
            assert d.method == s.method and d.sample == s.sample
            assert d.total_output == s.total_output
            assert d.total_consumption == s.total_consumption
            assert d.density_target == current
            assert math.isnan(s.density_target)

    def test_remove_everything(self, chain3, chain3_scenario):
        records = sweep_density(chain3, chain3_scenario,
                                SweepSpec(grid=(0.0,),
                                          removal_mode="smallest_first"))
        for r in records:
            # no intermediate links left: x = min(x_max, f_max) per industry
            assert r.total_output == pytest.approx(16.0)
            assert r.intermediate_share == 0.0
            assert r.avg_multiplier == 1.0

    def test_pair2_smallest_first_removal(self, pair2):
        s = ShockScenario(np.zeros(2), np.zeros(2))
        records = sweep_density(pair2, s,
                                SweepSpec(grid=(0.25,), methods=("direct",),
                                          removal_mode="smallest_first"))
        (r,) = records
        # dropping the smaller link (2 units from industry 1 to 2) rebalances
        # to x = [8, 8] and a lone coefficient of 3/8
        assert r.total_output == pytest.approx(16.0)
        assert r.intermediate_share == pytest.approx(3.0 / 16.0)
        assert r.avg_multiplier == pytest.approx(19.0 / 16.0)
        assert r.norm_output == pytest.approx(1.0)

    def test_smallest_first_is_single_replicate(self, chain3, chain3_scenario):
        spec = SweepSpec(grid=(2.0 / 9.0, 0.0), repetitions=5,
                         removal_mode="smallest_first", methods=("direct",))
        records = sweep_density(chain3, chain3_scenario, spec)
        assert len(records) == 2
        assert {r.replicate for r in records} == {0}

    def test_random_removal_is_seed_deterministic(self, chain3, chain3_scenario):
        spec = SweepSpec(grid=(1.0 / 9.0,), repetitions=4, master_seed=5,
                         methods=("proportional", "lp_output"))
        a = sweep_density(chain3, chain3_scenario, spec)
        b = sweep_density(chain3, chain3_scenario, spec)
        assert a == b
        assert len(a) == 4 * 2

    def test_target_above_current_rejected(self, chain3, chain3_scenario):
        with pytest.raises(ValueError):
            sweep_density(chain3, chain3_scenario, SweepSpec(grid=(0.9,)))

    def test_degenerate_removal_recorded_not_raised(self):
        # removing the only sale of a buying industry leaves it with inputs
        # and no output; the replicate must be recorded as errored
        Z = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        e = build_economy(Z, np.array([1.0, 0.0, 1.0]))
        s = ShockScenario(np.zeros(3), np.zeros(3))
        spec = SweepSpec(grid=(1.0 / 9.0,), master_seed=2,
                         methods=("direct", "proportional"))
        records = sweep_density(e, s, spec)
        assert len(records) == 2
        for r in records:
            assert r.error
            assert not r.converged
            assert math.isnan(r.total_output)


class TestSummarize:
    def test_chain3_pooling(self, chain3, chain3_scenario):
        spec = SweepSpec(grid=((0.0, 0.0), (1.0, 1.0)), repetitions=3,
                         random_samples=4, methods=("proportional", "random"))
        summaries = summarize(sweep_scale(chain3, chain3_scenario, spec))
        assert len(summaries) == 4  # 2 grid points x 2 methods
        for s in summaries:
            expect = 3 * (4 if s.method == "random" else 1)
            assert s.count == expect
            assert s.failures == 0
            assert s.q25_output <= s.q50_output <= s.q75_output

    def test_values_match_manual_aggregation(self, chain3, chain3_scenario):
        spec = SweepSpec(grid=((1.0, 1.0),), methods=("random",),
                         random_samples=16, master_seed=3)
        records = sweep_scale(chain3, chain3_scenario, spec)
        (s,) = summarize(records)
        vals = np.array([r.norm_output for r in records])
        assert s.mean_output == pytest.approx(vals.mean())
        assert s.q50_output == pytest.approx(np.percentile(vals, 50))

    def test_failures_counted_and_stats_nan(self):
        Z = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        e = build_economy(Z, np.array([1.0, 0.0, 1.0]))
        s = ShockScenario(np.zeros(3), np.zeros(3))
        spec = SweepSpec(grid=(1.0 / 9.0,), master_seed=2, methods=("direct",))
        (summ,) = summarize(sweep_density(e, s, spec))
        assert summ.count == 1 and summ.failures == 1
        assert math.isnan(summ.mean_output)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_sorted_output(self, chain3, chain3_scenario):
        spec = SweepSpec(grid=((1.0, 1.0), (0.0, 0.0)),
                         methods=("mixed", "direct"))
        summaries = summarize(sweep_scale(chain3, chain3_scenario, spec))
        keys = [(s.alpha_supply, s.method) for s in summaries]
        assert keys == sorted(keys)


#: values that tie, differ only in the sign of zero, or are not finite
SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, math.inf, -math.inf, math.nan]


def same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64),
                          np.asarray(b, dtype=float).view(np.int64))


class TestQuartiles:
    """The summary's quartiles against np.percentile, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()),
                    min_size=1, max_size=50))
    @example([-0.0])
    @example([0.0, -0.0, -0.0])
    @example([math.inf])
    @example([1.0, math.nan, 2.0])
    @example([-0.0, 0.0] * 25)
    def test_matches_numpy_percentile(self, values):
        with warnings.catch_warnings():
            # inf - inf in numpy's interpolation
            warnings.simplefilter("ignore", RuntimeWarning)
            want = np.percentile(np.array(values), [25, 50, 75])
        assert same_bits(_quartiles(np.array(values)), want)

    @pytest.mark.parametrize("n", range(1, 51))
    def test_every_size_with_duplicates(self, n):
        values = np.random.default_rng(n).integers(0, 4, n) / 4.0
        assert same_bits(_quartiles(values), np.percentile(values, [25, 50, 75]))
