from functools import partial
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ioshock import (
    Constraints,
    ShockScenario,
    SweepSpec,
    allocation_is_feasible,
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
from ioshock.rationing import (
    STALL_WINDOW,
    _bottleneck,
    _priority_bottleneck,
    _share,
    largest_first_rankings,
    random_rankings,
)

from conftest import random_economy, random_scenario, sized_economy

PAIR2_MIXED_X = np.array([330.0, 136.0]) / 37.0

# seed 0 makes supplier 1 rank customer 3 ahead of customer 2 on chain3
CHAIN3_SEED_32 = 0
CHAIN3_SEED_23 = 2

ALGORITHMS = (ration_proportional, ration_mixed, ration_largest_first)


def no_shock(e):
    return Constraints(np.array(e.x), np.array(e.f))


class TestProportional:
    def test_pair2_fixture(self, pair2, pair2_op, pair2_constraints):
        res = ration_proportional(pair2, pair2_op, pair2_constraints)
        assert res.converged and res.iterations == 2
        npt.assert_allclose(res.x, [5.0, 4.0], atol=1e-9)
        npt.assert_allclose(res.f, [4.0, 2.5], atol=1e-9)
        assert res.feasible

    def test_no_shock_one_sweep(self, pair2, pair2_op):
        res = ration_proportional(pair2, pair2_op, no_shock(pair2))
        assert res.converged and res.iterations == 1
        npt.assert_allclose(res.x, pair2.x, rtol=1e-12)
        npt.assert_allclose(res.f, pair2.f, rtol=1e-12)

    def test_chain3_fixture(self, chain3, chain3_op, chain3_constraints):
        res = ration_proportional(chain3, chain3_op, chain3_constraints)
        npt.assert_allclose(res.x, [5.0, 3.0, 4.0], atol=1e-9)
        npt.assert_allclose(res.f, [2.0, 3.0, 4.0], atol=1e-9)

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
        npt.assert_allclose(res.x, x, atol=1e-9)
        npt.assert_allclose(res.f, f, atol=1e-9)


class TestMixed:
    def test_pair2_fixture(self, pair2, pair2_op, pair2_constraints):
        res = ration_mixed(pair2, pair2_op, pair2_constraints)
        npt.assert_allclose(res.x, PAIR2_MIXED_X, atol=1e-9)
        npt.assert_allclose(res.f, [8.0, 1.0], atol=1e-9)
        # the fixed point satisfies the production recipe
        npt.assert_allclose(res.x, total_demand(pair2_op, res.f), atol=1e-9)

    def test_no_shock(self, chain3, chain3_op):
        res = ration_mixed(chain3, chain3_op, no_shock(chain3))
        npt.assert_allclose(res.x, chain3.x, rtol=1e-12)

    def test_chain3_fixture(self, chain3, chain3_op, chain3_constraints):
        res = ration_mixed(chain3, chain3_op, chain3_constraints)
        assert res.iterations == 2
        npt.assert_allclose(res.x, [5.0, 5.0, 20.0 / 3.0], atol=1e-9)
        npt.assert_allclose(res.f, [0.0, 5.0, 20.0 / 3.0], atol=1e-9)

    def test_consumption_stays_under_ceiling(self, pair2, pair2_op, pair2_constraints):
        res = ration_mixed(pair2, pair2_op, pair2_constraints)
        assert np.all(res.f <= pair2_constraints.f_max + 1e-9)


class TestLargestFirst:
    def test_chain3_fixture(self, chain3, chain3_op, chain3_constraints):
        res = ration_largest_first(chain3, chain3_op, chain3_constraints)
        assert res.converged
        npt.assert_allclose(res.x, [5.0, 6.0, 4.0], atol=1e-8)
        npt.assert_allclose(res.f, [0.0, 6.0, 4.0], atol=1e-8)

    def test_pair2_equals_mixed(self, pair2, pair2_op, pair2_constraints):
        # one intermediate customer per supplier: cumulative = total demand
        res = ration_largest_first(pair2, pair2_op, pair2_constraints)
        npt.assert_allclose(res.x, PAIR2_MIXED_X, atol=1e-9)

    def test_no_shock(self, chain3, chain3_op):
        res = ration_largest_first(chain3, chain3_op, no_shock(chain3))
        npt.assert_allclose(res.x, chain3.x, rtol=1e-12)

    def test_non_convergence_reported(self, chain3, chain3_op, chain3_constraints):
        # demand still moves after the first sweep, so one sweep cannot pass
        # the convergence test
        res = ration_largest_first(chain3, chain3_op, chain3_constraints, max_iter=1)
        assert not res.converged
        assert res.iterations == 1
        assert res.residual > 1e-10


def seeded_case(seed):
    """The economy and ceilings of ``random_economy`` and ``random_scenario``
    drawn from one generator of the given seed."""
    rng = np.random.default_rng(seed)
    e = random_economy(rng)
    op = coefficients(e)
    return e, op, make_constraints(e, random_scenario(rng, e.n))


class TestStopReason:
    """Every run ends in bounded time and says why."""

    #: most sweeps any run of the sparse set below may take: 74 of its 80
    #: runs stall and stop by sweep 100, and the slowest converged run
    #: takes 266
    SWEEP_BOUND = 500

    def test_sparse_runs_end_within_a_bound(self):
        reasons = set()
        for seed in range(10):
            for density in (0.05, 0.1):
                e = sized_economy(seed, 56, density)
                op = coefficients(e)
                c = make_constraints(e, random_scenario(np.random.default_rng(seed), e.n))
                runs = [algo(e, op, c) for algo in ALGORITHMS]
                runs.append(ration_random(e, op, c, seed))
                for a in runs:
                    assert a.iterations <= self.SWEEP_BOUND
                    assert a.stop_reason in ("converged", "stalled")
                    assert a.converged == (a.stop_reason == "converged")
                    if a.converged:
                        assert allocation_is_feasible(a.x, a.f, op, c, tol=1e-9)
                    reasons.add((a.method, a.stop_reason))
        # each rule both converges and stalls somewhere in the set
        assert reasons == {(m, r) for m in ("proportional", "mixed", "largest_first",
                                            "random")
                           for r in ("converged", "stalled")}

    def test_converged(self, chain3, chain3_op, chain3_constraints):
        res = ration_proportional(chain3, chain3_op, chain3_constraints)
        assert res.converged and res.stop_reason == "converged"

    def test_stalled(self):
        # the largest-first residual is still 1.0 after 20,000 sweeps;
        # without the window test this run sweeps on to max_iter
        e, op, c = seeded_case(28)
        res = ration_largest_first(e, op, c)
        assert res.stop_reason == "stalled" and not res.converged
        assert res.iterations == 2 * STALL_WINDOW
        assert res.residual == 1.0

    def test_max_iter(self):
        # a proportional run that converges after several windows, each
        # halving its residual, is cut short by a small max_iter
        e, op, c = seeded_case(113)
        full = ration_proportional(e, op, c)
        assert full.converged and full.iterations > 3 * STALL_WINDOW
        res = ration_proportional(e, op, c, max_iter=120)
        assert res.stop_reason == "max_iter" and not res.converged
        assert res.iterations == 120 and res.residual > 1e-10

    @pytest.mark.parametrize("rule", [*ALGORITHMS, partial(ration_random, seed=0)],
                             ids=["proportional", "mixed", "largest_first", "random"])
    def test_economy_without_output_converges_at_once(self, rule):
        # the residual's demand floor is positive even at zero total output,
        # so the zero residual is 0 rather than 0/0 = NaN, which no stop
        # test would catch before max_iter
        e = build_economy(np.zeros((2, 2)), np.zeros(2))
        res = rule(e, coefficients(e), no_shock(e), max_iter=500)
        assert res.stop_reason == "converged" and res.iterations == 1
        assert res.residual == 0.0 and res.feasible
        assert not res.x.any() and not res.f.any()


class TestOptions:
    @pytest.mark.parametrize("kwargs,match", [
        ({"max_iter": 0}, "max_iter"),
        ({"max_iter": -5}, "max_iter"),
    ])
    def test_unusable_settings_rejected(self, chain3, chain3_op, chain3_constraints,
                                        kwargs, match):
        # no sweep could run, so no rule has an allocation to return
        for rule in (*ALGORITHMS, partial(ration_random, seed=0)):
            with pytest.raises(ValueError, match=match):
                rule(chain3, chain3_op, chain3_constraints, **kwargs)


class TestRandom:
    def test_pair2_any_seed(self, pair2, pair2_op, pair2_constraints):
        for seed in range(5):
            res = ration_random(pair2, pair2_op, pair2_constraints, seed)
            npt.assert_allclose(res.x, PAIR2_MIXED_X, atol=1e-9)

    def test_no_shock(self, pair2, pair2_op):
        res = ration_random(pair2, pair2_op, no_shock(pair2), 99)
        npt.assert_allclose(res.x, pair2.x, rtol=1e-12)

    def test_chain3_reversed_ranking(self, chain3, chain3_op, chain3_constraints):
        cols, _ = random_rankings(chain3_op, CHAIN3_SEED_32)
        assert list(cols[0]) == [2, 1]
        res = ration_random(chain3, chain3_op, chain3_constraints, CHAIN3_SEED_32)
        npt.assert_allclose(res.x, [5.0, 4.5, 8.0], atol=1e-8)
        npt.assert_allclose(res.f, [0.0, 4.5, 8.0], atol=1e-8)

    def test_chain3_natural_ranking_matches_largest_first(
            self, chain3, chain3_op, chain3_constraints):
        cols, _ = random_rankings(chain3_op, CHAIN3_SEED_23)
        assert list(cols[0]) == [1, 2]
        res = ration_random(chain3, chain3_op, chain3_constraints, CHAIN3_SEED_23)
        ref = ration_largest_first(chain3, chain3_op, chain3_constraints)
        npt.assert_array_equal(res.x, ref.x)

    def test_seed_determinism(self, chain3, chain3_op, chain3_constraints):
        a = ration_random(chain3, chain3_op, chain3_constraints, 1234)
        b = ration_random(chain3, chain3_op, chain3_constraints, 1234)
        npt.assert_array_equal(a.x, b.x)
        npt.assert_array_equal(a.f, b.f)


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


def loop_bottleneck(r, A):
    """Reference: one supplier set per customer, as the kernels were first
    written; s_i = min over suppliers j of min(r_j, 1), 1 if none."""
    capped = np.minimum(r, 1.0)
    has_supplier = A > 0
    s = np.ones(A.shape[0])
    for i in range(A.shape[0]):
        suppliers = np.flatnonzero(has_supplier[:, i])
        if suppliers.size:
            s[i] = capped[suppliers].min()
    return s


def loop_largest_first(A, d1):
    """Reference: one lexsort per supplier, by weight A[i, j] * d1[j]
    descending, ties by customer index; a list of customer arrays."""
    rankings = []
    for i in range(A.shape[0]):
        customers = np.flatnonzero(A[i] > 0)
        weights = A[i, customers] * d1[customers]
        rankings.append(customers[np.lexsort((customers, -weights))])
    return rankings


def loop_random(A, seed):
    """Reference: each supplier's customers sorted by their entries in its
    row of one ``random(A.shape)`` draw; this fixes the random stream."""
    key = np.random.default_rng(seed).random(A.shape)
    rankings = []
    for i in range(A.shape[0]):
        customers = np.flatnonzero(A[i] > 0)
        rankings.append(customers[np.argsort(key[i, customers])])
    return rankings


def loop_priority_bottleneck(d, avail, A, rankings):
    """Reference: each supplier grants capacity down its ranking in turn."""
    n = A.shape[0]
    s = np.ones(n)
    for i in range(n):
        order = rankings[i]
        if order.size == 0:
            continue
        w = A[i, order] * d[order]
        cum_before = np.concatenate(([0.0], np.cumsum(w)[:-1]))
        remaining = np.maximum(avail[i] - cum_before, 0.0)
        with np.errstate(divide="ignore"):
            r = np.where(w > 0, remaining / np.where(w > 0, w, 1.0), np.inf)
        np.minimum.at(s, order, np.minimum(r, 1.0))
    return s


#: few distinct values, so that coefficients, demands and rankings tie
TIED = st.sampled_from([0.0, 0.25, 1.0, 2.5])


def each(shape, elements):
    # fill=nothing draws every element, not a few over a repeated fill value
    return hnp.arrays(float, shape, elements=elements, fill=st.nothing())


@st.composite
def kernel_case(draw):
    """(A, d, avail, ranking seed or None for largest-first) on a sparse A."""
    n = draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]))
    present = draw(each((n, n), st.floats(0, 1))) < density
    A = np.where(present, draw(each((n, n), TIED | st.floats(0.01, 0.5))), 0.0)
    d = draw(each(n, TIED | st.floats(1e-6, 100)))
    # availability from none to twice each supplier's intermediate demand
    share = draw(each(n, st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0, 2)))
    seed = draw(st.none() | st.integers(0, 2**32 - 1))
    return A, d, share * (A @ d), seed


def case(A, d, avail, seed=None):
    return tuple(np.array(v, dtype=float) for v in (A, d, avail)) + (seed,)


class TestKernels:
    """The array kernels against the loop forms they replaced, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(kernel_case())
    # supplier 0 has no customers and customer 1 no suppliers
    @example(case([[0.0, 0.0], [0.3, 0.0]], [2.0, 1.0], [0.0, 0.4]))
    # zero-demand customers (w = 0)
    @example(case([[0.0, 0.2, 0.4], [0.1, 0.0, 0.0], [0.0, 0.0, 0.0]],
                  [0.0, 0.0, 3.0], [1.0, 0.0, 0.0]))
    # a tie in largest-first weights, broken by customer index
    @example(case([[0.0, 0.5, 0.5], [0.2, 0.0, 0.0], [0.3, 0.0, 0.0]],
                  [1.0, 2.0, 2.0], [1.5, 0.1, 0.1]))
    # eleven tied customers, which an unstable sort reorders
    @example(case(np.pad(np.full((1, 11), 0.25), ((0, 11), (1, 0))),
                  np.ones(12), np.full(12, 1.0)))
    # all-zero A: no supplier has a customer
    @example(case(np.zeros((4, 4)), [1.0, 0.0, 2.0, 3.0], [0.0, 1.0, 0.0, 5.0]))
    # availability above total demand
    @example(case([[0.1, 0.2], [0.3, 0.0]], [4.0, 5.0], [10.0, 10.0], seed=7))
    def test_match_loop_forms(self, drawn):
        A, d, avail, seed = drawn
        op = SimpleNamespace(n=A.shape[0], A=A)
        if seed is None:
            cols, coef = largest_first_rankings(op, d)
            rankings = loop_largest_first(A, d)
        else:
            cols, coef = random_rankings(op, seed)
            rankings = loop_random(A, seed)
        real = coef > 0
        # row-major, the real entries read in rank order, supplier by supplier
        assert np.array_equal(real.sum(axis=1), [r.size for r in rankings])
        assert np.array_equal(cols[real], np.concatenate(rankings))
        assert np.all(coef[~real] == 0.0)
        assert np.array_equal(_priority_bottleneck(d, avail, cols, coef),
                              loop_priority_bottleneck(d, avail, A, rankings))
        for r in (_share(avail, d), _share(avail, A @ d)):
            assert np.array_equal(_bottleneck(r, A > 0), loop_bottleneck(r, A))

    @settings(max_examples=100, deadline=None)
    @given(kernel_case(), st.integers(0, 2**32 - 1))
    # supplier 0 sells to no one, supplier 1 to all three industries
    @example(case([[0.0, 0.0, 0.0], [0.2, 0.1, 0.3], [0.0, 0.4, 0.0]],
                  [1.0, 2.0, 3.0], [0.0, 0.5, 0.5], seed=3), 5)
    def test_padding_order_is_free(self, drawn, shuffle_seed):
        """Only the customers' order is a ranking's: every row of
        random_rankings lists its customers ahead of the padding, and which
        non-customers pad a row, in which order, changes no bit."""
        A, d, avail, seed = drawn
        op = SimpleNamespace(n=A.shape[0], A=A)
        customer = A > 0
        degree = np.count_nonzero(customer, axis=1)
        cols, coef = random_rankings(op, 0 if seed is None else seed)
        assert cols.shape == (A.shape[0], degree.max(initial=0))
        assert np.all(np.diff(np.sort(cols, axis=1), axis=1) > 0)  # distinct
        ahead = np.arange(cols.shape[1]) < degree[:, None]
        assert np.array_equal(np.take_along_axis(customer, cols, axis=1), ahead)
        assert np.array_equal(coef > 0, ahead)
        # any other choice and order of non-customers behind the customers
        rng = np.random.default_rng(shuffle_seed)
        for cols, coef in ((cols, coef), largest_first_rankings(op, d)):
            moved = cols.copy()
            for i, k in enumerate(degree):
                others = rng.permutation(np.flatnonzero(~customer[i]))
                moved[i, k:] = others[:cols.shape[1] - k]
            assert np.array_equal(
                _priority_bottleneck(d, avail, moved,
                                     np.take_along_axis(A, moved, axis=1)),
                _priority_bottleneck(d, avail, cols, coef))


class TestSharedProperties:
    def test_feasibility_at_convergence(self):
        rng = np.random.default_rng(41)
        for k in range(40):
            e = random_economy(rng)
            op = coefficients(e)
            c = make_constraints(e, random_scenario(rng, e.n))
            runs = [algo(e, op, c) for algo in ALGORITHMS]
            runs.append(ration_random(e, op, c, k))
            for a in runs:
                if not a.converged:
                    continue
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
                a = algo(e, op, c)
                if not a.converged:
                    continue
                converged += 1
                assert np.all(op.A @ a.x + a.f <= a.x + 1e-8 * e.x.sum())
        assert converged >= 60

    def test_dominance_on_chain3(self, chain3, chain3_op, chain3_constraints):
        prop = ration_proportional(chain3, chain3_op, chain3_constraints)
        large = ration_largest_first(chain3, chain3_op, chain3_constraints)
        mixed = ration_mixed(chain3, chain3_op, chain3_constraints)
        best = optimal_allocation(chain3_op, chain3_constraints, "output")
        totals = [prop.x.sum(), large.x.sum(), mixed.x.sum()]
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
                npt.assert_allclose(res.x, expect, rtol=1e-9)
            res = ration_random(e, op, c, 0)
            npt.assert_allclose(res.x, expect, rtol=1e-9)
            best = optimal_allocation(op, c, "output")
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
        npt.assert_allclose(large.x, mixed.x, atol=1e-9)
        npt.assert_allclose(rand.x, mixed.x, atol=1e-9)
