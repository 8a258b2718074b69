import itertools

import numpy as np
import numpy.testing as npt
import pytest

from ioshock import (
    Constraints,
    LinearProgram,
    build_max_consumption_lp,
    build_max_output_lp,
    coefficients,
    make_constraints,
    optimal_allocation,
    solve,
)
from ioshock.errors import DimensionMismatch, SolverFailure

from conftest import random_economy, random_scenario


def enumerate_vertices(lp, tol=1e-9):
    """Brute-force oracle: intersect every choice of n active constraints,
    keep the feasible points, return the best objective.

    Constraints are the variable bounds and both sides of every row.
    Independent of the simplex path entirely.
    """
    n = lp.c.size
    rows = []
    rhs = []
    for j in range(n):
        unit = np.zeros(n)
        unit[j] = 1.0
        rows += [unit, unit.copy()]
        rhs += [lp.lb[j], lp.ub[j]]
    for k in range(lp.G.shape[0]):
        rows += [lp.G[k], lp.G[k]]
        rhs += [lp.row_lb[k], lp.row_ub[k]]
    best = -np.inf
    for combo in itertools.combinations(range(len(rows)), n):
        M = np.array([rows[i] for i in combo])
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        y = np.linalg.solve(M, np.array([rhs[i] for i in combo]))
        vals = lp.G @ y
        if (np.all(y >= lp.lb - tol) and np.all(y <= lp.ub + tol)
                and np.all(vals >= lp.row_lb - tol)
                and np.all(vals <= lp.row_ub + tol)):
            best = max(best, float(lp.c @ y))
    return best


class TestBuilders:
    def test_max_output_pair2(self, pair2_op, pair2_constraints):
        lp = build_max_output_lp(pair2_op, pair2_constraints)
        npt.assert_allclose(lp.c, [52.0 / 37.0, 50.0 / 37.0])
        npt.assert_array_equal(lp.G, pair2_op.L)
        npt.assert_array_equal(lp.ub, pair2_constraints.f_max)
        npt.assert_array_equal(lp.row_ub, pair2_constraints.x_max)
        npt.assert_array_equal(lp.lb, np.zeros(2))
        npt.assert_array_equal(lp.row_lb, np.zeros(2))

    def test_max_output_no_shock_baseline_feasible(self, pair2, pair2_op):
        c = Constraints(np.array(pair2.x), np.array(pair2.f))
        lp = build_max_output_lp(pair2_op, c)
        rows = lp.G @ pair2.f
        assert np.all(rows <= lp.row_ub + 1e-12)

    def test_max_output_chain3(self, chain3_op, chain3_constraints):
        lp = build_max_output_lp(chain3_op, chain3_constraints)
        npt.assert_allclose(lp.c, [1.0, 5.0 / 3.0, 5.0 / 4.0])

    def test_max_consumption_pair2(self, pair2_op, pair2_constraints):
        lp = build_max_consumption_lp(pair2_op, pair2_constraints)
        npt.assert_allclose(lp.c, [0.7, 0.75])
        npt.assert_array_equal(lp.ub, pair2_constraints.x_max)
        npt.assert_array_equal(lp.row_ub, pair2_constraints.f_max)

    def test_max_consumption_no_flows(self):
        from ioshock import build_economy

        e = build_economy(np.zeros((3, 3)), [1.0, 2.0, 3.0])
        op = coefficients(e)
        c = Constraints(np.array(e.x), np.array(e.f))
        lp = build_max_consumption_lp(op, c)
        npt.assert_allclose(lp.c, np.ones(3))
        npt.assert_array_equal(lp.G, np.eye(3))

    def test_max_consumption_chain3(self, chain3_op, chain3_constraints):
        lp = build_max_consumption_lp(chain3_op, chain3_constraints)
        npt.assert_allclose(lp.c, [1.0, 1.0 / 3.0, 3.0 / 4.0])

    def test_dimension_mismatch(self, pair2_op):
        with pytest.raises(DimensionMismatch):
            build_max_output_lp(pair2_op, Constraints(np.zeros(3), np.zeros(3)))

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(np.ones(1), np.array([1.0]), np.array([0.0]),
                          np.ones((1, 1)), np.zeros(1), np.ones(1))


class TestSolve:
    def test_pair2_max_output(self, pair2_op, pair2_constraints):
        sol = solve(build_max_output_lp(pair2_op, pair2_constraints))
        assert sol.status == "optimal"
        npt.assert_allclose(sol.y, [8.0, 1.3], atol=1e-9)
        assert sol.objective == pytest.approx(13.0)

    def test_full_collapse(self, pair2_op):
        sol = solve(build_max_output_lp(pair2_op, Constraints(np.zeros(2), np.zeros(2))))
        assert sol.status == "optimal"
        npt.assert_allclose(sol.y, np.zeros(2), atol=1e-12)
        assert sol.objective == 0.0

    def test_chain3_max_output(self, chain3_op, chain3_constraints):
        sol = solve(build_max_output_lp(chain3_op, chain3_constraints))
        npt.assert_allclose(sol.y, [0.0, 4.5, 8.0], atol=1e-9)
        assert sol.objective == pytest.approx(17.5)

    def test_matches_vertex_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            e = random_economy(rng, n=int(rng.integers(2, 4)))
            op = coefficients(e)
            c = make_constraints(e, random_scenario(rng, e.n))
            for build in (build_max_output_lp, build_max_consumption_lp):
                lp = build(op, c)
                sol = solve(lp)
                assert sol.status == "optimal"
                assert sol.objective == pytest.approx(enumerate_vertices(lp), abs=1e-6)

    def test_objective_nondecreasing_and_concave_in_ceilings(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            e = random_economy(rng, n=4)
            op = coefficients(e)
            base = make_constraints(e, random_scenario(rng, 4))

            def opt(c):
                return solve(build_max_output_lp(op, c)).objective

            lam = 0.5 + 0.5 * rng.random()
            grown = Constraints(np.minimum(base.x_max / lam, e.x),
                                np.minimum(base.f_max / lam, e.f))
            assert opt(grown) >= opt(base) - 1e-9
            other = make_constraints(e, random_scenario(rng, 4))
            mid = Constraints(0.5 * (base.x_max + other.x_max),
                              0.5 * (base.f_max + other.f_max))
            assert opt(mid) >= 0.5 * (opt(base) + opt(other)) - 1e-8

    def test_singular_basis_is_solver_failure(self):
        # Reduced from a consumption LP of a thinned sparse economy: rows
        # 1 and 6 pin y2 and y1 to zero, the pivots are degenerate, and a
        # rounding-noise entry of 1.8e-9 passes the pivot tolerance, so
        # the next basis is exactly singular.
        G = np.zeros((7, 6))
        G[0, :2] = [-0.001, 1.0]
        G[1, 2] = -0.004
        G[2, [0, 2]] = [-0.01, 1.0]
        G[3, 3:5] = [1.0, -0.01]
        G[4, 4:6] = [1.0, -0.01]
        G[5, [0, 5]] = [-0.0005, 1.0]
        G[6, 1] = -0.05
        lp = LinearProgram(c=np.array([1.0, 1.0, 1.0, 0.97, 0.98, 1.0]),
                           lb=np.zeros(6), ub=np.array([1.0, 1, 1, 1, 1, 2]),
                           G=G, row_lb=np.zeros(7), row_ub=np.ones(7))
        with pytest.raises(SolverFailure, match="singular"):
            solve(lp)


class TestOptimalAllocation:
    def test_pair2_output_objective(self, pair2, pair2_constraints, pair2_op):
        a = optimal_allocation(pair2, pair2_constraints, "output", pair2_op)
        npt.assert_allclose(a.x, [9.0, 4.0], atol=1e-9)
        npt.assert_allclose(a.f, [8.0, 1.3], atol=1e-9)
        assert a.feasible
        assert a.method == "lp_output"

    def test_no_shock_recovers_baseline(self, chain3, chain3_op):
        c = Constraints(np.array(chain3.x), np.array(chain3.f))
        for objective in ("output", "consumption"):
            a = optimal_allocation(chain3, c, objective, chain3_op)
            npt.assert_allclose(a.x, chain3.x, rtol=1e-9)
            npt.assert_allclose(a.f, chain3.f, rtol=1e-9, atol=1e-12)

    def test_chain3_output_objective(self, chain3, chain3_constraints, chain3_op):
        a = optimal_allocation(chain3, chain3_constraints, "output", chain3_op)
        npt.assert_allclose(a.x, [5.0, 4.5, 8.0], atol=1e-9)
        assert a.x.sum() == pytest.approx(17.5)

    def test_recipe_consistency(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            e = random_economy(rng)
            op = coefficients(e)
            c = make_constraints(e, random_scenario(rng, e.n))
            a = optimal_allocation(e, c, "output", op)
            npt.assert_allclose(a.x, op.L @ a.f, rtol=1e-8, atol=1e-10)
            a = optimal_allocation(e, c, "consumption", op)
            npt.assert_allclose(a.x, op.L @ a.f, rtol=1e-8, atol=1e-10)

    def test_unknown_objective(self, pair2, pair2_constraints, pair2_op):
        with pytest.raises(ValueError):
            optimal_allocation(pair2, pair2_constraints, "employment", pair2_op)
