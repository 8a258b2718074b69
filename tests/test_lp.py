import itertools
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ioshock import (
    Constraints,
    LinearProgram,
    SweepSpec,
    build_max_output_lp,
    coefficients,
    make_constraints,
    optimal_allocation,
    remove_links,
    solve,
    sweep_density,
)
from ioshock.errors import DimensionMismatch, SolverFailure
from ioshock.lp import LpSolution, _BlockBasis

from conftest import (
    productive_economy,
    random_economy,
    random_scenario,
    sized_economy,
    traced_peak,
)


def enumerate_vertices(lp, tol=1e-9):
    """Brute-force oracle: intersect every choice of n active constraints,
    keep the feasible points, return the best objective.

    Constraints are the variable bounds and both sides of every row. A
    program without ``lb`` or ``row_lb`` (a LinearProgram) has zero lower
    bounds. Independent of the simplex path entirely.
    """
    n = lp.c.size
    m = lp.G.shape[0]
    lb = getattr(lp, "lb", np.zeros(n))
    row_lb = getattr(lp, "row_lb", np.zeros(m))
    rows = []
    rhs = []
    for j in range(n):
        unit = np.zeros(n)
        unit[j] = 1.0
        rows += [unit, unit.copy()]
        rhs += [lb[j], lp.ub[j]]
    for k in range(m):
        rows += [lp.G[k], lp.G[k]]
        rhs += [row_lb[k], lp.row_ub[k]]
    best = -np.inf
    for combo in itertools.combinations(range(len(rows)), n):
        M = np.array([rows[i] for i in combo])
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        y = np.linalg.solve(M, np.array([rhs[i] for i in combo]))
        vals = lp.G @ y
        if (np.all(y >= lb - tol) and np.all(y <= lp.ub + tol)
                and np.all(vals >= row_lb - tol)
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

    def test_max_output_no_shock_baseline_feasible(self, pair2, pair2_op):
        c = Constraints(np.array(pair2.x), np.array(pair2.f))
        lp = build_max_output_lp(pair2_op, c)
        rows = lp.G @ pair2.f
        assert np.all(rows <= lp.row_ub + 1e-12)

    def test_max_output_chain3(self, chain3_op, chain3_constraints):
        lp = build_max_output_lp(chain3_op, chain3_constraints)
        npt.assert_allclose(lp.c, [1.0, 5.0 / 3.0, 5.0 / 4.0])

    def test_max_consumption_pair2(self, pair2_op, pair2_constraints):
        # the output program's polytope with unit weights on f
        lp = build_max_output_lp(pair2_op, pair2_constraints, "consumption")
        output = build_max_output_lp(pair2_op, pair2_constraints)
        npt.assert_array_equal(lp.c, np.ones(2))
        for name in ("ub", "G", "row_ub"):
            npt.assert_array_equal(getattr(lp, name), getattr(output, name))

    def test_max_consumption_no_flows(self):
        from ioshock import build_economy

        e = build_economy(np.zeros((3, 3)), [1.0, 2.0, 3.0])
        op = coefficients(e)
        c = Constraints(np.array(e.x), np.array(e.f))
        lp = build_max_output_lp(op, c, "consumption")
        npt.assert_allclose(lp.c, np.ones(3))
        npt.assert_array_equal(lp.G, np.eye(3))

    def test_max_consumption_chain3(self, chain3_op, chain3_constraints):
        lp = build_max_output_lp(chain3_op, chain3_constraints, "consumption")
        npt.assert_array_equal(lp.c, np.ones(3))
        npt.assert_array_equal(lp.G, chain3_op.L)
        npt.assert_array_equal(lp.ub, chain3_constraints.f_max)
        npt.assert_array_equal(lp.row_ub, chain3_constraints.x_max)

    def test_dimension_mismatch(self, pair2_op):
        with pytest.raises(DimensionMismatch):
            build_max_output_lp(pair2_op, Constraints(np.zeros(3), np.zeros(3)))

    def test_reads_L_in_place(self, pair2_op, pair2_constraints):
        lp = build_max_output_lp(pair2_op, pair2_constraints)
        assert lp.G is pair2_op.L

    def test_peak_memory(self):
        n = 200
        e = sized_economy(3, n, 0.3)
        op = coefficients(e)
        c = make_constraints(e, random_scenario(np.random.default_rng(3), n))
        # the objective weights and bounds only: no n x n array
        assert traced_peak(build_max_output_lp, op, c) <= 0.1 * n**2 * 8

    def test_bad_bounds_rejected(self):
        # every lower bound is zero, so an upper bound must be finite and
        # nonnegative
        for ub, row_ub in [(-1.0, 1.0), (1.0, -1.0), (np.inf, 1.0), (1.0, np.nan)]:
            with pytest.raises(ValueError, match="must be finite and nonnegative"):
                LinearProgram(np.ones(1), np.array([ub]), np.ones((1, 1)),
                              np.array([row_ub]))


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
            for objective in ("output", "consumption"):
                lp = build_max_output_lp(op, c, objective)
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
        # Found by a seeded search over small LPs with the coefficients of
        # the LP below. Rows 4, 0, 3, 1, 2 and 5 pin every variable to 0.
        # The sixth entering column has basic values up to 1e7, and y0's
        # entry comes out as rounding noise of -1.1e-9, which passes the
        # pivot tolerance; y0 leaves for row 4's slack, and the next
        # structural block, rows 0, 2, 3, 5 by columns 3, 1, 2, 6, has rank 3.
        G = np.zeros((6, 7))
        G[0, 2:4] = [1.0, -0.01]
        G[1, 4:6] = [-0.001, -0.0005]
        G[2, [0, 1, 4]] = [-0.0005, 1.0, -0.01]
        G[3, [1, 5]] = [-0.01, -0.01]
        G[4, 2] = -0.001
        G[5, [1, 3, 6]] = [1.0, -0.05, -0.0005]
        lp = LinearProgram(c=np.array([0.97, 1.0, 0.97, 1.0, 0.97, 0.98, 0.97]),
                           ub=np.array([2.0, 2, 1, 2, 1, 1, 1]),
                           G=G, row_ub=np.ones(6))
        with pytest.raises(SolverFailure, match="^simplex basis became singular") as exc:
            solve(lp)
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    def test_former_singular_basis_lp_solves(self):
        # Reduced from a consumption LP of a thinned sparse economy; rows 1
        # and 6 pin y2 and y1 to zero. A rounding-noise pivot of 1.8e-9 made
        # the m x m basis solve meet a singular basis; the structural block
        # does not, and the optimum is 0.97 + 0.98 + 1 (HiGHS agrees).
        G = np.zeros((7, 6))
        G[0, :2] = [-0.001, 1.0]
        G[1, 2] = -0.004
        G[2, [0, 2]] = [-0.01, 1.0]
        G[3, 3:5] = [1.0, -0.01]
        G[4, 4:6] = [1.0, -0.01]
        G[5, [0, 5]] = [-0.0005, 1.0]
        G[6, 1] = -0.05
        lp = LinearProgram(c=np.array([1.0, 1.0, 1.0, 0.97, 0.98, 1.0]),
                           ub=np.array([1.0, 1, 1, 1, 1, 2]),
                           G=G, row_ub=np.ones(7))
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.95, rel=1e-12)
        npt.assert_allclose(sol.y, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_exhausted_pivot_budget_is_solver_failure(self, pair2_op,
                                                      pair2_constraints):
        lp = build_max_output_lp(pair2_op, pair2_constraints)
        assert solve(lp).iterations > 1
        with pytest.raises(SolverFailure, match="no optimum in 1 pivots"):
            solve(lp, max_iter=1)


def reference_consumption_lp(op, c):
    """The consumption program as first posed, on a polytope of its own:
    the variable is output x within its ceilings, and the rows keep
    consumption (I - A) x within its ceilings."""
    n = op.n
    ImA = np.eye(n) - op.A
    return SimpleNamespace(c=ImA.sum(axis=0), lb=np.zeros(n), ub=np.array(c.x_max),
                           G=ImA, row_lb=np.zeros(n), row_ub=np.array(c.f_max))


class TestConsumptionObjective:
    """Consumption on the output program's polytope against the former
    (I - A) program: x = L f maps one feasible set onto the other."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.sampled_from([0.3, 0.8]))
    def test_optimum_matches_reference_program(self, seed, n, density):
        rng = np.random.default_rng(seed)
        e = productive_economy(rng, n, density)
        op = coefficients(e)
        c = make_constraints(e, random_scenario(rng, n))
        a = optimal_allocation(op, c, "consumption")
        assert a.f.sum() == pytest.approx(
            enumerate_vertices(reference_consumption_lp(op, c)), rel=1e-9, abs=1e-9)
        # and its point is one of the reference program's
        tol = 1e-9 * max(1.0, float(e.x.max()))
        assert np.all(a.x >= -tol) and np.all(a.x <= c.x_max + tol)
        f = (np.eye(n) - op.A) @ a.x
        assert np.all(f >= -tol) and np.all(f <= c.f_max + tol)

    def test_thinned_economies_solve(self):
        # Thinned to density 0.1, the benchmark's seed-0 economy left the
        # former program at a point outside its row bounds (SolverFailure).
        e = sized_economy(0, 56, 0.8)
        shocks = random_scenario(np.random.default_rng([0, 1]), 56, 0.8, 0.5)
        spec = SweepSpec(methods=("lp_output", "lp_consumption"),
                         grid=(0.5, 0.4, 0.3, 0.2, 0.1), repetitions=2)
        records = sweep_density(e, shocks, spec)
        assert len(records) == 20
        assert [(r.density_target, r.replicate, r.error) for r in records if r.error] == []
        for out, cons in zip(records[::2], records[1::2]):
            assert (out.method, cons.method) == ("lp_output", "lp_consumption")
            # each program is best at its own objective
            assert cons.total_consumption >= out.total_consumption * (1 - 1e-12)
            assert out.total_output >= cons.total_output * (1 - 1e-12)


def basis_case(m, n, k, seed):
    """G (m x n), a basis of [G I] holding k columns of G and m - k slacks
    in shuffled positions, a right-hand side a and costs of the k basic
    columns."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(m, n))
    cols = rng.choice(n, k, replace=False)
    slack_rows = rng.choice(m, m - k, replace=False)
    basis = rng.permutation(np.concatenate([cols, n + slack_rows]))
    return G, basis, rng.normal(size=m), rng.normal(size=k)


@st.composite
def basis_cases(draw):
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return basis_case(m, n, draw(st.integers(0, min(m, n))),
                      draw(st.integers(0, 2**32 - 1)))


def solves(M, v, rhs, rel=1e-12):
    """|M v - rhs| <= rel (|M| |v| + |rhs|), in the infinity norm."""
    def norm(x):
        return np.linalg.norm(x, np.inf)
    return norm(M @ v - rhs) <= rel * (norm(M) * norm(v) + norm(rhs))


class TestBlockBasis:
    """The structural-block solves against the full basis matrix."""

    @settings(max_examples=200, deadline=None)
    @given(basis_cases())
    @example(basis_case(5, 3, 0, 1))  # k = 0: every slack basic
    @example(basis_case(4, 6, 4, 2))  # k = m: every structural basic
    @example(basis_case(6, 6, 6, 3))
    @example(basis_case(1, 1, 1, 4))
    def test_solves_full_basis(self, drawn):
        G, basis, a, c_s = drawn
        m, n = G.shape
        B = np.hstack([G, np.eye(m)])[:, basis]
        c_B = np.zeros(m)
        c_B[basis < n] = c_s
        block = _BlockBasis(G, basis)
        w = block.solve(a)
        y = block.dual(c_s)
        assert solves(B, w, a)
        assert solves(B.T, y, c_B)


def thinned(e, target, seed):
    """Remove uniformly drawn links down to a target density, as the
    random removal mode of sweep_density does at grid point 0."""
    rows, cols = np.nonzero(e.Z > 0)
    k = int(round((e.density - target) * e.n**2))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0, 0, 1]))
    chosen = rng.choice(rows.size, k, replace=False)
    return remove_links(e, rows[chosen], cols[chosen])


# (seed, n, link density, thinned to, alpha_supply, program, pivots,
# objective) of seeded economies. A change to pricing, to the ratio test's
# tie-breaks or to how the basis is solved shows up as another pivot count;
# the objective may move only in its last bits.
PINNED = [
    (0, 56, 0.8, None, 0.0, "output", 56, 383.9680408274691),
    (0, 56, 0.8, None, 0.0, "consumption", 56, 219.8902044806617),
    (0, 56, 0.8, None, 0.25, "output", 59, 378.719454617614),
    (0, 56, 0.8, None, 0.25, "consumption", 63, 216.47194552459925),
    (0, 56, 0.8, None, 0.5, "output", 68, 333.44236824922916),
    (0, 56, 0.8, None, 0.5, "consumption", 68, 194.2138416532887),
    (0, 56, 0.8, None, 0.75, "output", 71, 270.3550332765842),
    (0, 56, 0.8, None, 0.75, "consumption", 59, 161.852318731715),
    (0, 56, 0.8, None, 1.0, "output", 57, 185.88676544406127),
    (0, 56, 0.8, None, 1.0, "consumption", 55, 111.76940138990646),
    (0, 56, 0.8, 0.1, 1.0, "output", 62, 200.9961557844398),
    (1, 120, 0.3, None, 0.5, "output", 143, 920.2328565199289),
    # 181 of these 295 pivots are bound flips that keep the basis
    (1, 250, 0.3, None, 0.5, "output", 295, 1844.563978499186),
]


class TestPinnedPivots:
    @pytest.mark.parametrize(
        "seed,n,density,thin,alpha,program,pivots,objective", PINNED,
        ids=[f"n{n}-d{thin or density}-a{a}-{p}" for _, n, density, thin, a, p, *_ in PINNED])
    def test_pivots_and_objective(self, seed, n, density, thin, alpha, program,
                                  pivots, objective):
        e = sized_economy(seed, n, density)
        if thin is not None:
            e = thinned(e, thin, seed)
        # the shocks of the benchmark's inputs
        shocks = random_scenario(np.random.default_rng([seed, 1]), n, 0.8, 0.5)
        c = make_constraints(e, shocks.with_alphas(alpha, 1.0))
        sol = solve(build_max_output_lp(coefficients(e), c, program))
        assert sol.status == "optimal"
        assert sol.iterations == pivots
        assert sol.objective == pytest.approx(objective, rel=1e-12, abs=0)


class TestOptimalAllocation:
    def test_pair2_output_objective(self, pair2, pair2_constraints, pair2_op):
        a = optimal_allocation(pair2_op, pair2_constraints, "output")
        npt.assert_allclose(a.x, [9.0, 4.0], atol=1e-9)
        npt.assert_allclose(a.f, [8.0, 1.3], atol=1e-9)
        assert a.feasible
        assert a.method == "lp_output"

    def test_no_shock_recovers_baseline(self, chain3, chain3_op):
        c = Constraints(np.array(chain3.x), np.array(chain3.f))
        for objective in ("output", "consumption"):
            a = optimal_allocation(chain3_op, c, objective)
            npt.assert_allclose(a.x, chain3.x, rtol=1e-9)
            npt.assert_allclose(a.f, chain3.f, rtol=1e-9, atol=1e-12)

    def test_chain3_output_objective(self, chain3, chain3_constraints, chain3_op):
        a = optimal_allocation(chain3_op, chain3_constraints, "output")
        npt.assert_allclose(a.x, [5.0, 4.5, 8.0], atol=1e-9)
        assert a.x.sum() == pytest.approx(17.5)

    def test_recipe_consistency(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            e = random_economy(rng)
            op = coefficients(e)
            c = make_constraints(e, random_scenario(rng, e.n))
            a = optimal_allocation(op, c, "output")
            npt.assert_allclose(a.x, op.L @ a.f, rtol=1e-8, atol=1e-10)
            a = optimal_allocation(op, c, "consumption")
            npt.assert_allclose(a.x, op.L @ a.f, rtol=1e-8, atol=1e-10)

    def test_feasible_flag_is_checked(self, monkeypatch, pair2_constraints,
                                      pair2_op):
        # a returned point above an output ceiling must not be flagged
        # feasible: f = f_max gives x = L f_max, which breaks x_max here
        def over_ceiling(lp, max_iter=None):
            return LpSolution(np.array(pair2_constraints.f_max), 0.0, 0)

        monkeypatch.setattr("ioshock.lp.solve", over_ceiling)
        a = optimal_allocation(pair2_op, pair2_constraints, "output")
        assert np.any(a.x > pair2_constraints.x_max)
        assert not a.feasible

    def test_unknown_objective(self, pair2, pair2_constraints, pair2_op):
        with pytest.raises(ValueError):
            optimal_allocation(pair2_op, pair2_constraints, "employment")
