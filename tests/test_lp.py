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
from ioshock.lp import (
    _CRASH_TOL,
    _FEAS_TOL,
    _PIVOT_TOL,
    LpSolution,
    _assert_solution,
    _BlockBasis,
    _demand_limited_output,
)

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
    rows = np.vstack([np.repeat(np.eye(n), 2, axis=0), np.repeat(lp.G, 2, axis=0)])
    rhs = np.column_stack([np.concatenate([lb, row_lb]),
                           np.concatenate([lp.ub, lp.row_ub])]).ravel()
    best = -np.inf
    # the combinations in batches: each matrix is factored on its own, as
    # one det and one solve call per choice would
    combos = itertools.combinations(range(len(rows)), n)
    while (batch := np.array(list(itertools.islice(combos, 20_000)), dtype=int)).size:
        M = rows[batch]
        keep = np.abs(np.linalg.det(M)) >= 1e-12
        y = np.linalg.solve(M[keep], rhs[batch[keep]][..., np.newaxis])[..., 0]
        vals = y @ lp.G.T
        ok = (np.all(y >= lb - tol, axis=1) & np.all(y <= lp.ub + tol, axis=1)
              & np.all(vals >= row_lb - tol, axis=1)
              & np.all(vals <= lp.row_ub + tol, axis=1))
        if ok.any():
            best = max(best, float(np.max(y[ok] @ lp.c)))
    return best


def reference_primal_solve(lp, max_iter=None):
    """The package's former LP algorithm, kept as a reference: a primal
    bounded-variable simplex from the all-zero point (full collapse) with
    Dantzig pricing, a switch to Bland's rule after a run of degenerate
    pivots, bound flips and a tolerance-based tie-break loop in the ratio
    test. Independent of the dual simplex's start, pricing and ratio test."""
    n = lp.c.size
    m = lp.G.shape[0]
    if max_iter is None:
        max_iter = 50 * (n + m)
    stall_limit = 3 * (n + m)

    # Equality form: [G I] z = row_ub with ranged slack s in [0, row_ub].
    A = np.hstack([lp.G, np.eye(m)])
    b = np.array(lp.row_ub, dtype=float)
    hi = np.concatenate([lp.ub, lp.row_ub])
    cost = np.concatenate([lp.c, np.zeros(m)])
    ftol = _FEAS_TOL * max(1.0, np.max(hi))
    movable = hi > ftol  # a variable fixed at zero can never move

    basis = np.arange(n, n + m)
    nonbasic = np.arange(n)
    at_upper = np.zeros(n + m, dtype=bool)
    z = np.zeros(n + m)

    def refactor():
        # once per basis: a bound flip changes neither block nor prices
        B = _BlockBasis(lp.G, basis)
        N = A[:, nonbasic]
        z[basis] = B.solve(b - N @ z[nonbasic])
        reduced = cost[nonbasic] - N.T @ B.dual(cost[basis])
        return B, reduced

    B, reduced = refactor()
    stall = 0
    for it in range(1, max_iter + 1):
        eligible = movable[nonbasic] & np.where(
            at_upper[nonbasic], reduced < -_PIVOT_TOL, reduced > _PIVOT_TOL)
        if not eligible.any():
            _assert_solution(lp, z[:n], ftol)
            return LpSolution(np.array(z[:n]), float(lp.c @ z[:n]), it - 1)

        if stall > stall_limit:
            # Bland: smallest variable index
            k = np.flatnonzero(eligible)[np.argmin(nonbasic[eligible])]
        else:
            # Dantzig: largest |reduced cost|, first position on a tie
            k = np.argmax(np.where(eligible, np.abs(reduced), -1.0))
        j = nonbasic[k]

        sigma = -1.0 if at_upper[j] else 1.0  # direction the entering var moves
        w = B.solve(A[:, j])

        # Ratio test: entering bound flip vs. first basic variable hitting a bound.
        step = sigma * w
        cand = np.flatnonzero(np.abs(step) > _PIVOT_TOL)
        var = basis[cand]
        hits_upper = step[cand] < 0  # basic var increases towards its upper bound
        room = np.where(hits_upper, hi[var] - z[var], z[var])
        ratios = np.maximum(room / np.abs(step[cand]), 0.0)
        t_best = float(hi[j])
        leave_pos = None  # position in basis, or None for a bound flip
        leave_var = -1
        leave_to_upper = False
        for p, v, t_p, up in zip(cand.tolist(), var.tolist(), ratios.tolist(),
                                 hits_upper.tolist()):
            if t_p < t_best - _PIVOT_TOL or (
                t_p < t_best + _PIVOT_TOL and leave_pos is not None and v < leave_var
            ):
                t_best = t_p
                leave_pos = p
                leave_var = v
                leave_to_upper = up

        stall = stall + 1 if t_best <= _PIVOT_TOL else 0

        z[j] += sigma * t_best
        z[basis] -= sigma * t_best * w
        if leave_pos is None:
            at_upper[j] = not at_upper[j]  # bound flip, basis unchanged
        else:
            z[leave_var] = hi[leave_var] if leave_to_upper else 0.0
            at_upper[leave_var] = leave_to_upper
            basis[leave_pos] = j
            nonbasic[k] = leave_var
            at_upper[j] = False
            B, reduced = refactor()

    raise SolverFailure(f"simplex reached no optimum in {max_iter} pivots")


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
                best = enumerate_vertices(lp)
                # from no tight row, from the crash, and the reference
                for value in (solve(lp).objective,
                              lp.c @ optimal_allocation(op, c, objective).f,
                              reference_primal_solve(lp).objective):
                    assert value == pytest.approx(best, abs=1e-6)

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

    def test_former_singular_primal_basis_lp_solves(self):
        # Found by a seeded search over small LPs for the primal simplex this
        # package used before: rows 4, 0, 3, 1, 2 and 5 pin every variable to
        # 0, and a rounding-noise pivot of -1.1e-9 led it to a structural
        # block of rank 3, a SolverFailure. The dual simplex solves it.
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
        assert enumerate_vertices(lp) == 0.0
        sol = solve(lp)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        npt.assert_allclose(sol.y, np.zeros(7), atol=1e-9)

    def test_singular_basis_is_solver_failure(self):
        # rows 0 and 1 of G agree on columns 0 and 1, so a start holding
        # both rows tight has a singular structural block
        G = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
        lp = LinearProgram(c=np.ones(3), ub=np.ones(3), G=G, row_ub=np.ones(3))
        assert solve(lp).objective == pytest.approx(enumerate_vertices(lp), abs=1e-12)
        with pytest.raises(SolverFailure, match="^simplex basis became singular") as exc:
            solve(lp, [0, 1])
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

    def test_exhausted_pivot_budget_is_solver_failure(self, chain3_op,
                                                      chain3_constraints):
        # from f = f_max, with no row tight, chain3 needs two pivots
        lp = build_max_output_lp(chain3_op, chain3_constraints)
        assert solve(lp).iterations == 2
        with pytest.raises(SolverFailure, match="no optimum in 1 pivots"):
            solve(lp, max_iter=1)

    def test_no_entering_variable_is_solver_failure(self):
        # from y = ub the row is 2e-9 over its ceiling of 0, more than the
        # feasibility tolerance, but every entry of its row of B^-1 [G I] is
        # 1e-10, under the pivot tolerance, so nothing may enter
        lp = LinearProgram(c=np.ones(20), ub=np.ones(20), G=np.full((1, 20), 1e-10),
                           row_ub=np.zeros(1))
        with pytest.raises(SolverFailure, match="^simplex found no entering variable$"):
            solve(lp)

    def test_zero_reduced_cost_keeps_its_bound(self):
        # From y = (0, 0, 2) the slack (4, above its ceiling 2) leaves for y0,
        # whose reduced cost of 0 gives a ratio of 0. The slack's reduced cost
        # is then 0 too, so it asks for neither bound and stays at the one it
        # left for. Put at 0 instead, it would push y0 to 2 and the two
        # would swap places at every pivot.
        lp = LinearProgram(c=np.array([0.0, -1.0, 1.0]), ub=np.array([1.0, 2.0, 2.0]),
                           G=np.array([[2.0, -1.0, -1.0]]), row_ub=np.array([2.0]))
        sol = solve(lp)
        assert sol.iterations == 1
        npt.assert_array_equal(sol.y, [1.0, 0.0, 2.0])
        assert sol.objective == enumerate_vertices(lp) == 2.0

    def test_degenerate_ties_go_to_the_smallest_index(self):
        # Equal costs, a repeated row and a ceiling of zero: from y = ub every
        # row is 1 over its ceiling, so row 0's slack leaves first (the first
        # of equal excesses). y0 and y1 tie in the ratio test and y0, the
        # smaller index, enters; y1's reduced cost is then zero, so it keeps
        # its upper bound. Row 2's slack leaves next, for y2.
        G = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        lp = LinearProgram(c=np.ones(3), ub=np.ones(3), G=G,
                           row_ub=np.array([1.0, 1.0, 0.0]))
        sol = solve(lp, max_iter=2)
        assert sol.iterations == 2
        npt.assert_array_equal(sol.y, [0.0, 1.0, 0.0])
        assert sol.objective == enumerate_vertices(lp) == 1.0


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
    in shuffled positions, a right-hand side a and costs of the m basic
    variables, slacks included."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(m, n))
    cols = rng.choice(n, k, replace=False)
    slack_rows = rng.choice(m, m - k, replace=False)
    basis = rng.permutation(np.concatenate([cols, n + slack_rows]))
    return G, basis, rng.normal(size=m), rng.normal(size=m)


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
        G, basis, a, c_B = drawn
        m, n = G.shape
        B = np.hstack([G, np.eye(m)])[:, basis]
        block = _BlockBasis(G, basis)
        w = block.solve(a)
        y = block.dual(c_B)
        assert solves(B, w, a)
        assert solves(B.T, y, c_B)
        # a unit cost gives a row of B^-1, as the dual ratio test uses it
        for p in range(m):
            assert solves(B.T, block.dual(np.eye(m)[p]), np.eye(m)[p])


def thinned(e, target, seed):
    """Remove uniformly drawn links down to a target density, as the
    random removal mode of sweep_density does at grid point 0."""
    rows, cols = np.nonzero(e.Z > 0)
    k = int(round((e.density - target) * e.n**2))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0, 0, 1]))
    chosen = rng.choice(rows.size, k, replace=False)
    return remove_links(e, rows[chosen], cols[chosen])


# (seed, n, link density, thinned to, alpha_supply, program, pivots,
# objective) of seeded economies, solved by optimal_allocation from its
# crash. A change to the crash, to the leaving or entering rule or to how
# the basis is solved shows up as another pivot count; the objective may
# move only in its last bits.
PINNED = [
    (0, 56, 0.8, None, 0.0, "output", 0, 383.9680408274691),
    (0, 56, 0.8, None, 0.0, "consumption", 0, 219.8902044806617),
    (0, 56, 0.8, None, 0.25, "output", 0, 378.719454617614),
    (0, 56, 0.8, None, 0.25, "consumption", 0, 216.47194552459925),
    (0, 56, 0.8, None, 0.5, "output", 7, 333.44236824922916),
    (0, 56, 0.8, None, 0.5, "consumption", 11, 194.2138416532887),
    (0, 56, 0.8, None, 0.75, "output", 13, 270.3550332765842),
    (0, 56, 0.8, None, 0.75, "consumption", 13, 161.852318731715),
    (0, 56, 0.8, None, 1.0, "output", 33, 185.88676544406127),
    (0, 56, 0.8, None, 1.0, "consumption", 30, 111.76940138990646),
    (0, 56, 0.8, 0.1, 1.0, "output", 2, 200.9961557844398),
    (1, 120, 0.3, None, 0.5, "output", 0, 920.2328565199289),
    (1, 250, 0.3, None, 0.5, "output", 7, 1844.563978499186),
]


def pinned_case(seed, n, density, thin, alpha, program):
    """The operator, constraints and program of one PINNED row."""
    e = sized_economy(seed, n, density)
    if thin is not None:
        e = thinned(e, thin, seed)
    # the shocks of the benchmark's inputs
    shocks = random_scenario(np.random.default_rng([seed, 1]), n, 0.8, 0.5)
    op = coefficients(e)
    c = make_constraints(e, shocks.with_alphas(alpha, 1.0))
    return op, c, build_max_output_lp(op, c, program)


PINNED_IDS = [f"n{n}-d{thin or density}-a{a}-{p}"
              for _, n, density, thin, a, p, *_ in PINNED]


class TestPinnedPivots:
    @pytest.mark.parametrize(
        "seed,n,density,thin,alpha,program,pivots,objective", PINNED, ids=PINNED_IDS)
    def test_pivots_and_objective(self, seed, n, density, thin, alpha, program,
                                  pivots, objective):
        op, c, lp = pinned_case(seed, n, density, thin, alpha, program)
        a = optimal_allocation(op, c, program)
        assert a.iterations == pivots
        assert lp.c @ a.f == pytest.approx(objective, rel=1e-12, abs=0)

    @pytest.mark.parametrize("case", [row[:6] for row in PINNED], ids=PINNED_IDS)
    def test_matches_reference_primal(self, case):
        op, c, lp = pinned_case(*case)
        assert lp.c @ optimal_allocation(op, c, case[-1]).f == pytest.approx(
            reference_primal_solve(lp).objective, rel=1e-12, abs=0)


class TestDemandLimitedOutput:
    """x*, the greatest fixed point of x -> min(x_max, A x + f_max), bounds
    the best case from above and is its optimum when f* = (I - A) x* >= 0."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.sampled_from([0.3, 0.8]))
    def test_bounds_the_best_case(self, seed, n, density):
        rng = np.random.default_rng(seed)
        e = productive_economy(rng, n, density)
        op = coefficients(e)
        c = make_constraints(e, random_scenario(rng, n))
        x = _demand_limited_output(op, c)
        step = np.minimum(c.x_max, op.A @ x + c.f_max)
        assert np.max(np.abs(step - x)) <= _CRASH_TOL * np.max(c.x_max)
        output = solve(build_max_output_lp(op, c)).objective
        assert x.sum() >= output * (1 - 1e-12)
        f = (np.eye(n) - op.A) @ x
        if np.all(f >= 0):
            assert x.sum() == pytest.approx(output, rel=1e-12, abs=1e-12)
            consumption = solve(build_max_output_lp(op, c, "consumption")).objective
            assert f.sum() == pytest.approx(consumption, rel=1e-12, abs=1e-12)


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
        def over_ceiling(lp, tight=(), max_iter=None):
            return LpSolution(np.array(pair2_constraints.f_max), 0.0, 0)

        monkeypatch.setattr("ioshock.lp.solve", over_ceiling)
        a = optimal_allocation(pair2_op, pair2_constraints, "output")
        assert np.any(a.x > pair2_constraints.x_max)
        assert not a.feasible

    def test_unknown_objective(self, pair2, pair2_constraints, pair2_op):
        with pytest.raises(ValueError):
            optimal_allocation(pair2_op, pair2_constraints, "employment")
