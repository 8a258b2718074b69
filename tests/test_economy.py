import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ioshock import (
    build_economy,
    coefficients,
    metrics,
    remove_links,
    smallest_links,
    total_demand,
)
from ioshock.errors import (
    DimensionMismatch,
    KTooLarge,
    NegativeEntry,
    NonProductive,
    ZeroOutputWithInputs,
)

from conftest import (
    CHAIN3_F,
    productive_economy,
    random_economy,
    sized_economy,
    traced_peak,
)


class TestBuildEconomy:
    def test_pair2_accounting(self, pair2):
        npt.assert_allclose(pair2.x, [10.0, 8.0])
        npt.assert_allclose(pair2.v, [7.0, 6.0])

    def test_no_intermediate_flows(self):
        e = build_economy(np.zeros((2, 2)), [8.0, 5.0])
        npt.assert_allclose(e.x, [8.0, 5.0])
        npt.assert_allclose(e.v, [8.0, 5.0])

    def test_chain3(self, chain3):
        npt.assert_allclose(chain3.x, [10.0, 6.0, 8.0])
        # v_1 covers all of industry 1's output since it buys nothing
        npt.assert_allclose(chain3.v, [10.0, 2.0, 6.0])
        assert chain3.v.sum() == chain3.f.sum()

    def test_identities_hold_exactly(self, chain3):
        npt.assert_array_equal(chain3.x, chain3.Z.sum(axis=1) + chain3.f)
        npt.assert_array_equal(chain3.x, chain3.Z.sum(axis=0) + chain3.v)

    def test_negative_flow_rejected(self):
        with pytest.raises(NegativeEntry):
            build_economy([[0.0, -1.0], [0.0, 0.0]], [1.0, 1.0])
        with pytest.raises(NegativeEntry):
            build_economy(np.zeros((2, 2)), [1.0, -1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_economy(np.zeros((2, 3)), [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            build_economy(np.zeros((2, 2)), [1.0, 1.0, 1.0])
        with pytest.raises(DimensionMismatch, match="nonempty"):
            build_economy(np.zeros((0, 0)), np.zeros(0))

    def test_negative_value_added_flagged(self):
        # industry 2 buys more than its own output value
        e = build_economy([[0.0, 5.0], [0.0, 0.0]], [1.0, 2.0])
        assert e.v[1] < 0
        assert e.negative_value_added

    def test_takes_ownership_of_float_arrays(self):
        Z = np.array([[0.0, 2.0], [3.0, 0.0]])
        f = np.array([8.0, 5.0])
        e = build_economy(Z, f)
        assert np.shares_memory(Z, e.Z) and np.shares_memory(f, e.f)
        assert not Z.flags.writeable and not f.flags.writeable
        assert not e.x.flags.writeable and not e.v.flags.writeable

    def test_copies_lists_and_other_dtypes(self):
        Z = [[0, 2], [3, 0]]
        f = np.array([8, 5])
        e = build_economy(Z, f)
        assert e.Z.dtype == e.f.dtype == np.float64
        assert not np.shares_memory(f, e.f)
        assert f.flags.writeable
        assert not e.Z.flags.writeable and not e.f.flags.writeable
        Z[0][1] = 7
        assert e.Z[0, 1] == 2.0


class TestCoefficients:
    def test_pair2(self, pair2_op):
        npt.assert_allclose(pair2_op.A, [[0.0, 0.25], [0.3, 0.0]])
        npt.assert_allclose(pair2_op.L, np.array([[40.0, 10.0], [12.0, 40.0]]) / 37.0)

    def test_identity_case(self):
        op = coefficients(build_economy(np.zeros((3, 3)), [1.0, 2.0, 3.0]))
        npt.assert_array_equal(op.A, np.zeros((3, 3)))
        npt.assert_allclose(op.L, np.eye(3))

    def test_chain3_nilpotent(self, chain3_op):
        A = chain3_op.A
        npt.assert_allclose(A[0, 1], 2.0 / 3.0)
        npt.assert_allclose(A[0, 2], 0.25)
        npt.assert_array_equal(A @ A, np.zeros((3, 3)))
        npt.assert_allclose(chain3_op.L, np.eye(3) + A)

    def test_inverse_identity(self, pair2_op):
        npt.assert_allclose(pair2_op.L @ (np.eye(2) - pair2_op.A), np.eye(2),
                            atol=1e-8)

    def test_zero_output_with_inputs(self):
        # industry 2 sells nothing and has no final demand, yet buys inputs
        e = build_economy([[0.0, 1.0], [0.0, 0.0]], [1.0, 0.0])
        assert e.x[1] == 0.0
        with pytest.raises(ZeroOutputWithInputs):
            coefficients(e)

    def test_nonproductive(self):
        # f = 0 everywhere: (I - A) x = 0, so (I - A) is singular
        e = build_economy([[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0])
        with pytest.raises(NonProductive):
            coefficients(e)

    def test_zero_output_isolated_industry(self):
        e = build_economy([[0.0, 0.0], [0.0, 0.0]], [1.0, 0.0])
        op = coefficients(e)
        npt.assert_array_equal(op.A[:, 1], [0.0, 0.0])

    @pytest.mark.parametrize("e", [
        sized_economy(0, 56, 0.8), sized_economy(1, 56, 0.1),
        sized_economy(2, 250, 0.3),
        # signed zeros in Z, so in A: np.eye(n) - A is +0.0 off the diagonal
        build_economy([[-0.0, 1.0, 0.0], [0.0, -0.0, -0.0], [2.0, 0.0, 0.0]],
                      [1.0, 2.0, 3.0]),
    ], ids=["n56-dense", "n56-sparse", "n250", "signed-zeros"])
    def test_matches_solve_form(self, e):
        # reference: I - A from a fresh identity, solved against a second one
        A = e.Z / np.where(e.x <= 0, 1.0, e.x)[np.newaxis, :]
        L = np.linalg.solve(np.eye(e.n) - A, np.eye(e.n))
        op = coefficients(e)
        assert np.array_equal(op.A.view(np.int64), A.view(np.int64))
        assert np.array_equal(op.L.view(np.int64), L.view(np.int64))

    def test_read_only(self, pair2_op):
        assert not pair2_op.A.flags.writeable
        assert not pair2_op.L.flags.writeable

    def test_peak_memory(self):
        n = 200
        e = sized_economy(3, n, 0.3)
        # A, I - A and L: about 3.1 n**2 doubles
        assert traced_peak(coefficients, e) <= 4 * n**2 * 8


class TestTotalDemand:
    def test_reproduces_baseline(self, pair2, pair2_op):
        npt.assert_allclose(total_demand(pair2_op, pair2.f), pair2.x)

    def test_zero(self, pair2_op):
        npt.assert_array_equal(total_demand(pair2_op, np.zeros(2)), np.zeros(2))

    def test_chain3_partial(self, chain3_op):
        d = total_demand(chain3_op, np.array([0.0, 6.0, 8.0]))
        npt.assert_allclose(d, [6.0, 6.0, 8.0])

    def test_dimension_mismatch(self, chain3_op):
        with pytest.raises(DimensionMismatch):
            total_demand(chain3_op, np.zeros(2))


def loop_remove_links(e, links):
    """The per-link form of remove_links, one (supplier, customer) pair at
    a time: the reference the array form is held to bitwise."""
    Z = np.array(e.Z)
    for i, j in links:
        Z[i, j] = 0.0
    return build_economy(Z, e.f, labels=e.labels)


def reference_smallest_links(e, k):
    """The k smallest positive links as a list of pairs, sorted by value,
    then row, then column."""
    n = e.n
    positive = [(i, j) for i in range(n) for j in range(n) if e.Z[i, j] > 0]
    return sorted(positive, key=lambda ij: (e.Z[ij], *ij))[:k]


def pairs(links):
    """Index arrays (rows, cols) as a list of (row, column) pairs."""
    rows, cols = links
    return list(zip(rows.tolist(), cols.tolist()))


def bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def link_removals(draw):
    """A sparse economy and k of its positive links (0 <= k <= all of
    them) in shuffled order, some repeated, plus a few arbitrary pairs
    that may be zero flows already."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    e = productive_economy(rng, n, draw(st.sampled_from([0.1, 0.3, 0.8])))
    rows, cols = np.nonzero(e.Z > 0)
    chosen = rng.choice(rows.size, draw(st.integers(0, rows.size)), replace=False)
    repeated = rng.choice(chosen, draw(st.integers(0, 3))) if chosen.size else chosen
    idx = rng.permutation(np.concatenate([chosen, repeated]))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3))
    r = np.concatenate([rows[idx], np.array([i for i, _ in extra], dtype=np.intp)])
    c = np.concatenate([cols[idx], np.array([j for _, j in extra], dtype=np.intp)])
    return e, r, c


class TestRemoveLinks:
    @settings(max_examples=150, deadline=None)
    @given(link_removals())
    def test_matches_loop_form(self, drawn):
        e, rows, cols = drawn
        got = remove_links(e, rows, cols)
        want = loop_remove_links(e, zip(rows.tolist(), cols.tolist()))
        for name in ("Z", "f", "x", "v"):
            assert bitwise_equal(getattr(got, name), getattr(want, name)), name

    def test_peak_memory(self):
        n = 200
        e = sized_economy(3, n, 0.3)
        rows, cols = np.nonzero(e.Z > 0)
        chosen = np.random.default_rng(0).choice(rows.size, rows.size // 2,
                                                 replace=False)
        # the thinned Z only: about 1.1 n**2 doubles
        assert traced_peak(remove_links, e, rows[chosen], cols[chosen]) <= 1.5 * n**2 * 8

    def test_pair2_single_link(self, pair2):
        e = remove_links(pair2, [0], [1])
        npt.assert_allclose(e.x, [8.0, 8.0])
        npt.assert_allclose(e.v, [5.0, 8.0])
        assert e.Z[1, 0] == 3.0

    def test_zero_link_is_identity(self, pair2):
        e = remove_links(pair2, [0], [0])
        npt.assert_array_equal(e.Z, pair2.Z)
        npt.assert_array_equal(e.x, pair2.x)

    def test_chain3_all_links(self, chain3):
        e = remove_links(chain3, [0, 0], [1, 2])
        npt.assert_array_equal(e.Z, np.zeros((3, 3)))
        npt.assert_allclose(e.x, CHAIN3_F)

    def test_preserves_identities_and_f(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            e = random_economy(rng)
            rows, cols = rng.integers(0, e.n, 3), rng.integers(0, e.n, 3)
            e2 = remove_links(e, rows, cols)
            npt.assert_array_equal(e2.f, e.f)
            npt.assert_array_equal(e2.x, e2.Z.sum(axis=1) + e2.f)
            # column identity holds up to float re-association only
            npt.assert_allclose(e2.x, e2.Z.sum(axis=0) + e2.v, rtol=1e-12)

    def test_density_never_increases(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            e = random_economy(rng)
            i, j = int(rng.integers(e.n)), int(rng.integers(e.n))
            e2 = remove_links(e, [i], [j])
            assert e2.density <= e.density
            if e.Z[i, j] == 0:
                assert e2.density == e.density


class TestSmallestLinks:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8),
           st.sampled_from([0.1, 0.3, 0.8]), st.floats(0, 1))
    def test_matches_list_of_pairs(self, seed, n, density, share):
        e = productive_economy(np.random.default_rng(seed), n, density)
        # a few repeated flow values, so ties break by index
        Z = np.round(np.array(e.Z), 0)
        e = build_economy(Z, e.f)
        k = int(share * np.count_nonzero(Z > 0))
        assert pairs(smallest_links(e, k)) == reference_smallest_links(e, k)

    def test_pair2(self, pair2):
        assert pairs(smallest_links(pair2, 1)) == [(0, 1)]

    def test_zero_count(self, pair2):
        assert pairs(smallest_links(pair2, 0)) == []

    def test_chain3_order(self, chain3):
        assert pairs(smallest_links(chain3, 2)) == [(0, 2), (0, 1)]

    def test_too_large(self, pair2):
        with pytest.raises(KTooLarge):
            smallest_links(pair2, 3)

    def test_tie_break_by_index(self):
        e = build_economy([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                          [1.0, 1.0, 2.0])
        assert pairs(smallest_links(e, 3)) == [(0, 1), (0, 2), (1, 0)]


class TestMetrics:
    def test_pair2(self, pair2, pair2_op):
        m = metrics(pair2, pair2_op)
        npt.assert_allclose(m.intermediate_share, 5.0 / 18.0)
        npt.assert_allclose(m.total_output, 18.0)
        npt.assert_allclose(m.avg_multiplier, 51.0 / 37.0)
        npt.assert_allclose(pair2.density, 2.0 / 4.0)

    def test_no_flows(self):
        e = build_economy(np.zeros((4, 4)), np.ones(4))
        m = metrics(e, coefficients(e))
        assert m.avg_multiplier == 1.0
        assert m.intermediate_share == 0.0
        assert e.density == 0.0


class TestProperties:
    def test_round_trip_demand(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            e = random_economy(rng)
            d = total_demand(coefficients(e), e.f)
            npt.assert_allclose(d, e.x, rtol=1e-8)

    def test_leontief_matches_neumann_series(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            e = random_economy(rng)
            op = coefficients(e)
            series = np.eye(e.n)
            power = np.eye(e.n)
            for _ in range(200):
                power = power @ op.A
                series += power
            npt.assert_allclose(op.L, series, atol=1e-6)
