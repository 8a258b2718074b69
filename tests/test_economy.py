import numpy as np
import numpy.testing as npt
import pytest

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

from conftest import CHAIN3_F, random_economy, sized_economy, traced_peak


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

    def test_negative_value_added_flagged(self):
        # industry 2 buys more than its own output value
        e = build_economy([[0.0, 5.0], [0.0, 0.0]], [1.0, 2.0])
        assert e.v[1] < 0
        assert e.negative_value_added


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


class TestRemoveLinks:
    def test_pair2_single_link(self, pair2):
        e = remove_links(pair2, [(0, 1)])
        npt.assert_allclose(e.x, [8.0, 8.0])
        npt.assert_allclose(e.v, [5.0, 8.0])
        assert e.Z[1, 0] == 3.0

    def test_zero_link_is_identity(self, pair2):
        e = remove_links(pair2, [(0, 0)])
        npt.assert_array_equal(e.Z, pair2.Z)
        npt.assert_array_equal(e.x, pair2.x)

    def test_chain3_all_links(self, chain3):
        e = remove_links(chain3, [(0, 1), (0, 2)])
        npt.assert_array_equal(e.Z, np.zeros((3, 3)))
        npt.assert_allclose(e.x, CHAIN3_F)

    def test_preserves_identities_and_f(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            e = random_economy(rng)
            links = [(int(i), int(j))
                     for i, j in zip(rng.integers(0, e.n, 3), rng.integers(0, e.n, 3))]
            e2 = remove_links(e, links)
            npt.assert_array_equal(e2.f, e.f)
            npt.assert_array_equal(e2.x, e2.Z.sum(axis=1) + e2.f)
            # column identity holds up to float re-association only
            npt.assert_allclose(e2.x, e2.Z.sum(axis=0) + e2.v, rtol=1e-12)

    def test_density_never_increases(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            e = random_economy(rng)
            links = [(int(rng.integers(e.n)), int(rng.integers(e.n)))]
            e2 = remove_links(e, links)
            assert e2.density <= e.density
            if all(e.Z[i, j] == 0 for i, j in links):
                assert e2.density == e.density


class TestSmallestLinks:
    def test_pair2(self, pair2):
        assert smallest_links(pair2, 1) == [(0, 1)]

    def test_zero_count(self, pair2):
        assert smallest_links(pair2, 0) == []

    def test_chain3_order(self, chain3):
        assert smallest_links(chain3, 2) == [(0, 2), (0, 1)]

    def test_too_large(self, pair2):
        with pytest.raises(KTooLarge):
            smallest_links(pair2, 3)

    def test_tie_break_by_index(self):
        e = build_economy([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                          [1.0, 1.0, 2.0])
        assert smallest_links(e, 3) == [(0, 1), (0, 2), (1, 0)]


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
