import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capped_kaczmarz.core import MethodKind, SolverConfig, SolveStatus
from capped_kaczmarz.errors import AllWeightsZero, FactorizationFailure
from capped_kaczmarz.numerics import (
    draw_weighted_index,
    min_norm_least_squares,
    row_sq_norms,
    seeded_rng,
    singular_extremes,
)
from capped_kaczmarz.problems import GLMProblem, make_synthetic_glm
from capped_kaczmarz.solvers import hybrid_linear_substep, solve
from oracles import glm_head


def svd_pinv_solve(J, rhs):
    """Independent oracle: explicit SVD pseudoinverse application."""
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    cutoff = max(J.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return Vt.T @ (inv * (U.T @ rhs))


class TestMinNormLeastSquares:
    def test_identity(self):
        assert np.allclose(min_norm_least_squares(np.eye(3), [1.0, 2.0, 3.0]), [1, 2, 3])

    def test_rank_deficient_picks_min_norm(self):
        delta = min_norm_least_squares(np.array([[1.0, 0.0], [1.0, 0.0]]), [1.0, 1.0])
        assert np.allclose(delta, [1.0, 0.0], atol=1e-12)

    def test_single_row_is_scaled_transpose(self):
        delta = min_norm_least_squares(np.array([[3.0, 4.0]]), [5.0])
        assert np.allclose(delta, [0.6, 0.8], atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(FactorizationFailure):
            min_norm_least_squares(np.array([[np.inf, 1.0]]), [1.0])
        with pytest.raises(FactorizationFailure):
            min_norm_least_squares(np.eye(2), [np.nan, 0.0])

    def test_matches_svd_oracle_including_rank_deficient(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            m = int(rng.integers(1, 20))
            n = int(rng.integers(1, 20))
            J = rng.standard_normal((m, n))
            if trial % 3 == 0 and min(m, n) > 1:
                J[:, -1] = J[:, 0]  # exact rank deficiency
            rhs = rng.standard_normal(m)
            mine = min_norm_least_squares(J, rhs)
            oracle = svd_pinv_solve(J, rhs)
            assert np.allclose(mine, oracle, rtol=1e-8, atol=1e-10)

    def test_orthonormal_rows_equal_transpose_action(self):
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((5, 3)))
        J = q.T  # 3 orthonormal rows
        rhs = np.array([1.0, -2.0, 0.5])
        assert np.allclose(min_norm_least_squares(J, rhs), J.T @ rhs, atol=1e-12)

    def test_projection_consistency(self):
        # J @ delta equals the orthogonal projection of rhs onto range(J)
        rng = np.random.default_rng(11)
        for _ in range(10):
            J = rng.standard_normal((rng.integers(2, 50), rng.integers(2, 50)))
            rhs = rng.standard_normal(J.shape[0])
            delta = min_norm_least_squares(J, rhs)
            Q, _ = np.linalg.qr(J)
            projected = Q @ (Q.T @ rhs)
            assert np.allclose(J @ delta, projected, rtol=1e-8, atol=1e-8)


def with_condition(k, n, cond, rng):
    """A k x n matrix with singular values spread geometrically from 1 down
    to ``1 / cond``, between random orthonormal bases."""
    r = min(k, n)
    U, _ = np.linalg.qr(rng.standard_normal((k, r)))
    W, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return (U * np.geomspace(1.0, 1.0 / cond, r)) @ W.T


def lstsq_bytes(J, rhs):
    return np.linalg.lstsq(J, rhs, rcond=None)[0].tobytes()


def gram_solve(J, rhs):
    """The Gram path written out: one eigh of J J^T, applied through J^T."""
    lam, V = np.linalg.eigh(J @ J.T)
    return J.T @ (V @ ((V.T @ rhs) / lam))


class TestLeastSquaresRouting:
    """Which blocks take the Gram path, and that every other block keeps the
    bytes of ``numpy.linalg.lstsq``."""

    def test_wide_ill_conditioned_block_keeps_gelsd(self):
        rng = seeded_rng(31)
        J = with_condition(8, 40, 1e6, rng)
        rhs = rng.standard_normal(8)
        assert min_norm_least_squares(J, rhs).tobytes() == lstsq_bytes(J, rhs)

    def test_wide_block_with_repeated_row_keeps_gelsd(self):
        rng = seeded_rng(32)
        J = rng.standard_normal((6, 30))
        J[4] = J[1]
        rhs = rng.standard_normal(6)
        assert min_norm_least_squares(J, rhs).tobytes() == lstsq_bytes(J, rhs)

    @pytest.mark.parametrize("shape", [(12, 12), (30, 7), (7, 13)], ids=["square", "tall", "2k>n"])
    def test_square_tall_and_not_short_blocks_keep_gelsd(self, shape):
        rng = seeded_rng(33)
        J = rng.standard_normal(shape)
        rhs = rng.standard_normal(shape[0])
        assert min_norm_least_squares(J, rhs).tobytes() == lstsq_bytes(J, rhs)

    @pytest.mark.parametrize("scale, rhs_scale", [(1e-155, 1.0), (1e-160, 1e-170), (1e-150, 1e10), (1e155, 1.0)])
    def test_blocks_out_of_gram_range_keep_gelsd(self, scale, rhs_scale):
        # a tiny block's G has subnormal eigenvalues; a small one with a
        # large rhs overflows in (V^T rhs) / lam, though the solution is
        # finite; a huge block's G overflows
        rng = seeded_rng(34)
        J = scale * rng.standard_normal((4, 20))
        rhs = rhs_scale * rng.standard_normal(4)
        with np.errstate(all="ignore"):
            delta = min_norm_least_squares(J, rhs)
        assert delta.tobytes() == lstsq_bytes(J, rhs)
        assert np.isfinite(delta).all()

    def test_glm_tail_block_and_head_take_the_gram_path(self):
        glm = make_synthetic_glm(200, 10, 8)
        config = SolverConfig(method=MethodKind.DB_CNK, seed=0, max_iter=30, record_iterates=True)
        trace = solve(glm, np.zeros(glm.n), config)
        x = trace.iterates[20]
        rows = np.array(trace.records[20].selected)
        r = glm.residual(x)
        head = np.arange(glm.d)
        blocks = {"tail": (glm.jacobian(x, rows), r[rows]), "head": (glm.jacobian(x, head), r[head])}
        for name, (J, rhs) in blocks.items():
            assert 2 * J.shape[0] <= J.shape[1], name
            delta = min_norm_least_squares(J, rhs)
            assert delta.tobytes() == gram_solve(J, rhs).tobytes(), name
            oracle = svd_pinv_solve(J, rhs)
            assert np.linalg.norm(delta - oracle) <= 1e-13 * np.linalg.norm(oracle), name

    def test_nearly_collinear_head_falls_back_to_gelsd(self, monkeypatch):
        # unscaled libsvm-style features: one direction plus 1e-5 noise,
        # times 1e3, so cond(H H^T) is about 1e10
        rng = seeded_rng(21)
        p, d = 500, 20
        A = 1e3 * (rng.standard_normal(p) + 1e-5 * rng.standard_normal((d, p)))
        glm = GLMProblem(A, np.where(rng.random(p) < 0.5, -1.0, 1.0), 1.0 / p)
        H = glm_head(glm)
        lam = np.linalg.eigvalsh(H @ H.T)
        assert lam[-1] / lam[0] > 1e9
        x = rng.standard_normal(glm.n)
        r = glm.residual(x)
        rhs = r[:d]
        # the closed-form head step declines it, so the hybrid's head step
        # is gelsd's, bit for bit
        assert glm.block_step(x, np.arange(d), rhs) is None
        assert min_norm_least_squares(H, rhs).tobytes() == lstsq_bytes(H, rhs)
        lstsq_step = np.linalg.lstsq(H, rhs, rcond=None)[0]
        assert hybrid_linear_substep(glm, x, r).tobytes() == (x - lstsq_step).tobytes()
        # in a hybrid solve each iteration checks the declined head again,
        # one d x d eigh before gelsd, and every tail block here takes its
        # closed-form step with no eigh
        calls = []
        eigh = np.linalg.eigh

        def counted(G):
            calls.append(G.shape)
            return eigh(G)

        declined = []
        closed_form = glm.block_step

        def logged(x, rows, rhs, memo=None):
            step = closed_form(x, rows, rhs, memo)
            declined.append(step is None)
            return step

        monkeypatch.setattr(np.linalg, "eigh", counted)
        glm.block_step = logged
        trace = solve(glm, x, SolverConfig(method=MethodKind.GLM_HYBRID_DB, seed=0, max_iter=5))
        assert trace.status is SolveStatus.ITERATION_CAP_REACHED
        assert declined == [True, False] * 5
        assert calls == [(d, d)] * 5

    @pytest.mark.parametrize("row", [12, 13])
    def test_zeroed_row_of_an_orthogonal_block_matches_the_svd_oracle(self, row):
        # gelsd computes this block's zero singular value as 7.09e-15 (row
        # 12) or 6.95e-15 (row 13) on an AVX-512 OpenBLAS kernel, just above
        # numpy's default cutoff of 30 eps = 6.66e-15; under that cutoff the
        # step landed 6.9e13 (8.5e13) away from the oracle's
        rng = seeded_rng(3234041005)
        J = with_condition(30, 30, 1.0, rng)
        J[row] = 0.0
        rhs = rng.standard_normal(30)
        oracle = svd_pinv_solve(J, rhs)
        mine = min_norm_least_squares(J, rhs)
        assert np.linalg.norm(mine - oracle) <= 1e-8 * max(1.0, float(np.linalg.norm(oracle)))

    # derandomized, and no zeroed rows: on one square block with a zeroed
    # row in 30000 draws, gelsd computed the zero singular value as 7e-15,
    # above its rank cutoff, where the SVD oracle cut it; that rank decision
    # is gelsd's own, not the Gram path's
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(1, 60),
        st.integers(1, 60),
        st.floats(0.0, 6.0),
        st.sampled_from(["none", "repeated row", "scaled column"]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_svd_oracle_up_to_cond_1e6(self, k, n, log_cond, deficiency, seed):
        # above cond 1e6 even gelsd's forward error, about cond * eps, can
        # miss the bound
        rng = seeded_rng(seed)
        J = with_condition(k, n, 10.0**log_cond, rng)
        if deficiency == "repeated row" and k > 1:
            J[-1] = J[0]
        elif deficiency == "scaled column" and n > 1:
            J[:, -1] = 2.0 * J[:, 0]
        rhs = rng.standard_normal(k)
        oracle = svd_pinv_solve(J, rhs)
        mine = min_norm_least_squares(J, rhs)
        assert np.linalg.norm(mine - oracle) <= 1e-8 * max(1.0, float(np.linalg.norm(oracle)))


class TestSingularExtremes:
    def test_diagonal(self):
        assert singular_extremes(np.diag([3.0, 1.0])) == (3.0, 1.0)

    def test_wide_matrix_has_zero_h2(self):
        sigma_max, h2 = singular_extremes(np.array([[1.0, 0.0]]))
        assert sigma_max == 1.0 and h2 == 0.0

    def test_rayleigh_quotient_bounds(self):
        rng = np.random.default_rng(5)
        J = rng.standard_normal((20, 5))
        sigma_max, h2 = singular_extremes(J)
        xs = rng.standard_normal((1000, 5))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        norms = np.linalg.norm(xs @ J.T, axis=1)
        assert np.all(norms <= sigma_max + 1e-12)
        assert np.all(norms >= h2 - 1e-12)

    def test_monte_carlo_rayleigh_oracle(self):
        rng = np.random.default_rng(17)
        J = rng.standard_normal((20, 5))
        sigma_max, h2 = singular_extremes(J)
        xs = rng.standard_normal((100_000, 5))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        norms = np.linalg.norm(xs @ J.T, axis=1)
        assert norms.max() == pytest.approx(sigma_max, rel=0.05)
        assert norms.min() == pytest.approx(h2, rel=0.05)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: min_norm_least_squares(np.ones((2, 3)), np.ones(3)), "shape mismatch"),
        (lambda: min_norm_least_squares(np.ones(3), np.ones(3)), "shape mismatch"),
        (lambda: singular_extremes(np.zeros((0, 3))), "nonempty"),
        (lambda: singular_extremes(np.ones(3)), "nonempty"),
        (lambda: singular_extremes(np.array([[1.0, np.nan]])), "non-finite"),
        (lambda: singular_extremes(np.array([[1.0], [np.inf]])), "non-finite"),
    ],
    ids=["lstsq-row-mismatch", "lstsq-1-d", "svd-empty", "svd-1-d", "svd-nan", "svd-inf"],
)
def test_factorizations_refuse_malformed_input(call, message):
    with pytest.raises(FactorizationFailure, match=message):
        call()


class TestRowNorms:
    def test_identity(self):
        assert np.allclose(row_sq_norms(np.eye(2)), [1.0, 1.0])

    def test_three_four_five(self):
        assert row_sq_norms(np.array([[3.0, 4.0]]))[0] == 25.0


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = seeded_rng(99)
        b = seeded_rng(99)
        assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]

    def test_distinct_seeds_diverge(self):
        a = [seeded_rng(1).random() for _ in range(100)]
        b = [seeded_rng(2).random() for _ in range(100)]
        assert a != b

    def test_uniform_mean(self):
        draws = seeded_rng(123).random(1_000_000)
        assert 0.498 <= draws.mean() <= 0.502


def clone(rng):
    """A generator that replays ``rng``'s stream from its current state."""
    twin = np.random.Generator(np.random.PCG64())
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def weight_vectors():
    """Random weights with zeros, one-hot vectors and subnormal weights."""
    rng = seeded_rng(11)
    vectors = []
    for m in (1, 2, 3, 7, 50, 200):
        w = rng.random(m)
        w[rng.random(m) < 0.4] = 0.0
        w[rng.integers(m)] = rng.random() + 0.5
        vectors.append(w)
        for j in {0, m // 2, m - 1}:
            one_hot = np.zeros(m)
            one_hot[j] = rng.random() + 0.5
            vectors.append(one_hot)
        vectors.append(w * 5e-324 / w.max())
        vectors.append(np.where(rng.random(m) < 0.5, 1e-310, w))
    return vectors


class TestDrawWeightedIndex:
    def test_replays_cumulative_sum_inversion(self):
        rng = seeded_rng(5)
        for w in weight_vectors():
            for _ in range(25):
                twin = clone(rng)
                cumulative = np.cumsum(w)
                u = twin.random()
                expected = min(int(np.searchsorted(cumulative, u * cumulative[-1], "right")), len(w) - 1)
                assert draw_weighted_index(rng, w) == expected

    def test_consumes_exactly_one_variate(self):
        rng = seeded_rng(6)
        for w in weight_vectors():
            twin = clone(rng)
            draw_weighted_index(rng, w)
            twin.random()
            assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        rng = seeded_rng(0)
        state = rng.bit_generator.state
        for w in ([bad], [1.0, bad], [bad, 2.0, 3.0]):
            with pytest.raises(AllWeightsZero):
                draw_weighted_index(rng, np.array(w))
        # a rejected draw consumes nothing
        assert rng.bit_generator.state == state

    def test_degenerate_weight(self):
        rng = seeded_rng(0)
        assert all(draw_weighted_index(rng, np.array([4.0])) == 0 for _ in range(10))

    @staticmethod
    def prefix_sum_draw(rng, weights):
        """The draw as the prefix-sum inversion, for every set size: the
        oracle of the one-row form."""
        cumulative = np.add.accumulate(weights)
        total = float(cumulative[-1]) if cumulative.size else 0.0
        if not np.isfinite(total) or total <= 0.0:
            raise AllWeightsZero("sampling weights must have a positive finite sum")
        u = rng.random() * total
        return min(int(cumulative.searchsorted(u, side="right")), weights.size - 1)

    @pytest.mark.parametrize("weight", [0.37, 5e-324, 1e308])
    def test_one_row_draw_matches_the_prefix_sum_form(self, weight):
        rng = seeded_rng(9)
        for _ in range(50):
            twin = clone(rng)
            assert draw_weighted_index(rng, np.array([weight])) == self.prefix_sum_draw(twin, np.array([weight])) == 0
            assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("weight", [0.0, -0.0, -1.0, np.nan, np.inf])
    def test_one_row_draw_refuses_what_the_prefix_sum_form_refuses(self, weight):
        rng = seeded_rng(9)
        state = rng.bit_generator.state
        for draw in (draw_weighted_index, self.prefix_sum_draw):
            with pytest.raises(AllWeightsZero):
                draw(rng, np.array([weight]))
        assert rng.bit_generator.state == state

    def test_zero_weights_rejected(self):
        with pytest.raises(AllWeightsZero):
            draw_weighted_index(seeded_rng(0), np.array([0.0, 0.0]))

    def test_never_selects_zero_weight_entries(self):
        rng = seeded_rng(8)
        draws = {draw_weighted_index(rng, np.array([0.0, 1.0, 0.0])) for _ in range(200)}
        assert draws == {1}
