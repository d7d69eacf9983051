import numpy as np
import pytest

from capped_kaczmarz.errors import AllWeightsZero, FactorizationFailure
from capped_kaczmarz.numerics import (
    draw_weighted_index,
    min_norm_least_squares,
    row_sq_norms,
    seeded_rng,
    singular_extremes,
)


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

    def test_zero_weights_rejected(self):
        with pytest.raises(AllWeightsZero):
            draw_weighted_index(seeded_rng(0), np.array([0.0, 0.0]))

    def test_never_selects_zero_weight_entries(self):
        rng = seeded_rng(8)
        draws = {draw_weighted_index(rng, np.array([0.0, 1.0, 0.0])) for _ in range(200)}
        assert draws == {1}
