import numpy as np
import pytest

from capped_kaczmarz.core import Convex, Scaled
from capped_kaczmarz.errors import AllWeightsZero, DegenerateState
from capped_kaczmarz.numerics import seeded_rng
from capped_kaczmarz.selection import (
    RowGeometry,
    build_distance_set,
    build_residual_set,
    compute_delta,
    compute_epsilon,
    sample_index,
)


def geom(residual, grad_sq):
    return RowGeometry.from_state(np.array(residual, float), np.array(grad_sq, float))


@pytest.mark.parametrize(
    "residual, grad_sq, message",
    [([1.0, 2.0], [1.0], "equal length"), ([], [], "at least one row")],
    ids=["unequal-lengths", "no-rows"],
)
def test_geometry_refuses_mismatched_or_empty_rows(residual, grad_sq, message):
    with pytest.raises(ValueError, match=message):
        geom(residual, grad_sq)


class TestComputeEpsilon:
    def test_hand_value(self):
        g = geom([2.0, 1.0], [1.0, 1.0])
        assert compute_epsilon(g, Convex(0.5)) == pytest.approx(0.65, abs=1e-15)

    def test_symmetric_rows(self):
        g = geom([1.0, 1.0], [1.0, 1.0])
        assert compute_epsilon(g, Convex(0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_scaled_mode(self):
        g = geom([2.0, 1.0], [1.0, 1.0])
        assert compute_epsilon(g, Scaled(1.0)) == pytest.approx(0.8, abs=1e-15)

    def test_zero_residual_degenerate(self):
        with pytest.raises(DegenerateState):
            compute_epsilon(geom([0.0, 0.0], [1.0, 1.0]), Convex(0.5))

    def test_all_zero_gradients_degenerate(self):
        with pytest.raises(DegenerateState):
            compute_epsilon(geom([1.0, 1.0], [0.0, 0.0]), Convex(0.5))


class TestDistanceSet:
    def test_hand_example(self):
        g = geom([2.0, 1.0], [1.0, 1.0])
        sel = build_distance_set(g, 0.65)
        assert sel.indices.tolist() == [0]
        assert sel.weights.tolist() == [4.0]

    def test_ties_included(self):
        g = geom([1.0, 1.0], [1.0, 1.0])
        sel = build_distance_set(g, 0.5)
        assert sel.indices.tolist() == [0, 1]

    def test_zero_gradient_rows_excluded(self):
        # the degenerate row may not enter the distance set even with a huge
        # residual ratio
        g = geom([1.0, 5.0], [1.0, 1e-305])
        sel = build_distance_set(g, compute_epsilon(g, Convex(0.5)))
        assert 1 not in sel.indices.tolist()


class TestComputeDelta:
    def test_hand_value(self):
        assert compute_delta(geom([2.0, 1.0, 1.0], [1.0] * 3), Convex(0.5)) == pytest.approx(0.5)

    def test_symmetric(self):
        assert compute_delta(geom([1.0, 1.0], [1.0, 1.0]), Convex(0.5)) == pytest.approx(0.5)

    def test_single_support(self):
        g = geom([1.0, 0.0, 0.0, 0.0], [1.0] * 4)
        assert compute_delta(g, Convex(0.5)) == pytest.approx(0.625)

    def test_zero_residual_degenerate(self):
        with pytest.raises(DegenerateState):
            compute_delta(geom([0.0], [1.0]), Convex(0.5))


class TestResidualSet:
    def test_hand_example(self):
        g = geom([2.0, 1.0, 1.0], [1.0] * 3)
        sel = build_residual_set(g, 0.5)
        assert sel.indices.tolist() == [0]
        # the residual rule samples by the distance ratio
        assert sel.weights.tolist() == [4.0]

    def test_ties_included(self):
        g = geom([1.0, 1.0], [1.0, 1.0])
        assert build_residual_set(g, 0.5).indices.tolist() == [0, 1]

    def test_distance_weights(self):
        g = geom([2.0, 2.0], [1.0, 4.0])
        sel = build_residual_set(g, compute_delta(g, Convex(0.5)))
        assert np.allclose(sel.weights, [4.0, 1.0])

    def test_zero_gradient_member_gets_zero_weight(self):
        g = geom([2.0, 2.0], [1.0, 0.0])
        sel = build_residual_set(g, 0.5)
        assert sel.indices.tolist() == [0, 1]
        assert sel.weights[1] == 0.0

    def test_all_members_zero_gradient(self):
        g = geom([2.0, 0.1], [0.0, 1.0])
        with pytest.raises(AllWeightsZero):
            build_residual_set(g, compute_delta(g, Convex(0.9)))


def test_rounded_threshold_keeps_every_exact_tie():
    # with 26 equal residuals and unit norms both thresholds times ||f||^2
    # round an ulp above the common value; the clamp to the maximum keeps
    # all 26 rows
    g = geom(np.full(26, 9.357216995498906), np.ones(26))
    eps, delta = compute_epsilon(g, Convex(0.5)), compute_delta(g, Convex(0.5))
    assert eps * g.active_residual_sq > g.ratios[0] and delta * g.residual_sq > g.res_sq[0]
    assert build_distance_set(g, eps).indices.tolist() == list(range(26))
    assert build_residual_set(g, delta).indices.tolist() == list(range(26))


class TestSampleIndex:
    def test_singleton_always_returned(self):
        g = geom([0.0, 0.0, 0.0, 2.0], [1.0] * 4)
        sel = build_residual_set(g, compute_delta(g, Convex(0.5)))
        rng = seeded_rng(0)
        assert all(sample_index(sel, rng) == 3 for _ in range(20))

    def test_empirical_frequency(self):
        g = geom([np.sqrt(3.0), 1.0], [1.0, 1.0])
        sel = build_distance_set(g, 0.0)  # both rows kept, weights 3 and 1
        rng = seeded_rng(42)
        draws = np.array([sample_index(sel, rng) for _ in range(100_000)])
        freq = (draws == 0).mean()
        assert 0.74 <= freq <= 0.76

    def test_fixed_seed_reproducible(self):
        g = geom([1.0, 1.0], [1.0, 1.0])
        sel = build_distance_set(g, compute_epsilon(g, Convex(0.5)))
        a = [sample_index(sel, seeded_rng(7)) for _ in range(1)]
        first = [sample_index(sel, seeded_rng(7)) for _ in range(1)]
        rng1, rng2 = seeded_rng(7), seeded_rng(7)
        seq1 = [sample_index(sel, rng1) for _ in range(50)]
        seq2 = [sample_index(sel, rng2) for _ in range(50)]
        assert seq1 == seq2
        assert a == first
