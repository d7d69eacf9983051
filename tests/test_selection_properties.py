"""Property tests for the greedy threshold identities."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from capped_kaczmarz.core import Convex, Scaled
from capped_kaczmarz.errors import AllWeightsZero, DegenerateState, EmptySet
from capped_kaczmarz.problems import BrownProblem
from capped_kaczmarz.selection import (
    ACTIVE_ABS_FLOOR,
    ACTIVE_REL_EPS,
    RowGeometry,
    _median,
    build_distance_set,
    build_residual_set,
    compute_delta,
    compute_epsilon,
)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


@st.composite
def geometries(draw):
    m = draw(st.integers(min_value=1, max_value=30))
    residual = np.array(draw(st.lists(finite, min_size=m, max_size=m)))
    grad_sq = np.array(draw(st.lists(positive, min_size=m, max_size=m)))
    # at least one row must carry residual for the thresholds to exist
    if not (residual * residual).sum() > 0:
        residual[draw(st.integers(min_value=0, max_value=m - 1))] = draw(
            st.floats(min_value=0.5, max_value=10.0)
        )
    return RowGeometry.from_state(residual, grad_sq)


thetas = st.floats(min_value=0.0, max_value=1.0)
xis = st.floats(min_value=1e-6, max_value=1.0)


@settings(max_examples=250, deadline=None)
@given(geometries(), thetas)
def test_epsilon_times_frobenius_at_least_one(g, theta):
    # a subnormal |f_i|^2 loses bits in its ratio (pinned below)
    assume(squares_stay_normal(g))
    eps = compute_epsilon(g, Convex(theta))
    assert eps * g.active_fro_sq >= 1.0 - 1e-12


@settings(max_examples=250, deadline=None)
@given(geometries(), thetas)
# found by the explore profile: |f|^2 = 6.24e-315 is subnormal, so theta
# times it loses bits unless the ratio to ||f||^2 is taken first
@example(RowGeometry.from_state(np.array([7.89939353e-158]), np.array([1.0])), 0.125)
def test_delta_bounds(g, theta):
    delta = compute_delta(g, Convex(theta))
    assert delta >= 1.0 / g.res_sq.size - 1e-15
    assert delta <= 1.0 + 1e-15


@settings(max_examples=250, deadline=None)
@given(geometries(), thetas)
def test_sets_nonempty_and_contain_argmax(g, theta):
    # a subnormal |f_i|^2 can underflow its ratio to zero (pinned below)
    assume(squares_stay_normal(g))
    mode = Convex(theta)
    dist = build_distance_set(g, compute_epsilon(g, mode))
    resid = build_residual_set(g, compute_delta(g, mode))
    assert len(dist) >= 1 and len(resid) >= 1

    ratios = np.where(g.active, g.residual**2 / np.where(g.active, g.grad_sq_norms, 1.0), -1.0)
    assert int(np.argmax(ratios)) in dist.indices
    assert int(np.argmax(g.residual**2)) in resid.indices


@settings(max_examples=250, deadline=None)
@given(geometries(), xis)
def test_scaled_mode_sets_nonempty(g, xi):
    assume(squares_stay_normal(g))
    mode = Scaled(xi)
    assert len(build_distance_set(g, compute_epsilon(g, mode))) >= 1
    assert len(build_residual_set(g, compute_delta(g, mode))) >= 1


@settings(max_examples=250, deadline=None)
@given(geometries())
def test_normalized_weights_form_distribution(g):
    assume(squares_stay_normal(g))
    for sel in (
        build_distance_set(g, compute_epsilon(g, Convex(0.5))),
        build_residual_set(g, compute_delta(g, Convex(0.5))),
    ):
        assert np.all(sel.weights >= 0.0)
        total = sel.weights.sum()
        assert total > 0.0
        assert abs(sel.weights.sum() / total - 1.0) <= 1e-12


def squares_stay_normal(g: RowGeometry) -> bool:
    """Every nonzero ``|f_i|^2`` and ``||grad_i||^2`` is a normal float."""
    squares = np.concatenate((g.res_sq, g.grad_sq_norms))
    return bool(np.all(np.abs(squares[squares != 0.0]) >= np.finfo(np.float64).tiny))


def rescaling_stays_normal(g: RowGeometry, scaled: RowGeometry) -> bool:
    """The squares of ``g``'s nonzero residual entries and its nonzero
    norms are normal floats in ``g`` and in ``scaled``.  Which entries count
    as nonzero is read off ``g``, so a square that underflows to zero under
    the rescaling fails, where ``squares_stay_normal`` would drop it."""
    nonzero = np.concatenate((g.residual, g.grad_sq_norms)) != 0.0
    return all(
        bool(np.all(np.concatenate((h.res_sq, h.grad_sq_norms))[nonzero] >= np.finfo(np.float64).tiny))
        for h in (g, scaled)
    )


@settings(max_examples=250, deadline=None)
@given(geometries(), st.integers(min_value=-40, max_value=40))
def test_homogeneity_under_common_rescaling(g, exponent):
    # powers of two keep every float product exact while the squares stay
    # normal, so set membership cannot drift through rounding at threshold
    # ties; subnormal squares lose bits and break that premise (pinned below)
    c = float(2.0**exponent)
    scaled = RowGeometry.from_state(c * g.residual, c * c * g.grad_sq_norms)
    assume(rescaling_stays_normal(g, scaled))
    for mode in (Convex(0.5), Scaled(1.0)):
        base_d = build_distance_set(g, compute_epsilon(g, mode))
        scaled_d = build_distance_set(scaled, compute_epsilon(scaled, mode))
        assert base_d.indices.tolist() == scaled_d.indices.tolist()
        base_r = build_residual_set(g, compute_delta(g, mode))
        scaled_r = build_residual_set(scaled, compute_delta(scaled, mode))
        assert base_r.indices.tolist() == scaled_r.indices.tolist()
        if base_d.weights.sum() > 0 and scaled_d.weights.sum() > 0:
            assert np.allclose(
                base_d.weights / base_d.weights.sum(),
                scaled_d.weights / scaled_d.weights.sum(),
                rtol=1e-12,
            )


@pytest.mark.parametrize(
    "residual, grad_sq, mode",
    [
        # |f|^2 = 6.6e-321, divided by 2654
        (8.09741838e-161, 2654.0, Convex(0.5)),
        # |f|^2 = 2.6e-319, divided by 105996
        (5.11705506e-160, 105996.0, Convex(0.0)),
    ],
    ids=["6.6e-321", "2.6e-319"],
)
def test_subnormal_distance_ratio_underflows_to_all_weights_zero(residual, grad_sq, mode):
    # a subnormal |f|^2 divided by a healthy ||grad||^2 underflows to 0, so
    # the only member of the residual set carries no sampling weight even
    # though its gradient is healthy
    g = RowGeometry.from_state(np.array([residual]), np.array([grad_sq]))
    assert not squares_stay_normal(g)
    assert g.active.all() and g.res_sq[0] > 0.0 and g.ratios[0] == 0.0
    with pytest.raises(AllWeightsZero, match="vanishing gradient"):
        build_residual_set(g, compute_delta(g, mode))


def test_a_square_that_underflows_under_rescaling_leaves_no_residual():
    # |f|^2 = 4.7e-305 is normal, but rescaled by 2^-33 it is 6.4e-325,
    # below half the smallest subnormal, so it rounds to zero: the rescaled
    # geometry has no residual left and no distance threshold.  Only the
    # unscaled entry tells that this square was not zero to begin with.
    g = RowGeometry.from_state(np.array([6.875e-153]), np.array([1.0]))
    c = 2.0**-33
    scaled = RowGeometry.from_state(c * g.residual, c * c * g.grad_sq_norms)
    assert g.res_sq[0] >= np.finfo(np.float64).tiny and scaled.res_sq[0] == 0.0
    assert squares_stay_normal(g) and squares_stay_normal(scaled)
    assert not rescaling_stays_normal(g, scaled)
    with pytest.raises(DegenerateState, match="zero residual"):
        compute_epsilon(scaled, Convex(0.5))


@pytest.mark.parametrize(
    "grad_sq, shortcut, distance, residual_weights",
    [
        ([1.0, 2.0, 4.0, 1.0], True, [0, 3], [9.0, 6.25]),
        ([1.0, 2.0, 4.0, 0.0], False, [0], [9.0, 0.0]),
        ([1e-15, 1.0, 1.0, 100.0], False, [0], [9.0 / 1e-15, 0.0625]),
    ],
)
def test_active_mask_matches_the_median_path(grad_sq, shortcut, distance, residual_weights):
    # ``active`` is read off the -inf ratios; on the shortcut path and on
    # the median path (with and without an inactive row) it must be the
    # mask the median rule gives
    residual = np.array([3.0, -1.0, 2.0, 2.5])
    grad_sq = np.array(grad_sq)
    lo = grad_sq.min()
    assert bool(lo > ACTIVE_ABS_FLOOR and lo > ACTIVE_REL_EPS * grad_sq.max()) is shortcut
    g = RowGeometry.from_state(residual, grad_sq)
    active = reference_geometry(residual, grad_sq)["active"]
    assert np.array_equal(g.active, active)
    assert g.every_row_active is bool(active.all())
    assert build_distance_set(g, compute_epsilon(g, Convex(0.5))).indices.tolist() == distance
    sel = build_residual_set(g, compute_delta(g, Scaled(0.5)))
    assert sel.indices.tolist() == [0, 3]
    assert sel.weights.tolist() == residual_weights


def test_subnormal_square_puts_epsilon_times_frobenius_below_one():
    # |f_2|^2 = 1.7e-320 is subnormal, so its ratio to 97 keeps only a few
    # bits and the maximum ratio comes out low: eps ||J||_F^2 falls to
    # 0.99943, under the 1 it reaches while the squares stay normal
    g = RowGeometry.from_state(np.array([0.0, 1.3205369e-160]), np.array([1.0, 97.0]))
    assert not squares_stay_normal(g)
    eps = compute_epsilon(g, Convex(1.0))
    assert eps * g.active_fro_sq == pytest.approx(0.99943, abs=1e-5)


def test_subnormal_rescaling_changes_the_residual_set():
    # scaling by 2^-30 takes |f_1|^2 = 1e-300 and |f_2|^2 = 1.00000002e-300
    # down to 8.7e-319, a subnormal with too few bits to tell them apart, so
    # the tie puts both rows in the set where only the larger one was:
    # rescaling is not exact once squares leave the normal range
    residual = np.array([1e-150, 1.00000001e-150, 0.0])
    c = 2.0**-30
    base = RowGeometry.from_state(residual, np.ones(3))
    scaled = RowGeometry.from_state(c * residual, c * c * np.ones(3))
    assert build_residual_set(base, compute_delta(base, Convex(1.0))).indices.tolist() == [1]
    assert build_residual_set(scaled, compute_delta(scaled, Convex(1.0))).indices.tolist() == [0, 1]


# finite norms at every scale, with -0.0, subnormals, +-inf and NaN mixed in
median_entries = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=0.0, max_value=1e6),
    st.sampled_from([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 5e-324, 1e308]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60).flatmap(lambda m: st.lists(median_entries, min_size=m, max_size=m)))
@example([-0.0]).via("np.mean adds to 0.0")
@example([-0.0, -0.0]).via("np.mean adds to 0.0")
@example([3.0, np.nan, 1.0]).via("a NaN wins")
@example([np.inf, -np.inf]).via("inf - inf")
def test_median_is_numpys_bit_for_bit(values):
    norms = np.array(values)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.median(norms)
    assert np.float64(_median(norms)).tobytes() == want.tobytes()


# --- the stored row arrays and the median shortcut against a reference -----
#
# The reference below always takes the median path of the eligibility rule
# and recomputes the squares, ratios and maxima inside each rule, as the
# selection layer did before it cached them.  Each set is the clamped
# comparison of the paper's definition: a row's value against the threshold
# times ||f||^2, clamped to the largest value, with inactive rows masked out.
# ``RowGeometry.from_state`` may skip the median only when that cannot
# change the mask, so every field and every set must agree bit for bit.


def reference_geometry(residual, grad_sq):
    scale = float(np.median(grad_sq))
    if not np.isfinite(scale):
        scale = float(np.max(grad_sq[np.isfinite(grad_sq)], initial=0.0))
    active = grad_sq > max(ACTIVE_ABS_FLOOR, ACTIVE_REL_EPS * scale)
    res_sq = residual * residual
    return {
        "residual": residual,
        "grad_sq": grad_sq,
        "active": active,
        "residual_sq": float(res_sq.sum()),
        "active_residual_sq": float(res_sq[active].sum()),
        "active_fro_sq": float(grad_sq[active].sum()),
    }


def reference_distance(ref, mode):
    r, gsq, active = ref["residual"], ref["grad_sq"], ref["active"]
    if ref["residual_sq"] <= 0.0 or not active.any() or ref["active_residual_sq"] <= 0.0:
        raise DegenerateState("reference")
    max_ratio = float((r[active] ** 2 / gsq[active]).max())
    if isinstance(mode, Convex):
        eps = mode.theta * max_ratio / ref["active_residual_sq"] + (1.0 - mode.theta) / ref["active_fro_sq"]
    else:
        eps = mode.xi * max_ratio / ref["active_residual_sq"]
    res_sq = r * r
    ratios = res_sq / np.where(active, gsq, 1.0)
    mask = active & (ratios >= np.minimum(eps * ref["active_residual_sq"], max_ratio))
    indices = np.flatnonzero(mask)
    if indices.size == 0:
        raise EmptySet("reference")
    return eps, indices, res_sq[indices]


def reference_residual(ref, mode):
    r, gsq, active = ref["residual"], ref["grad_sq"], ref["active"]
    if ref["residual_sq"] <= 0.0:
        raise DegenerateState("reference")
    res_sq = r * r
    if isinstance(mode, Convex):
        delta = mode.theta * float(res_sq.max()) / ref["residual_sq"] + (1.0 - mode.theta) / len(r)
    else:
        delta = mode.xi * float(res_sq.max()) / ref["residual_sq"]
    mask = res_sq >= np.minimum(delta * ref["residual_sq"], res_sq.max())
    indices = np.flatnonzero(mask)
    if indices.size == 0:
        raise EmptySet("reference")
    weights = np.where(active[indices], res_sq[indices] / np.where(active[indices], gsq[indices], 1.0), 0.0)
    if not weights.any():
        raise AllWeightsZero("reference")
    return delta, indices, weights


def outcome(fn, *args):
    """``fn(*args)`` as a comparable value: the result, or the error type."""
    try:
        return fn(*args)
    except (DegenerateState, EmptySet, AllWeightsZero) as exc:
        return type(exc)


def same(a, b) -> bool:
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


def as_tuple(sel):
    return sel if isinstance(sel, type) else (sel.threshold, sel.indices, sel.weights)


def assert_matches_reference(residual, grad_sq):
    g = RowGeometry.from_state(residual, grad_sq)
    ref = reference_geometry(residual, grad_sq)
    assert np.array_equal(g.active, ref["active"])
    assert g.every_row_active is bool(ref["active"].all())
    assert same(g.residual_sq, ref["residual_sq"])
    assert same(g.active_residual_sq, ref["active_residual_sq"])
    assert same(g.active_fro_sq, ref["active_fro_sq"])
    assert same(g.res_sq, residual * residual)
    if ref["active"].any():
        active_ratios = residual[ref["active"]] ** 2 / grad_sq[ref["active"]]
        assert same(g.ratios[g.active], active_ratios)
        assert same(g.ratios[g.top_ratio_row], active_ratios.max())
    assert np.all(g.ratios[~g.active] == -np.inf)
    assert g.top_residual_row == int(np.argmax(residual * residual))
    for mode in (Convex(0.5), Convex(0.0), Convex(1.0), Scaled(0.5), Scaled(1.0)):
        got = outcome(lambda: as_tuple(build_distance_set(g, compute_epsilon(g, mode))))
        assert same(got, outcome(reference_distance, ref, mode)), mode
        got = outcome(lambda: as_tuple(build_residual_set(g, compute_delta(g, mode))))
        assert same(got, outcome(reference_residual, ref, mode)), mode


# norms at the edges of the eligibility rule, mixed with ordinary ones
edge_norms = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2e-308, 1e-301, 1e-300, 1.0000000000000002e-300, 1e-299, np.inf, np.nan]),
    st.floats(min_value=1e-320, max_value=1e-280),
    st.floats(min_value=1e-20, max_value=1e20),
    st.floats(min_value=1.0, max_value=1.0 + 1e-12),
)
residual_entries = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-160, -1e-160]),
    st.floats(min_value=-1e3, max_value=1e3),
)


@st.composite
def raw_states(draw):
    m = draw(st.integers(min_value=1, max_value=25))
    residual = np.array(draw(st.lists(residual_entries, min_size=m, max_size=m)))
    grad_sq = np.array(draw(st.lists(edge_norms, min_size=m, max_size=m)))
    return residual, grad_sq


@settings(max_examples=400, deadline=None)
@given(raw_states())
def test_geometry_matches_median_reference(state):
    with np.errstate(all="ignore"):
        assert_matches_reference(*state)


def test_infinite_norm_row_meets_a_zero_distance_threshold():
    # an infinite norm is active and gives the ratio 0.  Here the maximum
    # ratio is 0 too, so eps = 0 and the clamped threshold is 0, which the
    # infinite-norm row meets (eps * ||f||^2 * ||grad_1||^2 would be NaN)
    residual = np.array([0.0, 1e-160])
    grad_sq = np.array([1.0000000000000002e-300, np.inf])
    g = RowGeometry.from_state(residual, grad_sq)
    assert g.active.tolist() == [True, True] and g.ratios.tolist() == [0.0, 0.0]
    for mode in (Convex(0.5), Scaled(1.0)):
        sel = build_distance_set(g, compute_epsilon(g, mode))
        assert sel.threshold == 0.0
        assert sel.indices.tolist() == [0, 1]
        assert sel.weights.tolist() == [0.0, 1e-160 * 1e-160]
    assert_matches_reference(residual, grad_sq)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=25), st.floats(min_value=1e-200, max_value=1e200), st.data())
def test_geometry_matches_reference_on_one_scale_rows(m, scale, data):
    # every row within a factor 2 of the others: the shortcut path
    residual = np.array(data.draw(st.lists(residual_entries, min_size=m, max_size=m)))
    grad_sq = scale * np.array(data.draw(st.lists(st.floats(1.0, 2.0), min_size=m, max_size=m)))
    assert_matches_reference(residual, grad_sq)


@pytest.mark.parametrize("n", [8, 26, 27, 50, 200])
def test_geometry_matches_reference_at_brown_start(n):
    # at k = 0 the product row's norm n * 4**-(n - 1) sits far below the
    # affine rows' n + 3, so only the median decides its eligibility
    problem = BrownProblem(n)
    x0 = 0.5 * np.ones(n)
    assert_matches_reference(problem.residual(x0), problem.row_sq_norms_at(x0))
