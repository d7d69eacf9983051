import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capped_kaczmarz.core import IterateMemo
from capped_kaczmarz.errors import DimensionMismatch
from capped_kaczmarz.numerics import seeded_rng
from capped_kaczmarz.problems import (
    BrownProblem,
    Dataset,
    GLMProblem,
    LinearProblem,
    _leave_one_out_products,
    _sigmoid_branches,
    make_glm,
    make_synthetic_glm,
    parse_libsvm,
    synthetic_dataset,
)
from oracles import glm_head, masked_stable_sigmoid


def central_diff_row(problem, i, x, step=1e-6):
    grad = np.zeros_like(x)
    for j in range(len(x)):
        forward = x.copy()
        backward = x.copy()
        forward[j] += step
        backward[j] -= step
        grad[j] = (problem.residual(forward)[i] - problem.residual(backward)[i]) / (2 * step)
    return grad


class TestBrown:
    def test_root_at_ones(self):
        assert np.allclose(BrownProblem(3).residual(np.ones(3)), 0.0)
        for n in (2, 5, 50, 200, 400):
            r = BrownProblem(n).residual(np.ones(n))
            assert np.allclose(r[:-1], 0.0)  # affine rows exact
            assert abs(r[-1]) <= 1e-12

    def test_half_start_values(self):
        problem = BrownProblem(3)
        r = problem.residual(0.5 * np.ones(3))
        assert np.allclose(r, [-2.0, -2.0, -0.875])
        assert np.allclose(problem.row_grad(2, 0.5 * np.ones(3)), [0.25, 0.25, 0.25])

    def test_affine_gradient_shape(self):
        grad = BrownProblem(4).row_grad(1, np.zeros(4))
        assert grad.tolist() == [1.0, 2.0, 1.0, 1.0]

    def test_product_gradient_handles_zeros(self):
        # division-free leave-one-out products stay exact with zero entries
        x = np.array([2.0, 0.0, 3.0])
        assert BrownProblem(3).row_grad(2, x).tolist() == [0.0, 6.0, 0.0]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=60))
    def test_leave_one_out_products_bitwise_match_concatenate_form(self, entries):
        x = np.array(entries)
        with np.errstate(all="ignore"):
            prefix = np.concatenate(([1.0], np.cumprod(x)[:-1]))
            suffix = np.concatenate((np.cumprod(x[::-1])[:-1][::-1], [1.0]))
            expected = prefix * suffix
            got = _leave_one_out_products(x)
        assert got.tobytes() == expected.tobytes()

    def test_gradients_match_finite_differences(self):
        problem = BrownProblem(6)
        rng = seeded_rng(1)
        for _ in range(20):
            x = 0.5 + rng.random(6)
            for i in range(6):
                grad = problem.row_grad(i, x)
                fd = central_diff_row(problem, i, x)
                assert np.allclose(grad, fd, rtol=1e-6, atol=1e-8)

    def test_jacobian_rows_match_row_grad(self):
        problem = BrownProblem(5)
        x = seeded_rng(2).random(5) + 0.5
        J = problem.jacobian(x)
        for i in range(5):
            assert np.array_equal(J[i], problem.row_grad(i, x))

    def test_row_norm_shortcut_matches_jacobian(self):
        problem = BrownProblem(7)
        for seed in range(5):
            x = seeded_rng(seed).random(7) + 0.25
            from_jacobian = np.einsum("ij,ij->i", problem.jacobian(x), problem.jacobian(x))
            assert np.array_equal(problem.row_sq_norms_at(x), from_jacobian)

    def test_needs_two_dimensions(self):
        with pytest.raises(DimensionMismatch):
            BrownProblem(1)


class TestGLM:
    def small(self):
        dataset = synthetic_dataset(p=4, d=2, seed=3)
        return make_glm(dataset, lam=1.0 / 4)

    def test_zero_point_closed_form(self):
        glm = self.small()
        r = glm.residual(np.zeros(glm.n))
        assert np.allclose(r[: glm.d], 0.0)
        assert np.allclose(r[glm.d :], -glm.y / 2.0)

    def test_single_sample_scalar_case(self):
        glm = GLMProblem(np.array([[1.0]]), np.array([1.0]), lam=1.0)
        x = np.array([0.3, 0.0])  # alpha = 0.3, w = 0
        r = glm.residual(x)
        assert r[0] == pytest.approx(0.3)
        assert r[1] == pytest.approx(-0.2)

    def test_gradients_match_finite_differences(self):
        glm = self.small()
        rng = seeded_rng(4)
        for _ in range(20):
            x = rng.standard_normal(glm.n)
            for i in range(glm.m):
                grad = glm.row_grad(i, x)
                fd = central_diff_row(glm, i, x)
                assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_jacobian_rows_match_row_grad(self):
        glm = self.small()
        x = seeded_rng(5).standard_normal(glm.n)
        J = glm.jacobian(x)
        for i in range(glm.m):
            assert np.array_equal(J[i], glm.row_grad(i, x))

    def test_row_norm_shortcut_matches_jacobian(self):
        glm = self.small()
        for seed in range(5):
            x = seeded_rng(seed).standard_normal(glm.n)
            J = glm.jacobian(x)
            from_jacobian = np.einsum("ij,ij->i", J, J)
            assert np.allclose(glm.row_sq_norms_at(x), from_jacobian, rtol=1e-14)

    @pytest.mark.parametrize("p, d, seed", [(60, 6, 3), (200, 10, 8)])
    def test_tail_norms_are_the_row_sums_to_the_last_bits(self, p, d, seed):
        # 1 + c^2 ||a_s||^2 rounds differently from summing the built row's
        # squares, by a few units in the last place at most
        glm = make_synthetic_glm(p, d, seed)
        rng = seeded_rng(seed)
        for scale in (0.1, 1.0, 5.0, 30.0):
            for _ in range(10):
                x = scale * rng.standard_normal(glm.n)
                J = glm.jacobian(x)
                from_rows = np.einsum("ij,ij->i", J, J)
                norms = glm.row_sq_norms_at(x)
                assert norms[:d].tobytes() == from_rows[:d].tobytes()
                assert np.all(np.abs(norms - from_rows) <= 1e-15 * from_rows)

    def test_loss_derivative_bounded(self):
        glm = self.small()
        for scale in (1.0, 10.0, 1e3, 1e8):
            x = scale * np.ones(glm.n)
            tail = glm.residual(x)[glm.d :] - x[: glm.p]
            # strictly below 1 mathematically; saturates to 1.0 in floats
            assert np.all(np.abs(tail) <= 1.0)
            assert np.isfinite(glm.residual(x)).all()
        mid = glm.residual(np.ones(glm.n))[glm.d :] - 1.0
        assert np.all(np.abs(mid) < 1.0)

    def test_dimensions(self):
        glm = make_glm(synthetic_dataset(p=3, d=2, seed=0), lam=1.0 / 3)
        assert glm.m == glm.n == 5

    def test_label_validation(self):
        with pytest.raises(DimensionMismatch):
            GLMProblem(np.ones((1, 2)), np.array([0.0, 1.0]), lam=1.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GLMProblem(np.ones(3), np.ones(3), lam=1.0), "2-D"),
        (lambda: GLMProblem(np.ones((2, 3)), np.ones(2), lam=1.0), "one label per sample"),
        (lambda: GLMProblem(np.ones((2, 3)), np.ones(3), lam=0.0), "positive"),
        (lambda: GLMProblem(np.ones((2, 3)), np.ones(3), lam=-1.0), "positive"),
        (lambda: GLMProblem(np.ones((2, 3)), np.ones(3), lam=float("nan")), "positive"),
        (lambda: make_glm(Dataset(d=2, p=0, samples=(), labels=np.zeros(0))), "no samples"),
        (lambda: make_synthetic_glm(0, 3, 0), "no samples"),
        (lambda: GLMProblem(np.zeros((2, 0)), np.zeros(0), lam=1.0), "no samples"),
        (lambda: GLMProblem(np.zeros((0, 3)), np.ones(3), lam=1.0), "no features"),
        (lambda: GLMProblem(np.zeros((0, 3)), np.ones(3)), "no features"),
        (lambda: make_synthetic_glm(10, 0, 1), "no features"),
        (lambda: make_glm(parse_libsvm("1\n-1\n1\n")), "no features"),
        (lambda: GLMProblem(np.array([[1.0, np.nan, 2.0]]), np.ones(3)), "finite"),
        (lambda: GLMProblem(np.array([[1.0, 2.0], [-np.inf, 0.0]]), np.ones(2)), "finite"),
        (lambda: make_glm(parse_libsvm("1 1:inf\n-1 1:2\n")), "finite"),
    ],
    ids=["1-d-samples", "label-count", "zero-lam", "negative-lam", "nan-lam", "make-glm-no-samples",
         "synthetic-no-samples", "no-samples", "no-features", "no-features-default-lam",
         "synthetic-no-features", "labels-only-libsvm", "nan-sample", "inf-sample", "inf-libsvm-sample"],
)
def test_glm_builders_refuse_a_malformed_system(build, message):
    with pytest.raises(DimensionMismatch, match=message):
        build()


def test_glm_lam_defaults_to_one_over_p():
    dataset = synthetic_dataset(p=7, d=3, seed=4)
    A, y = dataset.to_dense(), dataset.labels
    default, explicit = GLMProblem(A, y), GLMProblem(A, y, lam=1.0 / 7)
    assert default.lam == 1.0 / 7
    x = seeded_rng(5).standard_normal(default.n)
    assert default.residual(x).tobytes() == explicit.residual(x).tobytes()


def index_sets(m: int, d: int, rng) -> list[np.ndarray]:
    """Head-only (sorted, unsorted and repeated), tail-only, mixed,
    unsorted, single-row, repeated, empty and all-rows index sets of an
    m-row system whose first d rows are the head."""
    head = np.arange(d)
    tail = np.arange(d, m)
    return [
        head,
        rng.permutation(head),
        np.array([d - 1, 0, d - 1]),
        np.array([0]),
        np.array([], dtype=np.intp),
        tail,
        np.array([0, m - 1]),
        rng.permutation(m)[: max(2, m // 3)],
        np.array([m - 1, d, 0, m // 2]),
        # tail rows first, then head rows, neither sorted
        np.array([m - 1, d - 1, d, 0]),
        np.concatenate((rng.permutation(tail)[:3], rng.permutation(head))),
        np.array([m - 1]),
        np.array([d]),
        np.array([m // 2, m // 2]),
        np.arange(m),
        rng.permutation(m),
    ]


class TestJacobianRows:
    """``jacobian(x, rows)`` equals ``jacobian(x)[rows]`` bit for bit."""

    def assert_rows_match(self, problem, x, sets):
        full = problem.jacobian(x)
        for rows in sets:
            got = problem.jacobian(x, rows)
            assert got.shape == (len(rows), problem.n)
            assert got.tobytes() == full[rows].tobytes(), rows

    def test_brown_including_product_row(self):
        rng = seeded_rng(11)
        for n in (2, 7, 50):
            problem = BrownProblem(n)
            for scale in (0.5, 1.0, 3.0):
                x = scale * (0.5 + rng.random(n))
                # d = n - 1 puts the product row alone in the "tail"
                self.assert_rows_match(problem, x, index_sets(n, n - 1, rng))

    def test_linear(self):
        rng = seeded_rng(12)
        A = rng.standard_normal((9, 4))
        problem = LinearProblem(A, rng.standard_normal(9))
        self.assert_rows_match(problem, rng.standard_normal(4), index_sets(9, 3, rng))

    @pytest.mark.parametrize("p, d, seed", [(60, 6, 3), (200, 10, 8), (7, 3, 1)])
    def test_glm_head_and_tail_rows(self, p, d, seed):
        glm = make_synthetic_glm(p, d, seed)
        rng = seeded_rng(seed + 100)
        # large |w| puts the curvature far from 1/4, where a margin that
        # rounds differently from the full matvec shows in the last bits
        for scale in (0.1, 1.0, 5.0, 30.0):
            for _ in range(5):
                x = scale * rng.standard_normal(glm.n)
                self.assert_rows_match(glm, x, index_sets(glm.m, glm.d, rng))


    @pytest.mark.parametrize(
        "make",
        [
            lambda: BrownProblem(7),
            lambda: make_synthetic_glm(60, 6, 3),
            lambda: LinearProblem(seeded_rng(14).standard_normal((9, 4)), np.ones(9)),
        ],
        ids=["brown", "glm", "linear"],
    )
    def test_rows_outside_the_system_are_rejected(self, make):
        # numpy would read a negative row from the end: GLM head row d - 1
        # for row -1, Brown's affine template row for its product row, and
        # A's last row for a linear system
        problem = make()
        m = problem.m
        x = 0.5 + seeded_rng(13).random(problem.n)
        for rows in ([-1], [m], [0, -1, 2], [m - 1, m, 0]):
            with pytest.raises(IndexError):
                problem.jacobian(x, rows)
        for i in (-1, m):
            with pytest.raises(IndexError):
                problem.row_grad(i, x)

    def test_glm_head_rows_are_a_copy_of_the_head(self):
        glm = make_synthetic_glm(60, 6, 3)
        head = glm_head(glm)
        x = seeded_rng(4).standard_normal(glm.n)
        for rows in (np.arange(glm.d), [5, 0, 3], [2, 2], [1], []):
            got = glm.jacobian(x, rows)
            assert got.tobytes() == head[np.asarray(rows, dtype=np.intp)].tobytes()
            got[...] = 7.0
        # writing into the rows handed out leaves the problem's head alone
        assert glm.jacobian(x, np.arange(glm.d)).tobytes() == head.tobytes()


class TestLinear:
    def test_residual_at_root(self):
        problem = LinearProblem(np.eye(2), np.array([1.0, 2.0]), known_root=np.array([1.0, 2.0]))
        assert np.allclose(problem.residual(np.array([1.0, 2.0])), 0.0)
        r = problem.residual(problem.known_root)
        assert float(r @ r) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LinearProblem(np.eye(2), np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_entries(self, value):
        bad_A, bad_b = np.eye(2), np.array([1.0, 2.0])
        bad_A[1, 0] = bad_b[1] = value
        for A, b in ((bad_A, np.ones(2)), (np.eye(2), bad_b)):
            with pytest.raises(DimensionMismatch, match="finite"):
                LinearProblem(A, b)

    def test_jacobian_is_constant(self):
        A = np.arange(6.0).reshape(2, 3)
        problem = LinearProblem(A, np.zeros(2))
        assert np.array_equal(problem.jacobian(np.zeros(3)), A)
        assert np.array_equal(problem.row_grad(1, np.ones(3)), A[1])
        assert np.array_equal(problem.row_sq_norms_at(np.zeros(3)), [5.0, 50.0])


def test_sigmoid_matches_masked_oracle_bit_for_bit():
    rng = seeded_rng(13)
    special = [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf]
    z = np.concatenate((special, 40.0 * rng.standard_normal(30_000), np.ldexp(1.0, rng.integers(-1074, 1000, 2000))))
    z = np.concatenate((z, -z[len(special):]))
    hi, lo = _sigmoid_branches(z)
    assert np.where(z >= 0, hi, lo).tobytes() == masked_stable_sigmoid(z).tobytes()
    # NaN stays NaN; only its sign bit may differ from the oracle's
    assert np.isnan(_sigmoid_branches(np.array([np.nan, -np.nan]))).all()


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is no wider than double")
def test_glm_curvature_is_within_4_eps_of_a_long_double_oracle():
    # one sample of the one feature 1: the w entry of tail row 1 is exactly
    # c = sig(z) sig(-z) at z = w; sig(z) (1 - sig(z)) would cancel to
    # thousands of eps near |z| = 10 and to 0 past |z| = 37
    glm = GLMProblem(np.ones((1, 1)), np.array([1.0]), 1.0)
    rng = seeded_rng(15)
    z = np.concatenate((np.linspace(-40.0, 40.0, 8001), 80.0 * rng.random(4000) - 40.0))
    c = np.array([glm.row_grad(1, np.array([0.0, w]))[1] for w in z])
    e = np.exp(-np.abs(z.astype(np.longdouble)))
    oracle = e / (1 + e) ** 2
    assert np.abs((c - oracle) / oracle).max() <= 4 * np.finfo(float).eps


def test_glm_row_grad_is_the_jacobian_row_bit_for_bit():
    # row_grad builds tail row s from the same curvature vector as jacobian,
    # with and without a memo, in either call order
    def assert_rows_match(glm, x):
        for i in range(glm.m):
            want = glm.jacobian(x, [i])[0].tobytes()
            assert glm.row_grad(i, x).tobytes() == want, (i, x)
            memo = IterateMemo()
            assert glm.row_grad(i, x, memo).tobytes() == want, (i, x)
            assert glm.jacobian(x, [i], memo)[0].tobytes() == want, (i, x)
            memo = IterateMemo()
            assert glm.jacobian(x, [i], memo)[0].tobytes() == want, (i, x)
            assert glm.row_grad(i, x, memo).tobytes() == want, (i, x)

    rng = seeded_rng(14)
    # one feature of value 1 makes the margin of sample s exactly y_s * w,
    # so the special margins, |z| > 40 and NaN included, are hit as given
    glm = GLMProblem(np.ones((1, 2)), np.array([1.0, -1.0]), 0.5)
    special = [0.0, -0.0, 1e-300, 41.0, -41.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan, -np.nan]
    for w in np.concatenate((special, 40.0 * rng.standard_normal(1500), np.ldexp(1.0, rng.integers(-1074, 1000, 300)))):
        assert_rows_match(glm, np.array([0.3, -0.7, w]))
    # full-width margins; at scale 30 most exceed 40 in magnitude
    glm = make_synthetic_glm(200, 10, 8)
    for scale in (0.01, 0.3, 3.0, 30.0):
        for _ in range(3):
            assert_rows_match(glm, scale * rng.standard_normal(glm.n))


class TestSynthetic:
    def test_labels_and_shapes(self):
        dataset = synthetic_dataset(p=50, d=4, seed=9)
        assert dataset.p == 50 and dataset.d == 4
        assert set(np.unique(dataset.labels)) <= {-1.0, 1.0}
        assert dataset.to_dense().shape == (4, 50)

    def test_seeded_determinism(self):
        a = synthetic_dataset(p=10, d=3, seed=1)
        b = synthetic_dataset(p=10, d=3, seed=1)
        assert np.array_equal(a.to_dense(), b.to_dense())
        assert np.array_equal(a.labels, b.labels)

    def test_default_regularization_is_one_over_p(self):
        glm = make_synthetic_glm(p=20, d=3, seed=2)
        assert glm.lam == pytest.approx(1.0 / 20)

    @pytest.mark.parametrize("p, d, seed", [(200, 10, 8), (60, 6, 3), (7, 3, 1)])
    def test_direct_build_matches_the_dataset_route(self, p, d, seed):
        direct = make_synthetic_glm(p, d, seed)
        via = make_glm(synthetic_dataset(p, d, seed))
        assert direct.A.tobytes() == via.A.tobytes()
        assert direct.y.tobytes() == via.y.tobytes()
        assert direct.lam == via.lam
        x = seeded_rng(seed).standard_normal(direct.n)
        assert direct.residual(x).tobytes() == via.residual(x).tobytes()

    def test_known_root_check_without_root(self):
        assert make_synthetic_glm(p=5, d=2, seed=0).known_root is None
