import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capped_kaczmarz.errors import DimensionMismatch
from capped_kaczmarz.numerics import seeded_rng
from capped_kaczmarz.problems import (
    GRAM_TAU,
    BrownProblem,
    Dataset,
    GLMProblem,
    LinearProblem,
    _inverse_and_condition_bound,
    _leave_one_out_products,
    _sigmoid_branches,
    make_glm,
    make_synthetic_glm,
    parse_libsvm,
    synthetic_dataset,
)
from oracles import masked_stable_sigmoid


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


EPS = np.finfo(float).eps


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 14),
    seed=st.integers(0, 2**32 - 1),
    log_cond=st.floats(0.0, 18.0),
    singular=st.booleans(),
    exponent=st.integers(-250, 250),
)
def test_condition_bound_is_at_least_the_eigenvalue_ratio(k, seed, log_cond, singular, exponent):
    # G = Q diag(lam) Q^T with cond(G) = 10^log_cond, or a zero eigenvalue,
    # scaled by a power of two: past about 1e12 (and where eigvalsh sees a
    # nonpositive eigenvalue) the computed G is singular to working accuracy
    # and the bound must not certify it; below, tr(G) ||G^-1||_F must reach
    # lam_max / lam_min up to the rounding of inv and eigvalsh
    rng = seeded_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    lam = 10.0 ** (-log_cond * rng.random(k))
    lam[0] = 1.0
    if k > 1:
        lam[-1] = 0.0 if singular else 10.0**-log_cond
    gram = (q * lam) @ q.T
    gram = 2.0**exponent * (gram + gram.T) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        _, bound = _inverse_and_condition_bound(gram)
    eigenvalues = np.linalg.eigvalsh(gram)
    slack = 64 * k * EPS
    if eigenvalues[0] > 0 and slack * eigenvalues[-1] / eigenvalues[0] < 0.5:
        ratio = eigenvalues[-1] / eigenvalues[0]
        assert bound >= ratio * (1.0 - slack * ratio), (bound, ratio)
    else:
        assert not bound <= 1.0 / GRAM_TAU, bound


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
