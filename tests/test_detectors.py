"""Tests for preprocessing, the shared kernels, and the three detectors."""

import numpy as np
import pytest
from conftest import make_problem, problem_batch, sign_flipped_minres

from rbdmimo.complexity import OpCounter
from rbdmimo.detectors import (
    MmseProblem,
    _partial_solutions,
    arnoldi_step,
    cr_detect,
    exact_detect,
    givens_lsq_update,
    gmres_detect,
    init_arnoldi,
    init_givens,
    kernel_coeff,
    kernel_mac,
    minres_detect,
    preprocess,
    residual_bound_gmres,
    residual_bound_minres,
)
from rbdmimo.linalg import hermitian_defect, hermitian_eigen_extrema
from rbdmimo.rngstream import uniform_stream


def random_complex(gen, *shape):
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


class TestPreprocess:
    def test_identity_channel(self):
        y = np.array([1.0 + 1j, 2.0, -1j])
        prob = preprocess(np.eye(3, dtype=complex), y, 0.5)
        assert np.abs(prob.A - 1.5 * np.eye(3)).max() < 1e-15
        assert np.array_equal(prob.y_mf, y)

    def test_hermitian_and_floor(self):
        gen = uniform_stream(500)
        for _ in range(10):
            h = random_complex(gen, 8, 4)
            prob = preprocess(h, random_complex(gen, 8), 0.3)
            assert hermitian_defect(prob.A) < 1e-12
            lo, _ = hermitian_eigen_extrema(prob.A)
            assert lo >= 0.3 - 1e-9

    def test_matched_filter_oracle(self):
        gen = uniform_stream(501)
        h = random_complex(gen, 6, 3)
        y = random_complex(gen, 6)
        want = np.array([sum(np.conj(h[i, j]) * y[i] for i in range(6)) for j in range(3)])
        prob = preprocess(h, y, 0.0)
        assert np.abs(prob.y_mf - want).max() < 1e-13

    def test_gram_oracle(self):
        gen = uniform_stream(502)
        h = random_complex(gen, 5, 3)
        want = np.array(
            [[sum(np.conj(h[k, i]) * h[k, j] for k in range(5)) for j in range(3)] for i in range(3)]
        )
        prob = preprocess(h, np.zeros(5, dtype=complex), 0.25)
        assert np.abs(prob.A - (want + 0.25 * np.eye(3))).max() < 1e-12

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            preprocess(np.zeros((2, 4), dtype=complex), np.zeros(2, dtype=complex), 0.1)
        with pytest.raises(ValueError):
            preprocess(np.zeros((4, 2), dtype=complex), np.zeros(3, dtype=complex), 0.1)

    def test_rejects_non_finite_inputs(self):
        h = np.ones((4, 2), dtype=complex)
        y = np.ones(4, dtype=complex)
        bad_h = h.copy()
        bad_h[1, 0] = np.nan
        bad_y = y.copy()
        bad_y[3] = np.inf
        with pytest.raises(ValueError, match="H contains non-finite"):
            preprocess(bad_h, y, 0.1)
        with pytest.raises(ValueError, match="y contains non-finite"):
            preprocess(h, bad_y, 0.1)
        with pytest.raises(ValueError, match="sigma2 contains non-finite"):
            preprocess(h, y, float("nan"))


class TestKernels:
    def test_mac_zero_coefficient(self):
        x = np.array([1.0 + 1j, 2.0])
        assert np.array_equal(kernel_mac(x, 0.0, np.array([5.0, 5.0j])), x)

    def test_mac_identity(self):
        b = np.array([1.0, -2.0j])
        assert np.array_equal(kernel_mac(np.zeros(2, dtype=complex), 1.0, b), b)

    def test_mac_random_oracle(self):
        gen = uniform_stream(503)
        x, b = random_complex(gen, 7), random_complex(gen, 7)
        a = complex(*gen.standard_normal(2))
        want = np.array([x[i] + a * b[i] for i in range(7)])
        assert np.abs(kernel_mac(x, a, b) - want).max() < 1e-14

    def test_coeff_equal_vectors(self):
        gen = uniform_stream(504)
        v = random_complex(gen, 5)
        assert kernel_coeff(v, v, v, v) == pytest.approx(1.0)

    def test_coeff_zero_numerator(self):
        gen = uniform_stream(505)
        v = random_complex(gen, 5)
        assert kernel_coeff(v, np.zeros(5, dtype=complex), v, v) == 0.0

    def test_coeff_two_inner_product_oracle(self):
        gen = uniform_stream(506)
        m, n, p, q = (random_complex(gen, 6) for _ in range(4))
        want = np.vdot(m, n) / np.vdot(p, q)
        assert abs(kernel_coeff(m, n, p, q) - want) < 1e-13

    def test_coeff_degenerate_denominator(self):
        z = np.zeros(3, dtype=complex)
        with pytest.raises(ZeroDivisionError):
            kernel_coeff(z, z, z, z)


def toy_problem(a_diag, y):
    a = np.diag(np.asarray(a_diag, dtype=complex))
    return MmseProblem(A=a, y_mf=np.asarray(y, dtype=complex), sigma2=0.0, N=len(y), M=len(y))


class TestMinres:
    def test_identity_one_step(self):
        prob = toy_problem([1.0, 1.0], [2.0, -1j])
        res = minres_detect(prob, 1)
        assert np.abs(res.s_hat - prob.y_mf).max() < 1e-15

    def test_hand_evaluated_step(self):
        # alpha_0 = (1*2 + 1*1) / (4 + 1) = 3/5 on A = diag(2,1), y = (1,1)
        prob = toy_problem([2.0, 1.0], [1.0, 1.0])
        res = minres_detect(prob, 1)
        assert np.abs(res.s_hat - np.array([0.6, 0.6])).max() < 1e-15

    def test_residuals_non_increasing(self):
        for prob in problem_batch(100, 507, m_range=(2, 12)):
            res = minres_detect(prob, 6)
            r = res.trace.residual_norms
            assert all(r[k + 1] <= r[k] * (1 + 1e-12) for k in range(len(r) - 1))

    def test_trace_shape_and_start(self):
        prob = make_problem(5, 508)
        res = minres_detect(prob, 4)
        assert len(res.trace.residual_norms) == res.iterations + 1
        assert res.trace.residual_norms[0] == pytest.approx(np.linalg.norm(prob.y_mf))
        assert res.trace.iterate_norms[0] == 0.0

    def test_alpha_sign_hook_breaks_descent(self):
        prob = make_problem(6, 509)
        res = sign_flipped_minres(prob, 4)
        r = res.trace.residual_norms
        assert any(r[k + 1] > r[k] for k in range(len(r) - 1))


class TestCr:
    def test_identity_converges_in_one(self):
        prob = toy_problem([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        res = cr_detect(prob, 3)
        assert np.abs(res.s_hat - prob.y_mf).max() < 1e-14
        assert res.iterations == 1

    def test_hand_evaluated_two_steps(self):
        # A = diag(2,1), y = (1,1): alpha_1 = 3/5, beta_1 = 0.08, alpha_2 = 5/6
        prob = toy_problem([2.0, 1.0], [1.0, 1.0])
        res = cr_detect(prob, 2)
        assert np.abs(res.s_hat - np.array([0.5, 1.0])).max() < 1e-14
        one_step = cr_detect(prob, 1)
        assert np.abs(one_step.s_hat - np.array([0.6, 0.6])).max() < 1e-15

    def test_finite_termination_matches_cholesky(self):
        for prob in problem_batch(100, 510, m_range=(2, 16)):
            want = exact_detect(prob).s_hat
            got = cr_detect(prob, prob.M).s_hat
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_residuals_strictly_decrease_iterates_grow(self):
        for prob in problem_batch(100, 511, m_range=(2, 12)):
            trace = cr_detect(prob, prob.M).trace
            r, s = trace.residual_norms, trace.iterate_norms
            assert all(r[k + 1] < r[k] for k in range(len(r) - 1))
            assert all(s[k + 1] >= s[k] * (1 - 1e-12) for k in range(len(s) - 1))

    def test_error_a_norm_strictly_decreases(self):
        for prob in problem_batch(30, 512, m_range=(3, 10)):
            exact = exact_detect(prob).s_hat
            k_max = min(prob.M, 6)
            errs = []
            for k in range(k_max + 1):
                s_k = cr_detect(prob, k).s_hat if k else np.zeros(prob.M, dtype=complex)
                diff = exact - s_k
                errs.append(np.sqrt(np.real(np.vdot(diff, prob.A @ diff))))
            assert all(errs[k + 1] < errs[k] for k in range(len(errs) - 1))

    def test_one_product_per_iteration_after_init(self):
        prob = make_problem(8, 513)
        for k in (1, 3, 5):
            counter = OpCounter()
            cr_detect(prob, k, counter=counter)
            assert counter.matvecs == k + 3


class TestArnoldiGivens:
    def test_identity_breaks_down_immediately(self):
        r0 = np.array([3.0, 4.0j])
        state = init_arnoldi(r0, 2)
        happy = arnoldi_step(np.eye(2, dtype=complex), state, 0)
        assert happy and state.v == 1
        assert state.Hbar[0, 0] == pytest.approx(1.0)

    def test_orthonormal_basis_and_factorization(self):
        # modified Gram-Schmidt keeps the basis orthonormal while the
        # least-squares residual is above the eps/tolerance tradeoff point;
        # past deep convergence the lost directions are roundoff artifacts
        # (the final iterate stays accurate regardless, see TestGmres)
        for prob in problem_batch(20, 514, m_range=(3, 10)):
            m = prob.M
            beta = np.linalg.norm(prob.y_mf)
            state = init_arnoldi(prob.y_mf, m)
            chain = init_givens(beta, m)
            cols_while_unconverged = 1
            for j in range(m):
                happy = arnoldi_step(prob.A, state, j)
                givens_lsq_update(chain, state.Hbar[:, j], j)
                if happy or chain.residual_estimate <= 1e-13 * beta:
                    break
                if chain.residual_estimate > 1e-5 * beta and j + 2 <= m:
                    cols_while_unconverged = j + 2
            v = state.v
            q = state.Q[:, :cols_while_unconverged]
            gram = q.conj().T @ q
            assert np.abs(gram - np.eye(cols_while_unconverged)).max() < 1e-10
            lhs = prob.A @ state.Q[:, :v]
            rhs = state.Q[:, : v + 1] @ state.Hbar[: v + 1, :v]
            assert np.linalg.norm(lhs - rhs) < 1e-9 * max(1.0, np.linalg.norm(prob.A))

    def test_three_four_five_rotation(self):
        chain = init_givens(beta=1.0, v_max=1)
        col = givens_lsq_update(chain, np.array([3.0, 4.0], dtype=complex), 0)
        c, b = chain.rotations[0]
        assert (c, b) == pytest.approx((0.6, 0.8))
        assert col[0] == pytest.approx(5.0)

    def test_zero_subdiagonal_identity_rotation(self):
        chain = init_givens(beta=2.0, v_max=1)
        givens_lsq_update(chain, np.array([7.0, 0.0], dtype=complex), 0)
        assert chain.rotations[0] == pytest.approx((1.0, 0.0))
        assert chain.g[0] == pytest.approx(2.0)

    def test_rotation_blocks_orthogonal(self):
        gen = uniform_stream(515)
        chain = init_givens(beta=1.0, v_max=4)
        col = np.zeros(5)
        for j in range(4):
            col[: j + 2] = gen.standard_normal(j + 2)
            givens_lsq_update(chain, col.astype(complex), j)
        for c, b in chain.rotations:
            g = np.array([[c, b], [-b, c]])
            assert np.abs(g @ g.T - np.eye(2)).max() < 1e-14

    # gmres's triangular solve: the last column of _partial_solutions solves R p = g
    def test_back_substitute_identity(self):
        g = np.array([1.0, 2.0j, -3.0])
        assert np.array_equal(_partial_solutions(np.eye(3, dtype=complex), g)[..., -1], g)

    def test_back_substitute_2x2(self):
        r = np.array([[2.0, 1.0], [0.0, 3.0]], dtype=complex)
        p = _partial_solutions(r, np.array([5.0, 6.0], dtype=complex))[..., -1]
        assert np.abs(p - np.array([1.5, 2.0])).max() < 1e-15

    def test_back_substitute_singular(self):
        r = np.zeros((2, 2), dtype=complex)
        with pytest.raises(ZeroDivisionError):
            _partial_solutions(r, np.ones(2, dtype=complex))

    def test_least_squares_vs_normal_equations(self):
        # the QR path must minimize ||beta e1 - Hbar p|| like the normal equations do
        for prob in problem_batch(20, 516, m_range=(4, 10)):
            v = min(prob.M, 4)
            state = init_arnoldi(prob.y_mf, v)
            chain = init_givens(np.linalg.norm(prob.y_mf), v)
            for j in range(v):
                if arnoldi_step(prob.A, state, j):
                    break
                givens_lsq_update(chain, state.Hbar[:, j], j)
            v = len(chain.rotations)
            p = _partial_solutions(chain.R[:v, :v], chain.g[:v])[..., -1]
            hbar = state.Hbar[: v + 1, :v]
            rhs = np.zeros(v + 1, dtype=complex)
            rhs[0] = np.linalg.norm(prob.y_mf)
            p_ne = np.linalg.solve(hbar.conj().T @ hbar, hbar.conj().T @ rhs)
            direct = np.linalg.norm(rhs - hbar @ p)
            normal = np.linalg.norm(rhs - hbar @ p_ne)
            assert direct <= normal + 1e-8 * max(1.0, normal)


class TestGmres:
    def test_identity_breakdown_exact(self):
        prob = toy_problem([1.0, 1.0], [1.0 + 1j, -2.0])
        res = gmres_detect(prob, 2)
        assert res.iterations == 1
        assert np.abs(res.s_hat - prob.y_mf).max() < 1e-14

    def test_full_space_matches_cholesky(self):
        for prob in problem_batch(100, 517, m_range=(2, 16)):
            want = exact_detect(prob).s_hat
            got = gmres_detect(prob, prob.M).s_hat
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_residuals_non_increasing(self):
        for prob in problem_batch(50, 518, m_range=(2, 12)):
            r = gmres_detect(prob, prob.M).trace.residual_norms
            assert all(r[k + 1] <= r[k] * (1 + 1e-12) for k in range(len(r) - 1))

    def test_residual_history_matches_cr(self):
        for prob in problem_batch(50, 519, m_range=(3, 12)):
            k = min(prob.M, 3)
            res_g = gmres_detect(prob, k).trace.residual_norms
            res_c = cr_detect(prob, k).trace.residual_norms
            n = min(len(res_g), len(res_c))
            for i in range(n):
                assert abs(res_g[i] - res_c[i]) <= 1e-6 * res_g[0]

    def test_gamma_tracks_explicit_residual(self):
        for prob in problem_batch(20, 520, m_range=(3, 10)):
            for v in (1, 2, prob.M):
                res = gmres_detect(prob, v)
                explicit = np.linalg.norm(prob.y_mf - prob.A @ res.s_hat)
                assert abs(res.trace.residual_norms[-1] - explicit) <= 1e-8 * res.trace.residual_norms[0]


class TestExact:
    def test_scaled_identity(self):
        prob = toy_problem([1.5, 1.5], [3.0, -1.5j])
        res = exact_detect(prob)
        assert np.abs(res.s_hat - prob.y_mf / 1.5).max() < 1e-15
        assert len(res.trace.residual_norms) == 1

    def test_residual_small(self):
        for prob in problem_batch(50, 521):
            res = exact_detect(prob)
            assert res.trace.residual_norms[0] <= 1e-9 * np.linalg.norm(prob.y_mf)


class TestBounds:
    def test_identity_factor_zero(self):
        bound = residual_bound_minres(np.eye(3, dtype=complex))
        assert bound.minres_step_factor == pytest.approx(0.0)

    def test_diag_factor(self):
        bound = residual_bound_minres(np.diag([1.0, 4.0]).astype(complex))
        assert bound.minres_step_factor == pytest.approx(0.75)
        assert bound.tau2 == pytest.approx(4.0)

    def test_gmres_bound_values(self):
        assert residual_bound_gmres(2.0 * np.eye(3, dtype=complex), 1) == pytest.approx(0.0)
        assert residual_bound_gmres(np.diag([1.0, 4.0]).astype(complex), 2) == pytest.approx(0.9375)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            residual_bound_minres(np.diag([-1.0, 1.0]).astype(complex))

    def test_minres_trace_obeys_contraction(self):
        for prob in problem_batch(50, 522, m_range=(2, 10)):
            factor = residual_bound_minres(prob.A).minres_step_factor
            r = minres_detect(prob, 5).trace.residual_norms
            for k in range(len(r) - 1):
                assert r[k + 1] ** 2 <= factor * r[k] ** 2 + 1e-12 * r[0] ** 2

    def test_gmres_trace_obeys_bound(self):
        for prob in problem_batch(50, 523, m_range=(2, 10)):
            r = gmres_detect(prob, prob.M).trace.residual_norms
            for k in range(len(r)):
                assert r[k] <= residual_bound_gmres(prob.A, k) * r[0] + 1e-12 * r[0]


class TestScalingEquivariance:
    @pytest.mark.parametrize("scale", [0.125, 3.0, 40.0])
    def test_iterates_invariant_to_problem_scale(self, scale):
        prob = make_problem(6, 524)
        scaled = MmseProblem(
            A=scale * prob.A, y_mf=scale * prob.y_mf, sigma2=scale * prob.sigma2,
            N=prob.N, M=prob.M,
        )
        for detect in (minres_detect, cr_detect, gmres_detect):
            a = detect(prob, 4).s_hat
            b = detect(scaled, 4).s_hat
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(a).max())


class TestProblemValidation:
    def test_rejects_non_hermitian(self):
        a = np.eye(2, dtype=complex)
        a[0, 1] = 1e-6
        nan = np.array([[1.0, np.nan], [np.nan, 1.0]], dtype=complex)
        for bad in (a, nan, np.stack([np.eye(2, dtype=complex), a])):
            y = np.zeros(bad.shape[:-1], dtype=complex)
            with pytest.raises(ValueError):
                MmseProblem(A=bad, y_mf=y, sigma2=0.1, N=4, M=2)

    def test_rejects_bad_sigma2(self):
        for sigma2 in (-0.1, float("nan"), np.array([0.1, 0.2, 0.3])):
            with pytest.raises(ValueError, match="sigma2"):
                MmseProblem(
                    A=np.stack([np.eye(2, dtype=complex)] * 2), y_mf=np.zeros((2, 2), dtype=complex),
                    sigma2=sigma2, N=4, M=2,
                )

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            MmseProblem(
                A=np.eye(3, dtype=complex), y_mf=np.zeros(2, dtype=complex), sigma2=0.1, N=4, M=3
            )


def stack_problems(problems) -> MmseProblem:
    return MmseProblem(
        A=np.stack([p.A for p in problems]), y_mf=np.stack([p.y_mf for p in problems]),
        sigma2=np.array([p.sigma2 for p in problems]), N=problems[0].N, M=problems[0].M,
    )


def assert_same_result(got, want):
    assert np.array_equal(got.s_hat, want.s_hat)
    assert got.iterations == want.iterations
    assert got.trace.residual_norms == want.trace.residual_norms
    assert got.trace.iterate_norms == want.trace.iterate_norms


class TestBatch:
    """A batch of frames gives each frame exactly what it gives alone."""

    def test_preprocess_stack_matches_single_frames(self):
        gen = uniform_stream(530)
        h = random_complex(gen, 3, 12, 4)
        y = random_complex(gen, 3, 12)
        batch = preprocess(h, y, 0.4)
        for i in range(3):
            one = preprocess(h[i], y[i], 0.4)
            assert np.array_equal(batch.A[i], one.A) and np.array_equal(batch.y_mf[i], one.y_mf)

    @pytest.mark.parametrize("detect", [minres_detect, cr_detect, gmres_detect])
    def test_mixed_chunk_with_early_stop(self, detect):
        # identity-like A stops cr and minres after one step and breaks gmres down
        # at its first column, A with two or three distinct eigenvalues breaks
        # gmres down at its second or third; a zero right-hand side stops
        # every detector at 0
        quick = toy_problem([1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 2.0j, -1.0, 0.5, 1j])
        two = toy_problem([1.0, 2.0, 1.0, 2.0, 2.0], [1.0, 2.0j, -1.0, 0.5, 1j])
        three = toy_problem([1.0, 2.0, 3.0, 2.0, 3.0], [1.0, 2.0j, -1.0, 0.5, 1j])
        idle = toy_problem([1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.0, 0.0, 0.0, 0.0])
        ordinary = [make_problem(5, 531 + i, sigma2=0.2) for i in range(3)]
        frames = [ordinary[0], quick, two, ordinary[1], idle, three, ordinary[2]]
        batch = detect(stack_problems(frames), 5)
        assert batch.s_hat.shape == (7, 5) and batch.iterations.shape == (7,)
        for i, prob in enumerate(frames):
            assert_same_result(batch.frame(i), detect(prob, 5))
        assert batch.iterations[1] < 5 and batch.iterations[4] == 0
        assert np.isnan(batch.trace.residual_norms[4, 1:]).all()
        if detect is gmres_detect:
            assert batch.iterations.tolist() == [5, 1, 2, 5, 0, 3, 5]

    def test_exact_stack_matches_single_frames(self):
        frames = [make_problem(5, 540 + i) for i in range(4)]
        batch = exact_detect(stack_problems(frames))
        for i, prob in enumerate(frames):
            assert_same_result(batch.frame(i), exact_detect(prob))

    def test_counter_takes_one_problem(self):
        batch = stack_problems([make_problem(3, 550), make_problem(3, 551)])
        with pytest.raises(ValueError, match="one problem"):
            cr_detect(batch, 2, counter=OpCounter())

    def test_degenerate_denominator_of_a_live_frame_raises(self):
        # a zero matrix gives a zero denominator on a frame that is still running
        zero = MmseProblem(A=np.zeros((2, 2), dtype=complex), y_mf=np.ones(2, dtype=complex), sigma2=0.0, N=2, M=2)
        with pytest.raises(ZeroDivisionError):
            cr_detect(stack_problems([make_problem(2, 552), zero]), 2)
