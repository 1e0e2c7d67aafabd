"""Tests for preprocessing, the shared kernels, and the three detectors."""

import numpy as np
import pytest
from conftest import gmres_buffers, make_problem, problem_batch, sign_flipped_minres

import rbdmimo.detectors as detectors
from rbdmimo.complexity import OpCounter
from rbdmimo.detectors import (
    ARNOLDI_BREAKDOWN_REL,
    ITERATIVE_DETECTORS,
    MmseProblem,
    _partial_solutions,
    arnoldi_step,
    cr_detect,
    exact_detect,
    givens_triangle,
    gmres_detect,
    kernel_coeff,
    kernel_mac,
    minres_detect,
    preprocess,
    residual_bound_gmres,
    residual_bound_minres,
)
from rbdmimo.channel import ChannelScenario
from rbdmimo.linalg import hermitian_defect, hermitian_eigen_extrema, norm2
from rbdmimo.rngstream import uniform_stream
from rbdmimo.sim import SimConfig, draw_frames


def random_complex(gen, *shape):
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def conditioned_problem(gen, m, cond, sigma2=1e-14):
    """MMSE problem of a square M x M channel whose Gram matrix has condition number about cond.

    H = U diag(sv) V^H with Haar-like unitary U, V and singular values spaced
    logarithmically from 1 down to cond^-1/2; y = H s for a random s.
    """
    u, v = (np.linalg.qr(random_complex(gen, m, m))[0] for _ in range(2))
    h = (u * np.logspace(0.0, -0.5 * np.log10(cond), m)) @ v.conj().T
    return preprocess(h, h @ random_complex(gen, m), sigma2)


def traffic_arnoldi_basis(n, m, scenario, snr_db, frames=64):
    """Q at full depth, (B, M, M), of gmres's Arnoldi runs on a drawn chunk of MMSE frames.

    A frame that breaks down keeps zero vectors past its breakdown; the
    second value is the (B, M) mask of its nonzero vectors.
    """
    config = SimConfig(n=n, m=m, qam_order=64, detector="gmres", k_iterations=m,
                       snr_db_list=(snr_db,), scenario=scenario)
    _, prob = draw_frames(config, snr_db, np.arange(frames))
    basis, columns, product, beta = gmres_buffers(prob.y_mf, m)
    for j in range(m):
        arnoldi_step(prob.A, basis, columns[j], product, j, ARNOLDI_BREAKDOWN_REL * beta)
    return basis[:m].transpose(1, 2, 0), norm2(basis[:m]).T > 0


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
        with pytest.raises(ValueError, match="sigma2 must be >= 0"):
            preprocess(h, y, -0.1)


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
    return MmseProblem(A=a, y_mf=np.asarray(y, dtype=complex))


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


def steps_until_breakdown(prob, v):
    """gmres_detect's fused steps on one problem, at most v of them, up to its first breakdown.

    Returns the buffers of gmres_buffers and the number of steps taken.
    """
    basis, columns, product, beta = gmres_buffers(prob.y_mf[None], v)
    for j in range(v):
        happy, _ = arnoldi_step(prob.A, basis, columns[j], product, j, ARNOLDI_BREAKDOWN_REL * beta)
        if happy[0]:
            break
    return basis, columns, product, beta, j + 1


class TestArnoldiGivens:
    # the fused steps run on gmres_detect's buffers for a batch of one: Q is
    # basis[:, 0].T, Hbar is columns[..., 0].T, g is beta * product[..., 0],
    # the residual estimate after column j is beta * |product[:, j+1, 0]| and
    # R after v columns is givens_triangle(product, columns, v)
    def test_identity_breaks_down_immediately(self):
        basis, columns, product, beta = gmres_buffers([[3.0, 4.0j]], 2)
        happy, flat = arnoldi_step(np.eye(2, dtype=complex), basis, columns[0], product, 0,
                                   ARNOLDI_BREAKDOWN_REL * beta)
        assert happy[0] and not flat and not basis[1:].any()
        assert columns[0, 0, 0] == pytest.approx(1.0)

    def test_orthonormal_basis_and_factorization(self):
        # Gram-Schmidt keeps the basis orthonormal while the
        # least-squares residual is above the eps/tolerance tradeoff point;
        # past deep convergence the lost directions are roundoff artifacts
        # (the final iterate stays accurate regardless, see TestGmres)
        for prob in problem_batch(20, 514, m_range=(3, 10)):
            m = prob.M
            basis, columns, product, beta = gmres_buffers(prob.y_mf[None], m)
            cols_while_unconverged = 1
            for j in range(m):
                happy, _ = arnoldi_step(prob.A, basis, columns[j], product, j, ARNOLDI_BREAKDOWN_REL * beta)
                estimate = beta[0] * np.abs(product[0, j + 1, 0])
                if happy[0] or estimate <= 1e-13 * beta[0]:
                    break
                if estimate > 1e-5 * beta[0] and j + 2 <= m:
                    cols_while_unconverged = j + 2
            v = j + 1
            q_all, hbar = basis[:, 0].T, columns[..., 0].T
            q = q_all[:, :cols_while_unconverged]
            gram = q.conj().T @ q
            assert np.abs(gram - np.eye(cols_while_unconverged)).max() < 1e-10
            lhs = prob.A @ q_all[:, :v]
            rhs = q_all[:, : v + 1] @ hbar[: v + 1, :v]
            assert np.linalg.norm(lhs - rhs) < 1e-9 * max(1.0, np.linalg.norm(prob.A))

    @pytest.mark.parametrize("n, m, scenario, snr_db, bound", [
        # measured worst entries over the 64 frames: 1.7e-6 and 1.8e-10 (modified
        # Gram-Schmidt: 1.6e-6 and 1.7e-10); the bounds leave a margin of 6 and 11
        (128, 16, ChannelScenario("fully_correlated", zeta_t=0.2, zeta_r=0.3), 20.0, 1e-5),
        (32, 32, ChannelScenario(), 30.0, 2e-9),
    ])
    def test_orthogonality_at_full_depth_on_traffic(self, n, m, scenario, snr_db, bound):
        # classical Gram-Schmidt loses orthogonality as eps cond(A)^2; at full
        # depth the loss on MMSE frames is set by the residual's convergence
        # (the last vectors come from heavily cancelled w), as with modified
        # Gram-Schmidt, and not by the ordering of the projections
        q, nonzero = traffic_arnoldi_basis(n, m, scenario, snr_db)
        gram = q.conj().swapaxes(-1, -2) @ q
        assert np.abs(gram - np.eye(m) * nonzero[:, None, :]).max() <= bound

    def test_three_four_five_rotation(self):
        # q0 = e0 and A e0 = 3 e0 + 4 e1: the pivot is 3 and sigma is 4
        prob = MmseProblem(A=np.array([[3.0, 4.0], [4.0, 0.0]]), y_mf=np.array([1.0, 0.0]))
        _, columns, product, _, v = steps_until_breakdown(prob, 1)
        assert product[0, 0, :2] == pytest.approx([0.6, 0.8])  # (c, b)
        assert product[0, 1, :2] == pytest.approx([-0.8, 0.6])
        assert givens_triangle(product, columns, v)[0, 0, 0] == pytest.approx(5.0)

    def test_zero_subdiagonal_identity_rotation(self):
        _, columns, product, beta, v = steps_until_breakdown(toy_problem([7.0, 1.0], [2.0, 0.0]), 1)
        assert product[0, 0, :2] == pytest.approx([1.0, 0.0])  # (c, b)
        assert beta[0] * product[0, 0, 0] == pytest.approx(2.0)  # g[0]
        assert givens_triangle(product, columns, v)[0, 0, 0] == pytest.approx(7.0)

    def test_zero_pair_keeps_the_identity(self):
        # A = 0 gives rho = sigma = 0: no rotation parameters, the identity rotation
        basis, columns, product, beta = gmres_buffers([[1.0, 0.0]], 2)
        happy, flat = arnoldi_step(np.zeros((1, 2, 2), dtype=complex), basis, columns[0], product, 0,
                                   ARNOLDI_BREAKDOWN_REL * beta)
        assert happy[0] and flat
        assert np.array_equal(product[0], np.eye(3))

    def test_rotation_blocks_orthogonal(self):
        for prob in problem_batch(10, 515, m_range=(5, 12)):
            _, _, product, _, _ = steps_until_breakdown(prob, 4)
            assert np.abs(product[0] @ product[0].T - np.eye(5)).max() < 1e-14

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
            _, columns, product, beta, v = steps_until_breakdown(prob, min(prob.M, 4))
            r = givens_triangle(product, columns, v)[0]
            p = _partial_solutions(r, beta[0] * product[0, :v, 0])[..., -1]
            hbar = columns[..., 0].T[: v + 1, :v]
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

    @pytest.mark.parametrize("m", [8, 16, 32])
    def test_ill_conditioned_square_channels(self, m):
        # classical Gram-Schmidt costs accuracy only at large cond(A): over these
        # 20 trials per cell the worst forward error was 7.2e-12 cond(A) (at
        # 1e10; 1.1e-14 cond(A) up to 1e8) and the worst relative residual
        # 5.9e-14 up to cond 1e8 (4.4e-11 at 1e10); modified Gram-Schmidt stays
        # below 7.1e-17 cond(A) and 2.5e-15.  The bounds leave a margin of 1.4e3
        # and 17
        gen = uniform_stream(570 + m)
        for cond in (1e2, 1e4, 1e6, 1e8, 1e10):
            for _ in range(20):
                prob = conditioned_problem(gen, m, cond)
                want = np.linalg.solve(prob.A, prob.y_mf)
                got = gmres_detect(prob, m).s_hat
                assert norm2(got - want) <= 1e-8 * np.linalg.cond(prob.A) * norm2(want)
                if cond <= 1e8:
                    assert norm2(prob.y_mf - prob.A @ got) <= 1e-12 * norm2(prob.y_mf)

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
        scaled = MmseProblem(A=scale * prob.A, y_mf=scale * prob.y_mf)
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
                MmseProblem(A=bad, y_mf=y)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            MmseProblem(A=np.eye(3, dtype=complex), y_mf=np.zeros(2, dtype=complex))


def stack_problems(problems) -> MmseProblem:
    return MmseProblem(A=np.stack([p.A for p in problems]), y_mf=np.stack([p.y_mf for p in problems]))


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

    def test_gmres_frame_stops_on_its_residual_without_breakdown(self, monkeypatch):
        # y_mf almost along the top eigenvector of A: after one step the rotated
        # residual, beta h10 / h00 = 1e-14, meets the stop threshold, while
        # h10 = 1e-11 stays above the breakdown tolerance, so the stopped
        # frame's next basis vector is nonzero until gmres zeroes it; its
        # later Hessenberg columns must then be zero (identity rotations),
        # so that its row of the rotation product keeps its last residual
        lopsided = toy_problem([1000.0, 1.0, 2.0], [1.0, 1e-14, 1e-14])
        ordinary = [make_problem(3, 560 + i, sigma2=0.2) for i in range(2)]
        frames = [ordinary[0], lopsided, ordinary[1]]
        steps = []

        def recording(a, basis, h_col, product, j, tol):
            masks = step(a, basis, h_col, product, j, tol)
            steps.append((h_col.copy(), product))
            return masks

        step = detectors.arnoldi_step
        monkeypatch.setattr(detectors, "arnoldi_step", recording)
        batch = gmres_detect(stack_problems(frames), 3)
        assert batch.iterations.tolist() == [3, 1, 3]
        assert len(steps) == 3 and abs(steps[0][0][1, 1]) > 1e-13
        assert all(not h_col[:, 1].any() for h_col, _ in steps[1:])
        beta, residual = batch.trace.residual_norms[1, :2]
        assert beta * abs(steps[-1][1][1, 1, 0]) == residual
        for i, prob in enumerate(frames):
            assert_same_result(batch.frame(i), gmres_detect(prob, 3))

    @pytest.mark.parametrize("m", [2, 8, 17, 32])
    def test_gmres_triangle_formed_once(self, m, monkeypatch):
        # frames that run every step, stop on their residual, or break down
        # after d steps (d distinct eigenvalues); R is exactly upper
        # triangular with Hbar = P^T R, and a frame's triangle in the batch is
        # the one it gets alone, bit for bit, with zero columns past its stop
        gen = uniform_stream(570 + m)
        distinct = sorted({1, 2, max(m // 3, 1), m - 1})
        frames = [make_problem(m, 571 + m, sigma2=0.01), make_problem(m, 572 + m)] + [
            toy_problem([1.0 + i % d for i in range(m)], random_complex(gen, m)) for d in distinct
        ]
        triangles = []

        def recording(product, columns, v):
            r = form(product, columns, v)
            triangles.append((product[:, :v, : v + 1].copy(), columns[:v, : v + 1].transpose(2, 1, 0).copy(), r))
            return r

        form = detectors.givens_triangle
        monkeypatch.setattr(detectors, "givens_triangle", recording)
        batch = gmres_detect(stack_problems(frames), m)
        alone = [gmres_detect(prob, m) for prob in frames]
        assert len(triangles) == len(frames) + 1 and len(set(batch.iterations.tolist())) >= min(m, 4)
        for product, hbar, r in triangles:
            assert np.array_equal(r, np.triu(r))
            for b in range(len(r)):
                err = np.abs(hbar[b] - product[b].T @ r[b]).max()
                assert err <= 1e-13 * np.linalg.norm(hbar[b]), (m, b, err)
        r_batch = triangles[0][2]
        for b, (res, (_, _, r)) in enumerate(zip(alone, triangles[1:])):
            t = res.iterations
            assert np.array_equal(r_batch[b, :t, :t], r[0]) and not r_batch[b, :, t:].any()
            assert_same_result(batch.frame(b), res)

    def test_exact_stack_matches_single_frames(self):
        frames = [make_problem(5, 540 + i) for i in range(4)]
        batch = exact_detect(stack_problems(frames))
        for i, prob in enumerate(frames):
            assert_same_result(batch.frame(i), exact_detect(prob))

    @pytest.mark.parametrize("name", ITERATIVE_DETECTORS)
    def test_counter_takes_one_problem(self, name):
        batch = stack_problems([make_problem(3, 550), make_problem(3, 551)])
        with pytest.raises(ValueError, match="one problem"):
            ITERATIVE_DETECTORS[name](batch, 2, counter=OpCounter())

    def test_degenerate_denominator_of_a_live_frame_raises(self):
        # a zero matrix gives a zero denominator on a frame that is still running
        zero = MmseProblem(A=np.zeros((2, 2), dtype=complex), y_mf=np.ones(2, dtype=complex))
        with pytest.raises(ZeroDivisionError):
            cr_detect(stack_problems([make_problem(2, 552), zero]), 2)


@pytest.mark.parametrize("name", ITERATIVE_DETECTORS)
@pytest.mark.parametrize("k", [0, -1])
def test_iteration_count_below_one_rejected(name, k):
    with pytest.raises(ValueError, match="iteration count must be >= 1"):
        ITERATIVE_DETECTORS[name](make_problem(3, 553), k)
