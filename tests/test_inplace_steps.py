"""gmres's in-place fused Arnoldi-Givens step against an allocating reference, bit for bit.

The reference below evaluates the plain expressions (w - sum_i h_i q_i
for classical Gram-Schmidt, the pivot from row j of the rotation product,
fresh rows for the rotation) in the operand order the step uses, on a
batch of one.  The step updates gmres_detect's preallocated arrays (basis,
Hessenberg columns and rotation product) instead; the rounding must not
change, so results are compared with array_equal, not a tolerance.  The
triangle R, formed once after the last step, is checked against the
columns an incremental QR would have written step by step.
"""

import numpy as np
from conftest import gmres_buffers, problem_batch

from rbdmimo.detectors import ARNOLDI_BREAKDOWN_REL, arnoldi_step, givens_triangle
from rbdmimo.linalg import norm2


def reference_step(a, basis, columns, product, j, tol):
    w = np.matvec(a, basis[j])
    h = np.vecdot(basis[: j + 1], w)
    columns[j][: j + 1] = h
    w = w - (h[..., None] * basis[: j + 1]).sum(axis=0)
    sigma = norm2(w)
    columns[j][j + 1] = sigma
    happy = sigma <= tol
    basis[j + 1] = np.where(happy[..., None], 0.0, w / np.where(happy, 1.0, sigma)[..., None])
    rho = np.vecdot(product[:, j, : j + 1], h.real.T)
    hyp = np.hypot(rho, sigma)
    c, b = rho / hyp, sigma / hyp
    row_j = product[:, j, : j + 1].copy()
    product[:, j + 1, : j + 1] = -b[:, None] * row_j
    product[:, j, : j + 1] = c[:, None] * row_j
    product[:, j, j + 1], product[:, j + 1, j + 1] = b, c


def test_arnoldi_and_givens_steps_match_allocating_reference():
    for prob in problem_batch(30, 561, m_range=(2, 20)):
        a, y = prob.A[None], prob.y_mf[None]
        basis, columns, product, beta = gmres_buffers(y, prob.M)
        tol = ARNOLDI_BREAKDOWN_REL * beta
        ref_basis, ref_columns, ref_product = (x.copy() for x in (basis, columns, product))
        for j in range(prob.M):
            arnoldi_step(a, basis, columns[j], product, j, tol)
            reference_step(a, ref_basis, ref_columns, ref_product, j, tol)
            assert np.array_equal(basis, ref_basis) and np.array_equal(columns, ref_columns)
            assert np.array_equal(product, ref_product)


def test_triangle_equals_the_incrementally_rotated_columns():
    # row i of the product is final after step i, so column j of R is the
    # product after step j applied to Hessenberg column j, as an incremental
    # QR writes it; the two sum in different orders
    for prob in problem_batch(30, 562, m_range=(2, 20)):
        basis, columns, product, beta = gmres_buffers(prob.y_mf[None], prob.M)
        incremental = np.zeros((prob.M, prob.M), dtype=complex)
        for j in range(prob.M):
            arnoldi_step(prob.A[None], basis, columns[j], product, j, ARNOLDI_BREAKDOWN_REL * beta)
            incremental[: j + 1, j] = product[0, : j + 1, : j + 2] @ columns[j, : j + 2, 0]
        r = givens_triangle(product, columns, prob.M)[0]
        assert np.abs(r - incremental).max() <= 1e-14 * np.abs(columns).max()
