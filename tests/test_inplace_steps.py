"""gmres's in-place Arnoldi and Givens steps against allocating references, bit for bit.

Each reference below evaluates the plain expressions (w - sum_i h_i q_i
for classical Gram-Schmidt, fresh rows for the rotations) in the operand
order the steps use, on a batch of one.  The steps update gmres_detect's
preallocated arrays (basis, Hessenberg columns, rotation product and R)
instead; the rounding must not change, so results are compared with
array_equal, not a tolerance.
"""

import numpy as np
from conftest import gmres_buffers, problem_batch

from rbdmimo.detectors import ARNOLDI_BREAKDOWN_REL, arnoldi_step, givens_lsq_update
from rbdmimo.linalg import norm2


def reference_arnoldi_step(a, basis, columns, j, tol):
    w = np.matvec(a, basis[j])
    h = np.vecdot(basis[: j + 1], w)
    columns[j][: j + 1] = h
    w = w - (h[..., None] * basis[: j + 1]).sum(axis=0)
    wn = norm2(w)
    columns[j][j + 1] = wn
    happy = wn <= tol
    basis[j + 1] = np.where(happy[..., None], 0.0, w / np.where(happy, 1.0, wn)[..., None])


def reference_givens(product, r, col, j):
    head = np.matvec(product[..., : j + 1, : j + 1], col[..., : j + 1])
    sub = col[..., j + 1]
    rho = head[..., j].real
    hyp = np.hypot(rho, sub.real)
    c, b = rho / hyp, sub.real / hyp
    r_col = head.copy()
    r_col[..., j] = c * head[..., j] + b * sub
    r[..., : j + 1, j] = r_col
    row_j, row_next = product[..., j, : j + 2], product[..., j + 1, : j + 2]
    row_next[..., : j + 1] = -b[..., None] * row_j[..., : j + 1]
    row_next[..., j + 1] = c
    row_j *= c[..., None]
    row_j[..., j + 1] = b


def test_arnoldi_and_givens_steps_match_allocating_reference():
    for prob in problem_batch(30, 561, m_range=(2, 20)):
        a, y = prob.A[None], prob.y_mf[None]
        basis, columns, product, r, beta = gmres_buffers(y, prob.M)
        tol = ARNOLDI_BREAKDOWN_REL * beta
        ref_basis, ref_columns, ref_product, ref_r = (x.copy() for x in (basis, columns, product, r))
        for j in range(prob.M):
            arnoldi_step(a, basis, columns[j], j, tol)
            reference_arnoldi_step(a, ref_basis, ref_columns, j, tol)
            assert np.array_equal(basis, ref_basis) and np.array_equal(columns, ref_columns)
            givens_lsq_update(product, r, columns[j].T, j)
            reference_givens(ref_product, ref_r, ref_columns[j].T, j)
            assert np.array_equal(product, ref_product) and np.array_equal(r, ref_r)
