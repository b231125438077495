"""Dense symmetric-matrix kernels shared by the compilers and solvers.

Symmetric matrices travel through the solvers in isometric "svec" coordinates
(upper triangle, off-diagonal entries scaled by sqrt(2)) so that Euclidean
inner products of vectors equal Frobenius inner products of matrices.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

SQRT2 = float(np.sqrt(2.0))


@lru_cache(maxsize=None)
def triu_indices(n: int):
    iu = np.triu_indices(n)
    return iu[0].copy(), iu[1].copy()


def svec_dim(n: int) -> int:
    return n * (n + 1) // 2


@lru_cache(maxsize=None)
def _svec_weights(n: int) -> np.ndarray:
    ia, ib = triu_indices(n)
    w = np.full(ia.shape, SQRT2)
    w[ia == ib] = 1.0
    return w


def svec(mat: np.ndarray) -> np.ndarray:
    """Isometric vectorization: <svec(A), svec(B)> = <A, B>_F for symmetric A, B."""
    n = mat.shape[0]
    ia, ib = triu_indices(n)
    return mat[ia, ib] * _svec_weights(n)


def smat(vec: np.ndarray, n: int) -> np.ndarray:
    ia, ib = triu_indices(n)
    out = np.zeros((n, n))
    vals = vec / _svec_weights(n)
    out[ia, ib] = vals
    out[ib, ia] = vals
    return out


def sym(mat: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix of a stack."""
    return 0.5 * (mat + np.swapaxes(mat, -1, -2))


def max_step_psd(linv: np.ndarray, direction: np.ndarray) -> float:
    """Largest t with L L' + t*direction PSD, given linv = L^-1 for the lower
    Cholesky factor L of a positive definite matrix: -1/lambda_min(L^-1 D L^-T).

    On stacks, the smallest such t over the matrices.  Returns inf when no
    direction ever leaves the cone.
    """
    W = linv @ direction @ np.swapaxes(linv, -1, -2)
    lam = np.linalg.eigvalsh(sym(W))[..., 0].min()
    if lam >= 0.0:
        return np.inf
    return -1.0 / lam


def nullspace(mat: np.ndarray, rcond: float = 1e-11) -> np.ndarray:
    """Orthonormal basis (columns) of the right null space of mat."""
    if mat.size == 0:
        rows, cols = mat.shape
        return np.eye(cols)
    u, s, vh = np.linalg.svd(mat, full_matrices=True)
    tol = rcond * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > tol))
    return vh[rank:].T.copy()


def aggregate_congruence_operator(p_stack: np.ndarray, q_stack: np.ndarray) -> np.ndarray:
    """svec-coordinate matrix of Y -> sym(sum_i P_i Y Q_i) for symmetric P_i, Q_i.

    p_stack, q_stack have shape (N, n, n).  The result M satisfies
    svec(B)' M svec(B') = sum_i Tr(B P_i B' Q_i) for all symmetric B, B',
    which is exactly the HKM Schur-complement kernel aggregated over blocks.
    It is built one row band at a time (congruence_band), so the n^4 tensor
    of all products is never formed.
    """
    n = p_stack.shape[-1]
    pt = congruence_rows(p_stack)
    qt = pt if q_stack is p_stack else congruence_rows(q_stack)
    out = np.empty((svec_dim(n), svec_dim(n)))
    for a in range(n):
        congruence_band(pt, qt, a, out)
    return out


def congruence_rows(stack: np.ndarray) -> np.ndarray:
    """(n*n, N) array whose row b * n + c holds stack[i, b, c] over i."""
    big_n, n, _ = stack.shape
    return np.ascontiguousarray(stack.reshape(big_n, n * n).T)


def congruence_band(pt: np.ndarray, qt: np.ndarray, a: int, out: np.ndarray) -> None:
    """Rows (a, b), b >= a, of aggregate_congruence_operator(P, Q) into `out`,
    from pt = congruence_rows(P) and qt = congruence_rows(Q)."""
    n = int(round(np.sqrt(pt.shape[0])))
    ic, jd = triu_indices(n)
    w = _svec_weights(n)
    start = a * n - a * (a - 1) // 2
    rows = slice(start, start + n - a)
    # blk[j, c, d] = sum_i P_i[a + j, c] Q_i[a, d] + Q_i[a + j, c] P_i[a, d]
    blk = pt[a * n:] @ qt[a * n:(a + 1) * n].T
    if qt is pt:  # the two products are equal; doubling is exact
        blk *= 2.0
    else:
        blk += qt[a * n:] @ pt[a * n:(a + 1) * n].T
    blk = blk.reshape(n - a, n, n)
    out[rows] = blk[:, ic, jd] + blk[:, jd, ic]
    out[rows] *= 0.25 * w[rows, None] * w[None, :]


def lift_congruence(ut: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_i U_i S_i U_i' from ut, the (N, r, n) stack of U_i', and s, (N, r, r)."""
    big_n, r, n = ut.shape
    return ut.reshape(big_n * r, n).T @ (s @ ut).reshape(big_n * r, n)


def restrict_congruence(ut: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (N, r, r) stack of U_i' Y U_i, from ut, the (N, r, n) stack of U_i'."""
    big_n, r, n = ut.shape
    return (ut.reshape(big_n * r, n) @ y).reshape(big_n, r, n) @ ut.transpose(0, 2, 1)
