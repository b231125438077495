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


def psd_project(mat: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm (eigenvalue clipping)."""
    w, v = np.linalg.eigh(sym(mat))
    wc = np.clip(w, 0.0, None)
    return (v * wc) @ v.T


def max_step_psd(mat: np.ndarray, direction: np.ndarray) -> float:
    """Largest t with mat + t*direction PSD, for mat positive definite.

    On stacks, the smallest such t over the matrices.  Returns inf when no
    direction ever leaves the cone.
    """
    L = np.linalg.cholesky(mat)
    W = np.linalg.solve(L, np.swapaxes(np.linalg.solve(L, direction), -1, -2))
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
    """
    n = p_stack.shape[-1]
    # T4[a,b,c,d] = sum_i P_i[b,c] Q_i[d,a]; contraction over i is one GEMM.
    t4 = np.einsum("ibc,ida->abcd", p_stack, q_stack, optimize=True)
    ia, ib = triu_indices(n)
    w = _svec_weights(n)
    ra = ia[:, None]
    rb = ib[:, None]
    ca = ia[None, :]
    cb = ib[None, :]
    gathered = (
        t4[ra, rb, ca, cb]
        + t4[rb, ra, ca, cb]
        + t4[ra, rb, cb, ca]
        + t4[rb, ra, cb, ca]
    )
    return 0.25 * (w[:, None] * gathered * w[None, :])


def projection_hessian(u_stack: np.ndarray) -> np.ndarray:
    """svec-coordinate matrix of X -> sum_i P_i X P_i with P_i = U_i U_i'.

    u_stack has shape (N, n, r).  Equals aggregate_congruence_operator(P, P),
    built one row band (the rows (a, b), b >= a) at a time, so that neither
    the n^4 tensor nor a four-index gather from it is ever formed.
    """
    n = u_stack.shape[1]
    pt = projection_products(u_stack)
    out = np.empty((svec_dim(n), svec_dim(n)))
    for a in range(n):
        projection_hessian_band(pt, a, out)
    return out


def projection_products(u_stack: np.ndarray) -> np.ndarray:
    """(n*n, N) array whose row b * n + c holds P_i[b, c] over i, P_i = U_i U_i'."""
    big_n, n, _ = u_stack.shape
    p = np.matmul(u_stack, u_stack.transpose(0, 2, 1)).reshape(big_n, n * n)
    return np.ascontiguousarray(p.T)


def projection_hessian_band(pt: np.ndarray, a: int, out: np.ndarray) -> None:
    """Row band a of projection_hessian into `out`, from pt = projection_products(U)."""
    n = int(round(np.sqrt(pt.shape[0])))
    ic, jd = triu_indices(n)
    w = _svec_weights(n)
    start = a * n - a * (a - 1) // 2
    rows = slice(start, start + n - a)
    # blk[j, c, d] = sum_i P_i[a + j, c] P_i[a, d]
    blk = (pt[a * n:] @ pt[a * n:(a + 1) * n].T).reshape(n - a, n, n)
    out[rows] = blk[:, ic, jd] + blk[:, jd, ic]
    out[rows] *= 0.5 * w[rows, None] * w[None, :]
