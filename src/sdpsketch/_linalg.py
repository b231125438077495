"""Dense symmetric-matrix kernels shared by the compilers and solvers.

Symmetric matrices travel through the solvers in isometric "svec" coordinates
(upper triangle, off-diagonal entries scaled by sqrt(2)) so that Euclidean
inner products of vectors equal Frobenius inner products of matrices.
"""

from __future__ import annotations

from functools import lru_cache
from typing import MutableMapping, Optional

import numpy as np
from scipy.linalg import get_lapack_funcs, qr, solve_triangular

from ._blas import limit_blas_threads

SQRT2 = float(np.sqrt(2.0))


@lru_cache(maxsize=None)
def triu_indices(n: int):
    iu = np.triu_indices(n)
    return iu[0].copy(), iu[1].copy()


def svec_dim(n: int) -> int:
    return n * (n + 1) // 2


@lru_cache(maxsize=None)
def svec_weights(n: int) -> np.ndarray:
    """svec's scale of each upper-triangle entry: 1 on the diagonal, sqrt(2) off it."""
    ia, ib = triu_indices(n)
    w = np.full(ia.shape, SQRT2)
    w[ia == ib] = 1.0
    w.flags.writeable = False  # shared by every caller
    return w


def svec(mat: np.ndarray) -> np.ndarray:
    """Isometric vectorization: <svec(A), svec(B)> = <A, B>_F for symmetric A, B."""
    n = mat.shape[0]
    ia, ib = triu_indices(n)
    return mat[ia, ib] * svec_weights(n)


def smat(vec: np.ndarray, n: int) -> np.ndarray:
    ia, ib = triu_indices(n)
    out = np.zeros((n, n))
    vals = vec / svec_weights(n)
    out[ia, ib] = vals
    out[ib, ia] = vals
    return out


def sym(mat: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix of a stack."""
    return 0.5 * (mat + np.swapaxes(mat, -1, -2))


LANCZOS_STEPS = 10  # most Lanczos steps of one step length; smaller ranks take eigvalsh
RITZ_TOLERANCE = 1e-3  # relative change of the smallest Ritz value over two steps
STEP_MARGIN = 1e-2  # certified lower bound: theta - STEP_MARGIN * |theta|
TRIANGULAR_BASE = 8  # largest diagonal block the blocked triangular inverse hands to inv


def sampled_group(samples: int, rank: int) -> bool:
    """Whether a group of `samples` rank-`rank` blocks takes the batched kernels
    (Lanczos step lengths, the blocked triangular inverse).  The full pair's
    one-matrix groups and groups of rank at most LANCZOS_STEPS do not."""
    return samples > 1 and rank > LANCZOS_STEPS


def max_step_psd(linv: np.ndarray, direction: np.ndarray,
                 counts: Optional[MutableMapping[str, int]] = None) -> float:
    """Largest t with L L' + t*direction PSD, given linv = L^-1 for the lower
    Cholesky factor L of a positive definite matrix: -1/lambda_min(L^-1 D L^-T).

    On stacks, the smallest such t over the matrices.  Returns inf when no
    direction ever leaves the cone.

    A (..., N, r, r) stack with sampled_group(N, r) gets t = -1/lam_lb from a
    certified lower bound lam_lb <= lambda_min: a batched Lanczos gives the
    smallest Ritz value theta >= lambda_min, and one batched Cholesky of
    W - lam_lb I, lam_lb = theta - STEP_MARGIN |theta|, proves it.  That t
    never exceeds the exact step and is at least 1 - STEP_MARGIN of it.  When
    the Cholesky fails, the step is the exact one from eigvalsh, and
    counts["step_fallbacks"] is incremented if a `counts` mapping is given.
    Every other stack takes the exact eigvalsh step.
    """
    W = sym(linv @ direction @ np.swapaxes(linv, -1, -2))
    r = W.shape[-1]
    lam = None
    if sampled_group(W.shape[-3] if W.ndim > 2 else 1, r):
        stack = W.reshape(-1, r, r)
        theta = _smallest_ritz_value(stack)
        lam = theta - STEP_MARGIN * abs(theta)
        try:
            factor = np.linalg.cholesky(stack - lam * np.eye(r))
        except np.linalg.LinAlgError:
            factor = None
        # A NaN entry passes the Cholesky; it reaches each last diagonal entry.
        if factor is None or not np.isfinite(factor[:, -1, -1]).all():
            lam = None
            if counts is not None:
                counts["step_fallbacks"] += 1
    if lam is None:
        lam = np.linalg.eigvalsh(W)[..., 0].min()
    if lam >= 0.0:
        return np.inf
    return -1.0 / lam


def _smallest_ritz_value(stack: np.ndarray) -> float:
    """Smallest Ritz value over a (B, r, r) stack of symmetric matrices,
    r > LANCZOS_STEPS, from a Lanczos process with full reorthogonalization
    run on all of them at once.

    The start vector is fixed, so the value depends on the stack alone.  The
    Ritz values are checked every second step; the process stops when none
    fell more than RITZ_TOLERANCE (relative) below the last smallest one, or
    after LANCZOS_STEPS steps.  The value returned is then within that
    tolerance above the smallest Ritz value, and every Ritz value is at least
    the smallest eigenvalue of its matrix.
    """
    big_b, r, _ = stack.shape
    steps = LANCZOS_STEPS
    basis = np.zeros((big_b, steps, r))
    start = np.linspace(1.0, 2.0, r)
    basis[:, 0] = start / np.linalg.norm(start)
    alpha = np.empty((big_b, steps))
    beta = np.empty((big_b, steps))
    for j in range(steps):
        v = (stack @ basis[:, j, :, None])[..., 0]
        # Gram-Schmidt against the whole basis: coef[:, j] is alpha_j
        coef = (basis[:, :j + 1] @ v[..., None])[..., 0]
        alpha[:, j] = coef[:, j]
        v -= (coef[:, None, :] @ basis[:, :j + 1])[:, 0]
        if j == 0:
            theta = float(alpha[:, 0].min())
        elif j % 2 == 0 or j == steps - 1:
            lower = _tridiagonal_floor(alpha[:, :j + 1], beta[:, :j],
                                       theta - RITZ_TOLERANCE * abs(theta))
            if lower is None:
                break
            theta = lower
        if j + 1 < steps:
            beta[:, j] = np.sqrt(np.einsum("bi,bi->b", v, v))
            # An exhausted Krylov space continues from zero: its Ritz
            # values stay those of the matrix, plus zeros.
            np.divide(v, beta[:, j, None], out=basis[:, j + 1], where=beta[:, j, None] > 0.0)
    return theta


def _tridiagonal_floor(alpha: np.ndarray, beta: np.ndarray, below: float) -> Optional[float]:
    """Smallest eigenvalue over a batch of symmetric tridiagonals (diagonals
    `alpha`, (B, j); off-diagonals `beta`, (B, j - 1)) if it is below `below`,
    else None.  A Sturm sequence at `below` picks the tridiagonals with an
    eigenvalue under it; only those are handed to eigvalsh."""
    j = alpha.shape[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pivot = alpha[:, 0] - below
        under = pivot < 0.0
        for i in range(1, j):
            pivot = alpha[:, i] - below - beta[:, i - 1] ** 2 / pivot
            under |= pivot < 0.0
    rows = np.flatnonzero(under)
    if rows.size == 0:
        return None
    tri = np.zeros((rows.size, j, j))
    k = np.arange(j)
    tri[:, k, k] = alpha[rows]
    tri[:, k[1:], k[:-1]] = beta[rows]
    return float(np.linalg.eigvalsh(tri)[:, 0].min())


def tril_inv(lower: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix, or of each matrix of a stack, by
    blocks: [[A, 0], [C, B]]^-1 = [[A^-1, 0], [-B^-1 C A^-1, B^-1]], halving
    until a diagonal block has at most TRIANGULAR_BASE rows; those blocks go
    to np.linalg.inv, so a matrix that small is inverted exactly as by inv."""
    n = lower.shape[-1]
    if n <= TRIANGULAR_BASE:
        return np.linalg.inv(lower)
    h = n // 2
    a_inv = tril_inv(lower[..., :h, :h])
    b_inv = tril_inv(lower[..., h:, h:])
    out = np.zeros(lower.shape)
    out[..., :h, :h] = a_inv
    out[..., h:, h:] = b_inv
    out[..., h:, :h] = -(b_inv @ (lower[..., h:, :h] @ a_inv))
    return out


RANK_RCOND = 1e-11  # a pivot counts toward the rank above this times the first


class PivotedQR:
    """mat P = Q R for a (rows, cols) matrix, from one column-pivoted
    Householder QR in LAPACK's raw form: Q is kept as its min(rows, cols)
    reflectors and never formed, and P is the column order `piv`.  The rank
    is the number of |R_kk| above RANK_RCOND times |R_11|.

    The QR and every product with Q run at one BLAS thread, so their bits do
    not depend on the caller's thread count.
    """

    def __init__(self, mat: np.ndarray):
        with limit_blas_threads(1):
            (reflectors, tau), self.r, self.piv = qr(mat, mode="raw", pivoting=True)
        # A wide matrix's raw array has more columns than Q has reflectors.
        k = min(mat.shape)
        self._reflectors, self._tau = reflectors[:, :k], tau[:k]
        diag = np.abs(np.diag(self.r))
        self.rank = int(np.sum(diag > (diag[0] if diag.size else 1.0) * RANK_RCOND))

    def _apply_q(self, c: np.ndarray) -> np.ndarray:
        """Q c for a Fortran-ordered (rows, k) array c, which is overwritten."""
        if not self._tau.size:
            return c
        ormqr, = get_lapack_funcs(("ormqr",), (self._reflectors,))
        with limit_blas_threads(1):
            _, work, _ = ormqr("L", "N", self._reflectors, self._tau, c, -1)
            q, _, info = ormqr("L", "N", self._reflectors, self._tau, c, int(work[0]),
                               overwrite_c=1)
        if info:
            raise np.linalg.LinAlgError(f"ormqr failed with info {info}")
        return q

    def complement(self) -> np.ndarray:
        """Orthonormal basis of the complement of the matrix's range (the
        null space of its transpose): the trailing rows - rank columns of Q,
        the reflectors applied to those of the identity."""
        rows = self._reflectors.shape[0]
        return self._apply_q(np.eye(rows, rows - self.rank, -self.rank, order="F"))

    def min_norm_solve(self, rhs: np.ndarray) -> np.ndarray:
        """The minimum-norm x with mat' x = rhs on the rank leading pivots:
        mat'[piv] = R' Q', so x = Q [R_k^-T rhs[piv[:k]]; 0] for the leading
        k x k triangle R_k, orthogonal to complement().  The other equations
        hold only as far as mat' x = rhs is consistent."""
        k = self.rank
        z = np.zeros((self._reflectors.shape[0], 1), order="F")
        with limit_blas_threads(1):
            z[:k, 0] = solve_triangular(self.r[:k, :k], rhs[self.piv[:k]], trans="T")
        return self._apply_q(z)[:, 0]


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
    w = svec_weights(n)
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
