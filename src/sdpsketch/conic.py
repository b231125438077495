"""Internal standard conic form shared by the interior-point and consensus
solvers:

    min  sum_b <D_b, S_b>
    s.t. rows(S) = g,   S_b PSD

Blocks travel in groups of equal size: each group is one (N, r, r) array
and the row system lists its groups as (N, r) pairs.  Both row systems read
one (num_rows, svec_dim(n_b)) svec row segment per base block.  DenseRows
holds the canonical pair in its pair form (one group of size 1 per block,
one row per constraint) and applies the segments of a_svec to the blocks
directly.  ProjectedRows holds a restricted dual (one group of N samples per
base block, one row per direction of the complement of A's range) and
applies its segments through a congruence U_i' (.) U_i per sample.  The
solver also gives ProjectedRows, with one identity ensemble per block, the
pair whose reduced form has fewer rows (2m > sum svec(n_b)) and whose A has
rank m; see solver.

DenseRows assembles its Schur complement as sum_b R_b K_b R_b' with one
congruence kernel K_b per block.  ProjectedRows assembles each group's share
by whichever of two exact formulas a flop model finds cheaper for the
group's shape (N, r, n_b, m); see per_sample_cheaper:

  base space   R (sum_i U_i X_i U_i' (x)_s U_i Z_i^-1 U_i') R', one kernel
               over svec(n_b), about 2 N n_b^4 flops whatever r is;
  per sample   M_jk += sum_i <G_ij, X_i G_ik Z_i^-1> from the projected
               rows G_ij = U_i' smat(R_j) U_i, built once per row system
               (SampleRows), about 4 N m r^3 + N m^2 r^2 flops.

So a group's Schur cost follows r where that is cheaper (Fujisawa, Kojima
and Nakata 1997, "choose the cheaper formula per constraint"; the low-rank
reuse of DSDP, Benson, Ye and Zhang 2000).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._linalg import (
    aggregate_congruence_operator,
    lift_congruence,
    restrict_congruence,
    smat,
    svec,
    svec_dim,
    svec_weights,
    sym,
    triu_indices,
)

# The cost model of per_sample_cheaper.  Two steps of the Schur formulas are
# bound by memory, not flops, and are counted at the flops they take (2-vCPU
# host, one BLAS thread, numpy 2.4): each entry of a base-space kernel,
# gathered and scaled band by band, and each symmetrized pair T_ab + T_ba of
# the per-sample formula.
KERNEL_ENTRY_FLOPS = 800
SAMPLE_PAIR_FLOPS = 250
BASE_FLOOR = 1e6  # groups whose base formula costs less keep it


def per_sample_cheaper(samples: int, rank: int, dim: int, rows: int) -> bool:
    """Whether a group of `samples` rank-`rank` blocks over a base block of
    size `dim`, in a row system of `rows` rows, assembles its share of the
    Schur complement from per-sample projected rows (SampleRows) rather than
    from the base-space kernel.  Per iteration, with p = svec(r), s = svec(n):

      per sample   4 N m r^3 (X G, then (X G) Z^-1) + 2 m^2 N p (against G)
                   + SAMPLE_PAIR_FLOPS N m p
      base space   2 N n^4 (the kernel's bands) + 2 m s^2 + 2 m^2 s (R K R')
                   + KERNEL_ENTRY_FLOPS s^2

    The per-sample formula is taken when it costs less than half the base
    one, so it is picked only where it wins clearly: the default POP pair's
    identity groups and, at N = 100, its sampled groups of rank up to 3 (and
    rank 6 over the n = 28 block); ranks from 9 up keep the base formula.  Below
    BASE_FLOOR both formulas take tens of microseconds and the base one is
    kept; that covers every group of the POC instances (n <= 3).
    """
    big_n, r, n, m = samples, rank, dim, rows
    p, s = svec_dim(r), svec_dim(n)
    per_sample = 4 * big_n * m * r ** 3 + 2 * m * m * big_n * p + SAMPLE_PAIR_FLOPS * big_n * m * p
    base = 2 * big_n * n ** 4 + 2 * m * s * s + 2 * m * m * s + KERNEL_ENTRY_FLOPS * s * s
    return base >= BASE_FLOOR and 2 * per_sample < base


class RowOps:
    """Linear row system over groups of PSD blocks, each an (N, r, r) array,
    read from one (num_rows, svec_dim(n_b)) svec row segment per base block."""

    groups: Tuple[Tuple[int, int], ...]

    def __init__(self, base_dims: Sequence[int], row_segments: List[np.ndarray]):
        self.base_dims = tuple(int(n) for n in base_dims)
        self.row_segments = list(row_segments)
        self.num_rows = self.row_segments[0].shape[0]
        assert all(r.shape[0] == self.num_rows for r in self.row_segments)

    def apply(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def adjoint_blocks(self, w: np.ndarray) -> List[np.ndarray]:
        raise NotImplementedError

    def schur(self, x_blocks: Sequence[np.ndarray], zinv_blocks: Sequence[np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def row_inner(self, mats: Sequence[np.ndarray]) -> np.ndarray:
        """<A_j, sym(mat)> per row; mats need not be symmetric."""
        return self.apply([sym(m) for m in mats])


class DenseRows(RowOps):
    """The pair's rows: block b enters row j through R_b[j] = svec(A_{j,b});
    every block is a group of one."""

    def __init__(self, base_dims: Sequence[int], row_segments: List[np.ndarray]):
        super().__init__(base_dims, row_segments)
        self.groups = tuple((1, n) for n in self.base_dims)

    def apply(self, blocks):
        out = np.zeros(self.num_rows)
        for rows, s in zip(self.row_segments, blocks):
            out += rows @ svec(s[0])
        return out

    def adjoint_blocks(self, w):
        return [smat(rows.T @ w, n)[None] for rows, n in zip(self.row_segments, self.base_dims)]

    def schur(self, x_blocks, zinv_blocks):
        out = np.zeros((self.num_rows, self.num_rows))
        for rows, x, zi in zip(self.row_segments, x_blocks, zinv_blocks):
            out += rows @ aggregate_congruence_operator(x, zi) @ rows.T
        return sym(out)


class SampleRows:
    """The projected rows of one group, G_ij = U_i' smat(R_j) U_i, and its
    share of the Schur complement from them:

        M_jk = sum_i <G_ij, X_i G_ik Z_i^-1>.

    G is held as the (N, r, m r) stack g[i, a, (j, b)] = G_ij[a, b], and
    once more as the (m, svec(r) N) matrix `upper`, whose column (p, i) holds
    G_ij[a_p, b_p] over j, (a_p, b_p) the p-th upper-triangle position, times
    1/2 on the diagonal.  Then <G_ij, T> = upper[j, (p, i)] summed against
    T[a_p, b_p] + T[b_p, a_p] over p, and the Schur share is one GEMM.

    G is built by one GEMM over the stacked U' and one batched product,
    inside the solve, so at the one BLAS thread of its other products.
    """

    def __init__(self, ut: np.ndarray, rows: np.ndarray):
        big_n, r, n = ut.shape
        m = rows.shape[0]
        ia, ib = triu_indices(n)
        base = np.zeros((n, m, n))  # base[c, j, d] = smat(R_j)[c, d]
        vals = (rows / svec_weights(n)).T
        base[ia, :, ib] = vals
        base[ib, :, ia] = vals
        y = (ut.reshape(big_n * r, n) @ base.reshape(n, m * n)).reshape(big_n, r * m, n)
        g = (y @ ut.transpose(0, 2, 1)).reshape(big_n, r, m, r)
        self.shape = (big_n, r, m)
        self.g = np.ascontiguousarray(g.reshape(big_n, r, m * r))
        self.ia, self.ib = triu_indices(r)
        diag = np.where(self.ia == self.ib, 0.5, 1.0)
        upper = g[:, self.ia, :, self.ib] * diag[:, None, None]  # (svec(r), N, m)
        self.upper = np.ascontiguousarray(upper.transpose(2, 0, 1).reshape(m, self.ia.size * big_n))

    def schur(self, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """This group's (m, m) share of the Schur complement, before symmetrization."""
        big_n, r, m = self.shape
        t = ((xs @ self.g).reshape(big_n, r * m, r) @ zs).reshape(big_n, r, m, r)
        pairs = t[:, self.ia, :, self.ib] + t[:, self.ib, :, self.ia]  # (svec(r), N, m)
        return self.upper @ pairs.reshape(self.ia.size * big_n, m)


class ProjectedRows(RowOps):
    """Rows are base-space functionals composed with per-sample congruences.

    For each base block b with row matrices R (given as svec rows, shape
    (num_rows, svec_dim(n_b))), the conic blocks (b, i) enter row j with
    coefficient matrix U_{b,i}' smat(R_j) U_{b,i}.  Base block b's samples
    form one group, held as the (N, r, n_b) stack of U_{b,i}'.

    sample_rows holds, per group, its SampleRows when per_sample_cheaper
    picks the per-sample Schur formula for its shape, else None: that group
    takes the base-space kernel.
    """

    def __init__(self, base_dims: Sequence[int], ut_stacks: List[np.ndarray],
                 row_segments: List[np.ndarray]):
        super().__init__(base_dims, row_segments)
        self.ut_stacks = [np.ascontiguousarray(ut, dtype=float) for ut in ut_stacks]
        self.groups = tuple((ut.shape[0], ut.shape[1]) for ut in self.ut_stacks)
        self.sample_rows: List[Optional[SampleRows]] = [
            SampleRows(ut, rows) if per_sample_cheaper(big_n, r, n, self.num_rows) else None
            for ut, rows, (big_n, r), n in zip(self.ut_stacks, self.row_segments,
                                               self.groups, self.base_dims)]

    def apply(self, blocks):
        out = np.zeros(self.num_rows)
        for ut, s, rows in zip(self.ut_stacks, blocks, self.row_segments):
            out += rows @ svec(sym(lift_congruence(ut, s)))
        return out

    def adjoint_blocks(self, w):
        return [sym(restrict_congruence(ut, smat(rows.T @ w, n)))
                for ut, rows, n in zip(self.ut_stacks, self.row_segments, self.base_dims)]

    def schur(self, x_blocks, zinv_blocks):
        out = np.zeros((self.num_rows, self.num_rows))
        for ut, rows, sample_rows, xs, zs in zip(self.ut_stacks, self.row_segments,
                                                 self.sample_rows, x_blocks, zinv_blocks):
            if sample_rows is not None:
                out += sample_rows.schur(xs, zs)
            else:
                u = ut.transpose(0, 2, 1)
                kernel = aggregate_congruence_operator(u @ (xs @ ut), u @ (zs @ ut))
                out += rows @ kernel @ rows.T
        return sym(out)


@dataclass
class ConicProgram:
    """min <D, S>  s.t.  ops(S) = g,  S PSD blocks; D holds one (N, r, r) array per group.

    gap_offset/gap_flip describe how the caller's objective relates to the
    internal one (see user_objective), so the duality-gap stopping rule is
    measured on the caller's scale.  gap_flip is set exactly when this
    program's primal is the max side of the caller's pair.
    """

    ops: RowOps
    rhs: np.ndarray
    block_costs: List[np.ndarray]
    gap_offset: float = 0.0
    gap_flip: bool = False

    def __post_init__(self):
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.block_costs = [np.asarray(c, dtype=float) for c in self.block_costs]

    def user_objective(self, internal: float) -> float:
        """The caller's objective value of an internal one, primal or dual."""
        return self.gap_offset - internal if self.gap_flip else self.gap_offset + internal
