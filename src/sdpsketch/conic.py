"""Internal standard conic form shared by the interior-point and consensus
solvers:

    min  sum_b <D_b, S_b>
    s.t. rows(S) = g,   S_b PSD

Blocks travel in groups of equal size: each group is one (N, r, r) array
and the row system lists its groups as (N, r) pairs.  Row systems come in
two layouts: explicit stacked constraint matrices (DenseRows, the canonical
pair, one group of size 1 per block), and the restricted layout where every
conic block enters each row through a congruence U_i' (.) U_i against a
shared family of base-space rows (ProjectedRows, one group of N samples
per base block).  The restricted layout assembles its Schur complement
through one aggregated kernel per group instead of per-block tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ._linalg import aggregate_congruence_operator, smat, svec, sym


class RowOps:
    """Linear row system over groups of PSD blocks, each an (N, r, r) array."""

    num_rows: int
    groups: Tuple[Tuple[int, int], ...]

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
    """Rows stored as stacked (num_rows, r_b, r_b) tensors; every block is a group of one."""

    def __init__(self, tensors: List[np.ndarray], num_rows: int):
        self.tensors = [np.ascontiguousarray(t, dtype=float) for t in tensors]
        self.groups = tuple((1, t.shape[-1]) for t in self.tensors)
        self.num_rows = num_rows
        self.flat = [t.reshape(num_rows, t.shape[-1] ** 2) for t in self.tensors]

    def apply(self, blocks):
        out = np.zeros(self.num_rows)
        for f, s in zip(self.flat, blocks):
            out += f @ np.ravel(s)
        return out

    def adjoint_blocks(self, w):
        return [(w @ f).reshape(1, r, r) for f, (_, r) in zip(self.flat, self.groups)]

    def schur(self, x_blocks, zinv_blocks):
        m = self.num_rows
        out = np.zeros((m, m))
        for t, f, x, zi in zip(self.tensors, self.flat, x_blocks, zinv_blocks):
            r = t.shape[-1]
            y = zi[0] @ t @ x[0]  # (m, r, r); <A_j, Zinv A_k X> = Tr(A_j X A_k Zinv)
            out += f @ y.reshape(m, r * r).T
        return sym(out)


class ProjectedRows(RowOps):
    """Rows are base-space functionals composed with per-sample congruences.

    For each base block b with row matrices R (given as svec rows, shape
    (num_rows, svec_dim(n_b))), the conic blocks (b, i) enter row j with
    coefficient matrix U_{b,i}' smat(R_j) U_{b,i}.  Base block b's samples
    form one group, stacked like its (N, n_b, r) stack of U_{b,i}.
    """

    def __init__(self, base_dims: Sequence[int], u_stacks: List[np.ndarray],
                 row_segments: List[np.ndarray]):
        self.base_dims = tuple(int(n) for n in base_dims)
        self.u_stacks = [np.ascontiguousarray(u, dtype=float) for u in u_stacks]
        self.row_segments = [np.ascontiguousarray(r, dtype=float) for r in row_segments]
        self.num_rows = row_segments[0].shape[0]
        assert all(r.shape[0] == self.num_rows for r in row_segments)
        self.groups = tuple((u.shape[0], u.shape[2]) for u in self.u_stacks)

    def apply(self, blocks):
        out = np.zeros(self.num_rows)
        for u, s, rows in zip(self.u_stacks, blocks, self.row_segments):
            lifted = np.einsum("inr,imr->nm", u @ s, u, optimize=True)  # sum_i U_i S_i U_i'
            out += rows @ svec(sym(lifted))
        return out

    def adjoint_blocks(self, w):
        mats: List[np.ndarray] = []
        for u, rows, n in zip(self.u_stacks, self.row_segments, self.base_dims):
            y = smat(rows.T @ w, n)
            tmp = y @ u  # (N, n, r)
            mats.append(sym(np.einsum("inr,ins->irs", u, tmp, optimize=True)))
        return mats

    def schur(self, x_blocks, zinv_blocks):
        m = self.num_rows
        out = np.zeros((m, m))
        for u, rows, xs, zs in zip(self.u_stacks, self.row_segments, x_blocks, zinv_blocks):
            p_stack = np.einsum("inr,irs,ims->inm", u, xs, u, optimize=True)
            q_stack = np.einsum("inr,irs,ims->inm", u, zs, u, optimize=True)
            kernel = aggregate_congruence_operator(p_stack, q_stack)
            out += rows @ kernel @ rows.T
        return sym(out)


@dataclass
class ConicProgram:
    """min <D, S>  s.t.  ops(S) = g,  S PSD blocks; D holds one (N, r, r) array per group.

    gap_offset/gap_flip describe how the caller's objective relates to the
    internal one (user = gap_offset - internal when flipped, + otherwise) so
    the duality-gap stopping rule is measured on the caller's scale.
    """

    ops: RowOps
    rhs: np.ndarray
    block_costs: List[np.ndarray]
    gap_offset: float = 0.0
    gap_flip: bool = False

    def __post_init__(self):
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.block_costs = [np.asarray(c, dtype=float) for c in self.block_costs]
