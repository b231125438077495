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
rank m; see solver.  Both assemble their Schur complement as
sum_b R_b K_b R_b' with one aggregated congruence kernel K_b per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ._linalg import (
    aggregate_congruence_operator,
    lift_congruence,
    restrict_congruence,
    smat,
    svec,
    sym,
)


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


class ProjectedRows(RowOps):
    """Rows are base-space functionals composed with per-sample congruences.

    For each base block b with row matrices R (given as svec rows, shape
    (num_rows, svec_dim(n_b))), the conic blocks (b, i) enter row j with
    coefficient matrix U_{b,i}' smat(R_j) U_{b,i}.  Base block b's samples
    form one group, held as the (N, r, n_b) stack of U_{b,i}'.
    """

    def __init__(self, base_dims: Sequence[int], ut_stacks: List[np.ndarray],
                 row_segments: List[np.ndarray]):
        super().__init__(base_dims, row_segments)
        self.ut_stacks = [np.ascontiguousarray(ut, dtype=float) for ut in ut_stacks]
        self.groups = tuple((ut.shape[0], ut.shape[1]) for ut in self.ut_stacks)

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
        for ut, rows, xs, zs in zip(self.ut_stacks, self.row_segments, x_blocks, zinv_blocks):
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
