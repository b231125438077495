"""User-facing solve interface over the interior-point core.

solve() accepts an SdpProblem (the canonical pair) or a BlockSdp (restricted
dual / projected primal) and returns a Solution whose fields always mean:

  free_vars       the dual vector y of the pair,
  psd_blocks      the problem's own cone variables (Gram/restricted blocks
                  for max-sense problems, primal blocks for min-sense pairs),
  eq_multipliers  multipliers of the problem's equality system; for max-sense
                  and block problems these are the entries of the
                  moment-side matrix (upper triangle, row-major, unscaled).

Statuses and +/-inf objectives follow the problem sense.

The projected primal is the conic dual of the restricted dual, so it is
solved as that restricted dual, in either mode, with Infeasible and
Unbounded swapped: its X is in moment_matrices, y in free_vars, and
psd_blocks and certificate hold the restricted dual's S_i and certificate.
Every BlockSdp is thus solved, and its KKT residuals replayed, in one layout.

Inside, the interior-point solver holds each block group as one (N, r, r)
array (see conic): one group of N samples per ensemble of a BlockSdp, one
group of size 1 per block of the pair.  The Solution is unstacked once, so
its block lists hold one matrix per sample or block.

Every layout reads the base problem's one svec constraint matrix a_svec:
the pair as DenseRows row segments, each restricted dual through the
elimination data built from it once per base problem (restricted_reduction,
shared with the consensus solver), and the KKT replay through the
problem's dual_slack and constraint_values.
"""

from __future__ import annotations

import csv
import json
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import List, Optional, Sequence, Union

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ._blas import limit_blas_threads
from ._linalg import restrict_congruence, sym, triu_indices
from .conic import ConicProgram, DenseRows, ProjectedRows
from .ipm import (
    DUAL_INFEASIBLE,
    MAX_ITERATIONS,
    NUMERICAL_FAILURE,
    OPTIMAL,
    PRIMAL_INFEASIBLE,
    ConicResult,
    solve_conic,
)
from .sketch import BlockSdp, lift_blocks, lift_dual_certificate, restrict_dual
from .sos import SdpProblem


class Status(Enum):
    Optimal = "Optimal"
    Infeasible = "Infeasible"
    Unbounded = "Unbounded"
    MaxIterations = "MaxIterations"
    NumericalFailure = "NumericalFailure"


@dataclass
class SolverConfig:
    tolerance: float = 1e-8
    max_iterations: int = 200
    mode: str = "interior_point"  # or "consensus"
    trace_path: Optional[str] = None
    keep_trace: bool = False
    # consensus-mode knobs
    rho: float = 1.0
    workers: int = 1  # CPUs the consensus solve uses; the result does not depend on it
    admm_max_iterations: int = 20000
    admm_tolerance: float = 1e-7


@dataclass
class KktResiduals:
    primal: float
    dual: float
    gap: float

    def __post_init__(self):
        self.primal = float(self.primal)
        self.dual = float(self.dual)
        self.gap = float(self.gap)

    def max(self) -> float:
        return max(self.primal, self.dual, self.gap)


@dataclass
class Solution:
    status: Status
    objective: float
    psd_blocks: List[np.ndarray] = field(default_factory=list)
    free_vars: np.ndarray = field(default_factory=lambda: np.zeros(0))
    eq_multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    kkt: Optional[KktResiduals] = None
    iterations: int = 0
    solve_seconds: float = 0.0
    certificate: Optional[dict] = None
    moment_matrices: List[np.ndarray] = field(default_factory=list)
    dual_slacks: List[np.ndarray] = field(default_factory=list)
    trace: list = field(default_factory=list)

    def __post_init__(self):
        self.objective = float(self.objective)
        self.free_vars = np.asarray(self.free_vars, dtype=float)
        self.eq_multipliers = np.asarray(self.eq_multipliers, dtype=float)

    @property
    def seconds_per_iteration(self) -> float:
        return self.solve_seconds / max(self.iterations, 1)

    def to_json_dict(self) -> dict:
        return {
            "status": self.status.value,
            # Strict JSON: an infinite objective is written as null; the status says why.
            "objective": self.objective if np.isfinite(self.objective) else None,
            "psd_blocks": [b.tolist() for b in self.psd_blocks],
            "free_vars": self.free_vars.tolist(),
            "eq_multipliers": self.eq_multipliers.tolist(),
            "kkt": None if self.kkt is None else
                {"primal": self.kkt.primal, "dual": self.kkt.dual, "gap": self.kkt.gap},
            "iterations": self.iterations,
            "solve_seconds": self.solve_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _unstack(groups: Sequence[np.ndarray]) -> List[np.ndarray]:
    """The matrices of a list of (N, r, r) groups, in order."""
    return [mat for group in groups for mat in group]


def _plain_upper(mats: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate([m[triu_indices(m.shape[0])] for m in mats])


def _mats_from_plain_upper(vec: np.ndarray, problem: SdpProblem) -> List[np.ndarray]:
    """The problem's blocks from their _plain_upper entries."""
    out = []
    for seg, n in zip(problem.segments(vec), problem.block_dims):
        m = np.zeros((n, n))
        m[triu_indices(n)] = seg
        out.append(m + np.triu(m, 1).T)
    return out


# ---------------------------------------------------------------------------
# Layout builders.
# ---------------------------------------------------------------------------


def _conic_from_pair(problem: SdpProblem) -> ConicProgram:
    return ConicProgram(
        ops=DenseRows(problem.block_dims, [seg.T for seg in problem.segments(problem.a_svec)]),
        rhs=problem.rhs,
        block_costs=[c[None] for c in problem.cost_blocks],
        gap_offset=problem.obj_offset,
    )


class _RestrictedReduction:
    """Free-variable elimination data shared by every restricted dual of one base problem."""

    def __init__(self, base: SdpProblem):
        a_mat = base.a_svec
        c_vec = base.pack(base.cost_blocks)
        m = base.num_constraints
        if m:
            gram = a_mat.T @ a_mat
            try:
                cho = cho_factor(gram + 1e-14 * np.trace(gram) / m * np.eye(m))
                self._solve_gram = lambda rhs: cho_solve(cho, rhs)
            except np.linalg.LinAlgError:
                pinv = np.linalg.pinv(gram)
                self._solve_gram = lambda rhs: pinv @ rhs
        else:
            self._solve_gram = lambda rhs: rhs
        w_obj = a_mat @ self._solve_gram(base.rhs)

        self.base = base
        self.a_mat = a_mat
        self.w_obj = w_obj
        self.c_vec = c_vec
        self.const = float(w_obj @ c_vec) + base.obj_offset

    # The complement basis needs a full SVD of a_mat; only the interior-point
    # layout uses it, so the consensus solver never pays for it.
    @cached_property
    def perp(self) -> np.ndarray:
        """Orthonormal basis of the complement of span{svec(A_j)}."""
        if not self.base.num_constraints:
            return np.eye(self.a_mat.shape[0])
        u, s, vh = np.linalg.svd(self.a_mat, full_matrices=True)
        tol = (s[0] if s.size else 1.0) * 1e-11
        rank = int(np.sum(s > tol))
        return u[:, rank:]

    @cached_property
    def rhs(self) -> np.ndarray:
        return self.perp.T @ self.c_vec

    @cached_property
    def row_segments(self) -> List[np.ndarray]:
        return [np.ascontiguousarray(seg.T) for seg in self.base.segments(self.perp)]

    def recover_y(self, lift_vec: np.ndarray) -> np.ndarray:
        return self._solve_gram(self.a_mat.T @ (self.c_vec - lift_vec))

    def moment_matrices(self, w: np.ndarray) -> List[np.ndarray]:
        return self.base.unpack(self.w_obj - self.perp @ w)


_REDUCTION_LOCK = threading.Lock()  # sweep cells may be solved on threads


def restricted_reduction(base: SdpProblem) -> _RestrictedReduction:
    """The reduction of `base`, built on its first restriction and kept on it.

    Every sweep cell of one base problem then shares one svec constraint
    matrix and one SVD.
    """
    with _REDUCTION_LOCK:
        if base.reduction is None:
            base.reduction = _RestrictedReduction(base)
        return base.reduction


def _conic_from_restricted(bs: BlockSdp, red: _RestrictedReduction) -> ConicProgram:
    ops = ProjectedRows(
        base_dims=bs.base.block_dims,
        ut_stacks=[ens.transposed_stack() for ens in bs.ensembles],
        row_segments=red.row_segments,
    )
    costs = [sym(restrict_congruence(ut, w))
             for ut, w in zip(ops.ut_stacks, bs.base.unpack(red.w_obj))]
    return ConicProgram(ops=ops, rhs=red.rhs, block_costs=costs,
                        gap_offset=red.const, gap_flip=True)


# ---------------------------------------------------------------------------
# Status mapping and the public solve.
# ---------------------------------------------------------------------------

# What a conic status says about the problem that is the program's primal side.
_STATUS = {
    OPTIMAL: Status.Optimal,
    PRIMAL_INFEASIBLE: Status.Infeasible,
    DUAL_INFEASIBLE: Status.Unbounded,
    MAX_ITERATIONS: Status.MaxIterations,
    NUMERICAL_FAILURE: Status.NumericalFailure,
}
# A certified status read from the other side of a conic pair.
_ACROSS_DUALITY = {Status.Infeasible: Status.Unbounded, Status.Unbounded: Status.Infeasible}


def _certified(status: Status, sense: str, res: ConicResult) -> Solution:
    """Infeasible or Unbounded: an infinite objective and the certificate."""
    worst = np.inf if (status == Status.Infeasible) == (sense == "min") else -np.inf
    cert = {k: v if k == "w" else _unstack(v) for k, v in res.certificate.items()}
    return Solution(status=status, objective=worst, certificate=cert)


def _finish(sol: Solution, problem, config: SolverConfig, iterations: int, trace: list,
            t0: float) -> Solution:
    """KKT replay, iteration count, timing and trace of every solve."""
    if sol.status not in _ACROSS_DUALITY:
        sol.kkt = kkt_residuals(problem, sol)
    sol.iterations = iterations
    sol.solve_seconds = time.perf_counter() - t0
    sol.trace = trace if config.keep_trace or config.trace_path else []
    if config.trace_path and trace:
        with open(config.trace_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(trace[0].keys()))
            writer.writeheader()
            writer.writerows(trace)
    return sol


def solve(problem: Union[SdpProblem, BlockSdp], config: SolverConfig | None = None) -> Solution:
    """Solve the pair (SdpProblem) or a restricted/projected problem (BlockSdp)."""
    config = config or SolverConfig()
    if config.mode == "consensus":
        from .consensus import solve_consensus as impl
    else:
        impl = _solve_ipm
    return _solve_with(impl, problem, config)


def solve_consensus(problem: BlockSdp, config: SolverConfig | None = None) -> Solution:
    """Solve a BlockSdp in consensus mode, whatever config.mode says."""
    from .consensus import solve_consensus as impl

    return _solve_with(impl, problem, config or SolverConfig())


def _solve_with(impl, problem, config: SolverConfig) -> Solution:
    """impl(problem, config), with the projected primal solved as its conic dual."""
    if isinstance(problem, BlockSdp) and problem.kind == "projected_primal":
        sol = impl(restrict_dual(problem.base, problem.ensembles), config)
        sol.status = _ACROSS_DUALITY.get(sol.status, sol.status)
        return sol
    return impl(problem, config)


def _solve_ipm(problem: Union[SdpProblem, BlockSdp], config: SolverConfig) -> Solution:
    if isinstance(problem, SdpProblem):
        return _solve_pair(problem, config)
    if isinstance(problem, BlockSdp):
        return _solve_restricted(problem, config)
    raise TypeError(f"cannot solve object of type {type(problem)!r}")


def _solve_conic(prog: ConicProgram, config: SolverConfig) -> ConicResult:
    # An iteration is many small matrix calls, which more BLAS threads slow
    # down on a few shared cores: the default POP pair takes 1.1 s at two
    # threads and 0.5 s at one on a 2-core host.
    with limit_blas_threads(1):
        return solve_conic(prog, config.tolerance, config.max_iterations,
                           config.keep_trace or config.trace_path is not None)


def _solve_pair(problem: SdpProblem, config: SolverConfig) -> Solution:
    t0 = time.perf_counter()
    res = _solve_conic(_conic_from_pair(problem), config)
    sense = problem.sense
    status = _STATUS[res.status]
    if sense == "max":  # a max-sense pair is the program's dual side
        status = _ACROSS_DUALITY.get(status, status)
    if status in _ACROSS_DUALITY:
        sol = _certified(status, sense, res)
        return _finish(sol, problem, config, res.iterations, res.trace, t0)
    xs = _unstack(res.x_blocks)
    slacks = [sym(z) for z in _unstack(res.z_blocks)]
    if sense == "max":
        objective, psd, eq_mult = res.dual_objective, slacks, _plain_upper(xs)
    else:
        objective, psd, eq_mult = res.primal_objective, xs, res.w.copy()
    sol = Solution(
        status=status,
        objective=objective + problem.obj_offset,
        psd_blocks=psd,
        free_vars=res.w,
        eq_multipliers=eq_mult,
        moment_matrices=xs,
        dual_slacks=slacks,
    )
    return _finish(sol, problem, config, res.iterations, res.trace, t0)


def _restricted_solution(bs: BlockSdp, red: _RestrictedReduction, status: Status,
                         objective: float, groups: Sequence[np.ndarray],
                         moments: List[np.ndarray]) -> Solution:
    """A restricted dual's Solution from its (N, r, r) stacks of S_i, one per
    ensemble, and its moment matrices; y is recovered from the lifts."""
    lifts = [lift_dual_certificate(s, ens) for s, ens in zip(groups, bs.ensembles)]
    return Solution(
        status=status,
        objective=objective,
        psd_blocks=_unstack(groups),
        free_vars=red.recover_y(bs.base.pack(lifts)),
        eq_multipliers=_plain_upper(moments),
        moment_matrices=moments,
    )


def _solve_restricted(bs: BlockSdp, config: SolverConfig) -> Solution:
    t0 = time.perf_counter()
    red = restricted_reduction(bs.base)
    res = _solve_conic(_conic_from_restricted(bs, red), config)
    status = _STATUS[res.status]
    if status in _ACROSS_DUALITY:
        sol = _certified(status, bs.sense, res)
    else:
        sol = _restricted_solution(bs, red, status, red.const - res.primal_objective,
                                   [sym(x) for x in res.x_blocks], red.moment_matrices(res.w))
    return _finish(sol, bs, config, res.iterations, res.trace, t0)


# ---------------------------------------------------------------------------
# Replay-verifiable residuals.
# ---------------------------------------------------------------------------


def _pair_residuals(base: SdpProblem, y: np.ndarray, slack_or_lift: List[np.ndarray],
                    x_mats: List[np.ndarray], proj_cone_viol: float) -> KktResiduals:
    c_norm = np.sqrt(sum(float(np.sum(c * c)) for c in base.cost_blocks))
    b = base.rhs
    # Equation sum_j y_j A_j + S = C, per block, aggregated in Frobenius norm.
    slacks = base.dual_slack(y)
    pnum = np.sqrt(
        sum(
            float(np.sum((lift - s) ** 2))
            for lift, s in zip(slack_or_lift, slacks)
        )
    )
    primal = pnum / (1.0 + c_norm)
    dual_eq = np.linalg.norm(base.constraint_values(x_mats) - b) / (1.0 + np.linalg.norm(b))
    dual = max(dual_eq, proj_cone_viol)
    by = float(b @ y)
    cx = base.primal_cost(x_mats)
    gap = abs(by - cx) / (1.0 + abs(by) + abs(cx))
    return KktResiduals(primal=primal, dual=dual, gap=gap)


def kkt_residuals(problem: Union[SdpProblem, BlockSdp], solution: Solution) -> KktResiduals:
    """Pure recomputation of (primal equation, dual/moment side, gap) residuals."""
    if isinstance(problem, SdpProblem):
        y = solution.free_vars
        if problem.sense == "max":
            s_mats = solution.psd_blocks
            x_mats = _mats_from_plain_upper(solution.eq_multipliers, problem)
        else:
            x_mats = solution.psd_blocks
            s_mats = solution.dual_slacks or problem.dual_slack(y)
        viol = _cone_violation([x[None] for x in x_mats])
        return _pair_residuals(problem, y, s_mats, x_mats, viol)

    # A BlockSdp of either kind carries its restricted dual's solution.
    base = problem.base
    lifts = lift_blocks(problem, solution.psd_blocks)
    x_mats = (
        solution.moment_matrices
        or _mats_from_plain_upper(solution.eq_multipliers, base)
    )
    projections = [restrict_congruence(ens.transposed_stack(), x)
                   for ens, x in zip(problem.ensembles, x_mats)]
    viol = _cone_violation(projections)
    return _pair_residuals(base, solution.free_vars, lifts, x_mats, viol)


def _cone_violation(stacks: Sequence[np.ndarray]) -> float:
    """Largest -lambda_min(M) / (1 + |M|), and 0, over the matrices M of (N, r, r) stacks."""
    worst = 0.0
    for s in stacks:
        if s.size:
            lam = np.linalg.eigvalsh(sym(s))[:, 0]
            worst = max(worst, float(np.max(-lam / (1.0 + np.linalg.norm(s, axis=(1, 2))))))
    return worst
