"""User-facing solve interface over the interior-point core.

solve() accepts an SdpProblem (the canonical pair) or a BlockSdp (restricted
dual / projected primal) and returns a Solution whose fields always mean:

  free_vars        y of the pair;  moment_matrices  its moment-side X,
  psd_blocks       S (a BlockSdp's per-sample S_i) in the max sense, else X,
  eq_multipliers   y in the min sense, else X's upper triangle (row-major),
  dual_slacks      S, for a pair only.

One rule reads every interior-point result.  A layout's conic program (see
conic) has as its primal one side of the problem's pair: the min side in the
pair form, the max side (gap_flip set) in a restricted dual.  If the
problem's sense is the other side, Infeasible and Unbounded swap and the
objective is the conic dual's, not the primal's; ConicProgram.user_objective
maps it to the problem's scale.  An Infeasible or Unbounded problem has the
infinite objective of its sense and a certificate: a pair's own ray in
either form, {"w": y, "z_blocks": Z} with b'y > 0 and sum_j y_j A_j + Z = 0,
or {"x_blocks": X} with A(X) = 0 and <C, X> < 0 (Z, X PSD); a BlockSdp's
restricted dual's ray, per sample, with w in complement-basis coordinates.

The pair is solved in whichever form has fewer Schur rows (Lofberg 2009,
"Dualize it").  With m constraints on blocks of total svec dimension d, the
pair form has m rows; the reduced form, the pair's restricted dual over one
identity ensemble per block (N = 1, U = I), which eliminates y, has d - m.
So a pair with 2m > d is solved reduced, unless A has rank below m: then b
may lie outside A's range, and the elimination would solve a least-squares
problem, so the pair form solves it.

The projected primal is the conic dual of the restricted dual, so it is
solved, in either mode, as that restricted dual, whose Solution it reports
with the status read on the min side.  One function builds every Solution
not certified Infeasible or Unbounded, for both solvers.  Block groups are
(N, r, r) arrays inside the IPM (see conic) and are unstacked once, so a
Solution's block lists hold one matrix per sample or block.

Every layout reads the base problem's one svec constraint matrix a_svec:
the pair form as DenseRows row segments, each restricted dual through the
problem's elimination data (SdpProblem.reduction, shared with the consensus
solver), and the KKT replay through dual_slack and constraint_values.

A solve holds BLAS at one thread from its layout build to its KKT replay,
and the reduction builds itself at one thread wherever it is first touched,
so a solve's output depends only on its input: not on the caller's thread
count, nor on what built the reduction first.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from numbers import Real
from typing import List, Optional, Sequence, Union

import numpy as np

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
from .sketch import BlockSdp, SubspaceEnsemble, lift_blocks, restrict_dual
from .sos import SdpProblem


class Status(Enum):
    Optimal = "Optimal"
    Infeasible = "Infeasible"
    Unbounded = "Unbounded"
    MaxIterations = "MaxIterations"
    NumericalFailure = "NumericalFailure"


MODES = ("interior_point", "ipm", "consensus")  # the first two name the same solver


def check_mode(mode) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {', '.join(map(repr, MODES))}, got {mode!r}")


def check_positive(name: str, value) -> None:
    if not (isinstance(value, Real) and 0 < value < math.inf):
        raise ValueError(f"{name} must be a finite number above 0, got {value!r}")


@dataclass
class SolverConfig:
    tolerance: float = 1e-8
    max_iterations: int = 200
    mode: str = "interior_point"  # see MODES
    trace_path: Optional[str] = None
    keep_trace: bool = False
    # consensus-mode knobs
    rho: float = 1.0
    workers: int = 1  # CPUs the consensus solve uses; the result does not depend on it
    admm_max_iterations: int = 20000
    admm_tolerance: float = 1e-7

    def __post_init__(self):
        check_mode(self.mode)
        check_positive("tolerance", self.tolerance)
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")


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
        block_costs=[sym(c)[None] for c in problem.cost_blocks],
        gap_offset=problem.obj_offset,
    )


def _conic_from_restricted(bs: BlockSdp) -> ConicProgram:
    red = bs.base.reduction
    ops = ProjectedRows(
        base_dims=bs.base.block_dims,
        ut_stacks=[ens.ut for ens in bs.ensembles],
        row_segments=red.row_segments,
    )
    costs = [sym(restrict_congruence(ut, w))
             for ut, w in zip(ops.ut_stacks, bs.base.unpack(red.w_obj))]
    return ConicProgram(ops=ops, rhs=red.rhs, block_costs=costs,
                        gap_offset=red.const, gap_flip=True)


def _reduced_form(problem: SdpProblem) -> Optional[BlockSdp]:
    """The pair as its restricted dual over identity ensembles (N = 1, U = I),
    when that has fewer Schur rows, sum svec(n_b) - m, than the pair's m, and
    its elimination of y is exact; otherwise None.

    A rank-deficient A is left to the pair form: with b outside its range the
    elimination would solve a least-squares problem instead.
    """
    dim, m = problem.a_svec.shape
    if 2 * m <= dim or problem.reduction.rank < m:
        return None
    # Built in place, never serialized: a recipe would regenerate a random U.
    return restrict_dual(problem, [
        SubspaceEnsemble(n=n, r=n, N=1, seed=0, orthonormal=True, matrices=(np.eye(n),))
        for n in problem.block_dims])


# ---------------------------------------------------------------------------
# From a solver's result to a Solution.
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


def _read_status(status: Status, sense: str, solved_sense: str) -> Status:
    """A status of the `solved_sense` side of a pair, as its `sense` side reads it."""
    return status if sense == solved_sense else _ACROSS_DUALITY.get(status, status)


def _solution(problem, status: Status, objective: float, y: np.ndarray,
              moments: List[np.ndarray], slacks: List[np.ndarray]) -> Solution:
    """The fields of a solve that is not certified Infeasible or Unbounded,
    from y, the moment matrices X and the slack blocks S (per sample for a
    BlockSdp), in the problem's sense; see the module docstring."""
    max_sense = problem.sense == "max"
    return Solution(
        status=status,
        objective=objective,
        psd_blocks=slacks if max_sense else moments,
        free_vars=y,
        eq_multipliers=_plain_upper(moments) if max_sense else y.copy(),
        moment_matrices=moments,
        dual_slacks=slacks if isinstance(problem, SdpProblem) else [],
    )


def _certified(status: Status, problem, res: ConicResult, solved_sense: str) -> Solution:
    """Infeasible or Unbounded: the infinite objective of the problem's sense
    and the certificate, for a pair in the pair form's keys."""
    worst = np.inf if (status == Status.Infeasible) == (problem.sense == "min") else -np.inf
    cert = {k: v if k == "w" else _unstack(v) for k, v in res.certificate.items()}
    if isinstance(problem, SdpProblem) and solved_sense == "max":  # the reduced form
        if "x_blocks" in cert:
            # perp' svec(S) = 0 puts S in A's range: S = -sum_j y_j A_j.
            s_mats = cert["x_blocks"]
            y = -problem.reduction.solve_gram(problem.a_svec.T @ problem.pack(s_mats))
            cert = {"w": y, "z_blocks": s_mats}
        else:
            # Z = -smat(perp w) has A(Z) = 0 and <C, Z> = -g'w < 0.
            cert = {"x_blocks": cert["z_blocks"]}
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


# ---------------------------------------------------------------------------
# The public solve.
# ---------------------------------------------------------------------------


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
    """impl(problem, config) at one BLAS thread (see the module docstring),
    with the projected primal solved as its conic dual.  One thread is also
    faster: an iteration is many small matrix calls, and the default POP
    pair took 1.1 s at two threads and 0.5 s at one on a 2-core host."""
    with limit_blas_threads(1):
        if isinstance(problem, BlockSdp) and problem.kind == "projected_primal":
            sol = impl(restrict_dual(problem.base, problem.ensembles), config)
            sol.status = _read_status(sol.status, problem.sense, "max")
            return sol
        return impl(problem, config)


def _solve_ipm(problem: Union[SdpProblem, BlockSdp], config: SolverConfig) -> Solution:
    """The pair in its pair or reduced form, or a restricted dual, by the IPM."""
    t0 = time.perf_counter()
    if isinstance(problem, BlockSdp):
        bs = problem
    elif isinstance(problem, SdpProblem):
        bs = _reduced_form(problem)
    else:
        raise TypeError(f"cannot solve object of type {type(problem)!r}")
    prog = _conic_from_pair(problem) if bs is None else _conic_from_restricted(bs)
    res = solve_conic(prog, config.tolerance, config.max_iterations,
                      config.keep_trace or config.trace_path is not None)
    # The conic primal holds the max side of the problem's pair exactly when gap_flip is set.
    solved_sense = "max" if prog.gap_flip else "min"
    status = _read_status(_STATUS[res.status], problem.sense, solved_sense)
    if status in _ACROSS_DUALITY:
        sol = _certified(status, problem, res, solved_sense)
    else:
        value = res.primal_objective if problem.sense == solved_sense else res.dual_objective
        if bs is None:
            y, moments, slacks = res.w, _unstack(res.x_blocks), _unstack(res.z_blocks)
        else:
            red = bs.base.reduction
            slacks = _unstack(res.x_blocks)
            y, moments = red.recover_y(lift_blocks(bs, slacks)), red.moment_matrices(res.w)
        sol = _solution(problem, status, prog.user_objective(value), y, moments, slacks)
    return _finish(sol, problem, config, res.iterations, res.trace, t0)


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
    projections = [restrict_congruence(ens.ut, x)
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
