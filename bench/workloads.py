"""The four benchmark workloads.

Each workload sets up once, then runs whole passes over the same inputs,
closed-loop from one client: the next call into the program starts when
the previous one has returned.  A pass is a fixed list of operations, so
counts (failures, iterations, bytes written) repeat exactly for one seed.
Checks run between timed calls and are not part of any timing.

Program entry points are always looked up as module attributes at call time
(``solver.solve``, not a local binding), so the tracing wrappers see them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from sdpsketch import cli, control, experiments, instances, measures, polynomial, sketch, solver

# "Error": the solve raised; the exception is kept in the operation's report.
FAILURE_STATUSES = ("MaxIterations", "NumericalFailure", "Error")


@dataclass
class Op:
    """One timed operation and what the checks made of it."""

    name: str
    seconds: float
    status: str
    iterations: int
    objective: Optional[float]
    problems: List[str] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def kind(self) -> str:
        """The operation without its ensemble seed: "cell r=2", "consensus r=11"."""
        return self.name.split(" seed=")[0]

    @property
    def ok(self) -> bool:
        return self.status not in FAILURE_STATUSES and not self.problems

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "status": self.status,
            "iterations": self.iterations,
            "objective": finite_or_none(self.objective),
            "ok": self.ok,
            "problems": self.problems,
            "error": self.error,
        }


@dataclass
class PassResult:
    ops: List[Op] = field(default_factory=list)
    wall: float = 0.0  # time spent inside the program during this pass
    problems: List[str] = field(default_factory=list)  # run-level check failures
    artifact_bytes: int = 0  # everything the pass wrote
    sweep_bytes: int = 0  # the sweep directory alone
    audit_seconds: float = 0.0
    info: Dict[str, object] = field(default_factory=dict)


class PassContext:
    """Times calls into the program; labels them for the tracer while they run."""

    def __init__(self, result: PassResult, tracer=None, label: Optional[str] = None):
        self.result = result
        self.last_seconds = 0.0
        self._tracer = tracer
        self._label = label
        self._calls = 0

    def timed(self, fn: Callable, *args, **kwargs):
        if self._tracer is not None:
            self._tracer.op_id = f"{self._label}.{self._calls}"
            self._calls += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            self.result.wall += elapsed
            self.last_seconds = elapsed
            if self._tracer is not None:
                self._tracer.op_id = None


def timed_solve(ctx: PassContext, name: str, fn: Callable, *args):
    """One timed solve as an operation; a solve that raises is a failed operation."""
    try:
        sol = ctx.timed(fn, *args)
    except Exception as exc:  # noqa: BLE001 - reported with the operation
        return None, Op(name, ctx.last_seconds, "Error", 0, None,
                        error=f"{type(exc).__name__}: {exc}")
    return sol, Op(name, ctx.last_seconds, sol.status.value, sol.iterations, sol.objective)


def finite_or_none(x: Optional[float]) -> Optional[float]:
    """Strict JSON has no infinities: they are written as null beside a status."""
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def chain_seeds(seed: int, count: int) -> tuple:
    """Ensemble seeds of one run: disjoint blocks of `count` per benchmark seed."""
    return tuple(seed * count + j for j in range(count))


class Workload:
    name = ""
    ops_per_pass = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, ctx: PassContext) -> None:
        raise NotImplementedError

    def finish(self, passes: List[PassResult]) -> List[str]:
        """Checks that need work outside the timed region; returns failures."""
        return []


class PopFull(Workload):
    """Compile, solve the full pair, recover moments, render and write the density."""

    name = "pop-full"
    ops_per_pass = 1
    grid_points = 201
    halfwidth = 2.0
    density_degree = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._grid_verdicts: Dict[str, List[str]] = {}

    def setup(self):
        instances.default_pop_problem()  # the cold compile

    def _pipeline(self, out: Path):
        prob = instances.default_pop_problem()
        sol = solver.solve(prob)
        mv = measures.extract_moments(sol, prob)
        axes = [(-self.halfwidth, self.halfwidth, self.grid_points)] * 2
        grid = measures.density_grid(mv, polynomial.monomial_basis(2, self.density_degree), axes)
        grid.to_csv(out / "density_full.csv")
        grid.to_pgm(out / "density_full.pgm")
        return prob, sol, grid

    def _check_grid(self, grid) -> List[str]:
        # Identical grid bytes get the identical verdict; local_maxima is slow.
        key = hashlib.sha256(grid.values.tobytes()).hexdigest()
        if key not in self._grid_verdicts:
            step = 2.0 * self.halfwidth / (self.grid_points - 1)
            peaks = measures.local_maxima(grid, 4)
            corners = {(a, b) for a in (-1.0, 1.0) for b in (-1.0, 1.0)}
            problems = []
            for peak in peaks:
                near = [c for c in corners
                        if max(abs(peak[0] - c[0]), abs(peak[1] - c[1])) <= step * (1 + 1e-9)]
                if near:
                    corners.discard(near[0])
                else:
                    problems.append(f"density peak {peak} is not within a grid cell of (+-1, +-1)")
            if len(peaks) < 4:
                problems.append(f"only {len(peaks)} density peaks")
            self._grid_verdicts[key] = problems
        return self._grid_verdicts[key]

    def run_pass(self, index, ctx):
        out = self.workdir / f"pass{index}"
        out.mkdir(parents=True, exist_ok=True)
        prob, sol, grid = ctx.timed(self._pipeline, out)
        lam = sol.objective
        op = Op("full pipeline", ctx.last_seconds, sol.status.value, sol.iterations, lam)
        if sol.status.value != "Optimal":
            op.problems.append(f"full solve ended {sol.status.value}")
        elif abs(lam) > 1e-5:
            op.problems.append(f"lambda* = {lam!r}, expected |lambda*| <= 1e-5")
        else:
            kkt = solver.kkt_residuals(prob, sol).max()
            if kkt > 1e-8 * (1.0 + abs(lam)):
                op.problems.append(f"replayed KKT residual {kkt:.3e} > 1e-8 (1 + |lambda*|)")
            op.problems.extend(self._check_grid(grid))
        ctx.result.ops.append(op)
        ctx.result.artifact_bytes = tree_bytes(out)
        shutil.rmtree(out)


class PopSweep(Workload):
    """The nested rank sweep at ranks 3, 11, 25, then a CLI audit of one cell file."""

    name = "pop-sweep"
    ranks = (3, 11, 25)
    seeds_per_pass = 2
    ops_per_pass = len(ranks) * seeds_per_pass

    def setup(self):
        self.seeds = chain_seeds(self.seed, self.seeds_per_pass)
        instances.default_pop_problem()  # the cold compile; the sweep compiles its own

    def run_pass(self, index, ctx):
        out = self.workdir / f"pass{index}"
        cfg = experiments.ExperimentConfig(
            kind="pop", ranks=self.ranks, samples=100, seeds=self.seeds, nested=True,
            jobs=1, mode="ipm", out_dir=str(out),
        )
        res = ctx.timed(experiments.run_rank_sweep, cfg)
        audited = (max(self.ranks), self.seeds[0])
        cell_file = out / "problems" / f"rank{audited[0]:03d}_seed{audited[1]}.json"
        audit_file = out / "audit.json"
        code = ctx.timed(cli.main, ["solve", str(cell_file), "--out", str(audit_file)])
        ctx.result.audit_seconds = ctx.last_seconds

        result = ctx.result
        ref = res.reference
        if ref.status.value != "Optimal" or abs(ref.objective) > 1e-5:
            result.problems.append(
                f"reference ended {ref.status.value} at {ref.objective!r}, "
                "expected Optimal with |lambda*| <= 1e-5")
        with open(res.timing_path) as fh:
            walls = {(row["rank"], row["seed"]): float(row["wall_seconds"])
                     for row in csv.DictReader(fh)}
        for cell in res.cells:
            op = Op(f"cell r={cell.rank} seed={cell.seed}", walls[(str(cell.rank), str(cell.seed))],
                    cell.status, cell.iterations, cell.objective)
            if cell.status not in ("Optimal", "Infeasible"):
                op.problems.append(f"cell ended {cell.status}")
            if cell.objective > ref.objective + 1e-6:
                op.problems.append(
                    f"cell objective {cell.objective!r} exceeds the reference {ref.objective!r}")
            result.ops.append(op)
        medians = [res.median_objective(r) for r in self.ranks]
        if not all(hi >= lo - 1e-6 for lo, hi in zip(medians, medians[1:])):
            result.problems.append(f"nested medians are not nondecreasing: {medians}")

        cell = res.cell(*audited)
        with open(audit_file) as fh:
            audit = json.load(fh)  # the CLI writes Infinity for certificates
        expected_code = {"Optimal": 0, "Infeasible": 2, "Unbounded": 3}.get(cell.status, 4)
        if (code != expected_code or audit["status"] != cell.status
                or float(audit["objective"]) != cell.objective):
            result.problems.append(
                f"audit of {cell_file.name} gave {audit['status']} {audit['objective']!r} "
                f"(exit {code}), the sweep gave {cell.status} {cell.objective!r}")

        with open(res.table_path, "rb") as fh:
            result.info["sweep_csv_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        result.artifact_bytes = tree_bytes(out)
        result.sweep_bytes = result.artifact_bytes - audit_file.stat().st_size
        shutil.rmtree(out)

    def finish(self, passes):
        digests = {p.info["sweep_csv_sha256"] for p in passes if "sweep_csv_sha256" in p.info}
        if len(digests) > 1:
            return [f"sweep.csv differs between passes of one seed: {sorted(digests)}"]
        return []


class PopConsensus(Workload):
    """The sweep's nested cells at r = 11 and 25 through the consensus solver."""

    name = "pop-consensus"
    ranks = (11, 25)
    # Timed solves use one worker: on two shared cores the two-worker pool's
    # wall time swings by half between runs.  The pool is measured in the
    # traced run (consensus.worker_speedup).
    workers = 1
    pool_workers = 2
    ops_per_pass = len(ranks)

    def setup(self):
        self.base = instances.default_pop_problem()
        chain = sketch.ensembles_for_problem(self.base, 3, 100, self.seed)
        self.chains = {}
        for r in self.ranks:
            chain = sketch.extend_ensembles(chain, r)
            self.chains[r] = chain

    def config(self, workers: int):
        return solver.SolverConfig(workers=workers, admm_tolerance=1e-5)

    def cell(self, r: int):
        # A fresh BlockSdp per solve, so no pass reuses another's cached reduction.
        return sketch.restrict_dual(self.base, self.chains[r])

    def run_pass(self, index, ctx):
        for r in self.ranks:
            _, op = timed_solve(ctx, f"consensus r={r} seed={self.seed}",
                                solver.solve_consensus, self.cell(r), self.config(self.workers))
            ctx.result.ops.append(op)

    def finish(self, passes):
        problems = []
        for r in self.ranks:
            optimal = [op for p in passes for op in p.ops
                       if op.kind == f"consensus r={r}" and op.status == "Optimal"]
            if not optimal:
                continue  # only an Optimal consensus value has an IPM value to match
            ipm = solver.solve(self.cell(r))
            if ipm.status.value != "Optimal":
                problems.append(f"IPM reference for r={r} ended {ipm.status.value}")
                continue
            for op in optimal:
                gap = abs(op.objective - ipm.objective)
                if gap > 1e-4 * (1.0 + abs(ipm.objective)):
                    op.problems.append(f"consensus {op.objective!r} vs IPM {ipm.objective!r}")
        return problems

    def worker_speedup(self, one_worker_seconds: float) -> float:
        """Single-worker wall of the r=11 solve over the two-worker wall."""
        t0 = time.perf_counter()
        solver.solve_consensus(self.cell(self.ranks[0]), self.config(self.pool_workers))
        return one_worker_seconds / (time.perf_counter() - t0)


class PocSweep(Workload):
    """The A4 loop: restricted solves of the control program at every rank."""

    name = "poc-sweep"
    samples = 100
    seeds_per_pass = 6

    def setup(self):
        self.problem = control.compile_poc(instances.default_poc_problem())
        self.ranks = tuple(range(1, max(self.problem.block_dims) + 1))
        self.seeds = chain_seeds(self.seed, self.seeds_per_pass)
        self.ops_per_pass = len(self.ranks) * len(self.seeds)

    def run_pass(self, index, ctx):
        result = ctx.result
        full = ctx.timed(solver.solve, self.problem)
        if full.status.value != "Optimal" or abs(full.objective - 1.0) > 1e-5:
            result.problems.append(
                f"full POC ended {full.status.value} at {full.objective!r}, expected 1 within 1e-5")
        for seed in self.seeds:
            for r in self.ranks:
                ens = ctx.timed(sketch.ensembles_for_problem, self.problem, r, self.samples, seed)
                sol, op = timed_solve(ctx, f"cell r={r} seed={seed}",
                                      solver.solve, sketch.restrict_dual(self.problem, ens))
                result.ops.append(op)
                if sol is None:
                    continue
                if math.isfinite(sol.objective) and sol.objective > 1.0 + 1e-6:
                    op.problems.append(f"restricted value {sol.objective!r} exceeds 1 + 1e-6")
                if r == self.ranks[-1] and not sol.objective >= 0.999:
                    op.problems.append(f"value at r = n is {sol.objective!r}, expected >= 0.999")


WORKLOADS = {w.name: w for w in (PopFull, PopSweep, PopConsensus, PocSweep)}
