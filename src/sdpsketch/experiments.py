"""Experiment runners: rank sweeps and per-rank density grids.

A sweep cell is one (rank, seed) restricted solve.  The sweep table CSV is
byte-deterministic for identical configs and seeds: the wall-time column
lives in a separate timing CSV, and every cell's problem is serialized next
to the table so each row can be re-derived with the solve command.  The base
problem is written once, as problems/base.json (54 KB for the default POP,
whose sparse matching system it stores); each cell file holds only its
ensemble recipes and a reference to that file, "base_ref": "base.json"
(resolved relative to the cell file), with the sha256 of its bytes.

The cells of an IPM sweep are the tasks of one `_team.Team` of up to `jobs`
processes.  Every solve, and the reduction its cells share, runs at one BLAS
thread, so the files depend neither on `jobs` nor on the caller's BLAS
thread count.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ._team import Arena, Team
from .control import ControlProblem, compile_poc
from .instances import (
    DEFAULT_SAMPLES,
    POP_BALL_RADIUS,
    POP_BASIS_DEGREE,
    POP_MULTIPLIER_DEGREE,
    POP_SWEEP_RANKS,
    default_poc_problem,
)
from .measures import MomentRecoveryError, density_grid, extract_moments
from .polynomial import Polynomial, monomial_basis
from .sketch import BlockSdp, ensembles_for_problem, extend_ensembles, load_problem, restrict_dual
from .solver import SolverConfig, Solution, Status, check_mode, check_positive, solve
from .sos import SdpProblem, _is_int, compile_pop

KINDS = ("pop", "poc", "raw-sdp")


@dataclass
class ExperimentConfig:
    kind: str = "pop"  # see KINDS
    ranks: Tuple[int, ...] = POP_SWEEP_RANKS
    samples: int = DEFAULT_SAMPLES
    seeds: Tuple[int, ...] = (0, 1, 2, 3, 4)
    nested: bool = False
    orthonormal: bool = True
    jobs: int = 1
    tolerance: float = 1e-8
    mode: str = "interior_point"
    out_dir: str = "runs"
    problem_path: Optional[str] = None
    basis_degree: int = POP_BASIS_DEGREE
    ball_radius: Optional[float] = POP_BALL_RADIUS
    multiplier_degree: int = POP_MULTIPLIER_DEGREE
    density_degree: int = 3
    grid_points: int = 201
    grid_halfwidth: float = 2.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {', '.join(map(repr, KINDS))}, "
                             f"got {self.kind!r}")
        if not (self.problem_path is None or isinstance(self.problem_path, str)):
            raise ValueError(f"problem_path must be a file name or null, "
                             f"got {self.problem_path!r}")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a directory name, got {self.out_dir!r}")
        for name in ("ranks", "seeds"):
            values = getattr(self, name)
            if not (isinstance(values, (list, tuple)) and all(map(_is_int, values))):
                raise ValueError(f"{name} must be a list of integers, got {values!r}")
            setattr(self, name, tuple(values))
        for name in ("samples", "jobs", "basis_degree", "multiplier_degree", "density_degree",
                     "grid_points"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("nested", "orthonormal"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if not self.ranks or min(self.ranks) < 1:
            raise ValueError(f"ranks must be at least 1, got {list(self.ranks)}")
        for name in ("samples", "jobs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError(f"seeds must be one or more values of at least 0, "
                             f"got {list(self.seeds)}")
        check_mode(self.mode)
        check_positive("tolerance", self.tolerance)
        check_positive("grid_halfwidth", self.grid_halfwidth)
        if self.ball_radius is not None:  # None drops the ball
            check_positive("ball_radius", self.ball_radius)

    def solver_config(self) -> SolverConfig:
        """The IPM, or consensus with `jobs` as its worker count."""
        if self.mode != "consensus":
            return SolverConfig(tolerance=self.tolerance)
        return SolverConfig(tolerance=self.tolerance, mode="consensus", workers=self.jobs)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "ranks": list(self.ranks), "seeds": list(self.seeds)}

    @staticmethod
    def from_json_dict(data: dict) -> "ExperimentConfig":
        merged = ExperimentConfig().to_json_dict()
        for k, v in data.items():
            if k not in merged:
                raise ValueError(f"unknown experiment config key {k!r}")
            if v is not None or k in ("ball_radius", "problem_path"):
                merged[k] = v
        return ExperimentConfig(**merged)


def build_base_problem(cfg: ExperimentConfig):
    """Returns (SdpProblem, extras) where extras carries front-end objects.

    A raw-sdp problem file is read by load_problem, so whatever is wrong
    with it raises OSError, json.JSONDecodeError or a ValueError naming it.
    """
    if cfg.kind == "pop":
        if cfg.problem_path:
            with open(cfg.problem_path) as fh:
                poly = Polynomial.from_json_dict(json.load(fh))
        else:
            from .instances import four_double_zero_polynomial

            poly = four_double_zero_polynomial()
        basis = monomial_basis(poly.num_vars, cfg.basis_degree)
        mult = (
            monomial_basis(poly.num_vars, cfg.multiplier_degree)
            if cfg.ball_radius is not None
            else None
        )
        prob = compile_pop(poly, basis, ball_radius=cfg.ball_radius, multiplier_basis=mult)
        return prob, {"polynomial": poly}
    if cfg.kind == "poc":
        if cfg.problem_path:
            with open(cfg.problem_path) as fh:
                cp = ControlProblem.from_json_dict(json.load(fh))
        else:
            cp = default_poc_problem()
        return compile_poc(cp), {"control": cp}
    if cfg.kind == "raw-sdp":
        if not cfg.problem_path:
            raise ValueError("raw-sdp experiments need a problem file")
        prob = load_problem(cfg.problem_path)
        if not isinstance(prob, SdpProblem):
            raise ValueError(f"{cfg.problem_path} holds a block_sdp document; raw-sdp "
                             "experiments need an sdp_problem")
        return prob, {}
    raise ValueError(f"unknown experiment kind {cfg.kind!r}")


@dataclass
class SweepCell:
    rank: int
    seed: int
    status: str
    objective: float
    wall_seconds: float
    iterations: int


@dataclass
class SweepResult:
    cells: List[SweepCell]
    reference: Solution
    table_path: Optional[str] = None
    timing_path: Optional[str] = None

    def cell(self, rank: int, seed: int) -> SweepCell:
        for c in self.cells:
            if c.rank == rank and c.seed == seed:
                return c
        raise KeyError((rank, seed))

    def objectives(self, rank: int) -> List[float]:
        return [c.objective for c in self.cells if c.rank == rank]

    def median_objective(self, rank: int) -> float:
        return float(np.median(self.objectives(rank)))


def _build_cells(base: SdpProblem, cfg: ExperimentConfig) -> List[Tuple[int, int, BlockSdp]]:
    cells = []
    ranks = sorted(cfg.ranks)
    for seed in cfg.seeds:
        if cfg.nested:
            chain = ensembles_for_problem(base, ranks[0], cfg.samples, seed, cfg.orthonormal)
            cells.append((ranks[0], seed, restrict_dual(base, chain)))
            for r in ranks[1:]:
                chain = extend_ensembles(chain, r)
                cells.append((r, seed, restrict_dual(base, chain)))
        else:
            for r in ranks:
                ens = ensembles_for_problem(base, r, cfg.samples, seed, cfg.orthonormal)
                cells.append((r, seed, restrict_dual(base, ens)))
    cells.sort(key=lambda t: (t[0], t[1]))
    return cells


def run_rank_sweep(cfg: ExperimentConfig, write: bool = True,
                   built: Optional[Tuple[SdpProblem, dict]] = None) -> SweepResult:
    """The sweep of `cfg`; `built` is build_base_problem(cfg), if the caller has it."""
    base, _ = built or build_base_problem(cfg)
    solver_cfg = cfg.solver_config()

    t0 = time.perf_counter()
    reference = solve(base, SolverConfig(tolerance=cfg.tolerance))
    ref_seconds = time.perf_counter() - t0

    cells = _build_cells(base, cfg)
    ipm = solver_cfg.mode != "consensus"
    if ipm:  # built before the team forks: its helpers share one reduction, not one each
        base.reduction.row_segments
    statuses = list(Status)
    rows = Arena([(len(cells), 4)]).arrays[0]  # status, objective, iterations, wall

    def run_cell(k: int):
        t = time.perf_counter()
        sol = solve(cells[k][2], solver_cfg)
        rows[k] = statuses.index(sol.status), sol.objective, sol.iterations, time.perf_counter() - t

    # Consensus spends `jobs` on each solve's worker pool, so its cells run in the caller.
    tasks = [partial(run_cell, k) for k in range(len(cells))]
    team = Team(cfg.jobs if ipm else 1, lambda command: tasks)
    try:
        team.run(0)
    finally:
        team.join()
    results = [SweepCell(rank, seed, statuses[int(st)].value, float(obj), float(wall), int(it))
               for (rank, seed, _), (st, obj, it, wall) in zip(cells, rows)]

    out = SweepResult(cells=results, reference=reference)
    if write:
        out_dir = Path(cfg.out_dir)
        problems = out_dir / "problems"
        problems.mkdir(parents=True, exist_ok=True)
        raw = json.dumps(base.to_json_dict()).encode()
        (problems / "base.json").write_bytes(raw)
        digest = hashlib.sha256(raw).hexdigest()
        for rank, seed, bs in cells:
            with open(problems / f"rank{rank:03d}_seed{seed}.json", "w") as fh:
                json.dump(bs.to_json_dict(base_ref="base.json", base_sha256=digest), fh)
        out.table_path = str(out_dir / "sweep.csv")
        out.timing_path = str(out_dir / "sweep_timing.csv")
        _write_sweep_csv(out, cfg, base, out.table_path)
        _write_timing_csv(out, ref_seconds, out.timing_path)
        with open(out_dir / "config.json", "w") as fh:
            json.dump(cfg.to_json_dict(), fh, indent=2)
    return out


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_sweep_csv(res: SweepResult, cfg: ExperimentConfig, base: SdpProblem, path: str):
    lines = ["rank,cone_size,objective_median,objective_min,objective_max,status_counts"]
    full_cone = ";".join(str(n * (n + 1) // 2) for n in base.block_dims)
    ref = res.reference
    lines.append(
        f"full,{full_cone},{_fmt(ref.objective)},{_fmt(ref.objective)},"
        f"{_fmt(ref.objective)},{ref.status.value}:1"
    )
    for rank in sorted(set(c.rank for c in res.cells)):
        objs = np.array(res.objectives(rank))
        counts: Dict[str, int] = {}
        for c in res.cells:
            if c.rank == rank:
                counts[c.status] = counts.get(c.status, 0) + 1
        status = ";".join(f"{k}:{v}" for k, v in sorted(counts.items()))
        lines.append(
            f"{rank},{rank * (rank + 1) // 2},{_fmt(np.median(objs))},"
            f"{_fmt(objs.min())},{_fmt(objs.max())},{status}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_timing_csv(res: SweepResult, ref_seconds: float, path: str):
    lines = ["rank,seed,wall_seconds,iterations"]
    lines.append(f"full,-,{ref_seconds:.6f},{res.reference.iterations}")
    for c in res.cells:
        lines.append(f"{c.rank},{c.seed},{c.wall_seconds:.6f},{c.iterations}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_density(cfg: ExperimentConfig, write: bool = True,
                built: Optional[Tuple[SdpProblem, dict]] = None) -> Dict[str, object]:
    """Per-rank dual density grids (first seed), plus the full-solve grid;
    `built` is build_base_problem(cfg), if the caller has it."""
    base, extras = built or build_base_problem(cfg)
    out_dir = Path(cfg.out_dir)
    if write:
        out_dir.mkdir(parents=True, exist_ok=True)
    solver_cfg = cfg.solver_config()
    seed = cfg.seeds[0]
    results: Dict[str, object] = {"grids": {}, "skipped": {}}

    def grid_for(solution, problem, tag: str):
        mv = extract_moments(solution, problem)
        if cfg.kind == "poc":
            cp = extras["control"]
            mv = mv.marginal(list(range(cp.num_states)))
            dims = mv.basis.num_vars
            deg = min(cfg.density_degree, mv.basis.max_degree // 2 or 1)
        else:
            dims = base.moment_meta.basis.num_vars
            deg = min(cfg.density_degree, base.moment_meta.basis.max_degree)
        axes = [(-cfg.grid_halfwidth, cfg.grid_halfwidth, cfg.grid_points)] * dims
        g = None
        # low-rank duals can be too indefinite at high degree; step down
        while deg >= 1:
            try:
                g = density_grid(mv, monomial_basis(dims, deg), axes)
                break
            except MomentRecoveryError:
                deg -= 1
        if g is None:
            raise MomentRecoveryError("moment matrix indefinite at every degree")
        results["grids"][tag] = g
        if write:
            g.to_csv(out_dir / f"density_{tag}.csv")
            if dims == 2:
                g.to_pgm(out_dir / f"density_{tag}.pgm")
        return g

    full_sol = solve(base, SolverConfig(tolerance=cfg.tolerance))
    if full_sol.status == Status.Optimal:
        grid_for(full_sol, base, "full")

    for rank in cfg.ranks:
        ens = ensembles_for_problem(base, rank, cfg.samples, seed, cfg.orthonormal)
        bs = restrict_dual(base, ens)
        sol = solve(bs, solver_cfg)
        tag = f"rank{rank:03d}"
        if sol.status != Status.Optimal:
            results["skipped"][tag] = sol.status.value
            if write:
                with open(out_dir / f"density_{tag}.SKIPPED.txt", "w") as fh:
                    fh.write(f"{sol.status.value}: no dual density at rank {rank}\n")
            continue
        try:
            grid_for(sol, bs, tag)
        except MomentRecoveryError as exc:
            results["skipped"][tag] = str(exc)
            if write:
                with open(out_dir / f"density_{tag}.SKIPPED.txt", "w") as fh:
                    fh.write(f"recovery failure: {exc}\n")
    return results
