"""Command-line front end: sweep, density, solve, selftest."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .experiments import ExperimentConfig, build_base_problem, run_density, run_rank_sweep
from .sketch import BlockSdp, load_problem, restrict_dual, sample_ensemble
from .solver import SolverConfig, Status, solve
from .sos import SdpProblem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_FAILURE = 4

_STATUS_EXIT = {
    Status.Optimal: EXIT_OK,
    Status.Infeasible: EXIT_INFEASIBLE,
    Status.Unbounded: EXIT_UNBOUNDED,
    Status.MaxIterations: EXIT_FAILURE,
    Status.NumericalFailure: EXIT_FAILURE,
}


def _int_list(text: str):
    return tuple(int(t) for t in text.split(",") if t)


def _add_experiment_flags(p: argparse.ArgumentParser):
    p.add_argument("--kind", choices=["pop", "poc", "raw-sdp"], default=None)
    p.add_argument("--problem", dest="problem_path", default=None,
                   help="problem source file (polynomial / control / SDP JSON)")
    p.add_argument("--ranks", type=_int_list, default=None)
    p.add_argument("--samples", type=int, default=None, help="subspaces per rank (N)")
    p.add_argument("--seeds", type=_int_list, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--tol", dest="tolerance", type=float, default=None)
    p.add_argument("--mode", choices=["ipm", "consensus"], default=None)
    p.add_argument("--nested", action="store_true", default=None,
                   help="extend one ensemble chain per seed instead of resampling")
    p.add_argument("--raw-gaussian", dest="orthonormal", action="store_false", default=None)
    p.add_argument("--basis-degree", dest="basis_degree", type=int, default=None)
    p.add_argument("--ball-radius", dest="ball_radius", type=float, default=None)
    p.add_argument("--no-ball", action="store_true", default=False)
    p.add_argument("--multiplier-degree", dest="multiplier_degree", type=int, default=None)
    p.add_argument("--out", dest="out_dir", default=None)
    p.add_argument("--config", default=None, help="JSON config file; flags override it")


def _config_from_args(args) -> ExperimentConfig:
    data = _read(args.config) if args.config else {}
    try:
        merged = ExperimentConfig.from_json_dict(data).to_json_dict()
        for f in fields(ExperimentConfig):
            val = getattr(args, f.name, None)
            if val is not None:
                merged[f.name] = val
        if getattr(args, "no_ball", False):
            merged["ball_radius"] = None
        return ExperimentConfig.from_json_dict(merged)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None


def _built(cfg: ExperimentConfig):
    """The experiment's base problem, with a problem file that cannot be
    read reported as one error line."""
    return _read(cfg.problem_path, lambda _: build_base_problem(cfg))


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    res = run_rank_sweep(cfg, built=_built(cfg))
    print(f"wrote {res.table_path} and {res.timing_path}")
    ref = res.reference
    print(f"full reference: {ref.status.value} objective {ref.objective!r}")
    for rank in sorted(set(c.rank for c in res.cells)):
        med = res.median_objective(rank)
        print(f"rank {rank:3d}  cone {rank * (rank + 1) // 2:4d}  median {med!r}")
    return EXIT_OK


def _cmd_density(args) -> int:
    cfg = _config_from_args(args)
    res = run_density(cfg, built=_built(cfg))
    for tag in sorted(res["grids"]):
        print(f"grid {tag}: written")
    for tag, why in sorted(res["skipped"].items()):
        print(f"grid {tag}: skipped ({why})")
    return EXIT_OK


def _json_file(path: str):
    with open(path) as fh:
        return json.load(fh)


def _read(path: str, load=_json_file):
    """load(path), with whatever is wrong with the file (or a file it
    references) reported as one error line."""
    try:
        return load(path)
    except OSError as exc:
        raise SystemExit(f"error: cannot read {exc.filename or path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"error: {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}"
        ) from None
    except UnicodeDecodeError as exc:  # not text
        raise SystemExit(f"error: cannot read {path}: {exc}") from None
    except ValueError as exc:  # the loader's message names the file
        raise SystemExit(f"error: {exc}") from None


def _cmd_solve(args) -> int:
    for path in (args.out, args.trace):  # refused before the solve, not after it
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise SystemExit(f"error: cannot write {path}: no directory "
                             f"{os.path.dirname(path)}")
    problem = _read(args.problem_file, load_problem)
    if args.mode == "consensus" and not isinstance(problem, BlockSdp):
        raise SystemExit(
            f"error: {args.problem_file} holds an sdp_problem; consensus mode solves "
            "block_sdp documents (restricted dual or projected primal)"
        )
    try:
        cfg = SolverConfig(
            tolerance=args.tolerance if args.tolerance is not None else 1e-8,
            mode="consensus" if args.mode == "consensus" else "interior_point",
            trace_path=args.trace,
            workers=args.jobs if args.jobs is not None else 1,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    sol = solve(problem, cfg)
    payload = sol.to_json_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
    else:
        json.dump(payload, sys.stdout, indent=2)
        print()
    print(f"status: {sol.status.value}  objective: {sol.objective!r}", file=sys.stderr)
    return _STATUS_EXIT[sol.status]


def _cmd_selftest(args) -> int:
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1

    a1 = np.zeros((2, 2))
    a1[0, 0] = 1.0
    prob = SdpProblem(block_dims=(2,), cost_blocks=(np.eye(2),),
                      constraints=[((a1,), 1.0)], sense="min")
    sol = solve(prob)
    check("2x2 trace problem solves to 1", sol.status == Status.Optimal
          and abs(sol.objective - 1.0) < 1e-6)
    check("kkt residuals replay below tolerance",
          sol.kkt is not None and sol.kkt.max() <= 1e-8 * (1 + abs(sol.objective)))

    from .polynomial import monomial_basis, parse_polynomial
    from .sos import compile_pop

    pop = compile_pop(parse_polynomial("x1^2 - 2*x1 + 2", 1), monomial_basis(1, 1))
    sol2 = solve(pop)
    check("pop lower bound equals 1", abs(sol2.objective - 1.0) < 1e-6)

    ens = sample_ensemble(2, 2, 1, seed=0)
    sol3 = solve(restrict_dual(pop, [ens]))
    check("full-rank restriction matches", abs(sol3.objective - sol2.objective) < 1e-6)

    e1 = sample_ensemble(6, 3, 4, seed=11)
    e2 = sample_ensemble(6, 3, 4, seed=11)
    check("ensembles are seed-deterministic",
          np.array_equal(e1.ut, e2.ut))
    print("selftest:", "ok" if failures == 0 else f"{failures} failure(s)")
    return EXIT_OK if failures == 0 else EXIT_FAILURE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sdpsketch",
        description="Reduce semidefinite programs by projecting the PSD cone "
                    "onto random subspaces; run rank sweeps, density grids, "
                    "and one-off solves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="rank sweep table over seeds")
    _add_experiment_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_density = sub.add_parser("density", help="per-rank dual density grids")
    _add_experiment_flags(p_density)
    p_density.set_defaults(func=_cmd_density)

    p_solve = sub.add_parser("solve", help="solve a serialized problem file")
    p_solve.add_argument("problem_file")
    p_solve.add_argument("--out", default=None, help="write the solution JSON here")
    p_solve.add_argument("--trace", default=None, help="write iteration trace CSV here")
    p_solve.add_argument("--tol", dest="tolerance", type=float, default=None)
    p_solve.add_argument("--mode", choices=["ipm", "consensus"], default="ipm")
    p_solve.add_argument("--jobs", type=int, default=None)
    p_solve.set_defaults(func=_cmd_solve)

    p_self = sub.add_parser("selftest", help="run a quick built-in check battery")
    p_self.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
