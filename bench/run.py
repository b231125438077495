"""sdpsketch benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload pop-sweep --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
metrics from a separate traced run.  The line before it is a strict-JSON
report with the host, every operation, its status and iteration count.
Temporary files go under ``.bench_work/`` in the checkout and are removed.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# One BLAS thread: on a host of a few shared cores, BLAS threads that spin
# beside the program's own measure the scheduler, not the program.  Set
# before numpy is first imported; the set-up child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
SETUP_SAMPLES = 3  # setup_s is the median of this many cold set-ups, this process included
STATUSES = ("Optimal", "Infeasible", "Unbounded", "MaxIterations", "NumericalFailure")


def process_age() -> float:
    """Seconds since this process started, interpreter start-up included."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def blas_info() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    info["threads"] = int(fn())
                    return info
    return info


def host_info(load_at_start: float) -> dict:
    import numpy as np
    import scipy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "load_avg_1min_at_start": load_at_start,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for setup_s samples)")
    return p.parse_args(argv)


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def run_passes(workload, seconds, tracer=None, label_prefix=None):
    """Whole passes, closed loop, until another pass would overrun `seconds`."""
    from workloads import PassContext, PassResult

    passes = []
    failures = []
    t0 = time.perf_counter()
    while True:
        result = PassResult()
        label = None if label_prefix is None else f"{label_prefix}{len(passes)}"
        try:
            workload.run_pass(len(passes), PassContext(result, tracer, label))
        except Exception:  # noqa: BLE001 - a raising pass is a failed pass, reported
            failures.append(traceback.format_exc())
            passes.append(result)
            break
        passes.append(result)
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(passes) > seconds:
            break
    return passes, failures


def summarize(workload, passes, failures, finish_problems):
    ops = [op for p in passes for op in p.ops]
    attempted = max(len(ops), len(passes) * workload.ops_per_pass)
    ok_ops = sum(op.ok for op in ops)
    problems = list(finish_problems) + [q for p in passes for q in p.problems]
    problems += [f"{op.name}: {q}" for op in ops for q in op.problems]
    problems += failures
    return ops, attempted, ok_ops, problems


def report_line(args, host, passes, ops, problems, extra) -> dict:
    return {
        "report": "sdpsketch-bench",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "passes": len(passes),
        "ops": [op.to_json_dict() for op in ops],
        "iterations": [op.iterations for op in passes[0].ops] if passes else [],
        "problems": problems,
        "pass_info": [p.info for p in passes],
        **extra,
    }


def untraced_run(args, workload, setup_s):
    setup_samples = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
    passes, failures = run_passes(workload, args.seconds)
    finish_problems = workload.finish(passes)
    ops, attempted, ok_ops, problems = summarize(workload, passes, failures, finish_problems)
    wall = sum(p.wall for p in passes)
    op_times = [op.seconds for op in ops if op.ok]
    by_kind = {}
    for op in ops:
        if op.ok:
            by_kind.setdefault(op.kind, []).append(op.seconds)
    kind_p50 = {kind: statistics.median(times) for kind, times in by_kind.items()}
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        # The median of each kind of operation (a sweep's rank), averaged with
        # the kinds' sample counts as weights: a plain median of a sweep's
        # cells sits in the gap between the ranks' times and jumps with one
        # cell.  With no successful operation, the whole timed wall is the
        # latency.
        "op_s_p50": (statistics.fmean(list(kind_p50.values()),
                                      [len(by_kind[k]) for k in kind_p50])
                     if kind_p50 else wall, "s"),
        "goodput_per_min": (60.0 * ok_ops / wall if wall > 0 else 0.0, "1/min"),
        "ops_ok_frac": (ok_ops / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"setup_samples_s": setup_samples, "op_samples": len(op_times),
             "op_s_p50_by_kind": kind_p50, "timed_wall_s": wall}
    return metrics, attempted, attempted - ok_ops, problems, passes, ops, extra


def layer_metrics(tracer, setup_wall, passes, untraced_passes, speedup):
    spans = tracer.spans
    n = len(passes)
    # setup spans count once, pass spans per pass: the figures describe one
    # run of set-up followed by one pass
    weight = {s.op_id: (1.0 if s.op_id == "setup" else 1.0 / n) for s in spans}

    def total(name, value=lambda s: s.self_time):
        return sum(value(s) * weight[s.op_id] for s in spans if s.name == name)

    def count(name, pred=lambda s: True):
        return total(name, lambda s: 1.0 if pred(s) else 0.0)

    def per_iteration_ms(name):
        iters = total(name, lambda s: s.attrs.get("iterations", 0))
        return 1e3 * total(name, lambda s: s.duration) / iters if iters else 0.0

    pass_wall = sum(p.wall for p in passes) / n
    covered = sum(s.self_time * weight[s.op_id] for s in spans)
    m = {
        "setup.import_s": (total("setup.import"), "s"),
        "sos.compile_s": (total("sos.compile"), "s"),
        "control.compile_s": (total("control.compile"), "s"),
        "sketch.sample_s": (total("sketch.sample"), "s"),
        "sketch.extend_s": (total("sketch.extend"), "s"),
        "sketch.decode_s": (total("sketch.decode"), "s"),
        "solver.self_s": (total("solver.solve"), "s"),
        "solver.kkt_replay_s": (total("solver.kkt_replay"), "s"),
        "solver.solves": (count("solver.solve"), "count"),
        "solver.failed": (count("solver.solve", lambda s: s.attrs.get("status") in
                                ("MaxIterations", "NumericalFailure", "Error")), "count"),
    }
    for status in STATUSES:
        m[f"solver.status.{status}"] = (
            count("solver.solve", lambda s, st=status: s.attrs.get("status") == st), "count")
    m.update({
        "ipm.self_s": (total("ipm.solve_conic"), "s"),
        "ipm.iterations": (total("ipm.solve_conic", lambda s: s.attrs.get("iterations", 0)), "count"),
        "ipm.ms_per_iteration": (per_iteration_ms("ipm.solve_conic"), "ms"),
        "conic.schur_s": (total("conic.schur"), "s"),
        "conic.schur_calls": (count("conic.schur"), "count"),
        "conic.rows_s": (total("conic.rows"), "s"),
        "consensus.self_s": (total("consensus.solve"), "s"),
        "consensus.iterations": (
            total("consensus.solve", lambda s: s.attrs.get("iterations", 0)), "count"),
        "consensus.ms_per_iteration": (per_iteration_ms("consensus.solve"), "ms"),
        "consensus.worker_speedup": (speedup, "x"),
        "measures.extract_s": (total("measures.extract"), "s"),
        "measures.density_s": (total("measures.density"), "s"),
        "measures.write_s": (total("measures.write"), "s"),
        "experiments.self_s": (total("experiments.sweep"), "s"),
        "experiments.artifact_bytes": (sum(p.sweep_bytes for p in passes) / n, "bytes"),
        "artifact_mb": (sum(p.artifact_bytes for p in passes) / n / 2**20, "MB"),
        "cli.self_s": (total("cli.main"), "s"),
        "cli.audit_s": (sum(p.audit_seconds for p in passes) / n, "s"),
        "trace.pass_s": (pass_wall, "s"),
        "trace.setup_s": (setup_wall, "s"),
        "trace.covered_frac": (covered / (setup_wall + pass_wall), "frac"),
        "trace.unattributed_s": (setup_wall + pass_wall - covered, "s"),
        "trace.spans": (sum(weight[s.op_id] for s in spans), "count"),
        "trace.overhead_frac": (
            pass_wall * len(untraced_passes) / sum(p.wall for p in untraced_passes) - 1.0, "frac"),
    })
    return m


def traced_run(args, workload, tracer, instrumentation, setup_wall):
    import workloads

    # An untraced loop of the same length, wrappers removed, is the base of
    # trace.overhead_frac.
    instrumentation.remove()
    base_passes, base_failures = run_passes(workload, args.seconds)
    instrumentation.install()
    passes, failures = run_passes(workload, args.seconds, tracer, "pass")
    instrumentation.remove()
    finish_problems = workload.finish(base_passes + passes)
    speedup = 0.0
    if isinstance(workload, workloads.PopConsensus) and not base_failures:
        speedup = workload.worker_speedup(base_passes[0].ops[0].seconds)
    ops, attempted, ok_ops, problems = summarize(workload, base_passes + passes,
                                                 base_failures + failures, finish_problems)
    metrics = layer_metrics(tracer, setup_wall, passes, base_passes, speedup)
    extra = {"spans_recorded": len(tracer.spans)}
    return metrics, attempted, attempted - ok_ops, problems, passes, ops, extra


def main(argv=None) -> int:
    load_at_start = os.getloadavg()[0]
    args = parse_args(argv)
    if not (SRC / "sdpsketch" / "__init__.py").is_file():
        print(f"error: no sdpsketch sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    tracer = instrumentation = None
    if args.trace:
        from tracing import Instrumentation, Tracer

        tracer = Tracer()
        tracer.op_id = "setup"
        workloads = tracer.span("setup.import",
                                functools.partial(importlib.import_module, "workloads"))
    else:
        import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not Path(workloads.__file__).resolve().is_relative_to(BENCH_DIR) or not Path(
            workloads.cli.__file__).resolve().is_relative_to(SRC):
        print("error: the benchmark must import sdpsketch from this checkout", file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            instrumentation = Instrumentation(tracer)
            instrumentation.install()
        workload.setup()
        setup_s = process_age()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer is not None:
            tracer.op_id = None
            result = traced_run(args, workload, tracer, instrumentation, setup_s)
        else:
            result = untraced_run(args, workload, setup_s)
        metrics, attempted, failed, problems, passes, ops, extra = result
        host = host_info(load_at_start)
        print(json.dumps(report_line(args, host, passes, ops, problems, extra),
                         allow_nan=False))
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }, allow_nan=False))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
