import base64
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from sdpsketch import experiments
from sdpsketch._blas import _find_controls
from sdpsketch.cli import main as cli_main
from sdpsketch.experiments import ExperimentConfig, run_density, run_rank_sweep
from sdpsketch.instances import (
    default_pop_problem,
    infeasible_sdp,
    random_feasible_sdp,
    unbounded_sdp,
)
from sdpsketch.sketch import (
    BlockSdp,
    ensembles_for_problem,
    extend_ensembles,
    load_problem,
    restrict_dual,
    sample_ensemble,
)
from sdpsketch.polynomial import monomial_basis, parse_polynomial
from sdpsketch.solver import SolverConfig, _conic_from_restricted, solve
from sdpsketch.sos import SdpProblem, compile_pop


DATA = Path(__file__).parent / "data"


def _cpus():
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()


def _children_file():
    return f"/proc/{os.getpid()}/task/{os.getpid()}/children"


def _recording_solve(log, fail_rank=None):
    """`solve` that logs the pid and Python thread count of every cell's
    solve to a file (forked helpers share no list with the caller), and
    raises on the cells of `fail_rank`."""

    def recording_solve(problem, config=None):
        if isinstance(problem, BlockSdp):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {threading.active_count()}\n")
            if problem.ensembles[0].r == fail_rank:
                raise ValueError(f"cell of rank {fail_rank} failed")
        return solve(problem, config)

    return recording_solve


def coordinate_form(prob) -> dict:
    """prob's document with its constraints in the coordinate form."""
    def coords(mat):
        i, j = np.triu_indices(mat.shape[0])
        keep = mat[i, j] != 0.0
        return {"i": i[keep].tolist(), "j": j[keep].tolist(), "v": mat[i, j][keep].tolist()}

    doc = prob.to_json_dict()
    for key in ("a_svec", "matching", "rhs"):
        doc.pop(key, None)
    doc["constraints"] = [{"rhs": b, "blocks": [coords(a) for a in mats]}
                          for mats, b in prob.constraints]
    return doc


def poc_config(out_dir, **kw):
    base = dict(
        kind="poc",
        ranks=(1, 2, 3),
        samples=15,
        seeds=(0, 1),
        out_dir=str(out_dir),
    )
    base.update(kw)
    return ExperimentConfig.from_json_dict(base)


class TestSweep:
    def test_table_shape_and_cone_sizes(self, tmp_path):
        res = run_rank_sweep(poc_config(tmp_path / "a"))
        lines = Path(res.table_path).read_text().splitlines()
        assert lines[0] == "rank,cone_size,objective_median,objective_min,objective_max,status_counts"
        assert lines[1].startswith("full,")
        ranks = [row.split(",")[0] for row in lines[2:]]
        cones = [row.split(",")[1] for row in lines[2:]]
        assert ranks == ["1", "2", "3"]
        assert cones == ["1", "3", "6"]

    def test_byte_identical_reruns(self, tmp_path):
        r1 = run_rank_sweep(poc_config(tmp_path / "a"))
        r2 = run_rank_sweep(poc_config(tmp_path / "b"))
        assert Path(r1.table_path).read_bytes() == Path(r2.table_path).read_bytes()

    @pytest.mark.parametrize("jobs", [2, 4])  # 4 may exceed the host's CPUs
    def test_jobs_do_not_change_table(self, tmp_path, jobs):
        r1 = run_rank_sweep(poc_config(tmp_path / "a", jobs=1))
        r2 = run_rank_sweep(poc_config(tmp_path / "b", jobs=jobs))
        assert Path(r1.table_path).read_bytes() == Path(r2.table_path).read_bytes()
        files = [sorted((tmp_path / side / "problems").iterdir()) for side in "ab"]
        assert [f.name for f in files[0]] == [f.name for f in files[1]]
        for f1, f2 in zip(*files):
            assert f1.read_bytes() == f2.read_bytes(), f1.name

        def outcome(c):
            return c.rank, c.seed, c.status, np.float64(c.objective).tobytes(), c.iterations

        assert [outcome(c) for c in r1.cells] == [outcome(c) for c in r2.cells]

    @pytest.mark.skipif(len(_cpus()) < 2, reason="needs two CPUs")
    def test_cells_run_in_several_processes_without_threads(self, tmp_path, monkeypatch):
        log = tmp_path / "solves.txt"
        monkeypatch.setattr(experiments, "solve", _recording_solve(log))
        run_rank_sweep(poc_config(tmp_path / "a", seeds=(0, 1, 2), jobs=2))
        solves = [line.split() for line in log.read_text().splitlines()]
        assert len(solves) == 9
        assert len({pid for pid, _ in solves}) >= 2
        assert all(threads == "1" for _, threads in solves)

    @pytest.mark.skipif(not os.path.exists(_children_file()), reason="needs /proc children")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_cell_leaves_nothing_behind(self, tmp_path, monkeypatch, jobs):
        mask = os.sched_getaffinity(0)
        blas = [get() for _, get in _find_controls()]
        monkeypatch.setattr(experiments, "solve", _recording_solve(tmp_path / "log", fail_rank=2))
        # ValueError where the caller ran the cell, RuntimeError for a helper
        with pytest.raises((ValueError, RuntimeError)):
            run_rank_sweep(poc_config(tmp_path / "a", jobs=jobs))
        assert Path(_children_file()).read_text().split() == []
        assert os.sched_getaffinity(0) == mask
        assert [get() for _, get in _find_controls()] == blas

    def test_restricted_never_beats_reference(self, tmp_path):
        res = run_rank_sweep(poc_config(tmp_path / "a"))
        ref = res.reference.objective
        for cell in res.cells:
            assert cell.objective <= ref + 1e-6

    def test_nested_median_monotone(self, tmp_path):
        res = run_rank_sweep(poc_config(tmp_path / "a", nested=True))
        meds = [res.median_objective(r) for r in (1, 2, 3)]
        for lo, hi in zip(meds, meds[1:]):
            assert hi >= lo - 1e-6

    def test_rows_rederivable_via_solve_file(self, tmp_path):
        out = tmp_path / "a"
        res = run_rank_sweep(poc_config(out))
        for cell in res.cells:
            path = out / "problems" / f"rank{cell.rank:03d}_seed{cell.seed}.json"
            with open(path) as fh:
                bs = load_problem(path)
            again = solve(bs)
            assert again.status.value == cell.status
            if np.isfinite(cell.objective):
                assert abs(again.objective - cell.objective) <= 1e-7
            else:
                assert again.objective == cell.objective

    def test_per_sample_schur_cells_resolve_exactly(self, tmp_path):
        # At 20 samples the n = 28 group of both ranks takes the per-sample
        # Schur formula, whose projected rows a re-solve builds afresh.
        cfg = ExperimentConfig(kind="pop", ranks=(3, 11), samples=20, seeds=(0, 1),
                               nested=True, out_dir=str(tmp_path / "a"))
        res = run_rank_sweep(cfg)
        for rank in (3, 11):
            bs = load_problem(tmp_path / "a" / "problems" / f"rank{rank:03d}_seed0.json")
            assert _conic_from_restricted(bs).ops.sample_rows[0] is not None
            again, cell = solve(bs), res.cell(rank, 0)
            assert (again.status.value, again.iterations) == (cell.status, cell.iterations)
            assert again.objective == cell.objective

    def test_problems_hold_one_base_and_small_references(self, tmp_path):
        res = run_rank_sweep(poc_config(tmp_path / "a"))
        problems = tmp_path / "a" / "problems"
        names = sorted(p.name for p in problems.iterdir())
        assert names == ["base.json"] + sorted(
            f"rank{c.rank:03d}_seed{c.seed}.json" for c in res.cells)
        digest = hashlib.sha256((problems / "base.json").read_bytes()).hexdigest()
        for name in names[1:]:
            path = problems / name
            assert path.stat().st_size < 2048
            doc = json.loads(path.read_text())
            assert "base" not in doc
            assert doc["base_ref"] == "base.json" and doc["base_sha256"] == digest

    def test_copied_sweep_resolves_through_cli(self, tmp_path):
        res = run_rank_sweep(poc_config(tmp_path / "a"))
        moved = tmp_path / "elsewhere" / "b"
        shutil.copytree(tmp_path / "a", moved)
        shutil.rmtree(tmp_path / "a")
        for cell in res.cells:
            path = moved / "problems" / f"rank{cell.rank:03d}_seed{cell.seed}.json"
            out = tmp_path / "solution.json"
            cli_main(["solve", str(path), "--out", str(out)])
            sol = json.loads(out.read_text())
            assert sol["status"] == cell.status
            if np.isfinite(cell.objective):
                assert sol["objective"] == cell.objective
            else:
                assert sol["objective"] is None

    def test_self_contained_document_still_loads(self, tmp_path):
        cfg = poc_config(tmp_path / "a", ranks=(3,), seeds=(0,))
        res = run_rank_sweep(cfg)
        bs = load_problem(tmp_path / "a" / "problems" / "rank003_seed0.json")
        path = tmp_path / "inline" / "cell.json"
        path.parent.mkdir()
        path.write_text(json.dumps(bs.to_json_dict()))
        assert "base" in json.loads(path.read_text())
        again = solve(load_problem(path))
        assert again.status.value == res.cell(3, 0).status
        assert again.objective == res.cell(3, 0).objective

    def test_coordinate_form_documents_still_load(self, tmp_path):
        # The coordinate form: one {"rhs", "blocks"} entry per constraint,
        # as sweeps wrote base problems before the packed form.  It solves
        # to the bits of the packed form of the same matrices, and, on the
        # dense path, within 1e-7 of the sweep's matching system.
        cfg = poc_config(tmp_path / "a", ranks=(3,), seeds=(0,))
        res = run_rank_sweep(cfg)
        cell = load_problem(tmp_path / "a" / "problems" / "rank003_seed0.json")
        doc = cell.to_json_dict()
        doc["base"] = coordinate_form(cell.base)
        path = tmp_path / "inline" / "cell.json"
        path.parent.mkdir()
        path.write_text(json.dumps(doc))
        base = cell.base
        packed = SdpProblem(block_dims=base.block_dims, cost_blocks=base.cost_blocks,
                            a_svec=base.a_svec, rhs=base.rhs, sense=base.sense,
                            obj_offset=base.obj_offset, moment_meta=base.moment_meta)
        again, want = solve(load_problem(path)), solve(restrict_dual(packed, cell.ensembles))
        value = res.cell(3, 0).objective
        assert again.status.value == want.status.value == res.cell(3, 0).status
        assert again.objective == want.objective
        assert abs(again.objective - value) <= 1e-7 * (1 + abs(value))

    def test_timing_file_has_all_cells(self, tmp_path):
        res = run_rank_sweep(poc_config(tmp_path / "a"))
        lines = Path(res.timing_path).read_text().splitlines()
        assert lines[0] == "rank,seed,wall_seconds,iterations"
        assert len(lines) == 1 + 1 + len(res.cells)

    def test_infeasible_cells_written_as_minus_inf(self, tmp_path):
        res = run_rank_sweep(poc_config(tmp_path / "a"))
        table = Path(res.table_path).read_text().splitlines()
        row1 = table[2].split(",")
        assert row1[0] == "1"
        assert row1[2] == "-inf"

    def test_consensus_mode_sweep(self, tmp_path):
        cfg = poc_config(tmp_path / "c", ranks=(3,), seeds=(0,), samples=10,
                         mode="consensus")
        res = run_rank_sweep(cfg)
        cell = res.cell(3, 0)
        assert cell.status == "Optimal"
        assert abs(cell.objective - res.reference.objective) <= 1e-4


    def test_consensus_jobs_become_workers(self, tmp_path, monkeypatch):
        seen = []

        def recording_solve(problem, config=None):
            seen.append((config.workers, threading.current_thread() is threading.main_thread()))
            return solve(problem, config)

        monkeypatch.setattr(experiments, "solve", recording_solve)
        tables = []
        for jobs in (1, 2):
            cfg = poc_config(tmp_path / f"j{jobs}", ranks=(2, 3), seeds=(0,), samples=10,
                             mode="consensus", jobs=jobs)
            assert cfg.solver_config().workers == jobs
            tables.append(Path(run_rank_sweep(cfg).table_path).read_bytes())
        assert tables[0] == tables[1]
        # the reference is an IPM solve; the two cells of each sweep follow it
        assert [s for s in seen if s[0] != 1] == [(2, True), (2, True)]
        assert all(on_main for _, on_main in seen)


class TestDensity:
    def test_poc_density_artifacts(self, tmp_path):
        cfg = poc_config(tmp_path / "d", ranks=(1, 3), seeds=(0,), grid_points=41)
        res = run_density(cfg)
        assert "full" in res["grids"]
        assert "rank003" in res["grids"]
        assert "rank001" in res["skipped"]
        assert (tmp_path / "d" / "density_rank003.csv").exists()
        assert (tmp_path / "d" / "density_rank001.SKIPPED.txt").exists()

    def test_grids_are_normalized(self, tmp_path):
        cfg = poc_config(tmp_path / "d", ranks=(3,), seeds=(0,), grid_points=41)
        res = run_density(cfg)
        for g in res["grids"].values():
            assert abs(g.values.sum() - 1.0) <= 1e-9
            assert np.all(g.values >= 0)


class TestConfigRoundTrip:
    def test_json_round_trip(self):
        cfg = poc_config("somewhere", nested=True, jobs=4)
        back = ExperimentConfig.from_json_dict(cfg.to_json_dict())
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_json_dict({"surprise": 1})

    @pytest.mark.parametrize("bad", [{"ranks": [2, 0]}, {"ranks": []}, {"samples": 0},
                                     {"jobs": 0}])
    def test_counts_below_one_rejected(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig.from_json_dict(bad)

    @pytest.mark.parametrize("bad", ["IPM", "consensus!", ""])
    def test_unknown_mode_rejected(self, bad):
        with pytest.raises(ValueError, match="mode"):
            ExperimentConfig.from_json_dict({"mode": bad})
        with pytest.raises(ValueError, match="mode"):
            SolverConfig(mode=bad)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan"), float("inf"), "1e-8"])
    def test_tolerance_must_be_a_finite_number_above_zero(self, bad):
        with pytest.raises(ValueError, match="tolerance"):
            ExperimentConfig.from_json_dict({"tolerance": bad})
        with pytest.raises(ValueError, match="tolerance"):
            SolverConfig(tolerance=bad)

    @pytest.mark.parametrize("bad", [[-1], [0, -3]])
    def test_negative_seed_rejected(self, bad):
        # once reached numpy's SeedSequence and ended in its traceback
        with pytest.raises(ValueError, match="seeds"):
            ExperimentConfig.from_json_dict({"seeds": bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0, "2"])
    def test_ball_radius_must_be_a_finite_number_above_zero(self, bad):
        with pytest.raises(ValueError, match="ball_radius"):
            ExperimentConfig.from_json_dict({"ball_radius": bad})

    def test_no_ball_is_accepted(self):
        assert ExperimentConfig.from_json_dict({"ball_radius": None}).ball_radius is None

    @pytest.mark.parametrize("bad", [0, -2])
    def test_workers_below_one_rejected(self, bad):
        with pytest.raises(ValueError, match="workers"):
            SolverConfig(workers=bad)

    def test_known_modes_accepted(self):
        for mode in ("interior_point", "ipm", "consensus"):
            assert ExperimentConfig(mode=mode).solver_config().mode == (
                "consensus" if mode == "consensus" else "interior_point")
            assert SolverConfig(mode=mode).mode == mode

    def test_config_json_lists_every_field_in_order(self):
        from dataclasses import fields

        data = poc_config("somewhere").to_json_dict()
        assert list(data) == [f.name for f in fields(ExperimentConfig)]
        assert data["ranks"] == [1, 2, 3] and data["seeds"] == [0, 1]


class TestCliSolve:
    def write(self, tmp_path, problem) -> Path:
        path = tmp_path / "problem.json"
        path.write_text(problem.to_json())
        return path

    def test_optimal_exit_code_and_solution_file(self, tmp_path, rng):
        prob = random_feasible_sdp(rng, 4, 2)
        path = self.write(tmp_path, prob)
        out = tmp_path / "solution.json"
        code = cli_main(["solve", str(path), "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["status"] == "Optimal"

    def test_infeasible_exit_code(self, tmp_path, rng):
        path = self.write(tmp_path, infeasible_sdp(rng, 3, 2))
        assert cli_main(["solve", str(path)]) == 2

    def test_unbounded_exit_code(self, tmp_path, rng):
        path = self.write(tmp_path, unbounded_sdp(rng, 3, 2))
        assert cli_main(["solve", str(path)]) == 3

    def test_parse_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"type": "sdp_problem",\n  broken')
        with pytest.raises(SystemExit) as err:
            cli_main(["solve", str(bad)])
        msg = str(err.value)
        assert "line" in msg and "column" in msg

    def test_certified_results_write_strict_json(self, tmp_path, rng):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        for prob, code in ((infeasible_sdp(rng, 3, 2), 2), (unbounded_sdp(rng, 3, 2), 3)):
            out = tmp_path / "solution.json"
            assert cli_main(["solve", str(self.write(tmp_path, prob)), "--out", str(out)]) == code
            data = json.loads(out.read_text(), parse_constant=reject)
            assert data["objective"] is None

    @staticmethod
    def one_line_error(argv) -> str:
        with pytest.raises(SystemExit) as err:
            cli_main(argv)
        msg = err.value.code  # a string code exits with status 1
        assert isinstance(msg, str) and msg.startswith("error:") and "\n" not in msg
        return msg

    def test_missing_file_is_reported(self, tmp_path):
        msg = self.one_line_error(["solve", str(tmp_path / "missing.json")])
        assert "missing.json" in msg

    def test_coordinate_outside_block_is_reported(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "type": "sdp_problem", "block_dims": [2],
            "cost_blocks": [{"i": [0], "j": [5], "v": [1.0]}], "constraints": [],
        }))
        assert "outside" in self.one_line_error(["solve", str(path)])

    def test_hand_written_coordinate_problem_matches_packed(self, tmp_path):
        # min <C, X> s.t. tr X = 1: the smallest eigenvalue of C, 1.5 - sqrt(0.5)
        path = tmp_path / "coords.json"
        path.write_text(json.dumps({
            "type": "sdp_problem", "sense": "min", "block_dims": [2], "obj_offset": 0.0,
            "cost_blocks": [{"i": [0, 0, 1], "j": [0, 1, 1], "v": [1.0, 0.5, 2.0]}],
            "constraints": [{"rhs": 1.0, "blocks": [{"i": [0, 1], "j": [0, 1], "v": [1.0, 1.0]}]}],
        }))
        prob = load_problem(path)
        packed = tmp_path / "packed.json"
        packed.write_text(prob.to_json())
        assert "a_svec" in json.loads(packed.read_text())
        solutions = [tmp_path / "coords.sol.json", tmp_path / "packed.sol.json"]
        for problem, out in zip((path, packed), solutions):
            assert cli_main(["solve", str(problem), "--out", str(out)]) == 0
        coords, again = (json.loads(out.read_text()) for out in solutions)
        assert coords["status"] == again["status"] == "Optimal"
        assert coords["objective"] == again["objective"]
        assert abs(coords["objective"] - (1.5 - 0.5 ** 0.5)) <= 1e-7

    @pytest.mark.parametrize("fault, message", [
        ("base64", "base64"), ("bytes", "bytes"), ("nan", "non-finite"), ("shape", "shape")])
    def test_malformed_packed_base_is_reported(self, tmp_path, rng, fault, message):
        # a raw SDP's base keeps the packed a_svec; a compiled one stores its matching system
        raw = tmp_path / "raw.json"
        raw.write_text(random_feasible_sdp(rng, 4, 3).to_json())
        run_rank_sweep(ExperimentConfig(kind="raw-sdp", problem_path=str(raw), ranks=(2,),
                                        seeds=(0,), samples=3, out_dir=str(tmp_path / "s")))
        cell = tmp_path / "s" / "problems" / "rank002_seed0.json"
        base = cell.parent / "base.json"
        data = json.loads(base.read_text())
        packed = data["a_svec"]
        values = np.frombuffer(base64.b64decode(packed["float64_le"]), dtype="<f8").copy()
        if fault == "base64":
            packed["float64_le"] = "not base64!"
        elif fault == "bytes":
            packed["float64_le"] = base64.b64encode(values[:-1].tobytes()).decode()
        elif fault == "nan":
            values[values.size // 2] = np.nan
            packed["float64_le"] = base64.b64encode(values.tobytes()).decode()
        else:
            packed["shape"] = packed["shape"][::-1]
        base.write_text(json.dumps(data))
        # the cell still vouches for the base, so only the base's content is at fault
        doc = json.loads(cell.read_text())
        doc["base_sha256"] = hashlib.sha256(base.read_bytes()).hexdigest()
        cell.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="base.json") as err:
            load_problem(cell)
        assert message in str(err.value)
        msg = self.one_line_error(["solve", str(cell)])
        assert str(base) in msg and message in msg

    @pytest.mark.parametrize("command", ["sweep", "density"])
    def test_malformed_raw_sdp_problem_is_reported(self, tmp_path, rng, command):
        path = tmp_path / "problem.json"
        data = random_feasible_sdp(rng, 3, 2).to_json_dict()
        data["a_svec"]["float64_le"] = "not base64!"
        path.write_text(json.dumps(data))
        msg = self.one_line_error([command, "--kind", "raw-sdp", "--problem", str(path),
                                   "--ranks", "1", "--seeds", "0", "--samples", "2",
                                   "--out", str(tmp_path / "out")])
        assert str(path) in msg and "base64" in msg
        assert not (tmp_path / "out").exists()

    @staticmethod
    def sweep_cell(tmp_path) -> Path:
        run_rank_sweep(poc_config(tmp_path / "s", ranks=(2,), seeds=(0,), samples=5))
        return tmp_path / "s" / "problems" / "rank002_seed0.json"

    @pytest.mark.parametrize("field, value", [
        ("orthonormal", None), ("orthonormal", 1), ("N", 1.5), ("seed", 1.5), ("r", "x"),
        ("n", True), ("lineage", []), ("lineage", [2, 2]), ("lineage", [1]),
        ("lineage", [1.0, 2]), ("lineage", "2"),
    ])
    def test_malformed_ensemble_recipe_is_reported(self, tmp_path, field, value):
        # each was once coerced or ignored: null solved a raw-Gaussian
        # problem, 1.5 was truncated, and r was never read
        cell = self.sweep_cell(tmp_path)
        doc = json.loads(cell.read_text())
        assert doc["ensembles"][0]["lineage"] == [2]
        doc["ensembles"][0][field] = value
        cell.write_text(json.dumps(doc))
        msg = self.one_line_error(["solve", str(cell)])
        what = "ensemble lineage" if field == "lineage" else f"ensemble field {field}"
        assert str(cell) in msg and f"{what} must be" in msg

    @pytest.mark.parametrize("ref", ["../../../../etc/hostname", "/etc/hostname",
                                     "sub/base.json", "..", ""])
    def test_base_ref_outside_the_cell_folder_is_refused(self, tmp_path, ref):
        cell = self.sweep_cell(tmp_path)
        doc = json.loads(cell.read_text())
        doc["base_ref"] = ref
        cell.write_text(json.dumps(doc))
        msg = self.one_line_error(["solve", str(cell)])
        assert "base_ref must be a plain file name" in msg

    def test_valid_cell_reads_back_to_its_own_bytes(self, tmp_path):
        cell = self.sweep_cell(tmp_path)
        doc = json.loads(cell.read_text())
        back = load_problem(cell).to_json_dict(base_ref=doc["base_ref"],
                                                base_sha256=doc["base_sha256"])
        assert json.dumps(back) == cell.read_text()

    def test_missing_base_is_reported(self, tmp_path):
        cell = self.sweep_cell(tmp_path)
        (cell.parent / "base.json").unlink()
        assert "base.json" in self.one_line_error(["solve", str(cell)])

    def test_tampered_base_is_reported(self, tmp_path):
        cell = self.sweep_cell(tmp_path)
        base = cell.parent / "base.json"
        data = json.loads(base.read_text())
        data["obj_offset"] += 1.0  # still a valid problem, just not the one referenced
        base.write_text(json.dumps(data))
        assert "base_sha256" in self.one_line_error(["solve", str(cell)])

    def test_reference_without_directory_raises(self, tmp_path):
        doc = json.loads(self.sweep_cell(tmp_path).read_text())
        with pytest.raises(ValueError, match="load_problem"):
            BlockSdp.from_json_dict(doc)

    def test_top_level_array_is_reported(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("[1, 2, 3]")
        assert "does not contain" in self.one_line_error(["solve", str(path)])

    def test_sweep_rank_zero_is_reported(self, tmp_path):
        msg = self.one_line_error(["sweep", "--kind", "poc", "--ranks", "0",
                                   "--out", str(tmp_path / "s")])
        assert "ranks" in msg
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    def test_solve_with_a_nonsensical_tolerance_is_reported(self, tmp_path, rng, tol):
        # once ran 200 iterations and exited 4 with MaxIterations
        path = tmp_path / "p.json"
        path.write_text(random_feasible_sdp(rng, 4, 2).to_json())
        assert "tolerance" in self.one_line_error(["solve", str(path), "--tol", tol])

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_solve_with_jobs_below_one_is_reported(self, tmp_path, rng, jobs):
        path = tmp_path / "cell.json"
        prob = random_feasible_sdp(rng, 4, 2)
        path.write_text(restrict_dual(prob, sample_ensemble(4, 2, 3, seed=0)).to_json())
        msg = self.one_line_error(["solve", str(path), "--mode", "consensus", "--jobs", jobs])
        assert "workers" in msg

    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    def test_sweep_with_a_nonsensical_tolerance_is_reported(self, tmp_path, tol):
        # once wrote a table with every row, the reference too, MaxIterations:1
        msg = self.one_line_error(["sweep", "--kind", "poc", "--ranks", "3", "--samples", "20",
                                   "--seeds", "0", "--tol", tol, "--out", str(tmp_path / "s")])
        assert "tolerance" in msg
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("command", ["sweep", "density"])
    def test_empty_seeds_are_reported(self, tmp_path, command):
        # a sweep once wrote only its full row; density ended in an IndexError
        msg = self.one_line_error([command, "--kind", "poc", "--seeds", "",
                                   "--out", str(tmp_path / "s")])
        assert "seeds" in msg
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "poc", "seeds": []}))
        msg = self.one_line_error([command, "--config", str(cfg_path),
                                   "--out", str(tmp_path / "s")])
        assert "seeds" in msg
        assert not (tmp_path / "s").exists()

    def test_sweep_with_a_negative_seed_is_reported(self, tmp_path):
        msg = self.one_line_error(["sweep", "--kind", "poc", "--seeds", "-1",
                                   "--out", str(tmp_path / "s")])
        assert "seeds" in msg
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "poc", "seeds": [-1]}))
        msg = self.one_line_error(["sweep", "--config", str(cfg_path),
                                   "--out", str(tmp_path / "s")])
        assert "seeds" in msg
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("radius", ["nan", "inf", "0", "-1"])
    def test_sweep_with_a_bad_ball_radius_is_reported(self, tmp_path, radius):
        # nan and inf once failed in an SVD that named no input; -1 acted as 1
        msg = self.one_line_error(["sweep", "--ball-radius", radius,
                                   "--out", str(tmp_path / "s")])
        assert "ball_radius" in msg
        assert not (tmp_path / "s").exists()

    def test_nan_ball_radius_prints_one_error_line_and_nothing_else(self, tmp_path):
        # LAPACK once printed DLASCL complaints on standard output before the error
        proc = subprocess.run(
            [sys.executable, "-m", "sdpsketch.cli", "density", "--ball-radius", "nan",
             "--out", str(tmp_path / "d")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "ball_radius" in proc.stderr

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_solve_output_under_a_missing_directory_is_reported(self, tmp_path, rng,
                                                              monkeypatch, flag):
        # once solved first and then ended in a FileNotFoundError traceback
        path = self.write(tmp_path, random_feasible_sdp(rng, 4, 2))
        monkeypatch.setattr("sdpsketch.cli.solve", lambda *a: pytest.fail("solved"))
        target = tmp_path / "missing" / "out.file"
        msg = self.one_line_error(["solve", str(path), flag, str(target)])
        assert str(target) in msg
        assert not target.parent.exists()

    def test_sweep_config_with_unknown_mode_is_reported(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "poc", "ranks": [3], "mode": "IPM"}))
        msg = self.one_line_error(["sweep", "--config", str(cfg_path),
                                   "--out", str(tmp_path / "s")])
        assert "'IPM'" in msg
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("field, value", [
        ("seeds", [1.5]), ("ranks", [3.7]), ("ranks", [True]), ("nested", "no"),
        ("tolerance", True), ("ball_radius", True), ("samples", "5"),
    ])
    def test_config_value_of_the_wrong_json_type_is_reported(self, tmp_path, field, value):
        # each once ran (seed 1, rank 3 or 1, a nested sweep, tolerance or
        # radius 1) or ended in an error that named no field
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "poc", field: value}))
        msg = self.one_line_error(["sweep", "--config", str(cfg_path),
                                   "--out", str(tmp_path / "s")])
        assert msg.startswith(f"error: {field} ")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("config, field", [
        ({"kind": "raw-sdp", "problem_path": 7}, "problem_path"),
        ({"kind": "pop", "problem_path": 7}, "problem_path"),
        ({"kind": "POP"}, "kind"), ({"kind": 1}, "kind"), ({"out_dir": 5}, "out_dir"),
        ({"grid_halfwidth": True}, "grid_halfwidth"), ({"grid_halfwidth": 0}, "grid_halfwidth"),
    ])
    def test_config_field_of_the_wrong_type_or_value_is_reported(self, tmp_path, config, field):
        # a number as problem_path once ended in a TypeError traceback or
        # reached open(7); true as grid_halfwidth rendered a grid on [-1, 1]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        for command in ("sweep", "density"):
            msg = self.one_line_error([command, "--config", str(cfg_path),
                                       "--out", str(tmp_path / "s")])
            assert msg.startswith(f"error: {field} ")
        assert not (tmp_path / "s").exists()

    @staticmethod
    def problem_document(form: str) -> dict:
        if form == "coordinate":
            return coordinate_form(random_feasible_sdp(np.random.default_rng(3), 3, 2))
        if form == "packed":
            return random_feasible_sdp(np.random.default_rng(3), 3, 2).to_json_dict()
        return compile_pop(parse_polynomial("x1^2 - 2*x1 + 2", 1),
                           monomial_basis(1, 1)).to_json_dict()

    @pytest.mark.parametrize("form, fault, field", [
        ("packed", "extra", "extra"), ("coordinate", "extra", "extra"),
        ("matching", "extra", "extra"), ("matching", "extra_in_matching", "other"),
        ("packed", "block_dims", "block_dims"), ("coordinate", "obj_offset", "obj_offset"),
        ("packed", "rhs", "rhs"), ("coordinate", "rhs", "constraints[0].rhs"),
        ("matching", "rhs", "rhs"), ("packed", "cost_block", "cost_blocks[0].v"),
        ("coordinate", "sense", "sense"), ("matching", "moment_meta", "moment_meta.block"),
        ("matching", "row", "matching.i"), ("matching", "column", "matching.j"),
        ("matching", "non-finite", "matching.v"), ("matching", "shape", "matching.shape"),
        ("matching", "lengths", "matching.i"), ("matching", "lower_bound", "matching.lower_bound"),
        ("matching", "lower_bound_size", "matching.lower_bound"),
        ("matching", "two_forms", "a_svec"),
    ])
    def test_malformed_problem_document_is_reported(self, tmp_path, form, fault, field):
        # an unknown key once solved with exit 0
        doc = self.problem_document(form)
        matching = doc.get("matching")
        if fault == "extra":
            doc["extra"] = 1
        elif fault == "extra_in_matching":
            matching["other"] = []
        elif fault == "block_dims":
            doc["block_dims"] = [2.0]
        elif fault == "obj_offset":
            doc["obj_offset"] = "0"
        elif fault == "rhs":
            if form == "coordinate":
                doc["constraints"][0]["rhs"] = "1.0"
            else:
                doc["rhs"] = [1.0, 2.0]
        elif fault == "cost_block":
            doc["cost_blocks"][0]["v"][0] = True
        elif fault == "sense":
            doc["sense"] = 1
        elif fault == "moment_meta":
            doc["moment_meta"]["block"] = 9
        elif fault == "row":
            matching["i"][0] = matching["shape"][0]
        elif fault == "column":
            matching["j"][-1] = -1
        elif fault == "non-finite":
            matching["v"][1] = float("nan")
        elif fault == "shape":
            matching["shape"][1] += 1
        elif fault == "lengths":
            matching["i"].pop()
        elif fault == "lower_bound":
            matching["lower_bound"] = "1"
        elif fault == "lower_bound_size":
            matching["lower_bound"].append(0.0)
        else:
            doc["a_svec"] = doc["rhs"]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        msg = self.one_line_error(["solve", str(path)])
        assert str(path) in msg and field in msg

    def test_consensus_mode_rejects_sdp_problem(self, tmp_path, rng):
        path = self.write(tmp_path, random_feasible_sdp(rng, 4, 2))
        with pytest.raises(SystemExit) as err:
            cli_main(["solve", str(path), "--mode", "consensus"])
        msg = str(err.value)
        assert msg.startswith("error:") and "consensus" in msg and "\n" not in msg

    def test_trace_flag_writes_csv(self, tmp_path, rng):
        path = self.write(tmp_path, random_feasible_sdp(rng, 4, 2))
        trace = tmp_path / "trace.csv"
        cli_main(["solve", str(path), "--trace", str(trace)])
        assert trace.read_text().startswith("iteration,")


class TestBlasThreads:
    def test_solution_files_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # The default POP pair (reduced form) and a nested cell of its sweep
        # (ranks 3, 11, 25; N = 20; seed 0), each solved at one and at two
        # OpenBLAS threads; only the wall time may differ.
        pop = default_pop_problem()
        chain = ensembles_for_problem(pop, 3, 20, 0)
        for r in (11, 25):
            chain = extend_ensembles(chain, r)
        for name, problem in [("pair", pop), ("cell", restrict_dual(pop, chain))]:
            path = tmp_path / f"{name}.json"
            path.write_text(problem.to_json())
            docs = []
            for threads in ("1", "2"):
                out = tmp_path / f"{name}_{threads}.json"
                subprocess.run([sys.executable, "-m", "sdpsketch.cli", "solve", str(path),
                                "--out", str(out)], check=True, capture_output=True,
                               env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
                doc = json.loads(out.read_text())
                assert doc.pop("status") == "Optimal" and doc.pop("solve_seconds") > 0
                docs.append(doc)
            assert docs[0] == docs[1], name

    def test_compiled_problems_do_not_depend_on_the_blas_thread_count(self):
        script = ("import sys\n"
                  "from sdpsketch.control import compile_poc\n"
                  "from sdpsketch.instances import default_poc_problem, default_pop_problem\n"
                  "sys.stdout.write(default_pop_problem().to_json())\n"
                  "sys.stdout.write(compile_poc(default_poc_problem()).to_json())\n")
        docs = [subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                               env={**os.environ, "OPENBLAS_NUM_THREADS": threads}).stdout
                for threads in ("1", "2")]
        assert docs[0] and docs[0] == docs[1]

    def test_base_file_re_solves_to_the_full_row(self, tmp_path):
        # The sweep's base.json, solved at two threads by the CLI, gives the
        # objective of the sweep's full row exactly.
        cfg = ExperimentConfig.from_json_dict(dict(kind="pop", ranks=[3], samples=5, seeds=[0],
                                                   out_dir=str(tmp_path / "s")))
        run_rank_sweep(cfg)
        with open(tmp_path / "s" / "sweep.csv") as fh:
            full = next(row for row in csv.DictReader(fh) if row["rank"] == "full")
        out = tmp_path / "base_solution.json"
        subprocess.run([sys.executable, "-m", "sdpsketch.cli", "solve",
                        str(tmp_path / "s" / "problems" / "base.json"), "--out", str(out)],
                       check=True, capture_output=True,
                       env={**os.environ, "OPENBLAS_NUM_THREADS": "2"})
        sol = json.loads(out.read_text())
        assert sol["status"] == full["status_counts"].split(":")[0] == "Optimal"
        assert sol["objective"] == float(full["objective_median"])


class TestRankDeficientFixtures:
    """The two committed bases whose last constraint repeats the first: b in
    the range of A' (rank_deficient.json) or raised out of it by 1
    (rank_deficient_inconsistent.json)."""

    @staticmethod
    def sweep(tmp_path, name) -> Path:
        out = tmp_path / name
        assert cli_main(["sweep", "--kind", "raw-sdp", "--problem", str(DATA / f"{name}.json"),
                         "--ranks", "2,4", "--samples", "3", "--seeds", "0",
                         "--out", str(out)]) == 0
        return out

    def test_consistent_base_solves_in_both_modes(self, tmp_path):
        out = self.sweep(tmp_path, "rank_deficient")
        full = (out / "sweep.csv").read_text().splitlines()[1].split(",")
        assert full[-1] == "Optimal:1"
        want = 5.888413380498713  # the pair form's value, before the one row rule
        assert abs(float(full[2]) - want) <= 1e-7 * (1 + want)
        cell = str(out / "problems" / "rank004_seed0.json")
        assert cli_main(["solve", cell, "--mode", "consensus", "--out", str(tmp_path / "c")]) == 0

    def test_inconsistent_base_gives_certified_statuses(self, tmp_path):
        out = self.sweep(tmp_path, "rank_deficient_inconsistent")
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1:] == ["full,10,inf,inf,inf,Infeasible:1", "2,3,inf,inf,inf,Unbounded:1",
                             "4,10,inf,inf,inf,Unbounded:1"]
        cell = out / "problems" / "rank004_seed0.json"
        assert cli_main(["solve", str(cell), "--mode", "consensus", "--out",
                         str(tmp_path / "c")]) == 3
        projected = json.loads(cell.read_text())
        projected["kind"] = "projected_primal"
        path = out / "problems" / "projected.json"  # beside the base it names
        path.write_text(json.dumps(projected))
        assert cli_main(["solve", str(path), "--out", str(tmp_path / "p")]) == 2


class TestCliTopLevel:
    def test_selftest_passes(self):
        assert cli_main(["selftest"]) == 0

    def test_sweep_subcommand(self, tmp_path):
        code = cli_main([
            "sweep", "--kind", "poc", "--ranks", "2,3", "--samples", "10",
            "--seeds", "0", "--out", str(tmp_path / "s"),
        ])
        assert code == 0
        assert (tmp_path / "s" / "sweep.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "kind": "poc", "ranks": [2], "samples": 10, "seeds": [0],
            "out_dir": str(tmp_path / "ignored"),
        }))
        code = cli_main([
            "sweep", "--config", str(cfg_path), "--out", str(tmp_path / "used"),
        ])
        assert code == 0
        assert (tmp_path / "used" / "sweep.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_module_entry_point(self, tmp_path, rng):
        prob = random_feasible_sdp(rng, 3, 2)
        path = tmp_path / "p.json"
        path.write_text(prob.to_json())
        proc = subprocess.run(
            [sys.executable, "-m", "sdpsketch.cli", "solve", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "Optimal" in proc.stderr

    def test_module_entry_point_bad_input_exit_code(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "sdpsketch.cli", "solve", str(tmp_path / "missing.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
