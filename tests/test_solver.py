import numpy as np
import pytest

from sdpsketch.control import compile_poc
from sdpsketch import _linalg, ipm, solver
from sdpsketch._linalg import aggregate_congruence_operator, svec_dim, sym
from sdpsketch.conic import SampleRows
from sdpsketch.instances import (
    default_poc_problem,
    default_pop_problem,
    infeasible_sdp,
    random_feasible_sdp,
    unbounded_sdp,
)
from sdpsketch.ipm import (
    DUAL_INFEASIBLE,
    MAX_ITERATIONS,
    OPTIMAL,
    PRIMAL_INFEASIBLE,
    solve_conic,
)
from sdpsketch.polynomial import monomial_basis, parse_polynomial
from sdpsketch.sketch import ensembles_for_problem, extend_ensembles, restrict_dual
from sdpsketch.solver import (
    SolverConfig,
    Solution,
    Status,
    _conic_from_pair,
    _conic_from_restricted,
    _reduced_form,
    kkt_residuals,
    solve,
)
from sdpsketch.sos import SdpProblem, compile_pop


def trace_problem():
    a1 = np.zeros((2, 2))
    a1[0, 0] = 1.0
    return SdpProblem(
        block_dims=(2,),
        cost_blocks=(np.eye(2),),
        constraints=[((a1,), 1.0)],
        sense="min",
    )


class TestBasics:
    def test_trace_example(self):
        sol = solve(trace_problem())
        assert sol.status == Status.Optimal
        assert abs(sol.objective - 1.0) <= 1e-6
        assert np.allclose(sol.psd_blocks[0], np.diag([1.0, 0.0]), atol=1e-6)

    def test_pop_full_problem(self):
        prob = compile_pop(parse_polynomial("x1^2 - 2*x1 + 2", 1), monomial_basis(1, 1))
        sol = solve(prob)
        assert abs(sol.objective - 1.0) <= 1e-6

    def test_solution_serializes(self):
        sol = solve(trace_problem())
        data = sol.to_json_dict()
        assert data["status"] == "Optimal"
        assert isinstance(data["objective"], float)

    def test_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        sol = solve(trace_problem(), SolverConfig(trace_path=str(path)))
        text = path.read_text().splitlines()
        assert text[0].startswith("iteration,")
        assert len(text) == sol.iterations + 1

    def test_trace_counts_the_work_of_each_step(self, rng, monkeypatch):
        # One sampled group (N = 6 > 1, r = 12 > LANCZOS_STEPS).  Each Newton
        # step factors its Schur system once plus lu_tries regularized times,
        # and each step_fallback is one eigvalsh of a whole (2, N, r, r) stack.
        prob = random_feasible_sdp(rng, 14, 20)
        bs = restrict_dual(prob, ensembles_for_problem(prob, 12, 6, 0))
        lu_calls, stack_eigs = [], []
        real_lu, real_eig = ipm.lu_factor, np.linalg.eigvalsh

        def counting_lu(*args, **kwargs):
            lu_calls.append(1)
            return real_lu(*args, **kwargs)

        def counting_eigvalsh(a, *args, **kwargs):
            if np.ndim(a) == 4:
                stack_eigs.append(1)
            return real_eig(a, *args, **kwargs)

        monkeypatch.setattr(ipm, "lu_factor", counting_lu)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        sol = solve(bs, SolverConfig(keep_trace=True))
        assert sol.status == Status.Optimal
        rows = sol.trace
        assert all(isinstance(row[key], int) and row[key] >= 0 for row in rows
                   for key in ("backtracks", "lu_tries", "step_fallbacks"))
        assert rows[0]["lu_tries"] == rows[0]["backtracks"] == rows[0]["step_fallbacks"] == 0
        assert sum(row["lu_tries"] for row in rows) == len(lu_calls) - (len(rows) - 1)
        assert sum(row["step_fallbacks"] for row in rows) == len(stack_eigs)

    def test_optimal_blocks_nearly_psd(self, rng):
        for k in range(5):
            prob = random_feasible_sdp(rng, 6, 4)
            sol = solve(prob)
            assert sol.status == Status.Optimal
            for b in sol.psd_blocks:
                assert np.linalg.eigvalsh(b)[0] >= -10 * 1e-8


class TestPairRows:
    def test_dense_schur_matches_trace_formula(self, rng):
        prob = random_feasible_sdp(rng, 5, 4)
        ops = _conic_from_pair(prob).ops
        g = rng.standard_normal((5, 5))
        x = g @ g.T + np.eye(5)
        zinv = np.linalg.inv(x + np.diag(rng.uniform(0.5, 1.5, 5)))
        mats = [a[0] for a, _ in prob.constraints]
        want = np.array([[np.trace(aj @ x @ ak @ zinv) for ak in mats] for aj in mats])
        assert np.allclose(ops.schur([x[None]], [zinv[None]]), want, atol=1e-10)

    def test_dense_rows_apply_and_adjoint_match_constraints(self, rng):
        prob = random_feasible_sdp(rng, 5, 4)
        ops = _conic_from_pair(prob).ops
        x = rng.standard_normal((5, 5))
        x = x + x.T
        assert np.allclose(ops.apply([x[None]]), prob.constraint_values([x]), atol=1e-12)
        w = rng.standard_normal(4)
        want = sum(wj * a[0] for wj, (a, _) in zip(w, prob.constraints))
        assert np.allclose(ops.adjoint_blocks(w)[0][0], want, atol=1e-12)

    def test_reduction_reads_the_problems_matrix(self, rng):
        prob = random_feasible_sdp(rng, 4, 3)
        assert prob.reduction.a_mat is prob.a_svec


def _with_sense(prob: SdpProblem, sense: str) -> SdpProblem:
    return SdpProblem(block_dims=prob.block_dims, cost_blocks=prob.cost_blocks,
                      a_svec=prob.a_svec, rhs=prob.rhs, sense=sense)


class TestPairForm:
    """A pair whose reduced form, sum svec(n_b) - m rows, is smaller than its
    m rows is solved as its restricted dual over identity ensembles."""

    def test_default_pop_solves_on_90_rows_and_a9_shape_keeps_75(self, rng, monkeypatch):
        rows = []

        def recording(prog, *args):
            rows.append(prog.ops.num_rows)
            return solve_conic(prog, *args)

        monkeypatch.setattr(solver, "solve_conic", recording)
        pop = default_pop_problem()
        assert pop.a_svec.shape == (637, 547)
        solve(pop)
        solve(random_feasible_sdp(rng, 25, 75))
        assert rows == [90, 75]

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_reduced_form_agrees_with_pair_form(self, rng, sense):
        for _ in range(6):
            n = int(rng.integers(3, 6))
            m = int(rng.integers(svec_dim(n) // 2 + 1, svec_dim(n)))
            prob = random_feasible_sdp(rng, n, m, sense=sense)
            assert _reduced_form(prob) is not None
            pair = solve_conic(_conic_from_pair(prob))
            assert pair.status == OPTIMAL
            want = pair.primal_objective if sense == "min" else pair.dual_objective
            sol = solve(prob)
            assert sol.status == Status.Optimal
            assert abs(sol.objective - want) <= 1e-7 * (1 + abs(want))
            assert kkt_residuals(prob, sol).max() <= 1e-8 * (1 + abs(sol.objective))
            # the field contract of the solver docstring, in the pair's own sense
            x_side = sol.psd_blocks if sense == "min" else sol.moment_matrices
            assert np.allclose(prob.constraint_values(x_side), prob.rhs, atol=1e-7)
            assert sol.dual_slacks and np.array_equal(
                sol.eq_multipliers, sol.free_vars if sense == "min" else
                np.concatenate([x[np.triu_indices(n)] for x in sol.moment_matrices]))

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_certificates_survive_the_reduced_form(self, rng, sense):
        cases = [(infeasible_sdp, Status.Infeasible), (unbounded_sdp, Status.Unbounded)]
        across = {Status.Infeasible: Status.Unbounded, Status.Unbounded: Status.Infeasible}
        for make, status in cases:
            # the first two shapes keep the pair form, the last three are reduced
            for n, m in ((3, 2), (4, 3), (2, 2), (3, 4), (3, 5)):
                prob = _with_sense(make(rng, n, m), sense)
                assert (_reduced_form(prob) is None) == (2 * m <= svec_dim(n))
                sol = solve(prob)
                # the max side of the same pair reports the other status, at the same infinity
                assert sol.status == (status if sense == "min" else across[status])
                assert sol.objective == (np.inf if status == Status.Infeasible else -np.inf)
                # in either form and sense, the pair's own ray: a y-ray proves the
                # min side infeasible, an X-ray the max side
                cert = sol.certificate
                if status == Status.Infeasible:
                    assert sorted(cert) == ["w", "z_blocks"]
                    y, z = cert["w"], cert["z_blocks"]
                    assert y.shape == (m,) and prob.rhs @ y > 0
                    resid = np.sqrt(sum(np.sum((a + zb) ** 2)
                                        for a, zb in zip(prob.unpack(prob.a_svec @ y), z)))
                    assert resid <= 1e-8 * (1 + np.linalg.norm(y))
                    rays = z
                else:
                    assert sorted(cert) == ["x_blocks"]
                    x = cert["x_blocks"]
                    x_norm = np.sqrt(sum(np.sum(xb * xb) for xb in x))
                    assert np.linalg.norm(prob.constraint_values(x)) <= 1e-8 * (1 + x_norm)
                    assert prob.primal_cost(x) < 0
                    rays = x
                assert min(np.linalg.eigvalsh(sym(r))[0] for r in rays) >= -1e-8

    def test_rank_deficient_constraints_stay_in_pair_form(self, rng):
        prob = random_feasible_sdp(rng, 4, 7)
        dup = np.hstack([prob.a_svec, prob.a_svec[:, :1]])
        consistent = SdpProblem(block_dims=prob.block_dims, cost_blocks=prob.cost_blocks,
                                a_svec=dup, rhs=np.append(prob.rhs, prob.rhs[0]))
        assert _reduced_form(consistent) is None
        want = solve(prob)
        sol = solve(consistent)
        assert sol.status == Status.Optimal
        assert abs(sol.objective - want.objective) <= 1e-7 * (1 + abs(want.objective))
        # b outside A's range: the elimination's least-squares value would read Optimal
        inconsistent = SdpProblem(block_dims=prob.block_dims, cost_blocks=prob.cost_blocks,
                                  a_svec=dup, rhs=np.append(prob.rhs, prob.rhs[0] + 1.0))
        assert _reduced_form(inconsistent) is None
        sol = solve(inconsistent)
        assert sol.status == Status.Infeasible
        assert sol.objective == np.inf


def _random_pd(rng, big_n, r):
    g = rng.standard_normal((big_n, r, r))
    return g @ np.swapaxes(g, -1, -2) + 0.1 * np.eye(r)


def _close(got, want, rel=1e-12):
    return np.abs(got - want).max(initial=0.0) <= rel * np.abs(want).max(initial=0.0)


def _restricted_ops(prob, rank, samples):
    return _conic_from_restricted(
        restrict_dual(prob, ensembles_for_problem(prob, rank, samples, 0))).ops


class TestSchurFormulas:
    """A restricted dual's Schur complement, per group, by the base-space
    kernel or from the per-sample projected rows G_ij = U_i' smat(R_j) U_i."""

    @staticmethod
    def base_share(ut, rows, xs, zs):
        u = np.swapaxes(ut, -1, -2)
        return rows @ aggregate_congruence_operator(u @ (xs @ ut), u @ (zs @ ut)) @ rows.T

    def test_the_two_formulas_agree(self, rng):
        pop, poc = default_pop_problem(), compile_poc(default_poc_problem())
        cases = [_conic_from_restricted(_reduced_form(pop)).ops]  # N = 1 identity groups
        cases += [_restricted_ops(pop, r, 12) for r in (1, 3, 6, 11)]
        cases += [_restricted_ops(poc, r, 30) for r in (1, 2, 3)]  # n in {2, 3}, m = 6
        # svec(3) = 6 constraints leave the restricted dual no rows
        cases += [_restricted_ops(random_feasible_sdp(rng, 3, 6), 2, 5)]
        assert cases[-1].num_rows == 0 and cases[-3].base_dims == (2, 3)
        for ops in cases:
            xs = [_random_pd(rng, big_n, r) for big_n, r in ops.groups]
            zs = [_random_pd(rng, big_n, r) for big_n, r in ops.groups]
            for ut, rows, x, z in zip(ops.ut_stacks, ops.row_segments, xs, zs):
                want = sym(self.base_share(ut, rows, x, z))
                got = sym(SampleRows(ut, rows).schur(x, z))
                assert got.shape == want.shape == (ops.num_rows, ops.num_rows)
                assert _close(got, want)
            full = sym(sum(self.base_share(ut, rows, x, z) for ut, rows, x, z in
                           zip(ops.ut_stacks, ops.row_segments, xs, zs)))
            assert _close(ops.schur(xs, zs), full)

    def test_identity_groups_project_to_their_own_rows(self):
        # U = I needs no shortcut: the general products give smat(R_j) exactly.
        ops = _conic_from_restricted(_reduced_form(default_pop_problem())).ops
        for ut, rows, n in zip(ops.ut_stacks, ops.row_segments, ops.base_dims):
            g = SampleRows(ut, rows).g.reshape(n, len(rows), n)
            assert np.array_equal(g, np.stack([_linalg.smat(row, n) for row in rows], axis=1))

    def test_the_choice_of_formula_is_pinned(self, rng, monkeypatch):
        pop, poc = default_pop_problem(), compile_poc(default_poc_problem())
        per_sample = {
            "pair": (_conic_from_restricted(_reduced_form(pop)).ops, [True, True]),
            **{f"pop r={r}": (_restricted_ops(pop, r, 100), [True, True]) for r in (1, 3)},
            **{f"pop r={r}": (_restricted_ops(pop, r, 100), [False, False]) for r in (11, 25)},
            **{f"poc r={r}": (_restricted_ops(poc, r, 100), [False, False]) for r in (1, 2, 3)},
        }
        bands = []
        real_band = _linalg.congruence_band
        monkeypatch.setattr(_linalg, "congruence_band",
                            lambda pt, qt, a, out: bands.append(a) or real_band(pt, qt, a, out))
        for name, (ops, want) in per_sample.items():
            assert [s is not None for s in ops.sample_rows] == want, name
            bands.clear()
            xs = [_random_pd(rng, big_n, r) for big_n, r in ops.groups]
            ops.schur(xs, [_random_pd(rng, big_n, r) for big_n, r in ops.groups])
            # one kernel band per row of each base-formula group's base block
            assert len(bands) == sum(n for n, s in zip(ops.base_dims, ops.sample_rows)
                                     if s is None), name


def _duplicated_constraint(rng) -> SdpProblem:
    """A feasible pair on one 4 x 4 block whose last constraint repeats its first."""
    prob = random_feasible_sdp(rng, 4, 7)
    return SdpProblem(block_dims=prob.block_dims, cost_blocks=prob.cost_blocks,
                      a_svec=np.hstack([prob.a_svec, prob.a_svec[:, :1]]),
                      rhs=np.append(prob.rhs, prob.rhs[0]))


class TestComplementBasis:
    def test_default_pop_basis_spans_the_svd_complement(self):
        red = default_pop_problem().reduction
        a_mat, perp = red.a_mat, red.perp
        dim, m = a_mat.shape
        assert perp.shape == (dim, dim - m) == (637, 90)
        assert np.abs(perp.T @ perp - np.eye(dim - m)).max() <= 1e-12
        assert np.abs(a_mat.T @ perp).max() <= 1e-12
        u, s, _ = np.linalg.svd(a_mat, full_matrices=True)
        oracle = u[:, int(np.sum(s > 1e-11 * s[0])):]
        assert np.abs(perp @ perp.T - oracle @ oracle.T).max() <= 1e-10

    def test_duplicated_constraint_counts_once(self, rng):
        dup = _duplicated_constraint(rng)
        dim, m = dup.a_svec.shape
        perp = dup.reduction.perp
        assert perp.shape == (dim, dim - m + 1)
        assert np.abs(dup.a_svec.T @ perp).max() <= 1e-12

    def test_no_constraints_gives_the_identity(self):
        prob = SdpProblem(block_dims=(2, 3), cost_blocks=(np.eye(2), np.eye(3)),
                          constraints=[], sense="min")
        assert np.array_equal(prob.reduction.perp, np.eye(9))

    def test_wide_constraint_matrix(self, rng):
        # m > dim: the raw QR holds more columns than Q has reflectors
        a_svec = rng.standard_normal((6, 4)) @ rng.standard_normal((4, 8))
        prob = SdpProblem(block_dims=(3,), cost_blocks=(np.eye(3),), a_svec=a_svec,
                          rhs=rng.standard_normal(8))
        red = prob.reduction
        assert red.rank == 4
        assert red.perp.shape == (6, 2)
        assert np.abs(red.perp.T @ red.perp - np.eye(2)).max() <= 1e-12
        assert np.abs(a_svec.T @ red.perp).max() <= 1e-12
        v = a_svec @ rng.standard_normal(8)  # in A's range
        assert np.abs(a_svec @ red.solve_gram(a_svec.T @ v) - v).max() <= 1e-6 * np.abs(v).max()

    def test_full_rank_gram_solve_from_r(self, rng, monkeypatch):
        from sdpsketch import sos

        monkeypatch.setattr(sos, "_ridge_gram_solve", lambda a: pytest.fail("A'A formed"))
        red = default_pop_problem().reduction
        assert red.rank == red.a_mat.shape[1] == 547
        rhs = rng.standard_normal((547, 2))
        want = np.linalg.solve(red.a_mat.T @ red.a_mat, rhs)
        assert np.abs(red.solve_gram(rhs) - want).max() <= 1e-10 * np.abs(want).max()
        assert np.abs(red.solve_gram(rhs[:, 0]) - want[:, 0]).max() <= 1e-10 * np.abs(want).max()

    def test_rank_deficient_a_keeps_the_gram_rule(self, rng):
        from scipy.linalg import cho_factor, cho_solve

        prob = _duplicated_constraint(rng)
        a_mat = prob.a_svec
        m = a_mat.shape[1]
        assert prob.reduction.rank == m - 1
        gram = a_mat.T @ a_mat
        rhs = rng.standard_normal(m)
        cho = cho_factor(gram + 1e-14 * np.trace(gram) / m * np.eye(m))
        assert np.array_equal(prob.reduction.solve_gram(rhs), cho_solve(cho, rhs))

    def test_rank_deficient_pair_form_builds_no_complement(self, rng):
        prob = _duplicated_constraint(rng)
        dim, m = prob.a_svec.shape
        assert 2 * m > dim  # so the rank, not the size, keeps the pair form
        assert _reduced_form(prob) is None
        assert "reduction" in prob.__dict__ and "perp" not in prob.reduction.__dict__

    @pytest.mark.parametrize("kind", ["pair", "nested cell"])
    def test_touching_the_reduction_first_changes_no_bit(self, kind):
        def solved(touch):
            pop = default_pop_problem()
            if touch:  # outside any solve, so at the caller's BLAS thread count
                pop.reduction.perp, pop.reduction.rhs
            if kind == "pair":
                return solve(pop)
            return solve(restrict_dual(pop, _nested_pop_chain(pop, 25)))

        touched, fresh = solved(True).to_json_dict(), solved(False).to_json_dict()
        del touched["solve_seconds"], fresh["solve_seconds"]
        assert touched == fresh

    def test_basis_is_the_same_after_a_file_round_trip(self):
        prob = default_pop_problem()
        back = SdpProblem.from_json(prob.to_json())
        assert back is not prob and "reduction" not in back.__dict__
        assert np.array_equal(back.a_svec, prob.a_svec)
        assert np.array_equal(back.reduction.perp, prob.reduction.perp)


def _nested_pop_chain(pop: SdpProblem, rank: int):
    """The ensembles of `rank` in a nested sweep over ranks 3, 11, 25 (N = 20, seed 0)."""
    chain = ensembles_for_problem(pop, 3, 20, 0)
    for r in (11, 25):
        if r <= rank:
            chain = extend_ensembles(chain, r)
    return chain


class TestSymmetricResults:
    def test_every_returned_group_is_exactly_symmetric(self, rng, monkeypatch):
        # The solver reads the IPM's X, Z and certificate groups as they are,
        # without symmetrizing them: they are exactly symmetric by construction.
        results = []
        real = solver.solve_conic
        monkeypatch.setattr(solver, "solve_conic",
                            lambda *args: results.append(real(*args)) or results[-1])
        poc, pop = compile_poc(default_poc_problem()), default_pop_problem()
        problems = [poc, pop]
        problems += [restrict_dual(poc, ensembles_for_problem(poc, r, 100, seed))
                     for r in (1, 2, 3) for seed in (0, 1)]
        problems += [restrict_dual(pop, _nested_pop_chain(pop, r)) for r in (3, 11, 25)]
        problems += [make(rng, 5, 4) for make in (random_feasible_sdp, infeasible_sdp,
                                                 unbounded_sdp) for _ in range(2)]
        for prob in problems:
            solve(prob)
        # the corpus reaches the best-iterate rollback and both certificates
        assert {OPTIMAL, MAX_ITERATIONS, PRIMAL_INFEASIBLE, DUAL_INFEASIBLE} <= {
            res.status for res in results}
        for res in results:
            cert = res.certificate or {}
            for group in [*res.x_blocks, *res.z_blocks,
                          *cert.get("x_blocks", ()), *cert.get("z_blocks", ())]:
                assert np.array_equal(group, group.swapaxes(-1, -2))


class TestFactorReuse:
    def test_x_and_z_are_factored_once_per_iterate(self, monkeypatch):
        # One Cholesky factor of X and Z per iterate serves Z^-1 and every
        # step length; no general solve remains inside the IPM.
        prob = compile_poc(default_poc_problem())
        prog = _conic_from_restricted(restrict_dual(prob, ensembles_for_problem(prob, 3, 30, 0)))
        calls = {"solve": 0, "cholesky": 0}
        for name in calls:
            def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        res = solve_conic(prog)
        assert res.status == OPTIMAL
        assert calls["solve"] == 0
        assert 0 < calls["cholesky"] <= len(prog.ops.groups) * (2 * res.iterations + 1)


class TestResidualReuse:
    @pytest.mark.parametrize("cell", ["poc pair", "pop r3 infeasible"])
    def test_rows_and_adjoint_run_once_per_residual(self, cell, monkeypatch):
        # Per Newton step: rows(X) and adj(w) once, read by every residual test
        # and the right-hand side, plus the Newton passes' row inner products
        # (three applies) and adjoints of dw (two). The last iterate is only
        # evaluated.
        if cell == "poc pair":
            prog = _conic_from_pair(compile_poc(default_poc_problem()))
        else:  # its primal certificate test runs at 5 of its 9 iterates
            pop = default_pop_problem()
            prog = _conic_from_restricted(restrict_dual(pop, ensembles_for_problem(pop, 3, 100, 0)))
        calls = {"apply": 0, "adjoint_blocks": 0}
        for name in calls:
            def counted(ops, *args, _real=getattr(type(prog.ops), name), _name=name):
                calls[_name] += 1
                return _real(ops, *args)

            monkeypatch.setattr(type(prog.ops), name, counted)
        res = solve_conic(prog)
        assert res.status == (OPTIMAL if cell == "poc pair" else ipm.PRIMAL_INFEASIBLE)
        steps = res.iterations - 1
        assert calls["apply"] <= 4 * steps + 2, (calls, res.iterations)
        assert calls["adjoint_blocks"] <= 3 * steps + 2, (calls, res.iterations)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rollback_returns_the_best_iterate_unchanged(self, seed):
        # These POC rank-2 cells end on the rollback to their best iterate.
        poc = compile_poc(default_poc_problem())
        prog = _conic_from_restricted(restrict_dual(poc, ensembles_for_problem(poc, 2, 100, seed)))
        res = solve_conic(prog, trace=True)
        assert res.status == ipm.MAX_ITERATIONS
        ops = prog.ops
        primal = np.linalg.norm(ops.apply(res.x_blocks) - prog.rhs) / (1 + np.linalg.norm(prog.rhs))
        c_norm = np.sqrt(sum(float(np.sum(c * c)) for c in prog.block_costs))
        dual = np.sqrt(sum(float(np.sum((a + z - c) ** 2)) for a, z, c in
                           zip(ops.adjoint_blocks(res.w), res.z_blocks, prog.block_costs)))
        dual /= 1 + c_norm
        best = min(res.trace, key=lambda row: max(row["primal"], row["dual"], row["gap"]))
        last = res.trace[-1]
        assert best is not last
        assert primal == pytest.approx(best["primal"], rel=1e-6)
        assert dual == pytest.approx(best["dual"], rel=1e-6)
        assert (primal, dual) != pytest.approx((last["primal"], last["dual"]), rel=1e-6)


class TestClassification:
    def test_infeasible_batch(self, rng):
        for k in range(10):
            prob = infeasible_sdp(rng, int(rng.integers(2, 7)), int(rng.integers(1, 5)))
            sol = solve(prob)
            assert sol.status == Status.Infeasible
            assert sol.objective == np.inf  # min sense
            assert sol.certificate is not None

    def test_unbounded_batch(self, rng):
        for k in range(10):
            prob = unbounded_sdp(rng, int(rng.integers(2, 7)), int(rng.integers(1, 5)))
            sol = solve(prob)
            assert sol.status == Status.Unbounded
            assert sol.objective == -np.inf
            assert sol.certificate is not None

    def test_max_sense_flips_reporting(self, rng):
        prob = infeasible_sdp(rng, 4, 2)
        flipped = SdpProblem(
            block_dims=prob.block_dims,
            cost_blocks=prob.cost_blocks,
            constraints=prob.constraints,
            sense="max",
        )
        sol = solve(flipped)
        assert sol.status == Status.Unbounded
        assert sol.objective == np.inf


class TestKkt:
    def test_exact_solution_zero_residuals(self):
        prob = trace_problem()
        sol = Solution(
            status=Status.Optimal,
            objective=1.0,
            psd_blocks=[np.diag([1.0, 0.0])],
            free_vars=np.array([1.0]),
            eq_multipliers=np.array([1.0]),
        )
        res = kkt_residuals(prob, sol)
        assert res.max() <= 1e-12

    def test_perturbed_multiplier_moves_primal_residual(self):
        prob = trace_problem()
        sol = Solution(
            status=Status.Optimal,
            objective=1.0,
            psd_blocks=[np.diag([1.0, 0.0])],
            free_vars=np.array([1.0 + 1e-3]),
            eq_multipliers=np.array([1.0]),
            dual_slacks=[np.diag([0.0, 1.0])],
        )
        res = kkt_residuals(prob, sol)
        assert res.primal >= 1e-4

    def test_zero_candidate_residual_is_normalized_cost(self, rng):
        prob = random_feasible_sdp(rng, 5, 3)
        n = prob.block_dims[0]
        sol = Solution(
            status=Status.Optimal,
            objective=0.0,
            psd_blocks=[np.zeros((n, n))],
            free_vars=np.zeros(prob.num_constraints),
            eq_multipliers=np.zeros(prob.num_constraints),
            dual_slacks=[np.zeros((n, n))],
        )
        res = kkt_residuals(prob, sol)
        cnorm = np.linalg.norm(prob.cost_blocks[0])
        assert np.isclose(res.primal, cnorm / (1 + cnorm), rtol=1e-12)

    def test_replay_verification_over_random_instances(self, rng):
        for _ in range(8):
            prob = random_feasible_sdp(rng, int(rng.integers(3, 9)), int(rng.integers(2, 6)))
            sol = solve(prob)
            assert sol.status == Status.Optimal
            res = kkt_residuals(prob, sol)
            assert res.max() <= 1e-8 * (1 + abs(sol.objective))


class TestScaling:
    def test_iteration_cost_grows_superquadratically(self, rng):
        # single-block instances with constraint count growing linearly in n;
        # per-iteration wall time against n should fit an exponent >= 2.5
        sizes = [25, 50, 100]
        cfg = SolverConfig(max_iterations=10, tolerance=1e-300)  # never met: 10 iterations
        solve(random_feasible_sdp(rng, 25, 75), cfg)  # warm numpy/BLAS caches
        times = []
        for n in sizes:
            prob = random_feasible_sdp(rng, n, 3 * n)
            times.append(min(solve(prob, cfg).seconds_per_iteration for _ in range(2)))
        logs = np.log(np.array(sizes))
        logt = np.log(np.array(times))
        slope = np.polyfit(logs, logt, 1)[0]
        assert slope >= 2.5, f"scaling exponent {slope:.2f} below 2.5: {times}"


class TestRobustness:
    @staticmethod
    def _solve_with_failing_factor_inverse(prob, monkeypatch, fail):
        # Invert the Cholesky factors of X and Z normally, and from the third
        # inverse on return fail(factor) instead.
        real_inv = np.linalg.inv
        inverses = []

        def inv_failing_from_the_third(a):
            a = np.asarray(a)
            if np.array_equal(a, np.tril(a)):
                inverses.append(a)
                if len(inverses) >= 3:
                    return fail(a)
            return real_inv(a)

        monkeypatch.setattr(np.linalg, "inv", inv_failing_from_the_third)
        sol = solve(prob)
        assert len(inverses) >= 3
        return sol

    def test_singular_z_inverse_ends_the_solve(self, rng, monkeypatch):
        # Z can pass its Cholesky check and still be singular in rounding, so
        # that inverting its factor raises.  Force that from the third inverse on.
        def raise_singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        prob = random_feasible_sdp(rng, 5, 3)
        sol = self._solve_with_failing_factor_inverse(prob, monkeypatch, raise_singular)
        assert sol.status == Status.NumericalFailure
        assert sol.iterations == 3
        assert sol.kkt is not None and np.isfinite(sol.objective)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_factor_inverse_ends_the_solve(self, rng, monkeypatch):
        # A factor with a tiny pivot can invert without an error into inf or
        # nan; the solve must stop there, not compute on with it.
        prob = random_feasible_sdp(rng, 5, 3)
        sol = self._solve_with_failing_factor_inverse(
            prob, monkeypatch, lambda a: np.full(a.shape, np.inf))
        assert sol.status == Status.NumericalFailure
        assert sol.iterations == 3
        assert sol.kkt is not None and np.isfinite(sol.objective)

    def test_poc_cells_with_a_singular_z_return_a_status(self):
        # Rank 2 on these ensemble seeds once raised from inverting Z.
        prob = compile_poc(default_poc_problem())
        for seed in (619, 1823):
            sol = solve(restrict_dual(prob, ensembles_for_problem(prob, 2, 100, seed)))
            assert isinstance(sol.status, Status)
