import pytest

from sdpsketch.control import compile_poc
from sdpsketch.instances import default_poc_problem, random_feasible_sdp
from sdpsketch.sketch import ensembles_for_problem, project_primal, restrict_dual, sample_ensemble
from sdpsketch.solver import SolverConfig, Status, kkt_residuals, solve, solve_consensus


def feasible_projected_instances(count, rng):
    """Projected instances that are feasible by construction (rank close to
    full, several samples)."""
    out = []
    while len(out) < count:
        n = int(rng.integers(4, 9))
        m = int(rng.integers(2, 6))
        prob = random_feasible_sdp(rng, n, m)
        ens = sample_ensemble(n, n - int(rng.integers(0, 2)), int(rng.integers(3, 7)),
                              seed=len(out))
        bs = restrict_dual(prob, ens)
        if solve(bs).status == Status.Optimal:
            out.append(bs)
    return out


class TestAgreement:
    def test_matches_interior_point_on_suite(self, rng):
        instances = feasible_projected_instances(10, rng)
        for k, bs in enumerate(instances):
            ip = solve(bs)
            cs = solve_consensus(bs, SolverConfig(workers=1))
            assert cs.status == Status.Optimal, f"instance {k}: {cs.status}"
            tol = 1e-4 * (1.0 + abs(ip.objective))
            assert abs(cs.objective - ip.objective) <= tol, (
                f"instance {k}: {cs.objective} vs {ip.objective}"
            )

    def test_projected_primal_is_solved_in_both_modes(self, rng):
        bs = feasible_projected_instances(1, rng)[0]
        projected = project_primal(bs.base, bs.ensembles)
        ip = solve(projected)
        cs = solve(projected, SolverConfig(mode="consensus"))
        assert ip.status == cs.status == Status.Optimal
        assert abs(cs.objective - ip.objective) <= 1e-4 * (1.0 + abs(ip.objective))

    def test_worker_count_does_not_change_result(self, rng):
        # The parallel work is cut the same way at every worker count, so
        # the results must agree exactly.  The first instance has fewer
        # samples than an ensemble has chunks (one sample per chunk); the
        # second has 40 samples of rank n - 1, spread over every chunk.
        few = feasible_projected_instances(1, rng)[0]
        prob = random_feasible_sdp(rng, 8, 4)
        instances = [few, restrict_dual(prob, sample_ensemble(8, 7, 40, seed=3))]
        for bs in instances:
            results = [solve_consensus(bs, SolverConfig(workers=w)) for w in (1, 2, 4)]
            a = results[0]
            assert a.status == Status.Optimal
            for b in results[1:]:
                assert b.status == a.status
                assert b.iterations == a.iterations
                assert a.objective == b.objective

    def test_singular_hessian_at_large_rho_is_a_numerical_failure(self, rng):
        # Three rank-2 samples of an 8 x 8 block: H has rank at most 9 of 36.
        # At this rho the rounding in rho H outweighs delta, so the Cholesky
        # factor of rho H + delta I breaks down; the solve must report it
        # the same way at every worker count instead of raising.
        prob = random_feasible_sdp(rng, 8, 4)
        bs = restrict_dual(prob, sample_ensemble(8, 2, 3, seed=5))
        for workers in (1, 2):
            sol = solve_consensus(bs, SolverConfig(rho=1e9, workers=workers))
            assert sol.status == Status.NumericalFailure
            assert sol.iterations == 0

    def test_requires_restricted_block_form(self, rng):
        prob = random_feasible_sdp(rng, 4, 2)
        with pytest.raises(TypeError):
            solve_consensus(prob, SolverConfig())


class TestFixedPoint:
    def test_single_full_rank_block_satisfies_base_kkt(self, rng):
        prob = random_feasible_sdp(rng, 5, 3)
        ens = sample_ensemble(5, 5, 1, seed=1)
        bs = restrict_dual(prob, ens)
        cs = solve_consensus(bs, SolverConfig(workers=1))
        assert cs.status == Status.Optimal
        res = kkt_residuals(bs, cs)
        assert res.max() <= 1e-4

    def test_poc_instance_converges_to_analytic_value(self):
        pc = compile_poc(default_poc_problem())
        bs = restrict_dual(pc, ensembles_for_problem(pc, 3, 30, seed=0))
        cs = solve_consensus(bs, SolverConfig(workers=1))
        assert cs.status == Status.Optimal
        assert abs(cs.objective - 1.0) <= 1e-4


class TestResidualBehavior:
    def test_residuals_trend_down_after_burn_in(self, rng):
        bs = feasible_projected_instances(1, rng)[0]
        cfg = SolverConfig(workers=1, keep_trace=True)
        cs = solve_consensus(bs, cfg)
        hist = [row["residual"] for row in cs.trace]
        assert len(hist) >= 20
        burn = max(5, len(hist) // 10)
        # monotone within 50-step windows after burn-in
        for k in range(burn + 50, len(hist)):
            assert hist[k] <= hist[k - 50] * (1.0 + 1e-9) + 1e-14

    def test_final_residual_below_tolerance(self, rng):
        bs = feasible_projected_instances(1, rng)[0]
        cfg = SolverConfig(workers=1, keep_trace=True)
        cs = solve_consensus(bs, cfg)
        assert cs.trace[-1]["residual"] <= cfg.admm_tolerance


class TestTrace:
    def test_trace_path_writes_one_row_per_iteration(self, rng, tmp_path):
        bs = feasible_projected_instances(1, rng)[0]
        path = tmp_path / "trace.csv"
        sol = solve(bs, SolverConfig(mode="consensus", trace_path=str(path)))
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,residual"
        assert len(lines) == 1 + sol.iterations
        assert len(sol.trace) == sol.iterations
