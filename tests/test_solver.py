import numpy as np
import pytest

from sdpsketch.control import compile_poc
from sdpsketch.instances import (
    default_poc_problem,
    infeasible_sdp,
    random_feasible_sdp,
    unbounded_sdp,
)
from sdpsketch.ipm import OPTIMAL, solve_conic
from sdpsketch.polynomial import monomial_basis, parse_polynomial
from sdpsketch.sketch import ensembles_for_problem, restrict_dual
from sdpsketch.solver import (
    SolverConfig,
    Solution,
    Status,
    _conic_from_pair,
    _conic_from_restricted,
    kkt_residuals,
    restricted_reduction,
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
        assert restricted_reduction(prob).a_mat is prob.a_svec


class TestFactorReuse:
    def test_x_and_z_are_factored_once_per_iterate(self, monkeypatch):
        # One Cholesky factor of X and Z per iterate serves Z^-1 and every
        # step length; no general solve remains inside the IPM.
        prob = compile_poc(default_poc_problem())
        prog = _conic_from_restricted(
            restrict_dual(prob, ensembles_for_problem(prob, 3, 30, 0)), restricted_reduction(prob))
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
        cfg = SolverConfig(max_iterations=10, tolerance=0.0)
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
