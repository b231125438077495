import numpy as np
import pytest

from sdpsketch.control import (
    ControlProblem,
    bellman_residual,
    compile_poc,
    extract_value_function,
)
from sdpsketch.instances import default_poc_problem
from sdpsketch.polynomial import Polynomial, evaluate, parse_polynomial
from sdpsketch.sketch import ensembles_for_problem, restrict_dual
from sdpsketch.solver import Status, solve
from sdpsketch.sos import SdpProblem


def one_d_instance() -> ControlProblem:
    return default_poc_problem()


class TestCompile:
    def test_static_system_value_zero(self):
        # with no dynamics and matching endpoints any constant V is optimal
        cp = ControlProblem(
            num_states=1,
            num_controls=1,
            dynamics=[Polynomial(2, {})],
            cost=Polynomial(2, {}),
            x0=np.array([0.0]),
            xT=np.array([0.0]),
        )
        sol = solve(compile_poc(cp))
        assert sol.status == Status.Optimal
        assert abs(sol.objective) <= 1e-6

    def test_static_system_unreachable_endpoint_unbounded(self):
        # no dynamics but distinct endpoints: the subsolution program has
        # no coupling, so V(x0) - V(xT) can be scaled without bound
        cp = ControlProblem(
            num_states=1,
            num_controls=1,
            dynamics=[Polynomial(2, {})],
            cost=Polynomial(2, {}),
            x0=np.array([1.0]),
            xT=np.array([0.0]),
        )
        sol = solve(compile_poc(cp))
        assert sol.status == Status.Unbounded

    def test_integrator_analytic_value(self):
        prob = compile_poc(one_d_instance())
        sol = solve(prob)
        assert sol.status == Status.Optimal
        assert abs(sol.objective - 1.0) <= 1e-6

    def test_value_function_recovery(self):
        cp = one_d_instance()
        prob = compile_poc(cp)
        sol = solve(prob)
        v = extract_value_function(prob, sol, cp)
        # optimal face pins the quadratic coefficient at 1, linear at 0
        assert abs(v.coefficient((2,)) - 1.0) <= 1e-5
        assert abs(v.coefficient((1,))) <= 1e-5
        assert abs(sol.objective - (evaluate(v, cp.x0) - evaluate(v, cp.xT))) <= 1e-6

    def test_value_function_recovery_after_json_round_trip(self):
        cp = one_d_instance()
        prob = compile_poc(cp)
        direct = extract_value_function(prob, solve(prob), cp)
        loaded = SdpProblem.from_json(prob.to_json())
        v = extract_value_function(loaded, solve(loaded), cp)
        assert v.num_vars == direct.num_vars
        for mono in set(v.terms) | set(direct.terms):
            assert abs(v.coefficient(mono) - direct.coefficient(mono)) <= 1e-9

    def test_value_function_rejects_mismatched_blocks(self):
        cp = one_d_instance()
        prob = compile_poc(cp)
        sol = solve(prob)
        cp.value_degree += 1
        with pytest.raises(ValueError):
            extract_value_function(prob, sol, cp)

    def test_full_rank_restriction_matches(self):
        prob = compile_poc(one_d_instance())
        full = solve(prob).objective
        ens = ensembles_for_problem(prob, max(prob.block_dims), 1, seed=0)
        sol = solve(restrict_dual(prob, ens))
        assert abs(sol.objective - full) <= 1e-6

    def test_ball_localized_variant_still_attains_one(self):
        cp = one_d_instance()
        cp.state_ball_radius = 2.0
        cp.joint_ball_radius = 3.0
        cp.value_degree = 1
        cp.certificate_degree = 1
        prob = compile_poc(cp)
        assert prob.num_blocks == 4
        sol = solve(prob)
        assert sol.status == Status.Optimal
        # localized certificates only enlarge the feasible set on the ball
        assert sol.objective >= 1.0 - 1e-6


class TestBellmanResidual:
    def grid(self):
        return [(x, u) for x in np.linspace(-2, 2, 9) for u in np.linspace(-2, 2, 9)]

    def test_optimal_value_function_nonnegative(self):
        cp = one_d_instance()
        v = Polynomial(1, {(2,): 1.0})
        # x^2 gives residual (x + u)^2 >= 0
        assert bellman_residual(cp, v, self.grid()) >= 0.0

    def test_scaled_value_function_breaks(self):
        cp = one_d_instance()
        v = Polynomial(1, {(2,): 2.0})
        # 4xu + x^2 + u^2 at u = -x is -2 x^2 < 0
        assert bellman_residual(cp, v, self.grid()) < 0.0

    def test_zero_value_function_gives_min_cost(self):
        cp = one_d_instance()
        pts = self.grid()
        want = min(evaluate(cp.cost, p) for p in pts)
        assert bellman_residual(cp, Polynomial(1, {}), pts) == want

    def test_solution_passes_sampled_audit(self):
        cp = one_d_instance()
        prob = compile_poc(cp)
        sol = solve(prob)
        v = extract_value_function(prob, sol, cp)
        assert bellman_residual(cp, v, self.grid()) >= -1e-6


class TestTrajectoryAudit:
    def test_accumulated_cost_lower_bounded_by_value_gap(self):
        # any admissible trajectory from x0 to xT costs at least V(x0) - V(xT)
        cp = one_d_instance()
        prob = compile_poc(cp)
        sol = solve(prob)
        v = extract_value_function(prob, sol, cp)
        bound = evaluate(v, cp.x0) - evaluate(v, cp.xT)
        for gain in (1.0, 2.0, 0.5):
            cost = _integrate_feedback(gain)
            assert cost >= bound - 1e-4

    def test_optimal_feedback_attains_bound(self):
        assert abs(_integrate_feedback(1.0) - 1.0) <= 1e-6


def _integrate_feedback(gain: float, dt: float = 1e-4, horizon: float = 25.0) -> float:
    """RK4 rollout of xdot = u with u = -gain * x from x = 1, quadratic cost."""
    x = 1.0
    cost = 0.0
    steps = int(horizon / dt)
    for _ in range(steps):
        def f(xv):
            return -gain * xv

        def c(xv):
            u = -gain * xv
            return xv * xv + u * u

        k1, c1 = f(x), c(x)
        k2, c2 = f(x + 0.5 * dt * k1), c(x + 0.5 * dt * k1)
        k3, c3 = f(x + 0.5 * dt * k2), c(x + 0.5 * dt * k2)
        k4, c4 = f(x + dt * k3), c(x + dt * k3)
        x += dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        cost += dt / 6.0 * (c1 + 2 * c2 + 2 * c3 + c4)
        if abs(x) < 1e-9:
            break
    return cost


class TestJson:
    def test_round_trip(self):
        cp = one_d_instance()
        back = ControlProblem.from_json(cp.to_json())
        assert back.num_states == cp.num_states
        assert back.dynamics == cp.dynamics
        assert back.cost == cp.cost
        assert np.array_equal(back.x0, cp.x0)

    def test_document_loading(self):
        doc = {
            "num_states": 1,
            "num_controls": 1,
            "dynamics": ["u1"],
            "cost": "x1^2 + u1^2",
            "x0": [1.0],
            "xT": [0.0],
            "value_degree": 1,
            "certificate_degree": 1,
        }
        cp = ControlProblem.from_json_dict(doc)
        sol = solve(compile_poc(cp))
        assert abs(sol.objective - 1.0) <= 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            ControlProblem(
                num_states=2,
                num_controls=1,
                dynamics=[parse_polynomial("u1", 3, ["x1", "x2", "u1"])],
                cost=Polynomial(3, {}),
                x0=np.array([1.0, 0.0]),
                xT=np.array([0.0, 0.0]),
            )
