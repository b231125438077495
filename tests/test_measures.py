import numpy as np
import pytest

from sdpsketch.instances import default_pop_problem
from sdpsketch.measures import (
    GridDensity,
    MomentRecoveryError,
    MomentVector,
    density_grid,
    extract_moments,
    local_maxima,
    moment_matrix,
)
from sdpsketch.polynomial import monomial_basis, parse_polynomial
from sdpsketch.solver import Status, solve
from sdpsketch.sos import compile_pop


def delta_moments(point: float, degree: int = 2) -> MomentVector:
    basis = monomial_basis(1, degree)
    return MomentVector(
        basis=basis,
        moments={(k,): point**k for k in range(2 * degree + 1)},
    )


class TestExtraction:
    def test_pure_square_recovers_delta_at_zero(self):
        prob = compile_pop(parse_polynomial("x1^2", 1), monomial_basis(1, 1))
        sol = solve(prob)
        mv = extract_moments(sol, prob)
        assert mv.moments[(0,)] == 1.0
        assert abs(mv.moments[(1,)]) <= 1e-5
        assert abs(mv.moments[(2,)]) <= 1e-5

    def test_shifted_square_recovers_delta_at_one(self):
        p = parse_polynomial("x1^2 - 2*x1 + 2", 1)
        prob = compile_pop(p, monomial_basis(1, 1))
        sol = solve(prob)
        mv = extract_moments(sol, prob)
        assert abs(mv.moments[(1,)] - 1.0) <= 1e-3
        assert abs(mv.moments[(2,)] - 1.0) <= 1e-3
        assert abs(mv.pairing(p) - sol.objective) <= 1e-5

    def test_strong_duality_pairing(self):
        for text in ("x1^2", "x1^2 - 2*x1 + 2"):
            p = parse_polynomial(text, 1)
            prob = compile_pop(p, monomial_basis(1, 1))
            sol = solve(prob)
            mv = extract_moments(sol, prob)
            assert abs(mv.pairing(p) - sol.objective) <= 1e-5

    def test_rejects_non_optimal(self):
        prob = compile_pop(parse_polynomial("x1^2", 1), monomial_basis(1, 1))
        sol = solve(prob)
        sol.status = Status.MaxIterations
        with pytest.raises(MomentRecoveryError):
            extract_moments(sol, prob)

    def test_rejects_problem_without_meta(self, rng):
        from sdpsketch.instances import random_feasible_sdp

        prob = random_feasible_sdp(rng, 4, 2)
        sol = solve(prob)
        with pytest.raises(MomentRecoveryError):
            extract_moments(sol, prob)

    def test_rejects_degenerate_mass(self):
        import numpy as np

        prob = compile_pop(parse_polynomial("x1^2", 1), monomial_basis(1, 1))
        sol = solve(prob)
        sol.moment_matrices = [np.zeros_like(sol.moment_matrices[0])]
        with pytest.raises(MomentRecoveryError, match="degenerate"):
            extract_moments(sol, prob)


class TestMomentMatrix:
    def test_delta_zero(self):
        m = moment_matrix(delta_moments(0.0), monomial_basis(1, 1))
        assert np.allclose(m, [[1.0, 0.0], [0.0, 0.0]])

    def test_delta_one_rank_one(self):
        m = moment_matrix(delta_moments(1.0), monomial_basis(1, 1))
        assert np.allclose(m, [[1.0, 1.0], [1.0, 1.0]])
        assert np.linalg.matrix_rank(m, tol=1e-10) == 1

    def test_mixture_is_positive_definite(self):
        half = {
            (k,): 0.5 * (0.0**k) + 0.5 * (1.0**k) for k in range(5)
        }
        mv = MomentVector(basis=monomial_basis(1, 2), moments=half)
        m = moment_matrix(mv, monomial_basis(1, 1))
        assert np.allclose(m, [[1.0, 0.5], [0.5, 0.5]])
        assert np.linalg.eigvalsh(m)[0] > 0.0

    def test_missing_moment_raises(self):
        mv = MomentVector(basis=monomial_basis(1, 1), moments={(0,): 1.0, (1,): 0.5})
        with pytest.raises(MomentRecoveryError):
            moment_matrix(mv, monomial_basis(1, 1))


class TestDensityGrid:
    def test_delta_concentrates_at_atom(self):
        g = density_grid(delta_moments(1.0), monomial_basis(1, 1), [(-2.0, 2.0, 201)])
        assert g.argmax_point() == (1.0,)
        assert abs(g.values.sum() - 1.0) <= 1e-12
        assert np.all(g.values >= 0.0)

    def test_symmetric_moments_give_symmetric_field(self):
        # moments of the uniform measure on [-1, 1]
        mv = MomentVector(
            basis=monomial_basis(1, 2),
            moments={(k,): (1.0 / (k + 1) if k % 2 == 0 else 0.0) for k in range(5)},
        )
        g = density_grid(mv, monomial_basis(1, 2), [(-1.0, 1.0, 101)])
        assert np.allclose(g.values, g.values[::-1], atol=1e-12)

    def test_grid_errors(self):
        with pytest.raises(ValueError):
            density_grid(delta_moments(0.0), monomial_basis(1, 1), [(-1.0, 1.0, 0)])

    def test_default_instance_modes_at_the_four_zeros(self):
        prob = default_pop_problem()
        sol = solve(prob)
        mv = extract_moments(sol, prob)
        g = density_grid(mv, monomial_basis(2, 3), [(-2.0, 2.0, 201)] * 2)
        peaks = local_maxima(g, 4)
        cell = 4.0 / 200
        targets = {(a, b) for a in (-1.0, 1.0) for b in (-1.0, 1.0)}
        for want in targets:
            hit = min(max(abs(px - want[0]), abs(py - want[1])) for px, py in peaks)
            assert hit <= cell + 1e-12

    def test_occupation_measure_continuity_identity(self):
        # For the compiled control instance the equation multipliers carry the
        # state-action occupation measure: pairing grad(v).f against it gives
        # v at the terminal state minus v at the initial one (integration by
        # parts of the continuity equation), and pairing the running cost
        # gives the attained objective.
        from sdpsketch.control import compile_poc
        from sdpsketch.instances import default_poc_problem
        from sdpsketch.polynomial import Polynomial, gradient

        cp = default_poc_problem()
        prob = compile_poc(cp)
        sol = solve(prob)
        mv = extract_moments(sol, prob)
        assert mv.mass > 0.0
        for v_state in (Polynomial(1, {(1,): 1.0}), Polynomial(1, {(2,): 1.0})):
            v_joint = Polynomial(2, {m + (0,): c for m, c in v_state.terms.items()})
            lie = Polynomial(2, {})
            for k in range(cp.num_states):
                lie = lie + gradient(v_joint)[k] * cp.dynamics[k]
            lhs = mv.pairing(lie, raw=True)
            want = float(v_state(cp.xT) - v_state(cp.x0))
            assert abs(lhs - want) <= 1e-5
        assert abs(mv.pairing(cp.cost, raw=True) - sol.objective) <= 1e-5

    def test_marginal_drops_control_moments(self):
        basis = monomial_basis(2, 1)
        mv = MomentVector(
            basis=basis,
            moments={(0, 0): 1.0, (1, 0): 0.5, (0, 1): -0.25, (2, 0): 0.5,
                     (1, 1): 0.0, (0, 2): 0.25},
        )
        marg = mv.marginal([0])
        assert marg.moments == {(0,): 1.0, (1,): 0.5, (2,): 0.5}


def per_row_csv(grid: GridDensity) -> bytes:
    """The reference writer: one numpy scalar at a time, through Python floats."""
    dims = len(grid.axes)
    lines = [",".join([f"x{i+1}" for i in range(dims)] + ["value"])]
    flat = [g.ravel() for g in np.meshgrid(*grid.axes, indexing="ij")]
    vals = grid.values.ravel()
    for k in range(vals.size):
        coords = ",".join(repr(float(f[k])) for f in flat)
        lines.append(f"{coords},{repr(float(vals[k]))}")
    return ("\n".join(lines) + "\n").encode()


class TestWriters:
    def test_csv_bytes_match_the_per_row_writer(self, tmp_path, rng):
        two_d = MomentVector(
            basis=monomial_basis(2, 1),
            moments={(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.5, (2, 0): 0.5,
                     (1, 1): 0.25, (0, 2): 0.5},
        )
        grids = [
            density_grid(delta_moments(0.3), monomial_basis(1, 1), [(-1.0, 1.0, 7)]),
            density_grid(two_d, monomial_basis(2, 1), [(-1.0, 1.0, 3), (-0.5, 2.0, 5)]),
            GridDensity(axes=[np.linspace(-1, 1, 3), np.linspace(0, 0.7, 4), np.array([0.1, 1e-7])],
                        values=rng.random((3, 4, 2))),
            # integer axes and float32 values: their numpy str differs from the float repr
            GridDensity(axes=[np.arange(3), np.array([-2, 5])],
                        values=np.array([[0.1, 0.2], [1 / 3, 0.0], [2.5e-8, 0.7]], dtype=np.float32)),
            # shortest repr, subnormals and the sign of zero; %.17g differs on each
            GridDensity(axes=[np.array([0.1, 0.1 + 0.2]), np.array([-0.0, 1e-300])],
                        values=np.array([[5e-324, 1e-300], [0.1 + 0.2, -0.0]])),
        ]
        for k, grid in enumerate(grids):
            path = tmp_path / f"grid{k}.csv"
            grid.to_csv(path)
            assert path.read_bytes() == per_row_csv(grid), k

    def test_csv_and_pgm(self, tmp_path):
        g = density_grid(
            MomentVector(
                basis=monomial_basis(2, 1),
                moments={(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.5, (2, 0): 0.5,
                         (1, 1): 0.25, (0, 2): 0.5},
            ),
            monomial_basis(2, 1),
            [(-1.0, 1.0, 11), (-1.0, 1.0, 11)],
        )
        csv_path = tmp_path / "grid.csv"
        g.to_csv(csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "x1,x2,value"
        assert len(lines) == 1 + 121
        pgm_path = tmp_path / "grid.pgm"
        g.to_pgm(pgm_path)
        raw = pgm_path.read_bytes()
        assert raw.startswith(b"P5\n11 11\n65535\n")
        img = np.frombuffer(raw.split(b"65535\n", 1)[1], dtype=">u2")
        assert img.size == 121
        assert img.max() == 65535
