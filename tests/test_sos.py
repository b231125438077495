import json
import math
import pickle

import numpy as np
import pytest

from sdpsketch.polynomial import (
    DegreeOverflowError,
    Polynomial,
    evaluate,
    monomial_basis,
    parse_polynomial,
)
from sdpsketch.sketch import ensembles_for_problem, restrict_dual
from sdpsketch._linalg import PivotedQR, smat
from sdpsketch.solver import Status, solve
from sdpsketch.sos import SdpProblem, compile_pop, compile_sos, compile_sos_on_ball, gram_map


def poly(text, nv=1):
    return parse_polynomial(text, nv)


class TestGramMap:
    def test_line_basis_rows(self):
        gm = gram_map(monomial_basis(1, 1))
        assert gm.rows[(0,)] == [(0, 0, 1)]
        assert gm.rows[(1,)] == [(0, 1, 2)]
        assert gm.rows[(2,)] == [(1, 1, 1)]

    def test_degree_four_counts(self):
        gm = gram_map(monomial_basis(2, 4))
        assert len(gm.rows) == 45  # all monomials of degree <= 8 in 2 vars
        total_pairs = sum(len(v) for v in gm.rows.values())
        assert total_pairs == 15 * 16 // 2

    def test_rows_partition_pairs(self):
        gm = gram_map(monomial_basis(3, 2))
        seen = set()
        for positions in gm.rows.values():
            for i, j, mult in positions:
                assert i <= j
                assert mult == (1 if i == j else 2)
                assert (i, j) not in seen
                seen.add((i, j))
        n = len(monomial_basis(3, 2))
        assert len(seen) == n * (n + 1) // 2


class TestCompileSos:
    def test_pure_square_has_unique_diag_certificate(self):
        prob = compile_sos(poly("x1^2"), monomial_basis(1, 1))
        sol = solve(prob)
        assert sol.status == Status.Optimal
        assert np.allclose(sol.psd_blocks[0], np.diag([0.0, 1.0]), atol=1e-6)

    def test_complete_square_certificate(self):
        prob = compile_sos(poly("x1^2 - 2*x1 + 2"), monomial_basis(1, 1))
        sol = solve(prob)
        assert sol.status == Status.Optimal
        q = sol.psd_blocks[0]
        # the certificate is pinned: [[2,-1],[-1,1]], eigenvalues (3 +- sqrt5)/2
        assert np.allclose(q, [[2.0, -1.0], [-1.0, 1.0]], atol=1e-6)
        eigs = np.linalg.eigvalsh(q)
        assert np.allclose(eigs, [(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2], atol=1e-6)

    def test_negative_square_infeasible(self):
        sol = solve(compile_sos(poly("-1*x1^2"), monomial_basis(1, 1)))
        assert sol.status == Status.Infeasible
        assert sol.objective == -np.inf

    def test_degree_overflow_names_monomial(self):
        with pytest.raises(DegreeOverflowError) as err:
            compile_sos(poly("x1^4"), monomial_basis(1, 1))
        assert "x1^4" in str(err.value)

    def test_gram_identity_for_any_matching_point(self, rng):
        basis = monomial_basis(2, 2)
        p = poly("1 + x1^2*x2^2 + 3*x1^2 - 0.5*x1*x2", 2)
        prob = compile_sos(p, basis)
        for _ in range(5):
            y = rng.standard_normal(prob.num_constraints)
            q = prob.dual_slack(y)[0]
            for _ in range(20):
                x = rng.uniform(-2, 2, 2)
                phi = np.array([np.prod(x ** np.array(m)) for m in basis.elements])
                lhs = float(phi @ q @ phi)
                want = evaluate(p, x)
                assert abs(lhs - want) <= 1e-8 * (1 + abs(want))

    def test_feasible_implies_grid_nonnegative(self, rng):
        cases = [
            poly("x1^2 - 2*x1 + 2"),
            poly("x1^4 + 1"),
            poly("x1^2*x2^2 + x1^2 - 2*x1*x2 + 1", 2),
        ]
        for p in cases:
            basis = monomial_basis(p.num_vars, (p.degree() + 1) // 2)
            sol = solve(compile_sos(p, basis))
            assert sol.status == Status.Optimal
            pts = rng.uniform(-3, 3, size=(400, p.num_vars))
            vals = [evaluate(p, x) for x in pts]
            assert min(vals) >= -1e-6


class TestCompilePop:
    def test_pure_square(self):
        sol = solve(compile_pop(poly("x1^2"), monomial_basis(1, 1)))
        assert sol.status == Status.Optimal
        assert abs(sol.objective) <= 1e-6

    def test_complete_square(self):
        sol = solve(compile_pop(poly("x1^2 - 2*x1 + 2"), monomial_basis(1, 1)))
        assert abs(sol.objective - 1.0) <= 1e-6

    def test_product_instance_bound_matches_grid(self, product_poly):
        from sdpsketch.instances import grid_min

        prob = compile_pop(product_poly, monomial_basis(2, 4))
        sol = solve(prob)
        assert sol.status == Status.Optimal
        assert abs(sol.objective) <= 1e-5
        assert 0.0 <= grid_min(product_poly, -2.0, 2.0, 200) <= 1e-9

    def test_constant_shift_equivariance(self):
        base = poly("x1^4 - 3*x1 + 1")
        basis = monomial_basis(1, 2)
        lam0 = solve(compile_pop(base, basis)).objective
        shifted = base + Polynomial.constant(1, 2.5)
        lam1 = solve(compile_pop(shifted, basis)).objective
        assert abs(lam1 - (lam0 + 2.5)) <= 1e-6


class TestBallCertificates:
    def test_constant_one_feasible(self):
        prob = compile_sos_on_ball(
            poly("1"), monomial_basis(1, 1), radius=1.0, multiplier_basis=monomial_basis(1, 0)
        )
        assert prob.num_blocks == 2
        sol = solve(prob)
        assert sol.status == Status.Optimal

    def test_ball_polynomial_itself_feasible(self):
        # p = 1 - x^2 equals the ball polynomial around radius 1 exactly
        prob = compile_sos_on_ball(
            poly("1 - x1^2"), monomial_basis(1, 1), radius=1.0,
            multiplier_basis=monomial_basis(1, 0),
        )
        sol = solve(prob)
        assert sol.status == Status.Optimal

    def test_negative_on_ball_infeasible(self):
        # p = x - 2 < 0 everywhere on the unit ball
        prob = compile_sos_on_ball(
            poly("x1 - 2"), monomial_basis(1, 1), radius=1.0,
            multiplier_basis=monomial_basis(1, 0),
        )
        sol = solve(prob)
        assert sol.status == Status.Infeasible

    def test_pop_on_ball_interior_minimum(self):
        # min of x^2 - 2x + 2 over |x| <= 3 is still 1 (interior)
        prob = compile_pop(poly("x1^2 - 2*x1 + 2"), monomial_basis(1, 2),
                           ball_radius=3.0, multiplier_basis=monomial_basis(1, 1))
        sol = solve(prob)
        assert abs(sol.objective - 1.0) <= 1e-6

    def test_multiplier_degree_validation(self):
        with pytest.raises(DegreeOverflowError):
            compile_sos_on_ball(poly("1"), monomial_basis(1, 1), radius=1.0,
                                multiplier_basis=monomial_basis(1, 3))


class TestSerialization:
    def test_round_trip_preserves_data(self, product_poly):
        prob = compile_pop(product_poly, monomial_basis(2, 4))
        back = SdpProblem.from_json(prob.to_json())
        assert back.block_dims == prob.block_dims
        assert back.sense == prob.sense
        assert back.num_constraints == prob.num_constraints
        for (ma, ba), (mb, bb) in zip(prob.constraints, back.constraints):
            assert ba == bb
            for a, b in zip(ma, mb):
                assert np.allclose(a, b, atol=0)
        assert np.allclose(prob.cost_blocks[0], back.cost_blocks[0], atol=0)
        assert back.moment_meta is not None
        assert back.moment_meta.basis.elements == prob.moment_meta.basis.elements

    def test_problems_compare_by_identity(self, product_poly):
        prob = compile_pop(product_poly, monomial_basis(2, 4))
        copy = pickle.loads(pickle.dumps(prob))
        assert prob == prob and prob != copy
        assert prob in [prob] and copy not in [prob]
        ens = ensembles_for_problem(prob, 1, 2, seed=0)
        assert restrict_dual(prob, ens) == restrict_dual(prob, ens)
        assert restrict_dual(prob, ens) != restrict_dual(copy, ens)

    def test_json_round_trip_keeps_a_svec_bit_for_bit(self):
        # The bench audit compares a CLI re-solve of a written cell with the
        # sweep's own value using !=, so the packed matrix must survive JSON.
        from sdpsketch.control import compile_poc
        from sdpsketch.instances import default_poc_problem, default_pop_problem

        for prob in (default_pop_problem(), compile_poc(default_poc_problem())):
            back = SdpProblem.from_json(prob.to_json())
            assert np.array_equal(back.a_svec, prob.a_svec)
            assert np.array_equal(back.rhs, prob.rhs)

    def test_fortran_and_c_ordered_a_svec_solve_to_the_same_bits(self):
        # A JSON round trip always gives C order, and the two orders once
        # solved the default POP to different objectives and iteration counts.
        from sdpsketch.instances import default_pop_problem

        pop = default_pop_problem()
        docs = []
        for a_svec in (np.ascontiguousarray(pop.a_svec), np.asfortranarray(pop.a_svec)):
            prob = SdpProblem(block_dims=pop.block_dims, cost_blocks=pop.cost_blocks,
                              a_svec=a_svec, rhs=pop.rhs, sense=pop.sense,
                              obj_offset=pop.obj_offset, moment_meta=pop.moment_meta)
            assert prob.a_svec.flags.c_contiguous
            doc = solve(prob).to_json_dict()
            del doc["solve_seconds"]
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_json_round_trip_is_bit_exact_for_hand_built_problems(self, rng):
        # Off-diagonal entries that are not dyadic and a negative zero, built
        # from matrices; and a packed matrix whose entries are not svec images
        # of representable matrix entries.
        a = np.array([[1.0, 0.1, 1 / 3], [0.1, 2.0, -0.0], [1 / 3, -0.0, 0.7]])
        by_matrix = SdpProblem(block_dims=(3,), cost_blocks=(np.eye(3),),
                               constraints=[((a,), 1.0), ((np.eye(3),), 3.0)])
        by_packed = SdpProblem(block_dims=(3,), cost_blocks=(np.eye(3),),
                               a_svec=rng.standard_normal((6, 4)), rhs=rng.standard_normal(4))
        for prob in (by_matrix, by_packed):
            back = SdpProblem.from_json_dict(prob.to_json_dict())
            assert back.a_svec.tobytes() == prob.a_svec.tobytes()
            assert back.rhs.tobytes() == prob.rhs.tobytes()

    def test_packed_and_matrix_constructors_agree(self, rng):
        prob = TestPackedConstraints.random_problem(rng)
        again = SdpProblem(block_dims=prob.block_dims, cost_blocks=prob.cost_blocks,
                           a_svec=prob.a_svec, rhs=prob.rhs)
        assert again.a_svec.tobytes() == prob.a_svec.tobytes()
        assert not np.shares_memory(again.a_svec, prob.a_svec)
        assert not again.a_svec.flags.writeable and not again.rhs.flags.writeable

    @pytest.mark.parametrize("system", [
        {}, {"a_svec": np.zeros((3, 1))}, {"rhs": [0.0]},
        {"constraints": [], "a_svec": np.zeros((3, 0)), "rhs": []},
    ])
    def test_constructor_needs_one_form_of_the_system(self, system):
        with pytest.raises(ValueError, match="either constraints"):
            SdpProblem(block_dims=(2,), cost_blocks=(np.eye(2),), **system)

    @pytest.mark.parametrize("a_svec, rhs, match", [
        (np.zeros((4, 1)), [0.0], "shape"),
        (np.zeros((3, 2)), [0.0], "shape"),
        (np.zeros((3, 1)), [[0.0]], "rhs"),
        (np.full((3, 1), np.nan), [0.0], "non-finite"),
        (np.zeros((3, 1)), [np.inf], "non-finite"),
    ])
    def test_packed_system_is_checked(self, a_svec, rhs, match):
        with pytest.raises(ValueError, match=match):
            SdpProblem(block_dims=(2,), cost_blocks=(np.eye(2),), a_svec=a_svec, rhs=rhs)

    def test_symmetry_validation(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            SdpProblem(block_dims=(2,), cost_blocks=(bad,), constraints=[])


def constraint_list_problem(blocks, dims, c_vec, cols, lower_bound, moment_meta):
    """matching_program's problem built the earlier way, as the reference: one
    smat matrix per block and constraint, packed by SdpProblem."""
    offsets = np.cumsum([0] + [d * (d + 1) // 2 for d in dims])

    def split(vec):
        return tuple(smat(vec[offsets[b]:offsets[b + 1]], d) for b, d in enumerate(dims))

    cost_blocks = split(c_vec)
    constraints = [(split(cols[:, k]), 1.0 if lower_bound and k == 0 else 0.0)
                   for k in range(cols.shape[1])]
    obj_offset = 0.0
    if any(spec.objective is not None for spec in blocks):
        def functional(mats):
            val = 0.0
            for spec, mat in zip(blocks, mats):
                if spec.objective is not None:
                    val += float(np.tensordot(spec.objective, mat))
            return val

        obj_offset = functional(cost_blocks)
        constraints = [(mats, -functional(mats)) for mats, _ in constraints]
    return SdpProblem(block_dims=dims, cost_blocks=cost_blocks, constraints=constraints,
                      sense="max", obj_offset=obj_offset, moment_meta=moment_meta)


def earlier_compile_columns(system) -> np.ndarray:
    """The constraint columns [lambda, kernel] as the compiler once formed and
    stored them: a pivoted QR of R', its complement and a min-norm solve."""
    factored = PivotedQR(system.matrix.T)
    kernel = factored.complement()
    if system.lower is None:
        return kernel
    return np.column_stack([factored.min_norm_solve(system.lower), kernel])


class TestCompiledPacking:
    def test_matching_program_packs_the_bits_of_the_constraint_list(self, monkeypatch):
        # The lazily formed a_svec, rhs and cost blocks keep the bits of the
        # compile that stored the kernel, so consensus iterates do not move.
        from sdpsketch import sos
        from sdpsketch.control import compile_poc
        from sdpsketch.instances import default_poc_problem, default_pop_problem

        calls = []
        real = sos._matching_system

        def recording(blocks, target, lower_bound_poly):
            out = real(blocks, target, lower_bound_poly)
            calls.append((blocks, out))
            return out

        monkeypatch.setattr(sos, "_matching_system", recording)
        for compiled in (default_pop_problem(), compile_poc(default_poc_problem())):
            blocks, (dims, c_vec, system) = calls.pop(0)
            assert system is compiled.matching
            want = constraint_list_problem(blocks, dims, c_vec, earlier_compile_columns(system),
                                           system.lower is not None, compiled.moment_meta)
            assert "a_svec" not in compiled.__dict__
            assert np.array_equal(compiled.a_svec, want.a_svec)
            assert np.array_equal(compiled.rhs, want.rhs)
            assert all(np.array_equal(a, b) for a, b in zip(compiled.cost_blocks, want.cost_blocks))
            assert compiled.obj_offset == want.obj_offset


def pop_degree_8():
    from sdpsketch.instances import default_pop_problem

    return default_pop_problem(8, multiplier_degree=7)


def compiled(kind):
    from sdpsketch.control import compile_poc
    from sdpsketch.instances import default_poc_problem, default_pop_problem

    return {"pop": default_pop_problem, "pop8": pop_degree_8,
            "poc": lambda: compile_poc(default_poc_problem())}[kind]()


class TestMatchingSystem:
    """A compiled program keeps its matching system, and the reduction and the
    applies of A come from its one QR of R', not from the formed a_svec."""

    @pytest.mark.parametrize("kind", ["pop", "pop8", "poc"])
    def test_reduction_matches_the_dense_qr_path(self, kind, rng):
        prob = compiled(kind)
        perp = prob.reduction.perp
        assert "a_svec" not in prob.__dict__
        a = prob.a_svec
        dim, m = a.shape
        assert prob.reduction.rank == m and prob.reduction.ray is None
        assert perp.shape == (dim, dim - m)
        assert np.abs(perp.T @ perp - np.eye(dim - m)).max() <= 1e-12
        assert np.abs(a.T @ perp).max() <= 1e-12
        dense = PivotedQR(a).complement()
        assert np.abs(perp @ perp.T - dense @ dense.T).max() <= 1e-12
        y, x = rng.standard_normal(m), rng.standard_normal(dim)
        assert np.abs(prob.apply_a(y) - a @ y).max() <= 1e-12 * (1 + np.abs(y).max())
        assert np.abs(prob.apply_at(x) - a.T @ x).max() <= 1e-12 * (1 + np.abs(x).max())
        # A'A is diagonal, so the Gram solve is a division
        gram = a.T @ a
        assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-12
        v = a @ y
        assert np.abs(a @ prob.reduction.solve_gram(a.T @ v) - v).max() <= 1e-12 * np.abs(v).max()

    @pytest.mark.parametrize("kind", ["pop", "poc"])
    def test_json_round_trip_keeps_every_bit(self, kind):
        prob = compiled(kind)
        doc = prob.to_json_dict()
        assert "a_svec" not in doc and ("lower_bound" in doc["matching"]) == (kind == "pop")
        back = SdpProblem.from_json(json.dumps(doc))
        assert back.matching.matrix.tobytes() == prob.matching.matrix.tobytes()
        assert back.rhs.tobytes() == prob.rhs.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(back.cost_blocks, prob.cost_blocks))
        assert back.reduction.perp.tobytes() == prob.reduction.perp.tobytes()
        assert back.a_svec.tobytes() == prob.a_svec.tobytes()
        assert json.dumps(back.to_json_dict()) == json.dumps(doc)

    def test_no_reader_of_the_reduction_forms_a_svec(self):
        from sdpsketch.solver import kkt_residuals

        prob = pop_degree_8()
        full = solve(prob)
        assert full.status == Status.Optimal
        # identity ensembles: the restricted dual is the pair, and Optimal
        cell = restrict_dual(prob, ensembles_for_problem(prob, max(prob.block_dims), 1, seed=0))
        assert solve(cell).status == Status.Optimal  # its KKT replay included
        kkt_residuals(prob, full)
        assert "a_svec" not in prob.__dict__

    def test_one_consensus_solve_forms_a_svec_once(self, monkeypatch):
        from sdpsketch.instances import default_pop_problem
        from sdpsketch.solver import SolverConfig, solve_consensus
        from sdpsketch.sos import MatchingSystem

        formed = []
        real = MatchingSystem.columns
        monkeypatch.setattr(MatchingSystem, "columns",
                            lambda self: formed.append(self) or real(self))
        prob = default_pop_problem()
        cell = restrict_dual(prob, ensembles_for_problem(prob, 3, 10, seed=0))
        solve_consensus(cell, SolverConfig(admm_max_iterations=3))
        assert formed == [prob.matching]

    def test_packed_document_of_a_compiled_problem_solves_on_the_dense_path(self):
        from sdpsketch.instances import default_pop_problem
        from sdpsketch.sos import _packed

        prob = default_pop_problem()
        doc = prob.to_json_dict()
        del doc["matching"]
        doc["a_svec"] = _packed(prob.a_svec)
        legacy = SdpProblem.from_json(json.dumps(doc))
        assert legacy.matching is None
        want, got = solve(prob), solve(legacy)
        assert want.status == got.status == Status.Optimal
        assert abs(got.objective - want.objective) <= 1e-7 * (1 + abs(want.objective))


class TestPackedConstraints:
    @staticmethod
    def random_problem(rng, dims=(4, 3), m=5):
        def rsym(n):
            a = rng.standard_normal((n, n))
            return a + a.T
        return SdpProblem(
            block_dims=dims,
            cost_blocks=tuple(rsym(n) for n in dims),
            constraints=[(tuple(rsym(n) for n in dims), float(rng.standard_normal()))
                         for _ in range(m)],
        )

    def test_dual_slack_matches_per_matrix_loop(self, rng):
        prob = self.random_problem(rng)
        y = rng.standard_normal(prob.num_constraints)
        for b, got in enumerate(prob.dual_slack(y)):
            want = prob.cost_blocks[b] - sum(yj * mats[b] for yj, (mats, _) in
                                             zip(y, prob.constraints))
            assert np.allclose(got, want, atol=1e-12)

    def test_constraint_values_match_per_matrix_loop(self, rng):
        prob = self.random_problem(rng)
        xs = [rng.standard_normal((n, n)) for n in prob.block_dims]  # not symmetric
        want = [sum(np.sum(a * x) for a, x in zip(mats, xs)) for mats, _ in prob.constraints]
        assert np.allclose(prob.constraint_values(xs), want, atol=1e-12)

    def test_constraints_unpack_the_packed_matrix(self, rng):
        prob = self.random_problem(rng)
        assert prob.a_svec.shape == (10 + 6, 5)
        assert not prob.a_svec.flags.writeable
        for j, (mats, rhs) in enumerate(prob.constraints):
            assert rhs == prob.rhs[j]
            assert np.array_equal(prob.pack(mats), prob.a_svec[:, j])

    def test_wrong_number_of_constraint_matrices_is_rejected(self):
        with pytest.raises(ValueError):
            SdpProblem(block_dims=(2, 2), cost_blocks=(np.eye(2), np.eye(2)),
                       constraints=[((np.eye(2),), 1.0)])
