import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from sdpsketch._linalg import svec, sym
from sdpsketch.consensus import _Group
from sdpsketch.instances import random_feasible_sdp
from sdpsketch.polynomial import monomial_basis, parse_polynomial
from sdpsketch.sketch import (
    BlockSdp,
    SubspaceEnsemble,
    _EXTEND_STREAM,
    extend_ensemble,
    lift_dual_certificate,
    project_primal,
    restrict_dual,
    sample_ensemble,
)
from sdpsketch.solver import (
    Status,
    _conic_from_pair,
    _conic_from_restricted,
    _reduced_form,
    solve,
)
from sdpsketch.sos import SdpProblem, compile_pop


def pop_problem():
    return compile_pop(parse_polynomial("x1^2 - 2*x1 + 2", 1), monomial_basis(1, 1))


def fixed_ensemble(columns, orthonormal=True):
    mats = tuple(np.asarray(u, dtype=float) for u in columns)
    n, r = mats[0].shape
    return SubspaceEnsemble(n=n, r=r, N=len(mats), seed=0,
                            orthonormal=orthonormal, matrices=mats)


class TestSampling:
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_seeding_is_bit_deterministic(self, n, r, seed):
        r = min(r, n)
        a = sample_ensemble(n, r, 3, seed)
        b = sample_ensemble(n, r, 3, seed)
        for ua, ub in zip(a.matrices, b.matrices):
            assert np.array_equal(ua, ub)

    def test_orthonormal_columns(self):
        ens = sample_ensemble(7, 3, 5, seed=1)
        for u in ens.matrices:
            assert np.abs(u.T @ u - np.eye(3)).max() <= 1e-12

    def test_raw_gaussian_mode(self):
        ens = sample_ensemble(6, 2, 4, seed=2, orthonormal=False)
        for u in ens.matrices:
            assert np.abs(u.T @ u - np.eye(2)).max() > 1e-3

    def test_rank_bounds_enforced(self):
        with pytest.raises(ValueError):
            sample_ensemble(3, 4, 1, seed=0)
        with pytest.raises(ValueError):
            sample_ensemble(3, 0, 1, seed=0)

    def test_cone_sizes(self):
        for r, size in [(3, 6), (11, 66), (25, 325)]:
            assert r * (r + 1) // 2 == size

    def test_json_round_trip_regenerates(self):
        ens = extend_ensemble(sample_ensemble(6, 2, 3, seed=9), 4)
        back = SubspaceEnsemble.from_json_dict(ens.to_json_dict())
        for ua, ub in zip(ens.matrices, back.matrices):
            assert np.array_equal(ua, ub)


def _loop_orth(u):
    q, r = np.linalg.qr(u)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def loop_sample(n, r, N, seed, orthonormal=True):
    """Reference: one draw, QR and sign fix per sample."""
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((n, r)) for _ in range(N)]
    return [_loop_orth(u) for u in mats] if orthonormal else mats


def loop_extend(mats, r_new, seed, orthonormal=True):
    """Reference: the per-sample extension, with its own generator per sample."""
    out = []
    for i, u_old in enumerate(mats):
        n, r = u_old.shape
        fresh = np.random.default_rng((seed, _EXTEND_STREAM, i, r)).standard_normal((n, r_new - r))
        if orthonormal:
            for _ in range(2):
                fresh = fresh - u_old @ (u_old.T @ fresh)
                fresh = _loop_orth(fresh)
        out.append(np.hstack([u_old, fresh]))
    return out


DEFAULT_RANKS = (1, 3, 6, 9, 11, 14, 17, 19, 22, 25)


class TestStackedGeneration:
    """The stacked sampler and extension give the per-sample loop's bits."""

    @staticmethod
    def assert_chain_matches(n, ranks, N, seed, orthonormal=True):
        ens = sample_ensemble(n, ranks[0], N, seed, orthonormal=orthonormal)
        ref = loop_sample(n, ranks[0], N, seed, orthonormal)
        assert np.array_equal(ens.matrices, np.stack(ref))
        for r in ranks[1:]:
            ens = extend_ensemble(ens, r)
            ref = loop_extend(ref, r, seed, orthonormal)
            assert np.array_equal(ens.matrices, np.stack(ref)), (n, r, seed)
        return ens

    @pytest.mark.parametrize("n", [28, 21])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_default_nested_chains(self, n, seed):
        ranks = sorted({min(r, n) for r in DEFAULT_RANKS})
        self.assert_chain_matches(n, ranks, 100, seed)

    @pytest.mark.parametrize("n", [2, 3])
    def test_poc_sizes(self, n):
        for seed in range(3):
            for r in range(1, n + 1):
                self.assert_chain_matches(n, list(range(r, n + 1)), 100, seed)

    def test_raw_gaussian_chain(self):
        self.assert_chain_matches(12, [1, 3, 6, 9, 11], 50, 4, orthonormal=False)

    def test_ten_rank_lineage_round_trip(self):
        ens = self.assert_chain_matches(28, list(DEFAULT_RANKS), 100, 2)
        back = SubspaceEnsemble.from_json_dict(ens.to_json_dict())
        assert back == ens and back.lineage == DEFAULT_RANKS
        assert np.array_equal(back.ut, ens.ut)

    def test_constructor_takes_matrices_or_a_stack(self):
        mats = loop_sample(5, 2, 3, seed=1)
        a = fixed_ensemble(mats)
        b = SubspaceEnsemble(n=5, r=2, N=3, seed=0, orthonormal=True, matrices=np.stack(mats))
        assert a == b and hash(a) == hash(b)
        assert np.array_equal(a.ut, np.stack([u.T for u in mats]))
        with pytest.raises(ValueError, match="shape"):
            SubspaceEnsemble(n=5, r=2, N=2, seed=0, orthonormal=True, matrices=mats)
        with pytest.raises(ValueError, match="rank deficient"):
            fixed_ensemble([np.ones((5, 2))], orthonormal=False)
        with pytest.raises(ValueError, match="orthonormality"):
            fixed_ensemble([2.0 * u for u in mats])


class TestOneLayout:
    def two_block_base(self):
        a = (np.eye(3), np.diag([1.0, 2.0]))
        return SdpProblem(block_dims=(3, 2), cost_blocks=(np.eye(3), np.eye(2)),
                          constraints=[(a, 1.0)], sense="min")

    def test_rows_and_consensus_read_the_stored_stack(self):
        base = self.two_block_base()
        ensembles = [sample_ensemble(3, 2, 4, seed=1), sample_ensemble(2, 1, 5, seed=2)]
        bs = restrict_dual(base, ensembles)
        ops = _conic_from_restricted(bs).ops
        for ens, ut in zip(ensembles, ops.ut_stacks):
            assert np.shares_memory(ut, ens.ut)
            assert np.shares_memory(_Group(ens).ut, ens.ut)
            assert ens.ut.flags.c_contiguous and ens.ut.shape == (ens.N, ens.r, ens.n)
            assert not ens.ut.flags.writeable and not ens.matrices.flags.writeable
            assert np.shares_memory(ens.matrices, ens.ut)
            with pytest.raises(ValueError):
                ens.matrices[0, 0, 0] = 1.0
            assert not pickle.loads(pickle.dumps(ens)).ut.flags.writeable


class TestConicCosts:
    @staticmethod
    def skewed(prob, symmetrize=False):
        """prob with a 1e-15 skew in its cost block, or that block's symmetric part."""
        c = prob.cost_blocks[0].copy()
        c[0, 1] += 1e-15
        return SdpProblem(block_dims=prob.block_dims, cost_blocks=(sym(c) if symmetrize else c,),
                          constraints=prob.constraints, sense=prob.sense)

    @staticmethod
    def assert_symmetric(prog):
        for c in prog.block_costs:
            assert np.array_equal(c, np.swapaxes(c, -1, -2))

    def test_pair_form(self, rng):
        prob = random_feasible_sdp(rng, 5, 3)
        skewed, twin = self.skewed(prob), self.skewed(prob, symmetrize=True)
        assert not np.array_equal(skewed.cost_blocks[0], skewed.cost_blocks[0].T)
        assert _reduced_form(skewed) is None
        for p in (prob, skewed, twin):
            self.assert_symmetric(_conic_from_pair(p))
        assert solve(skewed).status == solve(twin).status == Status.Optimal

    def test_reduced_form_and_restriction(self, rng):
        skewed = self.skewed(random_feasible_sdp(rng, 3, 4))
        reduced = _reduced_form(skewed)
        assert reduced is not None
        self.assert_symmetric(_conic_from_restricted(reduced))
        bs = restrict_dual(skewed, sample_ensemble(3, 2, 4, seed=5))
        self.assert_symmetric(_conic_from_restricted(bs))


class TestNesting:
    def test_parent_columns_preserved(self):
        parent = sample_ensemble(8, 3, 4, seed=5)
        child = extend_ensemble(parent, 6)
        for up, uc in zip(parent.matrices, child.matrices):
            assert np.array_equal(uc[:, :3], up)
        for u in child.matrices:
            assert np.abs(u.T @ u - np.eye(6)).max() <= 1e-12

    def test_extension_bounds(self):
        parent = sample_ensemble(4, 2, 2, seed=0)
        with pytest.raises(ValueError):
            extend_ensemble(parent, 2)
        with pytest.raises(ValueError):
            extend_ensemble(parent, 5)

    def test_objective_nondecreasing_along_chain(self):
        prob = pop_problem()
        ens = sample_ensemble(2, 1, 25, seed=3)
        v1 = solve(restrict_dual(prob, ens)).objective
        v2 = solve(restrict_dual(prob, extend_ensemble(ens, 2))).objective
        assert v2 >= v1 - 1e-6

    def test_full_rank_extension_recovers_value(self):
        prob = pop_problem()
        chain = extend_ensemble(sample_ensemble(2, 1, 8, seed=7), 2)
        full = solve(prob).objective
        assert abs(solve(restrict_dual(prob, chain)).objective - full) <= 1e-6


class TestRestriction:
    def test_full_rank_single_sample_exact(self):
        prob = pop_problem()
        for seed in range(3):
            ens = sample_ensemble(2, 2, 1, seed=seed)
            sol = solve(restrict_dual(prob, ens))
            assert abs(sol.objective - 1.0) <= 1e-6

    def test_selector_restriction_matches_lp_oracle(self):
        # r = 1 blocks make the restriction a linear program over the scales.
        prob = pop_problem()
        rng = np.random.default_rng(11)
        for trial in range(6):
            columns = [rng.standard_normal((2, 1)) for _ in range(3)]
            columns = [u / np.linalg.norm(u) for u in columns]
            ens = fixed_ensemble(columns)
            sol = solve(restrict_dual(prob, ens))
            # oracle: max lambda s.t. lambda*svec(A1) + sum s_i svec(u_i u_i') = svec(C)
            a_lam = svec(prob.constraints[0][0][0])
            cols = [svec(u @ u.T) for u in columns]
            a_eq = np.column_stack([a_lam] + cols)
            res = linprog(
                c=np.concatenate([[-1.0], np.zeros(3)]),
                A_eq=a_eq,
                b_eq=svec(prob.cost_blocks[0]),
                bounds=[(None, None)] + [(0, None)] * 3,
                method="highs",
            )
            if res.status == 2:  # infeasible
                assert sol.status == Status.Infeasible
            else:
                assert sol.status == Status.Optimal
                assert abs(sol.objective - (-res.fun)) <= 1e-6

    def test_orthogonal_selector_infeasible(self):
        prob = pop_problem()
        ens = fixed_ensemble([np.array([[1.0], [0.0]])])
        sol = solve(restrict_dual(prob, ens))
        assert sol.status == Status.Infeasible
        assert sol.objective == -np.inf

    def test_sandwich_and_lift_on_random_instances(self, rng):
        for trial in range(12):
            n = int(rng.integers(3, 10))
            m = int(rng.integers(2, 6))
            prob = random_feasible_sdp(rng, n, m)
            full = solve(prob)
            assert full.status == Status.Optimal
            r = int(rng.integers(1, n + 1))
            ens = sample_ensemble(n, r, int(rng.integers(2, 8)), seed=trial)
            sol = solve(restrict_dual(prob, ens))
            # maximization: restricted value never beats the full value
            assert sol.objective <= full.objective + 1e-6
            if sol.status == Status.Optimal:
                lift = lift_dual_certificate(sol.psd_blocks, ens)
                assert np.linalg.eigvalsh(lift)[0] >= -1e-10
                slack = prob.dual_slack(sol.free_vars)[0]
                err = np.linalg.norm(lift - slack) / (1 + np.linalg.norm(prob.cost_blocks[0]))
                assert err <= 1e-8

    def test_moment_side_feasible_for_projected_primal(self, rng):
        prob = random_feasible_sdp(rng, 6, 4)
        ens = sample_ensemble(6, 6, 2, seed=2)
        sol = solve(restrict_dual(prob, ens))
        assert sol.status == Status.Optimal
        x = sol.moment_matrices[0]
        assert np.linalg.norm(prob.constraint_values([x]) - prob.rhs) <= 1e-7
        for u in ens.matrices:
            assert np.linalg.eigvalsh(u.T @ x @ u)[0] >= -1e-8


class TestLift:
    def test_zero_blocks_lift_to_zero(self):
        ens = sample_ensemble(5, 2, 3, seed=0)
        lift = lift_dual_certificate([np.zeros((2, 2))] * 3, ens)
        assert np.all(lift == 0.0)

    def test_identity_projection_returns_block(self):
        ens = fixed_ensemble([np.eye(3)])
        s = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]])
        assert np.allclose(lift_dual_certificate([s], ens), s)

    def test_random_psd_blocks_lift_psd(self, rng):
        ens = sample_ensemble(6, 3, 4, seed=8)
        blocks = []
        for _ in range(4):
            g = rng.standard_normal((3, 3))
            blocks.append(g @ g.T)
        lift = lift_dual_certificate(blocks, ens)
        assert np.linalg.eigvalsh(lift)[0] >= -1e-10

    def test_stack_matches_per_sample_sum(self, rng):
        ens = sample_ensemble(6, 3, 5, seed=9)
        stack = rng.standard_normal((5, 3, 3))
        loop = sum(u @ (0.5 * (s + s.T)) @ u.T for u, s in zip(ens.matrices, stack))
        assert np.allclose(lift_dual_certificate(stack, ens), loop, rtol=0, atol=1e-13)
        assert np.array_equal(lift_dual_certificate(stack, ens), lift_dual_certificate(list(stack), ens))
        with pytest.raises(ValueError):
            lift_dual_certificate(stack[:4], ens)


class TestProjectedPrimal:
    def base(self):
        a1 = np.zeros((2, 2))
        a1[0, 0] = 1.0
        return SdpProblem(block_dims=(2,), cost_blocks=(np.eye(2),),
                          constraints=[((a1,), 1.0)], sense="min")

    def test_bounded_selector(self):
        bs = project_primal(self.base(), fixed_ensemble([np.array([[0.0], [1.0]])]))
        sol = solve(bs)
        assert sol.status == Status.Optimal
        assert abs(sol.objective - 1.0) <= 1e-6
        assert abs(sol.moment_matrices[0][1, 1]) <= 1e-6

    def test_unbounded_selector(self):
        bs = project_primal(self.base(), fixed_ensemble([np.array([[1.0], [0.0]])]))
        sol = solve(bs)
        assert sol.status == Status.Unbounded

    def test_relaxation_never_exceeds_base(self, rng):
        for trial in range(6):
            prob = random_feasible_sdp(rng, 5, 3)
            full = solve(prob)
            ens = sample_ensemble(5, int(rng.integers(1, 6)), 4, seed=trial)
            sol = solve(project_primal(prob, ens))
            if sol.status == Status.Optimal:
                assert sol.objective <= full.objective + 1e-6

    def test_full_rank_projection_exact(self, rng):
        prob = random_feasible_sdp(rng, 4, 3)
        full = solve(prob)
        ens = sample_ensemble(4, 4, 1, seed=3)
        sol = solve(project_primal(prob, ens))
        assert abs(sol.objective - full.objective) <= 1e-6

    def test_base_feasible_point_stays_feasible(self, rng):
        # U' X U is PSD whenever X is: projection only enlarges the primal set.
        prob = random_feasible_sdp(rng, 5, 3)
        full = solve(prob)
        x = full.psd_blocks[0]
        ens = sample_ensemble(5, 2, 6, seed=4)
        for u in ens.matrices:
            assert np.linalg.eigvalsh(u.T @ x @ u)[0] >= -1e-9


class TestViolationDetection:
    def test_detection_rate_nondecreasing_in_rank(self):
        # an indefinite X is spotted more often as the sampled rank grows
        n = 8
        rng = np.random.default_rng(123)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        x = (q * np.concatenate([[-1.0], np.ones(n - 1)])) @ q.T
        rates = []
        for r in range(1, n + 1):
            hits = 0
            trials = 0
            for seed in range(25):
                ens = sample_ensemble(n, r, 40, seed=seed)
                for u in ens.matrices:
                    trials += 1
                    if np.linalg.eigvalsh(u.T @ x @ u)[0] < 0:
                        hits += 1
            rates.append(hits / trials)
        for lo, hi in zip(rates, rates[1:]):
            assert hi >= lo - 0.01
        assert rates[-1] == 1.0


class TestBlockSdpSerialization:
    def test_round_trip(self):
        prob = pop_problem()
        bs = restrict_dual(prob, sample_ensemble(2, 2, 3, seed=6))
        back = BlockSdp.from_json(bs.to_json())
        assert back.kind == bs.kind
        assert back.block_sizes == bs.block_sizes
        for ea, eb in zip(bs.ensembles, back.ensembles):
            for ua, ub in zip(ea.matrices, eb.matrices):
                assert np.array_equal(ua, ub)
        assert abs(solve(back).objective - solve(bs).objective) <= 1e-8

    def test_restrictions_share_one_reduction_and_still_pickle(self):
        prob = pop_problem()
        solve(restrict_dual(prob, sample_ensemble(2, 1, 3, seed=6)))
        reduction = vars(prob)["reduction"]  # built by the first restriction's solve
        bs = restrict_dual(prob, sample_ensemble(2, 2, 3, seed=7))
        second = solve(bs)
        assert prob.reduction is reduction
        back = pickle.loads(pickle.dumps(bs))
        assert "reduction" not in vars(back.base)
        again = solve(back)
        assert (again.status, again.objective) == (second.status, second.objective)
