from collections import Counter

import numpy as np
import pytest
from numpy.linalg import cholesky, inv
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpsketch._linalg import (
    LANCZOS_STEPS,
    STEP_MARGIN,
    TRIANGULAR_BASE,
    PivotedQR,
    aggregate_congruence_operator,
    max_step_psd,
    smat,
    svec,
    sym,
    tril_inv,
)


def random_sym(rng, n):
    a = rng.standard_normal((n, n))
    return sym(a)


@given(st.integers(1, 6), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_svec_round_trip_and_isometry(n, seed):
    rng = np.random.default_rng(seed)
    a, b = random_sym(rng, n), random_sym(rng, n)
    assert np.allclose(smat(svec(a), n), a)
    assert np.isclose(svec(a) @ svec(b), np.sum(a * b))


def test_max_step_psd_matches_bisection():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        base = random_sym(rng, n)
        m = base @ base.T + 0.1 * np.eye(n)
        d = random_sym(rng, n)
        t = max_step_psd(inv(cholesky(m)), d)
        if np.isinf(t):
            assert np.linalg.eigvalsh(m + 1e3 * d)[0] >= -1e-9
        else:
            assert np.linalg.eigvalsh(m + 0.999 * t * d)[0] >= -1e-9
            assert np.linalg.eigvalsh(m + 1.001 * t * d)[0] <= 1e-9


def test_max_step_psd_on_a_stack_is_the_smallest_step():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, count = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        mats, dirs = [], []
        for _ in range(count):
            g = rng.standard_normal((n, n))
            mats.append(g @ g.T + 0.1 * np.eye(n))
            d = random_sym(rng, n)
            dirs.append(d @ d if rng.random() < 0.3 else d)  # some never leave the cone
        steps = [max_step_psd(inv(cholesky(m)), d) for m, d in zip(mats, dirs)]
        assert max_step_psd(inv(cholesky(np.stack(mats))), np.stack(dirs)) == min(steps)


def test_max_step_psd_on_a_stack_is_inf_when_every_step_is():
    rng = np.random.default_rng(8)
    mats = np.stack([np.eye(3) * (k + 1) for k in range(4)])
    dirs = np.stack([g @ g.T for g in rng.standard_normal((4, 3, 3))])
    assert max_step_psd(inv(cholesky(mats)), dirs) == np.inf


def spd_stack(rng, shape):
    g = rng.standard_normal(shape)
    return g @ np.swapaxes(g, -1, -2) + 0.1 * np.eye(shape[-1])


def exact_step(linv, direction):
    # The eigenvalue formula every group took before certified Lanczos steps.
    lam = np.linalg.eigvalsh(sym(linv @ direction @ np.swapaxes(linv, -1, -2)))[..., 0].min()
    return np.inf if lam >= 0.0 else -1.0 / lam


def test_certified_step_stays_in_the_cone_and_near_the_exact_step():
    rng = np.random.default_rng(11)
    for _ in range(3):
        s = spd_stack(rng, (2, 100, 25, 25))
        d = sym(rng.standard_normal(s.shape))
        counts = Counter()
        t = max_step_psd(inv(cholesky(s)), d, counts)
        t_exact = exact_step(inv(cholesky(s)), d)
        assert counts["step_fallbacks"] == 0  # the Lanczos bound was certified
        assert (1.0 - 2.0 * STEP_MARGIN) * t_exact <= t <= t_exact
        assert np.linalg.eigvalsh(s + 0.999 * t * d)[..., 0].min() >= -1e-9


def test_clustered_bottom_spectrum_takes_the_exact_step():
    # Fifteen eigenvalues spread over [-1, -0.5] below ten large ones: ten
    # Lanczos steps cannot bring the smallest Ritz value within STEP_MARGIN
    # of -1, so the certificate fails and the step is the exact one.
    rng = np.random.default_rng(12)
    spectrum = np.concatenate((np.linspace(-1.0, -0.5, 15), np.linspace(10.0, 100.0, 10)))
    q = np.linalg.qr(rng.standard_normal((2, 100, 25, 25)))[0]
    d = sym((q * spectrum) @ np.swapaxes(q, -1, -2))
    linv = np.broadcast_to(np.eye(25), d.shape)
    counts = Counter()
    t = max_step_psd(linv, d, counts)
    assert counts["step_fallbacks"] == 1
    assert t == exact_step(linv, d)


def test_certified_step_is_inf_inside_the_cone():
    rng = np.random.default_rng(13)
    s = spd_stack(rng, (2, 100, 25, 25))
    d = spd_stack(rng, s.shape)
    assert max_step_psd(inv(cholesky(s)), d) == np.inf


def test_one_matrix_and_small_rank_groups_take_the_exact_step():
    rng = np.random.default_rng(14)
    for shape in ((2, 1, 28, 28), (2, 1, 21, 21), (2, 100, LANCZOS_STEPS, LANCZOS_STEPS),
                  (2, 100, 3, 3)):
        linv = inv(cholesky(spd_stack(rng, shape)))
        d = sym(rng.standard_normal(shape))
        assert max_step_psd(linv, d) == exact_step(linv, d)


def test_blocked_triangular_inverse_matches_inv():
    rng = np.random.default_rng(15)
    for shape in ((2, 100, 25, 25), (2, 1, 28, 28), (2, 100, 11, 11)):
        factor = cholesky(spd_stack(rng, shape))
        want = inv(factor)
        got = tril_inv(factor)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    for n in range(1, TRIANGULAR_BASE + 1):
        factor = cholesky(spd_stack(rng, (2, 100, n, n)))
        assert np.array_equal(tril_inv(factor), inv(factor))


def test_inverse_from_cholesky_factor_matches_solve():
    # Z^-1 = sym(L^-T L^-1) for Z = L L', as the interior-point solver forms it.
    rng = np.random.default_rng(10)
    for n, count in ((1, 3), (4, 6), (9, 5), (25, 4)):
        g = rng.standard_normal((count, n, n))
        z = g @ np.swapaxes(g, -1, -2) + 0.1 * np.eye(n)
        linv = inv(cholesky(z))
        got = sym(np.swapaxes(linv, -1, -2) @ linv)
        want = np.linalg.solve(z, np.broadcast_to(np.eye(n), z.shape))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_sym_on_a_stack_matches_each_matrix():
    stack = np.random.default_rng(9).standard_normal((5, 4, 4))
    assert np.array_equal(sym(stack), np.stack([sym(m) for m in stack]))


def test_nullspace_is_orthonormal_kernel():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 9))
    ns = PivotedQR(a.T).complement()
    assert ns.shape == (9, 5)
    assert np.allclose(a @ ns, 0.0, atol=1e-10)
    assert np.allclose(ns.T @ ns, np.eye(5), atol=1e-12)


def _compiled_matching_map(monkeypatch, kind):
    """(R, the PivotedQR of R', the problem) of the default POP or POC
    compile, R being the matching map the compiler factored."""
    from sdpsketch import sos
    from sdpsketch.control import compile_poc
    from sdpsketch.instances import default_poc_problem, default_pop_problem

    seen = []

    class Recording(PivotedQR):
        def __init__(self, mat):
            super().__init__(mat)
            seen.append((mat.T, self))

    monkeypatch.setattr(sos, "PivotedQR", Recording)
    prob = default_pop_problem() if kind == "pop" else compile_poc(default_poc_problem())
    (matching, factored), = seen
    return matching, factored, prob


@pytest.mark.parametrize("kind", ["pop", "poc"])
def test_compiled_kernel_is_orthonormal_and_annihilated(monkeypatch, kind):
    matching, factored, prob = _compiled_matching_map(monkeypatch, kind)
    kernel = factored.complement()
    total = matching.shape[1]
    assert kernel.shape == (total, total - factored.rank)
    assert np.abs(kernel.T @ kernel - np.eye(kernel.shape[1])).max() <= 1e-12
    assert np.abs(matching @ kernel).max() <= 1e-12
    # the compiled constraints are the kernel, after POP's lower-bound column
    kernel_cols = prob.a_svec[:, 1:] if kind == "pop" else prob.a_svec
    assert kernel_cols.shape == kernel.shape
    assert np.abs(kernel_cols - kernel).max() <= 1e-15


@pytest.mark.parametrize("kind", ["pop", "poc"])
def test_compiled_particular_solutions_have_minimum_norm(monkeypatch, kind):
    matching, factored, prob = _compiled_matching_map(monkeypatch, kind)
    kernel = factored.complement()
    rng = np.random.default_rng(11)
    rhs = matching @ rng.standard_normal(matching.shape[1])  # in R's range
    x = factored.min_norm_solve(rhs)
    assert np.abs(matching @ x - rhs).max() <= 1e-10 * np.abs(rhs).max()
    assert np.abs(kernel.T @ x).max() <= 1e-12 * np.linalg.norm(x)
    want = np.linalg.pinv(matching) @ rhs
    assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()
    # the compile's own particular solutions: the cost, and POP's lambda column
    solutions = [prob.pack(prob.cost_blocks)] + ([prob.a_svec[:, 0]] if kind == "pop" else [])
    for sol in solutions:
        assert np.abs(kernel.T @ sol).max() <= 1e-12 * max(1.0, np.linalg.norm(sol))


@pytest.mark.parametrize("shape", [(9, 4), (4, 9)])
def test_pivoted_qr_of_tall_and_wide_matrices(shape):
    rng = np.random.default_rng(6)
    rows, cols = shape
    rank = min(shape) - 1  # rank-deficient either way
    a = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    factored = PivotedQR(a)
    assert factored.rank == rank
    perp = factored.complement()
    assert perp.shape == (rows, rows - rank)
    assert np.abs(perp.T @ perp - np.eye(rows - rank)).max() <= 1e-12
    assert np.abs(a.T @ perp).max() <= 1e-12
    rhs = a.T @ rng.standard_normal(rows)  # consistent: a' x = rhs has solutions
    x = factored.min_norm_solve(rhs)
    assert np.abs(a.T @ x - rhs).max() <= 1e-10 * np.abs(rhs).max()
    want = np.linalg.pinv(a.T) @ rhs
    assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()


def test_matching_map_with_no_rows_has_the_identity_kernel():
    factored = PivotedQR(np.zeros((0, 5)).T)
    assert factored.rank == 0
    assert np.array_equal(factored.complement(), np.eye(5))
    assert np.array_equal(factored.min_norm_solve(np.zeros(0)), np.zeros(5))


def test_aggregate_congruence_matches_brute_force():
    rng = np.random.default_rng(17)
    n, N = 4, 3
    ps = np.stack([random_sym(rng, n) for _ in range(N)])
    qs = np.stack([random_sym(rng, n) for _ in range(N)])
    # Q is P takes the one-product path (consensus's projection Hessian).
    for p_stack, q_stack in ((ps, qs), (ps, ps)):
        K = aggregate_congruence_operator(p_stack, q_stack)
        for _ in range(10):
            b1, b2 = random_sym(rng, n), random_sym(rng, n)
            want = sum(np.trace(b1 @ p_stack[i] @ b2 @ q_stack[i]) for i in range(N))
            got = svec(b1) @ K @ svec(b2)
            assert np.isclose(got, want, atol=1e-10)
