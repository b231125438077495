import numpy as np
from numpy.linalg import cholesky, inv
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpsketch._linalg import (
    aggregate_congruence_operator,
    max_step_psd,
    nullspace,
    psd_project,
    smat,
    svec,
    sym,
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
    ns = nullspace(a)
    assert ns.shape == (9, 5)
    assert np.allclose(a @ ns, 0.0, atol=1e-10)
    assert np.allclose(ns.T @ ns, np.eye(5), atol=1e-12)


def test_psd_project_idempotent_and_nearest():
    rng = np.random.default_rng(11)
    m = random_sym(rng, 5)
    p = psd_project(m)
    assert np.linalg.eigvalsh(p)[0] >= -1e-12
    assert np.allclose(psd_project(p), p, atol=1e-12)


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
