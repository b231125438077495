"""Consensus operator-splitting solver for restricted-dual block problems.

ADMM on the projected primal: X carries the shared matrix variable, each
sampled cone gets an independent PSD projection W_i = proj(U_i' X U_i + L_i/rho)
(an eigendecomposition per block, batched and schedulable across workers),
and a single equality-constrained least-squares step restores consensus.

The least-squares step solves the same saddle system every iteration,

    [rho H + delta I   A] [x]   [f]
    [A'                0] [z] = [b],

with H = sum_i Phi_i' Phi_i block diagonal over the base blocks.  As in the
cached KKT factorizations of OSQP and SCS it is factored once per value of
rho: the tiled Cholesky factor L of each diagonal block, its inverse, and the
m x m Schur complement (L^-1 A)' (L^-1 A).  Each iteration is then two
triangular matrix-vector products and an m x m solve.  A factorization that
breaks down (H singular and rho large) ends the solve with NumericalFailure
and the last iterates.

Workers.  `workers` is the number of CPUs the solve uses, capped at the CPUs
this process may run on.  All parallel work (Hessian row bands, factor
tiles, matrix-vector row tiles, sample chunks) is cut into tasks by fixed partitions that do not
depend on the worker count, runs with single-threaded BLAS, and is reduced
in a fixed order.  With more than one worker the tasks are shared between
the caller and forked helper processes (see `_team`; the calling thread is
pinned to one CPU until they exit).  The iterates are therefore bitwise
identical for any number of workers.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Dict, List, Tuple

import numpy as np
from scipy.linalg import lapack, lu_factor, lu_solve

from ._linalg import congruence_band, congruence_rows, sym
from ._team import Arena, Team
from .sketch import BlockSdp, lift_blocks
from .solver import Solution, Status, _finish, _solution, _unstack

# Fixed partitions of the parallel work.  None depends on the worker count,
# so neither does any rounding error.
CHUNKS_PER_ENSEMBLE = 8  # sample chunks of one ensemble
TILE = 256  # tile of the dense factor work and of the matrix-vector products


def _split(n: int, parts: int) -> List[slice]:
    """`parts` near-equal consecutive slices covering range(n)."""
    bounds = np.linspace(0, n, parts + 1).round().astype(int)
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _tiles(n: int) -> List[slice]:
    return _split(n, -(-n // TILE))


class _Group:
    """Stacked per-sample state of one base block's ensemble."""

    def __init__(self, ens):
        self.n = ens.n
        self.r = ens.r
        self.ut = ens.ut  # (N, r, n): U_i'
        self.chunks = _split(ens.N, min(ens.N, CHUNKS_PER_ENSEMBLE))
        self.x = self.w = self.lam = None  # shared views, set by _Workspace


class _Workspace:
    """The solver's parallel steps and all the state they share.

    Everything a helper process writes, and everything it reads that changes
    after the team forks, lives in one shared arena:
    per base block the Hessian H, the matrix being factored (its lower
    triangle becomes L), the inverses of L's diagonal tiles, L^-1 and X; per
    sample W and L; per chunk its right-hand-side term and squared
    residuals; A, L^-1 A and the saddle-solve vectors f, y, v, x.  Each
    parallel step is a command of the team.  Only one factorization (one
    value of rho) is live at a time.
    """

    (BLOCK_PASS, LOWER, UPPER, FILL, PANEL, INVERSE, BORDER, HESSIAN) = range(8)

    def __init__(self, groups: List[_Group], offsets, a_mat: np.ndarray, workers: int):
        self.groups = groups
        self.offsets = offsets
        self.dims = [int(offsets[b + 1] - offsets[b]) for b in range(len(groups))]
        self.tiles = [_tiles(k) for k in self.dims]
        self.chunks = [(g, sl) for g, grp in enumerate(groups) for sl in grp.chunks]

        total, m = a_mat.shape
        shapes = [(4,)] + [(total,)] * 4 + [(total, m)] * 2
        for grp, k, t in zip(groups, self.dims, self.tiles):
            state = (grp.ut.shape[0], grp.r, grp.r)
            side = max(sl.stop - sl.start for sl in t)
            shapes += [(k, k), (k, k), (len(t), side, side), (k, k), (grp.n, grp.n), state, state]
        shapes += [(groups[g].n, groups[g].n) for g, _ in self.chunks]
        shapes += [(len(self.chunks), 2)]
        arrays = iter(Arena(shapes).arrays)
        self.params = next(arrays)  # rho, delta, factor step, pivot failed
        self.f, self.y, self.v, self.x = (next(arrays) for _ in range(4))
        self.a_mat, self.w = next(arrays), next(arrays)  # A and L^-1 A
        self.a_mat[:] = a_mat
        self.hess, self.fac, self.dinv, self.linv = [], [], [], []
        for grp in groups:
            for store in (self.hess, self.fac, self.dinv, self.linv):
                store.append(next(arrays))
            grp.x, grp.w, grp.lam = next(arrays), next(arrays), next(arrays)
        self.contribs = [next(arrays) for _ in self.chunks]
        self.norms = next(arrays)
        # Read-only inputs of the Hessian bands; the helpers inherit them.
        self.products = [congruence_rows(grp.ut.transpose(0, 2, 1) @ grp.ut) for grp in groups]
        self._task_lists: Dict[Tuple[int, int], List] = {}
        self.team = Team(workers, self._task_list)
        # The constant Hessian of X -> U_i' X U_i, one row band per task.
        self.team.run(self.HESSIAN)

    def close(self):
        self.team.join()

    def _task_list(self, cmd: int) -> List:
        """Tasks of a command at the current factor step, largest first."""
        key = (cmd, int(self.params[2]))
        if key not in self._task_lists:
            tasks = self._tasks(*key)
            order = sorted(range(len(tasks)), key=lambda k: -tasks[k][2])
            self._task_lists[key] = [partial(tasks[k][0], tasks[k][1]) for k in order]
        return self._task_lists[key]

    def _tasks(self, cmd: int, step: int):
        """(function, argument, work estimate) of every task of a command."""
        n_tiles = [len(t) for t in self.tiles]
        if cmd == self.BLOCK_PASS:
            return [(self._chunk, k, 1.0) for k in range(len(self.chunks))]
        if cmd == self.HESSIAN:
            return [(self._hessian_band, (b, a), float(grp.n - a))
                    for b, grp in enumerate(self.groups) for a in range(grp.n)]
        if cmd in (self.LOWER, self.BORDER, self.UPPER, self.FILL):
            fn = {self.LOWER: self._lower, self.BORDER: self._border,
                  self.UPPER: self._upper, self.FILL: self._fill}[cmd]
            return [(fn, (b, i), float(len(t) - i if cmd == self.UPPER else i + 1))
                    for b, t in enumerate(self.tiles) for i in range(len(t))]
        if cmd == self.PANEL:
            return [(self._panel, (b, i, step), 2.0 if i == step + 1 else 1.0)
                    for b, t in enumerate(n_tiles) for i in range(step + 1, t)]
        return [(self._column, (b, j), float((t - j) ** 2))
                for b, t in enumerate(n_tiles) for j in range(t)]

    # -- the tasks
    def _chunk(self, k: int):
        g, sl = self.chunks[k]
        _chunk_pass(self.groups[g], sl, float(self.params[0]), self.contribs[k], self.norms[k])

    def _hessian_band(self, arg):
        b, a = arg
        congruence_band(self.products[b], self.products[b], a, self.hess[b])

    def _fill(self, arg):
        """Rows of rho H + delta I; the first row tile also yields pivot 0."""
        b, i = arg
        ii = self.tiles[b][i]
        fac = self.fac[b]
        np.multiply(self.hess[b][ii], self.params[0], out=fac[ii])
        fac[ii, ii].flat[::ii.stop - ii.start + 1] += self.params[1]
        if i == 0:
            self._pivot(b, 0)

    # Left-looking tiled Cholesky: step j finishes tile column j of L below
    # the diagonal, and the task for tile j + 1 then finishes pivot j + 1, so
    # each step is one command.
    def _pivot(self, b: int, i: int):
        """Diagonal tile i of L and its inverse, once tiles (i, k < i) are final.
        A pivot that is not positive definite sets the failure flag."""
        if self.params[3]:
            return
        ii = self.tiles[b][i]
        fac = self.fac[b]
        left = fac[ii, :ii.start]
        try:
            low = np.linalg.cholesky(fac[ii, ii] - left @ left.T)
        except np.linalg.LinAlgError:
            self.params[3] = 1.0
            return
        fac[ii, ii] = low
        inv, _ = lapack.dtrtri(low, lower=1)
        self._dinv(b, i)[:] = inv

    def _panel(self, arg):
        b, i, j = arg
        ii, jj = self.tiles[b][i], self.tiles[b][j]
        fac = self.fac[b]
        fac[ii, jj] = (fac[ii, jj] - fac[ii, :jj.start] @ fac[jj, :jj.start].T) @ self._dinv(b, j).T
        if i == j + 1:
            self._pivot(b, i)

    def _dinv(self, b: int, j: int) -> np.ndarray:
        s = self.tiles[b][j].stop - self.tiles[b][j].start
        return self.dinv[b][j, :s, :s]

    def _column(self, arg):
        """Tile column j of L^-1 by forward substitution.  The tiles above
        the diagonal are never written and stay zero."""
        b, j = arg
        t, fac, linv = self.tiles[b], self.fac[b], self.linv[b]
        jj = t[j]
        linv[jj, jj] = self._dinv(b, j)
        for i in range(j + 1, len(t)):
            ii = t[i]
            s = fac[ii, jj.start:ii.start] @ linv[jj.start:ii.start, jj]
            linv[ii, jj] = -(self._dinv(b, i) @ s)

    def _lower(self, arg):
        """Rows of y = L^-1 f."""
        b, i = arg
        ii = self.tiles[b][i]
        o = self.offsets[b]
        self.y[o + ii.start:o + ii.stop] = self.linv[b][ii, :ii.stop] @ self.f[o:o + ii.stop]

    def _border(self, arg):
        """Rows of L^-1 A."""
        b, i = arg
        ii = self.tiles[b][i]
        o = self.offsets[b]
        self.w[o + ii.start:o + ii.stop] = self.linv[b][ii, :ii.stop] @ self.a_mat[o:o + ii.stop]

    def _upper(self, arg):
        """Rows of x = L^-T v."""
        b, i = arg
        ii = self.tiles[b][i]
        o, k = self.offsets[b], self.dims[b]
        self.x[o + ii.start:o + ii.stop] = self.linv[b][ii.start:, ii].T @ self.v[o + ii.start:o + k]

    # -- the steps the solver calls
    def factor(self, rho: float, delta: float) -> bool:
        """Factor the saddle system at rho: L^-1 of each rho H + delta I,
        L^-1 A and the Schur complement (L^-1 A)' (L^-1 A).  False if some
        rho H + delta I is not numerically positive definite (H is singular
        and rho large enough that rounding in rho H outweighs delta)."""
        self.params[:] = rho, delta, 0, 0
        self.team.run(self.FILL)
        for j in range(max(len(t) for t in self.tiles) - 1):
            self.params[2] = j
            self.team.run(self.PANEL)
        if self.params[3]:
            return False
        self.params[2] = 0
        self.team.run(self.INVERSE)
        if self.w.shape[1]:
            self.team.run(self.BORDER)
            self.schur = lu_factor(self.w.T @ self.w, check_finite=False)
        return True

    def solve(self, f: np.ndarray, b: np.ndarray) -> np.ndarray:
        """x of the saddle system with right-hand side (f, b)."""
        self.f[:] = f
        self.team.run(self.LOWER)
        self.v[:] = self.y
        if self.w.shape[1]:
            z = lu_solve(self.schur, self.w.T @ self.y - b, check_finite=False)
            self.v -= self.w @ z
        self.team.run(self.UPPER)
        return self.x.copy()

    def block_pass(self, x_mats, rho: float):
        """Projection, multiplier update and right-hand-side term of every sample."""
        for grp, x in zip(self.groups, x_mats):
            grp.x[:] = x
        self.params[0] = rho
        self.team.run(self.BLOCK_PASS)
        rhs_acc = [np.zeros((grp.n, grp.n)) for grp in self.groups]
        for (g, _), contrib in zip(self.chunks, self.contribs):
            rhs_acc[g] += contrib
        pr2, dr2 = (float(s) for s in self.norms.sum(axis=0))
        return rhs_acc, np.sqrt(pr2), rho * np.sqrt(dr2)


def _chunk_pass(group: _Group, sl: slice, rho: float, contrib: np.ndarray, norms: np.ndarray):
    """One chunk: projection, multiplier update, right-hand-side term.

    W and L are updated in place; the chunk's share of
    sum_i U_i (W_i - L_i / rho) U_i' goes to `contrib` and its squared
    primal and dual residuals to `norms`.
    """
    ut = group.ut[sl]
    c, r, n = ut.shape
    prox = (ut.reshape(c * r, n) @ group.x).reshape(c, r, n) @ ut.transpose(0, 2, 1)
    lam = group.lam[sl]
    v = lam / rho
    v += prox
    vals, vecs = np.linalg.eigh(v)  # reads the lower triangle
    np.maximum(vals, 0.0, out=vals)
    w_new = (vecs * vals[:, None, :]) @ vecs.transpose(0, 2, 1)
    diff = w_new - group.w[sl]
    resid = prox - w_new
    norms[0] = np.vdot(resid, resid)
    norms[1] = np.vdot(diff, diff)
    lam += rho * resid
    group.w[sl] = w_new
    # W - L_new / rho = W - L / rho - resid = 2 W - v
    w_new *= 2.0
    w_new -= v
    np.matmul(ut.reshape(c * r, n).T, (w_new @ ut).reshape(c * r, n), out=contrib)


def solve_consensus(problem: BlockSdp, config) -> Solution:
    """Operator-splitting solve of a restricted-dual block problem."""
    if not isinstance(problem, BlockSdp) or problem.kind != "restricted_dual":
        raise TypeError("consensus mode expects a restricted-dual BlockSdp")
    t_start = time.perf_counter()
    red = problem.base.reduction
    ws = _Workspace([_Group(ens) for ens in problem.ensembles], problem.base.offsets,
                    red.a_mat, config.workers)
    try:
        return _solve(problem, config, red, ws, t_start)
    finally:
        # Unpin while the solve still holds BLAS at one thread: threads it
        # starts afterwards would inherit the pin.
        ws.close()


def _solve(problem: BlockSdp, config, red, ws: _Workspace, t_start: float) -> Solution:
    base = problem.base
    rho = float(config.rho)
    tol = float(config.admm_tolerance)
    max_iter = int(config.admm_max_iterations)
    delta = 1e-8
    c_vec = red.c_vec
    b = base.rhs

    status = Status.MaxIterations
    if not ws.factor(rho, delta):
        status, max_iter = Status.NumericalFailure, 0
    history: List[float] = []
    x_vec = np.zeros(c_vec.shape)
    x_mats = [np.zeros((n, n)) for n in base.block_dims]
    it = 0
    rhs_acc = [np.zeros((n, n)) for n in base.block_dims]

    for it in range(1, max_iter + 1):
        f = rho * base.pack(rhs_acc) - c_vec + delta * x_vec
        x_vec = ws.solve(f, b)
        x_mats = base.unpack(x_vec)

        rhs_acc, r_primal, r_dual = ws.block_pass(x_mats, rho)

        scale = 1.0 + np.linalg.norm(x_vec)
        combined = max(r_primal, r_dual) / scale
        history.append(combined)
        if combined <= tol:
            status = Status.Optimal
            break
        if it > 400:
            window_best = min(history[max(0, it - 400):it - 200])
            if combined > 100.0 * window_best:
                status = Status.NumericalFailure
                break
        if it % 50 == 0 and it < max_iter // 2:
            changed = False
            if r_primal > 10.0 * r_dual and rho < 1e6:
                rho *= 2.0
                changed = True
            elif r_dual > 10.0 * r_primal and rho > 1e-6:
                rho /= 2.0
                changed = True
            if changed and not ws.factor(rho, delta):
                status = Status.NumericalFailure
                break

    ws.team.stop()  # the helpers exit while the caller finishes up
    # The primal-side objective estimate converges fastest.
    slacks = _unstack([-sym(grp.lam) for grp in ws.groups])
    sol = _solution(problem, status, base.primal_cost(x_mats) + base.obj_offset,
                    red.recover_y(lift_blocks(problem, slacks)), x_mats, slacks)
    trace = [{"iteration": k + 1, "residual": v} for k, v in enumerate(history)]
    return _finish(sol, problem, config, it, trace, t_start)
