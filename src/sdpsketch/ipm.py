"""Primal-dual interior-point solver on the homogeneous self-dual embedding.

HKM-style symmetrized directions with a Mehrotra predictor-corrector and a
dense Schur complement, bordered by one row and column for tau.  The
embedding supplies certificates when the solved problem
(min <D,S>  s.t. rows = g, S PSD) is infeasible or unbounded; the
tau/kappa indicator gates which branch is reported.

X, Z, the directions and the returned blocks are lists with one (N, r, r)
array per block group of the row system (see conic).  X and Z are factored
once per iterate, by the Cholesky test that accepts the step, on each
group's (2, N, r, r) stack of X and Z; one batched inverse of the factors L
gives Z^-1 = L_Z^-T L_Z^-1 and every step length, -1/lambda_min(L^-1 dS L^-T).

Embedding variables (X, w, Z, tau, kappa) satisfy at a solution:
    rows(X) - g tau           = 0
    adj(w) + Z - D tau        = 0
    g'w - <D,X> - kappa       = 0
    X, Z PSD, tau, kappa >= 0, complementary.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from ._linalg import max_step_psd, sym
from .conic import ConicProgram

OPTIMAL = "optimal"
PRIMAL_INFEASIBLE = "primal_infeasible"
DUAL_INFEASIBLE = "dual_infeasible"
MAX_ITERATIONS = "max_iterations"
NUMERICAL_FAILURE = "numerical_failure"

STEP_FRACTION = 0.98  # of the distance to the cone boundary
INFEASIBILITY_TOL = 1e-9  # relative residual of an infeasibility certificate
TAU_KAPPA_RATIO = 1e-2  # tau below this times kappa lets a certificate be declared
REGULARIZATION = 1e-10  # first diagonal shift tried when the Schur LU is singular


@dataclass
class ConicResult:
    status: str
    x_blocks: List[np.ndarray]  # one (N, r, r) array per group
    w: np.ndarray
    z_blocks: List[np.ndarray]
    primal_objective: float
    dual_objective: float
    iterations: int
    certificate: Optional[dict] = None
    trace: list = field(default_factory=list)


def _max_alpha(linvs, dX, dZ, tau, kappa, dtau, dkappa, fraction) -> float:
    alpha = min((max_step_psd(li, np.stack((dx, dz))) for li, dx, dz in zip(linvs, dX, dZ)),
                default=np.inf)
    if dtau < 0:
        alpha = min(alpha, tau / (-dtau))
    if dkappa < 0:
        alpha = min(alpha, kappa / (-dkappa))
    return min(1.0, fraction * alpha)


def solve_conic(prog: ConicProgram, tolerance: float = 1e-8, max_iterations: int = 200,
                trace: bool = False) -> ConicResult:
    ops = prog.ops
    eyes = [np.broadcast_to(np.eye(r), (n, r, r)) for n, r in ops.groups]
    m = ops.num_rows

    # Joint data scaling keeps the identity start sensible.
    s_g = max(1.0, float(np.linalg.norm(prog.rhs)))
    c_norm = np.sqrt(sum(float(np.sum(d * d)) for d in prog.block_costs))
    s_c = max(1.0, c_norm)
    g = prog.rhs / s_g
    D = [d / s_c for d in prog.block_costs]
    g_norm = float(np.linalg.norm(g))
    c_scaled = np.sqrt(sum(float(np.sum(d * d)) for d in D))

    X = [e.copy() for e in eyes]
    Z = [e.copy() for e in eyes]
    w = np.zeros(m)
    tau, kappa = 1.0, 1.0
    nu = sum(n * r for n, r in ops.groups) + 1.0
    # Lower Cholesky factors of each group's X and Z, stacked (2, N, r, r).
    factors = [np.linalg.cholesky(np.stack((x, z))) for x, z in zip(X, Z)]

    def cost_of(xb) -> float:
        return sum(float(np.vdot(db, x)) for db, x in zip(D, xb))

    def scaled_residuals():
        # Residuals in raw data units so termination matches external replay.
        xh = [x / tau for x in X]
        wh = w / tau
        zh = [z / tau for z in Z]
        pres = s_g * np.linalg.norm(ops.apply(xh) - g) / (1.0 + s_g * g_norm)
        adjb = ops.adjoint_blocks(wh)
        dn2 = sum(float(np.sum((ab + zb - db) ** 2)) for ab, zb, db in zip(adjb, zh, D))
        dres = s_c * np.sqrt(dn2) / (1.0 + s_c * c_scaled)
        pobj = cost_of(xh) * s_c * s_g
        dobj = float(g @ wh) * s_c * s_g
        sign = -1.0 if prog.gap_flip else 1.0
        pu = prog.gap_offset + sign * pobj
        du = prog.gap_offset + sign * dobj
        gap = abs(pu - du) / (1.0 + abs(pu) + abs(du))
        return pres, dres, gap, pobj, dobj

    trace_rows: list = []
    status = MAX_ITERATIONS
    certificate = None
    it = 0
    stalled = 0
    best_score = np.inf
    best_state = None
    last_alpha = 0.0

    for it in range(1, max_iterations + 1):
        pres, dres, gap, pobj, dobj = scaled_residuals()
        mu = (sum(float(np.vdot(x, z)) for x, z in zip(X, Z)) + tau * kappa) / nu
        if trace:
            trace_rows.append(dict(iteration=it, mu=mu, primal=pres, dual=dres,
                                   gap=gap, step=last_alpha, tau=tau, kappa=kappa))
        score = max(pres, dres, gap)
        if score < best_score:
            best_score = score
            best_state = ([x.copy() for x in X], w.copy(),
                          [z.copy() for z in Z], tau, kappa)
        if pres <= tolerance and dres <= tolerance and gap <= tolerance:
            status = OPTIMAL
            break

        # Infeasibility certificates; tau/kappa gates the declaration.
        tk_gate = tau <= TAU_KAPPA_RATIO * max(kappa, 1e-30)
        by = float(g @ w)
        if by > 0.0 and tk_gate:
            wn = w / by
            zn = [z / by for z in Z]
            adjb = ops.adjoint_blocks(wn)
            cert_res = np.sqrt(sum(float(np.sum((ab + zb) ** 2)) for ab, zb in zip(adjb, zn)))
            if cert_res <= INFEASIBILITY_TOL * (1.0 + np.linalg.norm(wn)):
                status = PRIMAL_INFEASIBLE
                certificate = {"w": wn, "z_blocks": zn}
                break
        cx = cost_of(X)
        if cx < 0.0 and tk_gate:
            xn = [x / (-cx) for x in X]
            cert_res = float(np.linalg.norm(ops.apply(xn)))
            xn_norm = np.sqrt(sum(float(np.sum(x * x)) for x in xn))
            if cert_res <= INFEASIBILITY_TOL * (1.0 + xn_norm):
                status = DUAL_INFEASIBLE
                certificate = {"x_blocks": xn}
                break

        try:  # X or Z can pass Cholesky and still be singular in rounding
            linvs = [np.linalg.inv(f) for f in factors]
            if not all(np.isfinite(li).all() for li in linvs):
                raise np.linalg.LinAlgError("non-finite inverse")
        except np.linalg.LinAlgError:
            status = NUMERICAL_FAILURE
            break
        zinvs = [sym(np.swapaxes(li[1], -1, -2) @ li[1]) for li in linvs]

        M = ops.schur(X, zinvs)

        r1 = ops.apply(X) - g * tau
        adjw = ops.adjoint_blocks(w)
        r2b = [ab + z - db * tau for ab, z, db in zip(adjw, Z, D)]
        r3 = float(g @ w) - cost_of(X) - kappa

        xdz = [x @ db @ zi for x, db, zi in zip(X, D, zinvs)]
        p_vec = ops.row_inner(xdz)
        p_d = sum(float(np.vdot(db, sym(t))) for db, t in zip(D, xdz))

        dim = m + 1
        border = np.zeros((dim, dim))
        border[:m, :m] = M
        border[:m, dim - 1] = -(g + p_vec)
        border[dim - 1, :m] = g - p_vec
        border[dim - 1, dim - 1] = p_d + kappa / tau

        lu = None
        reg = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(10):
                try:
                    cand = lu_factor(border + reg * np.eye(dim), check_finite=False)
                    diag = np.abs(np.diag(cand[0]))
                    if diag.size == 0 or (
                        np.all(np.isfinite(diag)) and diag.min() > 1e-14 * max(diag.max(), 1e-300)
                    ):
                        lu = cand
                        break
                except Exception:
                    pass
                reg = REGULARIZATION if reg == 0.0 else reg * 10.0
                if reg > 1e-2:
                    break
        if lu is None:
            status = NUMERICAL_FAILURE
            break

        def newton_pass(rho_blocks, rho_tk):
            corr = [
                rb @ zi - x + x @ r2 @ zi
                for rb, zi, x, r2 in zip(rho_blocks, zinvs, X, r2b)
            ]
            q_vec = ops.row_inner(corr)
            q_d = sum(float(np.vdot(db, sym(c))) for db, c in zip(D, corr))
            rhs = np.zeros(dim)
            rhs[:m] = -r1 - q_vec
            rhs[dim - 1] = -r3 + q_d + (rho_tk - tau * kappa) / tau
            sol = lu_solve(lu, rhs, check_finite=False)
            # Refine against the unregularized system; recovers accuracy lost
            # to the diagonal regularization and late-stage ill-conditioning.
            for _ in range(3):
                resid = rhs - border @ sol
                if np.linalg.norm(resid) <= 1e-14 * (np.linalg.norm(rhs) + 1.0):
                    break
                sol = sol + lu_solve(lu, resid, check_finite=False)
            dw = sol[:m]
            dtau = float(sol[dim - 1])
            adj_dw = ops.adjoint_blocks(dw)
            dZ = [-r2 + db * dtau - ab for r2, db, ab in zip(r2b, D, adj_dw)]
            dX = [
                sym(c - dtau * t + x @ ab @ zi)
                for c, t, x, ab, zi in zip(corr, xdz, X, adj_dw, zinvs)
            ]
            dkappa = (rho_tk - tau * kappa - kappa * dtau) / tau
            return dX, dw, dZ, dtau, dkappa

        zero_rho = [np.zeros(e.shape) for e in eyes]
        dXa, dwa, dZa, dtaua, dkappaa = newton_pass(zero_rho, 0.0)
        alpha_a = _max_alpha(linvs, dXa, dZa, tau, kappa, dtaua, dkappaa, 1.0)
        mu_aff = (
            sum(
                float(np.vdot(x + alpha_a * dx, z + alpha_a * dz))
                for x, dx, z, dz in zip(X, dXa, Z, dZa)
            )
            + (tau + alpha_a * dtaua) * (kappa + alpha_a * dkappaa)
        ) / nu
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-8, 1.0 - 1e-8))

        rho_blocks = [sigma * mu * e - dxa @ dza for e, dxa, dza in zip(eyes, dXa, dZa)]
        rho_tk = sigma * mu - dtaua * dkappaa
        dX, dw, dZ, dtau, dkappa = newton_pass(rho_blocks, rho_tk)

        alpha = _max_alpha(linvs, dX, dZ, tau, kappa, dtau, dkappa, STEP_FRACTION)
        for _ in range(40):
            if tau + alpha * dtau > 0 and kappa + alpha * dkappa > 0:
                step = [sym(np.stack((x + alpha * dx, z + alpha * dz)))
                        for x, dx, z, dz in zip(X, dX, Z, dZ)]
                try:
                    factors = [np.linalg.cholesky(s) for s in step]
                    break
                except np.linalg.LinAlgError:
                    pass
            alpha *= 0.8
        else:
            status = NUMERICAL_FAILURE
            break

        if alpha < 1e-8:
            stalled += 1
            if stalled >= 3:
                status = MAX_ITERATIONS
                break
        else:
            stalled = 0

        X = [s[0] for s in step]
        Z = [s[1] for s in step]
        w = w + alpha * dw
        tau += alpha * dtau
        kappa += alpha * dkappa
        last_alpha = alpha

    if status not in (OPTIMAL, PRIMAL_INFEASIBLE, DUAL_INFEASIBLE) and best_state is not None:
        cur = max(scaled_residuals()[:3])
        if best_score < cur:
            X, w, Z, tau, kappa = best_state
        if status == NUMERICAL_FAILURE and best_score < 1e-4:
            # The factorization gave out only after the residuals stalled.
            status = MAX_ITERATIONS
    pobj, dobj = scaled_residuals()[3:]
    return ConicResult(
        status=status,
        x_blocks=[x * (s_g / tau) for x in X],
        w=w * (s_c / tau),
        z_blocks=[z * (s_c / tau) for z in Z],
        primal_objective=pobj,
        dual_objective=dobj,
        iterations=it,
        certificate=certificate,
        trace=trace_rows,
    )
