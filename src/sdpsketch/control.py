"""Polynomial optimal control compiled to the canonical SDP pair.

The value-function subsolution program

    maximize V(x0) - V(xT)
    subject to  grad(V).f + c  certified nonnegative over states x controls,
                V certified nonnegative over states

is compiled by parameterizing V directly through its Gram block(s), so every
constraint is linear in PSD blocks and the generic coefficient-matching
compiler applies.  The certificate block over (x, u) carries the
occupation-measure moments on the dual side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .polynomial import (
    Basis,
    Monomial,
    Polynomial,
    evaluate,
    gradient,
    monomial_basis,
    mul_monomials,
    parse_polynomial,
)
from .sos import GramBlockSpec, SdpProblem, matching_program, plain_gram_block, _ball_polynomial


@dataclass
class ControlProblem:
    """Dynamics xdot = f(x, u), running cost c(x, u), fixed endpoints.

    dynamics and cost are polynomials over the joint variables
    (x1..x_{num_states}, u1..u_{num_controls}).
    """

    num_states: int
    num_controls: int
    dynamics: List[Polynomial]
    cost: Polynomial
    x0: np.ndarray
    xT: np.ndarray
    value_degree: int = 1
    certificate_degree: int = 1
    state_ball_radius: Optional[float] = None
    joint_ball_radius: Optional[float] = None

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        self.xT = np.asarray(self.xT, dtype=float)
        nv = self.num_states + self.num_controls
        if len(self.dynamics) != self.num_states:
            raise ValueError("need one dynamics polynomial per state dimension")
        for f in self.dynamics:
            if f.num_vars != nv:
                raise ValueError("dynamics must be polynomials over (x, u)")
        if self.cost.num_vars != nv:
            raise ValueError("cost must be a polynomial over (x, u)")
        if self.x0.shape != (self.num_states,) or self.xT.shape != (self.num_states,):
            raise ValueError("endpoint dimension mismatch")

    @property
    def num_vars(self) -> int:
        return self.num_states + self.num_controls

    def var_names(self) -> List[str]:
        return [f"x{i+1}" for i in range(self.num_states)] + [
            f"u{i+1}" for i in range(self.num_controls)
        ]

    # -- JSON ------------------------------------------------------------
    def to_json_dict(self) -> dict:
        names = self.var_names()
        return {
            "num_states": self.num_states,
            "num_controls": self.num_controls,
            "dynamics": [f.to_string(names) for f in self.dynamics],
            "cost": self.cost.to_string(names),
            "x0": self.x0.tolist(),
            "xT": self.xT.tolist(),
            "value_degree": self.value_degree,
            "certificate_degree": self.certificate_degree,
            "state_ball_radius": self.state_ball_radius,
            "joint_ball_radius": self.joint_ball_radius,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "ControlProblem":
        ns = int(data["num_states"])
        nc = int(data["num_controls"])
        nv = ns + nc
        names = [f"x{i+1}" for i in range(ns)] + [f"u{i+1}" for i in range(nc)]
        return ControlProblem(
            num_states=ns,
            num_controls=nc,
            dynamics=[parse_polynomial(s, nv, names) for s in data["dynamics"]],
            cost=parse_polynomial(data["cost"], nv, names),
            x0=np.asarray(data["x0"], dtype=float),
            xT=np.asarray(data["xT"], dtype=float),
            value_degree=int(data.get("value_degree", 1)),
            certificate_degree=int(data.get("certificate_degree", 1)),
            state_ball_radius=data.get("state_ball_radius"),
            joint_ball_radius=data.get("joint_ball_radius"),
        )

    @staticmethod
    def from_json(text: str) -> "ControlProblem":
        return ControlProblem.from_json_dict(json.loads(text))


def _embed_state_monomial(mono: Monomial, num_controls: int) -> Monomial:
    return tuple(mono) + (0,) * num_controls


def _value_pieces(cp: ControlProblem) -> List[Tuple[Basis, Optional[Polynomial]]]:
    """(basis, multiplier) of each Gram block of V: V = sum_b mult_b * z_b' Q_b z_b.

    The plain value block, plus the ball localizer's when configured.
    """
    pieces = [(monomial_basis(cp.num_states, cp.value_degree), None)]
    if cp.state_ball_radius is not None:
        g_state = _ball_polynomial(cp.num_states, cp.state_ball_radius)
        deg = cp.value_degree - 1
        if deg < 0:
            raise ValueError("value_degree too small for a ball localizer")
        pieces.append((monomial_basis(cp.num_states, deg), g_state))
    return pieces


def _value_block_specs(cp: ControlProblem) -> List[GramBlockSpec]:
    """Gram block specs for V itself (plus ball localizer when configured).

    Each spec's entry polynomial is grad(w).f for the entry's base polynomial
    w, and the objective matrix evaluates w at x0 minus at xT.
    """
    nv = cp.num_vars
    x0u = np.concatenate([cp.x0, np.zeros(cp.num_controls)])
    xTu = np.concatenate([cp.xT, np.zeros(cp.num_controls)])

    specs = []
    for basis, mult in _value_pieces(cp):
        joint = [
            Polynomial(nv, {_embed_state_monomial(m, cp.num_controls): 1.0})
            for m in basis.elements
        ]
        mult_joint = None
        if mult is not None:
            mult_joint = Polynomial(
                nv,
                {_embed_state_monomial(m, cp.num_controls): c for m, c in mult.terms.items()},
            )
        nb = len(basis)
        entry_polys = []
        objective = np.zeros((nb, nb))
        for i in range(nb):
            for j in range(i, nb):
                w = joint[i] * joint[j]
                if mult_joint is not None:
                    w = w * mult_joint
                lie = Polynomial(nv, {})
                grads = gradient(w)
                for k in range(cp.num_states):
                    lie = lie + grads[k] * cp.dynamics[k]
                entry_polys.append(lie.scale(1.0 if i == j else 2.0))
                val = evaluate(w, x0u) - evaluate(w, xTu)
                objective[i, j] = val
                objective[j, i] = val
        specs.append(GramBlockSpec(basis=basis, entry_polys=entry_polys, objective=objective))
    return specs


def compile_poc(cp: ControlProblem) -> SdpProblem:
    """Compile the value-subsolution program to the canonical pair.

    Blocks are [V blocks..., certificate blocks...]; the first certificate
    block (over the joint basis) is the moment-bearing one.
    """
    nv = cp.num_vars
    value_specs = _value_block_specs(cp)

    cert_specs = []
    cert_basis = monomial_basis(nv, cp.certificate_degree)
    cert_specs.append(_negated(plain_gram_block(cert_basis)))
    if cp.joint_ball_radius is not None:
        g_joint = _ball_polynomial(nv, cp.joint_ball_radius)
        deg = cp.certificate_degree - 1
        if deg < 0:
            raise ValueError("certificate_degree too small for a ball localizer")
        cert_specs.append(_negated(plain_gram_block(monomial_basis(nv, deg), multiplier=g_joint)))

    blocks = value_specs + cert_specs
    target = -cp.cost
    return matching_program(blocks, target, moment_block=len(value_specs))


def _negated(spec: GramBlockSpec) -> GramBlockSpec:
    return GramBlockSpec(
        basis=spec.basis,
        entry_polys=[p.scale(-1.0) for p in spec.entry_polys],
        objective=spec.objective,
    )


def extract_value_function(problem: SdpProblem, solution, cp: ControlProblem) -> Polynomial:
    """Rebuild V(x) from the Gram blocks of compile_poc(cp), solved."""
    pieces = _value_pieces(cp)
    shapes = [(len(basis), len(basis)) for basis, _ in pieces]
    if (
        not isinstance(problem, SdpProblem)
        or [(n, n) for n in problem.block_dims[:len(pieces)]] != shapes
        or [q.shape for q in solution.psd_blocks[:len(pieces)]] != shapes
    ):
        raise ValueError("the solution's leading blocks are not the value-function "
                         "Gram blocks of this control problem")
    v = Polynomial(cp.num_states, {})
    for b, (basis, mult) in enumerate(pieces):
        q = solution.psd_blocks[b]
        nb = len(basis)
        for i in range(nb):
            for j in range(nb):
                w = Polynomial(
                    cp.num_states,
                    {mul_monomials(basis.elements[i], basis.elements[j]): float(q[i, j])},
                )
                if mult is not None:
                    w = w * mult
                v = v + w
    return v


def bellman_residual(
    cp: ControlProblem, value: Polynomial, samples: Sequence[Sequence[float]]
) -> float:
    """min over samples of (grad(V).f + c)(x, u); solutions should be >= -1e-6."""
    if value.num_vars != cp.num_states:
        raise ValueError("value function must be a polynomial over the states")
    nv = cp.num_vars
    v_joint = Polynomial(
        nv, {_embed_state_monomial(m, cp.num_controls): c for m, c in value.terms.items()}
    )
    lie = Polynomial(nv, {})
    grads = gradient(v_joint)
    for k in range(cp.num_states):
        lie = lie + grads[k] * cp.dynamics[k]
    total = lie + cp.cost
    worst = np.inf
    for pt in samples:
        worst = min(worst, evaluate(total, np.asarray(pt, dtype=float)))
    return float(worst)
