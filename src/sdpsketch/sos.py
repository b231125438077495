"""Compile SOS membership and polynomial lower-bound programs to SDP data.

An SdpProblem is the canonical primal/dual pair

    primal:  min <C, X>   s.t.  <A_j, X> = b_j,  X PSD (per block)
    dual:    max b'y      s.t.  sum_j y_j A_j + S = C,  S PSD (per block)

Compiled programs are emitted so that the Gram matrix of the certificate
lives in the dual-slack position S: C holds one particular Gram
representative of the target polynomial and the A_j span the kernel of the
coefficient-matching map (plus one matrix per free scalar such as the lower
bound).  Restricting S to sums of projected blocks then restricts the SOS
cone, and the multipliers of the matrix equation form the moment matrix.

An SdpProblem stores its equality system once, as the svec matrix a_svec
with one column per constraint.  The interior-point layouts, the consensus
solver and the KKT replay all read that matrix, and the JSON document holds
it packed: a_svec and rhs as little-endian float64 bytes in base64, beside
their shapes, so a problem file decodes to the same bits it was written
from.  The older coordinate form, one {"rhs", "blocks"} entry per
constraint, is still read.

A problem owns the elimination data of its restricted duals
(SdpProblem.reduction), built on first use at one BLAS thread, shared by
every restriction and left behind by pickles and copies.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._blas import limit_blas_threads
from ._linalg import (RANGE_TOL, SQRT2, PivotedQR, smat, svec, svec_dim, svec_weights, sym,
                      triu_indices)
from .polynomial import (
    Basis,
    DegreeOverflowError,
    Monomial,
    Polynomial,
    grlex_key,
    monomial_basis,
    mul_monomials,
)

SYMMETRY_TOL = 1e-14


@dataclass(frozen=True)
class GramMap:
    """Coefficient-matching structure: monomial -> Gram positions producing it."""

    basis: Basis
    rows: Dict[Monomial, List[Tuple[int, int, int]]]


def gram_map(basis: Basis) -> GramMap:
    """For each monomial a reachable as m_i * m_j, list pairs (i, j, mult), i <= j.

    mult counts the symmetric occurrences: 2 off the diagonal, 1 on it.
    """
    rows: Dict[Monomial, List[Tuple[int, int, int]]] = {}
    n = len(basis)
    for i in range(n):
        for j in range(i, n):
            mono = mul_monomials(basis.elements[i], basis.elements[j])
            rows.setdefault(mono, []).append((i, j, 1 if i == j else 2))
    return GramMap(basis=basis, rows=rows)


@dataclass(frozen=True)
class MomentMeta:
    """Where the measure lives in a compiled problem: which PSD block carries
    the moment structure and how matrix positions map to monomials."""

    block: int
    basis: Basis
    rows: Dict[Monomial, List[Tuple[int, int, int]]]


class SdpProblem:
    """Canonical SDP pair data; see module docstring for both readings.

    The constraints are given either as (matrices, rhs) pairs, one symmetric
    matrix per block, or already packed as `a_svec` and `rhs`; they are
    stored once, packed: column j of `a_svec` is svec(A_j) with the blocks
    stacked, block b in rows offsets[b]:offsets[b + 1].  Problems are not
    changed after construction and compare by identity: a copy is a
    different problem.
    """

    def __init__(self, block_dims: Sequence[int], cost_blocks: Sequence[np.ndarray],
                 constraints: Optional[Sequence[Tuple[Sequence[np.ndarray], float]]] = None,
                 sense: str = "min", obj_offset: float = 0.0,
                 moment_meta: Optional[MomentMeta] = None, *,
                 a_svec: Optional[np.ndarray] = None, rhs: Optional[Sequence[float]] = None):
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        if (constraints is None) == (a_svec is None) or (a_svec is None) != (rhs is None):
            raise ValueError("give either constraints or both a_svec and rhs")
        self.block_dims = tuple(int(d) for d in block_dims)
        self.cost_blocks = tuple(_symmetric(c, d, "cost")
                                 for c, d in zip(cost_blocks, self.block_dims))
        self.offsets = np.cumsum([0] + [svec_dim(d) for d in self.block_dims])
        if constraints is None:
            # A copy of its own, made read-only below, in C order: a JSON round
            # trip gives C order, and the two orders solve to different bits.
            a_svec = np.array(a_svec, dtype=float, order="C")
        else:
            constraints = list(constraints)
            a_svec = np.zeros((int(self.offsets[-1]), len(constraints)))
            for j, (mats, _) in enumerate(constraints):
                a_svec[:, j] = self.pack(
                    [_symmetric(a, d, "constraint") for a, d in zip(mats, self.block_dims)])
            rhs = [float(b) for _, b in constraints]
        self.a_svec = a_svec
        self.rhs = np.array(rhs, dtype=float)
        if self.rhs.ndim != 1:
            raise ValueError(f"rhs has shape {self.rhs.shape}, not one value per constraint")
        want = (int(self.offsets[-1]), self.rhs.size)
        if self.a_svec.shape != want:
            raise ValueError(
                f"a_svec has shape {self.a_svec.shape}, but block_dims {list(self.block_dims)} "
                f"and {self.rhs.size} right-hand sides need {want}")
        if not (np.isfinite(self.a_svec).all() and np.isfinite(self.rhs).all()):
            raise ValueError("the constraint matrix or right-hand side has a non-finite entry")
        self.a_svec.flags.writeable = self.rhs.flags.writeable = False
        self.sense = sense
        self.obj_offset = obj_offset
        self.moment_meta = moment_meta

    @cached_property
    def reduction(self) -> "RestrictedReduction":
        """The elimination data of every restricted dual of this problem, built
        on first use, at one BLAS thread like its lazy parts, so its bits do
        not depend on where it is first touched; shared by all of them."""
        with limit_blas_threads():
            return RestrictedReduction(self)

    def __getstate__(self):
        # Pickles and copies leave the reduction behind; it is rebuilt on use.
        state = dict(self.__dict__)
        state.pop("reduction", None)
        return state

    # -- structure -----------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def num_constraints(self) -> int:
        return self.a_svec.shape[1]

    @property
    def constraints(self) -> List[Tuple[Tuple[np.ndarray, ...], float]]:
        """The (matrices, rhs) pairs, unpacked from a_svec."""
        return [(tuple(self.unpack(col)), float(b)) for col, b in zip(self.a_svec.T, self.rhs)]

    def pack(self, mats: Sequence[np.ndarray]) -> np.ndarray:
        """svec of one symmetric matrix per block, stacked like a column of a_svec."""
        return np.concatenate([svec(m) for m in mats])

    def unpack(self, vec: np.ndarray) -> List[np.ndarray]:
        """The per-block symmetric matrices of a vector stacked like a column of a_svec."""
        return [smat(seg, d) for seg, d in zip(self.segments(vec), self.block_dims)]

    def segments(self, arr: np.ndarray) -> List[np.ndarray]:
        """Per-block row ranges of an array whose rows are stacked like a_svec's."""
        return [arr[lo:hi] for lo, hi in zip(self.offsets[:-1], self.offsets[1:])]

    # -- the two readings ----------------------------------------------
    def dual_slack(self, y: np.ndarray) -> List[np.ndarray]:
        """S_b = C_b - sum_j y_j A_{j,b}."""
        return [c - a for c, a in zip(self.cost_blocks, self.unpack(self.a_svec @ y))]

    def constraint_values(self, x_blocks: Sequence[np.ndarray]) -> np.ndarray:
        """<A_j, X> per constraint; the X blocks need not be symmetric."""
        return self.a_svec.T @ self.pack([sym(x) for x in x_blocks])

    def primal_cost(self, x_blocks: Sequence[np.ndarray]) -> float:
        return sum(float(np.tensordot(c, x)) for c, x in zip(self.cost_blocks, x_blocks))

    # -- JSON: cost blocks as coordinates, constraints packed -------------
    def to_json_dict(self) -> dict:
        data = {
            "type": "sdp_problem",
            "sense": self.sense,
            "block_dims": list(self.block_dims),
            "obj_offset": self.obj_offset,
            "cost_blocks": [_mat_coords(c) for c in self.cost_blocks],
            "a_svec": _packed(self.a_svec),
            "rhs": _packed(self.rhs),
        }
        if self.moment_meta is not None:
            data["moment_meta"] = {
                "block": self.moment_meta.block,
                "num_vars": self.moment_meta.basis.num_vars,
                "max_degree": self.moment_meta.basis.max_degree,
            }
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "SdpProblem":
        """Reads the packed form ("a_svec" and "rhs") or the coordinate form
        ("constraints"), whichever the document has."""
        dims = [int(d) for d in data["block_dims"]]
        costs = tuple(
            _mat_from_coords(c, d) for c, d in zip(data["cost_blocks"], dims)
        )
        if "a_svec" in data:
            system = dict(a_svec=_unpacked(data["a_svec"], "a_svec"),
                          rhs=_unpacked(data["rhs"], "rhs"))
        else:
            system = dict(constraints=[
                (
                    tuple(_mat_from_coords(a, d) for a, d in zip(entry["blocks"], dims)),
                    float(entry["rhs"]),
                )
                for entry in data["constraints"]
            ])
        meta = None
        if "moment_meta" in data:
            m = data["moment_meta"]
            basis = monomial_basis(int(m["num_vars"]), int(m["max_degree"]))
            meta = MomentMeta(block=int(m["block"]), basis=basis, rows=gram_map(basis).rows)
        return SdpProblem(
            block_dims=tuple(dims),
            cost_blocks=costs,
            sense=data.get("sense", "min"),
            obj_offset=float(data.get("obj_offset", 0.0)),
            moment_meta=meta,
            **system,
        )

    @staticmethod
    def from_json(text: str) -> "SdpProblem":
        return SdpProblem.from_json_dict(json.loads(text))


class RestrictedReduction:
    """Elimination of y from S = C - sum_j y_j A_j, shared by every restricted
    dual of one base problem: rows perp' svec(S) = perp' svec(C), cost
    w_obj = A z with A'A z = b, and y recovered from S by the Gram solve.

    One column-pivoted QR of A, A P = Q R (_linalg.PivotedQR), serves all of
    it at any rank, by its one rank rule: perp is its complement basis, the
    Gram solve its basic solution, and `ray`, if b is not in the range of A',
    a d with A d = 0 and b'd > 0: the min side of the pair and of every
    restriction is infeasible.  A full-rank A has no ray."""

    def __init__(self, base: SdpProblem):
        self.base, self.a_mat, self.c_vec = base, base.a_svec, base.pack(base.cost_blocks)
        self._qr = PivotedQR(self.a_mat)
        self.rank, self.solve_gram = self._qr.rank, self._qr.solve_gram
        self.ray = self._qr.ray(base.rhs)
        self.independent = np.sort(self._qr.piv[:self.rank])  # A's independent columns
        self.w_obj = self.a_mat @ self.solve_gram(base.rhs)
        self.const = float(self.w_obj @ self.c_vec) + base.obj_offset

    # Only the interior-point layout reads the complement basis, so the
    # consensus solver never applies the reflectors.
    @cached_property
    def perp(self) -> np.ndarray:
        """Orthonormal basis of the complement of span{svec(A_j)}: the trailing
        dim - rank columns of Q."""
        return self._qr.complement()

    @cached_property
    def rhs(self) -> np.ndarray:
        with limit_blas_threads():
            return self.perp.T @ self.c_vec

    @cached_property
    def row_segments(self) -> List[np.ndarray]:
        return [np.ascontiguousarray(seg.T) for seg in self.base.segments(self.perp)]

    def recover_y(self, slacks: Sequence[np.ndarray]) -> np.ndarray:
        """y of sum_j y_j A_j + S = C, one slack matrix S_b per block."""
        return self.solve_gram(self.a_mat.T @ (self.c_vec - self.base.pack(slacks)))

    def moment_matrices(self, w: np.ndarray) -> List[np.ndarray]:
        return self.base.unpack(self.w_obj - self.perp @ w)


def _symmetric(mat, dim: int, what: str) -> np.ndarray:
    """mat as a float array, checked to be a symmetric dim x dim matrix."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (dim, dim):
        raise ValueError(f"{what} matrix has shape {mat.shape}, expected ({dim}, {dim})")
    skew = np.abs(mat - mat.T).max(initial=0.0)
    scale = max(1.0, np.abs(mat).max(initial=0.0))
    if skew > SYMMETRY_TOL * scale * 10:
        raise ValueError(f"{what} matrix is not symmetric (skew {skew:.3e})")
    return mat


def _mat_coords(mat: np.ndarray) -> dict:
    n = mat.shape[0]
    ia, ib = triu_indices(n)
    vals = mat[ia, ib]
    keep = vals != 0.0
    return {
        "i": ia[keep].tolist(),
        "j": ib[keep].tolist(),
        "v": vals[keep].tolist(),
    }


def _packed(arr: np.ndarray) -> dict:
    """An array as its shape and its little-endian float64 bytes in base64."""
    raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return {"shape": list(arr.shape), "float64_le": base64.b64encode(raw).decode("ascii")}


def _unpacked(data: dict, what: str) -> np.ndarray:
    shape = tuple(int(s) for s in data["shape"])
    try:
        raw = base64.b64decode(data["float64_le"], validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ValueError(f"{what} is not valid base64: {exc}") from None
    if min(shape, default=0) < 0 or len(raw) != 8 * int(np.prod(shape)):
        raise ValueError(f"{what} holds {len(raw)} bytes, not 8 per entry of shape {list(shape)}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def _mat_from_coords(data: dict, n: int) -> np.ndarray:
    out = np.zeros((n, n))
    ii = np.asarray(data["i"], dtype=int)
    jj = np.asarray(data["j"], dtype=int)
    vv = np.asarray(data["v"], dtype=float)
    for idx in (ii, jj):
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ValueError(f"matrix coordinate outside 0..{n - 1} of a {n}x{n} block")
    out[ii, jj] = vv
    out[jj, ii] = vv
    return out


# ---------------------------------------------------------------------------
# Generic coefficient-matching compiler.
# ---------------------------------------------------------------------------


@dataclass
class GramBlockSpec:
    """One PSD block of a certificate and how its entries enter the identity.

    entry_polys[k] is the polynomial contributed by a unit value at the k-th
    upper-triangle position (i <= j) of the block, diagonal multiplicity 1 and
    off-diagonal multiplicity 2 already included.
    """

    basis: Basis
    entry_polys: List[Polynomial]
    objective: Optional[np.ndarray] = None  # linear functional <L, Q> on this block


def plain_gram_block(basis: Basis, multiplier: Optional[Polynomial] = None,
                     transform=None, objective: Optional[np.ndarray] = None) -> GramBlockSpec:
    """Block contributing transform(multiplier * m_i * m_j) per Gram entry."""
    nv = basis.num_vars
    entries: List[Polynomial] = []
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            base = Polynomial(nv, {mul_monomials(basis.elements[i], basis.elements[j]): 1.0})
            if multiplier is not None:
                base = base * multiplier
            if transform is not None:
                base = transform(base)
            entries.append(base.scale(1.0 if i == j else 2.0))
    return GramBlockSpec(basis=basis, entry_polys=entries, objective=objective)


def matching_program(
    blocks: List[GramBlockSpec],
    target: Polynomial,
    lower_bound_poly: Optional[Polynomial] = None,
    moment_block: int = 0,
) -> SdpProblem:
    """Pair-form SDP for: find PSD blocks with sum of contributions == target
    (minus lambda * lower_bound_poly when a lower bound variable is requested,
    in which case the objective maximizes lambda).

    The constraint columns are packed straight into a_svec: (col / w) * w
    with w the stacked svec weights is svec(smat(col)) block by block, in the
    same floating-point operations, so no constraint matrix is formed.
    """
    dims, c_vec, cols, rhs = _matching_columns(blocks, target, lower_bound_poly)
    offsets = np.cumsum([0] + [svec_dim(d) for d in dims])

    def split(vec: np.ndarray) -> Tuple[np.ndarray, ...]:
        return tuple(smat(vec[lo:hi], d) for lo, hi, d in zip(offsets[:-1], offsets[1:], dims))

    cost_blocks = split(c_vec)
    obj_offset = 0.0
    if any(spec.objective is not None for spec in blocks):
        if lower_bound_poly is not None:
            # Lower bound and block functionals are not combined in any caller.
            raise NotImplementedError("objective functionals with a lower bound variable")

        def functional(mats) -> float:
            val = 0.0
            for spec, mat in zip(blocks, mats):
                if spec.objective is not None:
                    val += float(np.tensordot(spec.objective, mat))
            return val

        obj_offset = functional(cost_blocks)
        rhs = np.array([-functional(split(col)) for col in cols.T])

    weights = np.concatenate([svec_weights(d) for d in dims])[:, None]
    mb = blocks[moment_block].basis
    meta = MomentMeta(block=moment_block, basis=mb, rows=gram_map(mb).rows)
    return SdpProblem(
        block_dims=tuple(dims),
        cost_blocks=cost_blocks,
        a_svec=(cols / weights) * weights,
        rhs=rhs,
        sense="max",
        obj_offset=obj_offset,
        moment_meta=meta,
    )


def _matching_columns(blocks: List[GramBlockSpec], target: Polynomial,
                      lower_bound_poly: Optional[Polynomial]):
    """The coefficient-matching system of matching_program in svec
    coordinates: (block sizes, the particular solution c of the target, the
    constraint columns [lambda particular solution, kernel basis], their
    right-hand sides).

    One pivoted QR of the transposed matching map, R' P = Q T
    (_linalg.PivotedQR), gives all of it: the orthonormal kernel basis of R
    is the trailing columns of Q, from the reflectors, and each particular
    solution is the minimum-norm one, orthogonal to the kernel, from one
    triangular solve with T.
    """
    support: Dict[Monomial, int] = {}

    def note(mono):
        if mono not in support:
            support[mono] = len(support)

    for spec in blocks:
        for poly in spec.entry_polys:
            for mono in poly.terms:
                note(mono)
    row_monos = sorted(support, key=grlex_key)
    support = {m: k for k, m in enumerate(row_monos)}

    for mono in target.terms:
        if mono not in support:
            raise DegreeOverflowError(
                f"target monomial {Polynomial(target.num_vars, {mono: 1.0})} is not "
                "representable by the certificate blocks"
            )
    if lower_bound_poly is not None:
        for mono in lower_bound_poly.terms:
            if mono not in support:
                raise DegreeOverflowError(
                    "lower-bound polynomial leaves the representable support"
                )

    n_rows = len(row_monos)
    dims = [len(spec.basis) for spec in blocks]
    sdims = [svec_dim(d) for d in dims]
    offsets = np.concatenate([[0], np.cumsum(sdims)])
    total = int(offsets[-1])

    # Matching map in isometric svec coordinates.
    R = np.zeros((n_rows, total))
    for b, spec in enumerate(blocks):
        d = len(spec.basis)
        ia, ib = triu_indices(d)
        for k, poly in enumerate(spec.entry_polys):
            col = offsets[b] + k
            scale = 1.0 if ia[k] == ib[k] else 1.0 / SQRT2
            for mono, coeff in poly.terms.items():
                R[support[mono], col] = R[support[mono], col] + coeff * scale

    tvec = np.zeros(n_rows)
    for mono, coeff in target.terms.items():
        tvec[support[mono]] = coeff

    factored = PivotedQR(R.T)

    def particular(rhs: np.ndarray, what: str) -> np.ndarray:
        sol = factored.min_norm_solve(rhs)
        resid = R @ sol - rhs
        bad = np.abs(resid) > RANGE_TOL * (1.0 + np.abs(rhs).max(initial=0.0))
        if bad.any():
            worst = row_monos[int(np.argmax(np.abs(resid)))]
            raise DegreeOverflowError(
                f"{what} cannot be matched: residual at monomial "
                f"{Polynomial(target.num_vars, {worst: 1.0})}"
            )
        return sol

    c_vec = particular(tvec, "target polynomial")
    kernel = factored.complement()

    lam_vec = None
    if lower_bound_poly is not None:
        lvec = np.zeros(n_rows)
        for mono, coeff in lower_bound_poly.terms.items():
            lvec[support[mono]] = coeff
        lam_vec = particular(lvec, "lower-bound polynomial")

    if lam_vec is None:
        return dims, c_vec, kernel, np.zeros(kernel.shape[1])
    rhs = np.zeros(1 + kernel.shape[1])
    rhs[0] = 1.0
    return dims, c_vec, np.column_stack([lam_vec, kernel]), rhs


def _ball_polynomial(num_vars: int, radius: float) -> Polynomial:
    terms = {tuple([0] * num_vars): radius * radius}
    for i in range(num_vars):
        mono = tuple(2 if j == i else 0 for j in range(num_vars))
        terms[mono] = -1.0
    return Polynomial(num_vars, terms)


def _validate_target(p: Polynomial, basis: Basis):
    if p.num_vars != basis.num_vars:
        raise ValueError(
            f"polynomial over {p.num_vars} variables, basis over {basis.num_vars}"
        )
    if p.degree() > 2 * basis.max_degree:
        offenders = [m for m in p.terms if sum(m) > 2 * basis.max_degree]
        worst = max(offenders, key=grlex_key)
        raise DegreeOverflowError(
            f"monomial {Polynomial(p.num_vars, {worst: 1.0})} exceeds degree "
            f"{2 * basis.max_degree} representable over the basis"
        )


def _certificate_blocks(
    basis: Basis, ball_radius: Optional[float], multiplier_basis: Optional[Basis]
) -> List[GramBlockSpec]:
    """The Gram block over basis; with ball_radius set, also the localizer
    block s1 * (radius^2 - |x|^2) over multiplier_basis (default: one degree
    lower)."""
    blocks = [plain_gram_block(basis)]
    if ball_radius is not None:
        if multiplier_basis is None:
            multiplier_basis = monomial_basis(basis.num_vars, basis.max_degree - 1)
        if multiplier_basis.max_degree + 1 > basis.max_degree:
            raise DegreeOverflowError(
                "multiplier degree too large: deg(s1 * ball) exceeds 2 * basis degree"
            )
        g = _ball_polynomial(basis.num_vars, ball_radius)
        blocks.append(plain_gram_block(multiplier_basis, multiplier=g))
    return blocks


def compile_sos(
    p: Polynomial,
    basis: Basis,
    ball_radius: Optional[float] = None,
    multiplier_basis: Optional[Basis] = None,
) -> SdpProblem:
    """Feasibility problem: does p admit a Gram certificate over basis?

    With ball_radius set, certifies p = s0 + s1 * (radius^2 - |x|^2) with two
    Gram blocks (one-level localization on the ball).
    """
    _validate_target(p, basis)
    return matching_program(_certificate_blocks(basis, ball_radius, multiplier_basis), p)


def compile_sos_on_ball(
    p: Polynomial, basis: Basis, radius: float, multiplier_basis: Basis
) -> SdpProblem:
    """SOS membership on the ball of the given radius (single localizer)."""
    return compile_sos(p, basis, ball_radius=radius, multiplier_basis=multiplier_basis)


def compile_pop(
    p: Polynomial,
    basis: Basis,
    ball_radius: Optional[float] = None,
    multiplier_basis: Optional[Basis] = None,
) -> SdpProblem:
    """Largest lambda with p - lambda certified nonnegative over the basis.

    Unconstrained by default; with ball_radius the certificate is localized
    to the ball and lambda bounds min over it.
    """
    _validate_target(p, basis)
    blocks = _certificate_blocks(basis, ball_radius, multiplier_basis)
    one = Polynomial.constant(p.num_vars, 1.0)
    return matching_program(blocks, p, lower_bound_poly=one)
