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

An SdpProblem stores its equality system in one of two forms.
  - A compiled program (matching_program: POP and POC) stores its
    coefficient-matching system, a MatchingSystem: the sparse map R, the
    lower-bound polynomial's coefficients if it has one, and the one
    pivoted QR of R' its compile took.  The constraint columns are never
    formed.  The restricted reduction, the Gram solve and the KKT replay
    apply A and A' through the QR's reflectors; only the readers that need
    A's entries (the pair form's rows, the consensus saddle system and
    `constraints`) form the svec matrix a_svec, once, on first use.
  - Any other problem stores a_svec, with one column per constraint.
The JSON document holds the matching system as coordinates of R's nonzeros
("matching"), or a_svec packed, as little-endian float64 bytes in base64
beside its shape; rhs is packed either way, so a problem file decodes to
the bits it was written from.  The older coordinate form, one {"rhs",
"blocks"} entry per constraint, is still read.  The reader is strict: an
unknown key, a missing one or a value of the wrong JSON type or shape is
refused with a ValueError naming the field.

A problem owns the elimination data of its restricted duals
(SdpProblem.reduction), built on first use at one BLAS thread, shared by
every restriction and left behind by pickles and copies.
"""

from __future__ import annotations

import base64
import json
import math
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

    The constraints are given as (matrices, rhs) pairs, one symmetric matrix
    per block, packed as `a_svec` and `rhs`, or as a compiled program's
    `matching` system and `rhs`.  Column j of `a_svec` is svec(A_j) with the
    blocks stacked, block b in rows offsets[b]:offsets[b + 1]; a problem
    with a matching system forms it only when it is read.  Problems are not
    changed after construction and compare by identity: a copy is a
    different problem.
    """

    def __init__(self, block_dims: Sequence[int], cost_blocks: Sequence[np.ndarray],
                 constraints: Optional[Sequence[Tuple[Sequence[np.ndarray], float]]] = None,
                 sense: str = "min", obj_offset: float = 0.0,
                 moment_meta: Optional[MomentMeta] = None, *,
                 a_svec: Optional[np.ndarray] = None, rhs: Optional[Sequence[float]] = None,
                 matching: Optional["MatchingSystem"] = None):
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        if (sum(x is not None for x in (constraints, a_svec, matching)) != 1
                or (constraints is None) == (rhs is None)):
            raise ValueError("give either constraints, or rhs with a_svec or with matching")
        self.block_dims = tuple(int(d) for d in block_dims)
        self.cost_blocks = tuple(_symmetric(c, d, "cost")
                                 for c, d in zip(cost_blocks, self.block_dims))
        self.offsets = np.cumsum([0] + [svec_dim(d) for d in self.block_dims])
        self.matching = matching
        if constraints is not None:
            constraints = list(constraints)
            a_svec = np.zeros((int(self.offsets[-1]), len(constraints)))
            for j, (mats, _) in enumerate(constraints):
                a_svec[:, j] = self.pack(
                    [_symmetric(a, d, "constraint") for a, d in zip(mats, self.block_dims)])
            rhs = [float(b) for _, b in constraints]
        elif a_svec is not None:
            # A copy of its own, made read-only below, in C order: a JSON round
            # trip gives C order, and the two orders solve to different bits.
            a_svec = np.array(a_svec, dtype=float, order="C")
        self.rhs = np.array(rhs, dtype=float)
        if self.rhs.ndim != 1:
            raise ValueError(f"rhs has shape {self.rhs.shape}, not one value per constraint")
        want = (int(self.offsets[-1]), self.rhs.size)
        shape = a_svec.shape if matching is None else (matching.dim, matching.rank)
        if shape != want:
            raise ValueError(
                f"{'a_svec' if matching is None else 'the matching system'} has shape {shape}, "
                f"but block_dims {list(self.block_dims)} and {self.rhs.size} right-hand "
                f"sides need {want}")
        if not (np.isfinite(self.rhs).all() and (a_svec is None or np.isfinite(a_svec).all())):
            raise ValueError("the constraint matrix or right-hand side has a non-finite entry")
        if a_svec is not None:
            a_svec.flags.writeable = False
            self.a_svec = a_svec  # stored: it shadows the property below
        self.rhs.flags.writeable = False
        self.sense = sense
        self.obj_offset = obj_offset
        self.moment_meta = moment_meta

    @cached_property
    def a_svec(self) -> np.ndarray:
        """A matching system's constraint matrix, formed on first use as the
        compiler once stored it: (col / w) * w for each column of
        MatchingSystem.columns(), w the stacked svec weights, which is
        svec(smat(col)) block by block in the same floating-point operations."""
        weights = np.concatenate([svec_weights(d) for d in self.block_dims])[:, None]
        a_svec = np.array((self.matching.columns() / weights) * weights, order="C")
        a_svec.flags.writeable = False
        return a_svec

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
        return self.rhs.size

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

    def apply_a(self, y: np.ndarray) -> np.ndarray:
        """A y = sum_j y_j svec(A_j), through the matching system if there is one."""
        return self.a_svec @ y if self.matching is None else self.matching.apply(y)

    def apply_at(self, x: np.ndarray) -> np.ndarray:
        """A'x = (<svec(A_j), x>)_j, through the matching system if there is one."""
        return self.a_svec.T @ x if self.matching is None else self.matching.apply_t(x)

    # -- the two readings ----------------------------------------------
    def dual_slack(self, y: np.ndarray) -> List[np.ndarray]:
        """S_b = C_b - sum_j y_j A_{j,b}."""
        return [c - a for c, a in zip(self.cost_blocks, self.unpack(self.apply_a(y)))]

    def constraint_values(self, x_blocks: Sequence[np.ndarray]) -> np.ndarray:
        """<A_j, X> per constraint; the X blocks need not be symmetric."""
        return self.apply_at(self.pack([sym(x) for x in x_blocks]))

    def primal_cost(self, x_blocks: Sequence[np.ndarray]) -> float:
        return sum(float(np.tensordot(c, x)) for c, x in zip(self.cost_blocks, x_blocks))

    # -- JSON: cost blocks as coordinates, constraints as stored -----------
    def to_json_dict(self) -> dict:
        data = {
            "type": "sdp_problem",
            "sense": self.sense,
            "block_dims": list(self.block_dims),
            "obj_offset": self.obj_offset,
            "cost_blocks": [_mat_coords(c) for c in self.cost_blocks],
        }
        if self.matching is None:
            data["a_svec"] = _packed(self.a_svec)
        else:
            data["matching"] = self.matching.to_json_dict()
        data["rhs"] = _packed(self.rhs)
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
        """Reads the packed form ("a_svec" and "rhs"), the coordinate form
        ("constraints") or the matching form ("matching" and "rhs"),
        whichever the document has; see the module docstring."""
        _object(data, "the problem", {"block_dims", "cost_blocks"},
                {"type", "sense", "obj_offset", "moment_meta"} | _SYSTEM_KEYS)
        if data.get("type", "sdp_problem") != "sdp_problem":
            raise ValueError(f"type must be 'sdp_problem', got {data['type']!r}")
        dims = data["block_dims"]
        if not (isinstance(dims, list) and all(_is_int(d) and d >= 1 for d in dims)):
            raise ValueError(f"block_dims must be a list of integers of at least 1, got {dims!r}")
        costs = _per_block(data["cost_blocks"], "cost_blocks", dims)
        costs = tuple(_mat_from_coords(c, d, f"cost_blocks[{b}]")
                      for b, (c, d) in enumerate(zip(costs, dims)))
        form = data.keys() & _SYSTEM_KEYS
        if form == {"a_svec", "rhs"}:
            system = dict(a_svec=_unpacked(data["a_svec"], "a_svec"))
        elif form == {"matching", "rhs"}:
            system = dict(matching=_matching_from_json(data["matching"],
                                                       sum(map(svec_dim, dims))))
        elif form == {"constraints"}:
            system = dict(constraints=_constraints_from_json(data["constraints"], dims))
        else:
            raise ValueError("the problem needs its constraints as a_svec and rhs, as "
                             f"matching and rhs, or as constraints; it has {sorted(form)}")
        if "rhs" in form:
            system["rhs"] = _unpacked(data["rhs"], "rhs")
        obj_offset = data.get("obj_offset", 0.0)
        if not _is_number(obj_offset):
            raise ValueError(f"obj_offset must be a finite number, got {obj_offset!r}")
        meta = None
        if "moment_meta" in data:
            m = _object(data["moment_meta"], "moment_meta", {"block", "num_vars", "max_degree"})
            for key in ("block", "num_vars", "max_degree"):
                if not (_is_int(m[key]) and m[key] >= 0):
                    raise ValueError(f"moment_meta.{key} must be an integer of at least 0, "
                                     f"got {m[key]!r}")
            if m["block"] >= len(dims):
                raise ValueError(f"moment_meta.block is {m['block']}, but there are "
                                 f"{len(dims)} blocks")
            basis = monomial_basis(m["num_vars"], m["max_degree"])
            meta = MomentMeta(block=m["block"], basis=basis, rows=gram_map(basis).rows)
        return SdpProblem(
            block_dims=tuple(dims),
            cost_blocks=costs,
            sense=data.get("sense", "min"),
            obj_offset=float(obj_offset),
            moment_meta=meta,
            **system,
        )

    @staticmethod
    def from_json(text: str) -> "SdpProblem":
        return SdpProblem.from_json_dict(json.loads(text))


class MatchingSystem:
    """The coefficient-matching system of a compiled program, whose constraint
    columns are never formed unless a reader needs their entries.

    R (rows x dim) maps svec of the stacked Gram blocks to the coefficients
    of the certificate identity.  The constraint columns are A = [lam, K]:
    K an orthonormal basis of the kernel of R and, when a lower-bound vector
    l is given, lam, the minimum-norm solution of R lam = l, orthogonal to
    K.  One column-pivoted QR of R', R' P = Q T (_linalg.PivotedQR), holds
    both: K is Q's trailing dim - k columns, k the QR's rank, and
    lam = Q [u; 0] with u = T_k^-T l[piv[:k]].  So

      - A'A = diag(|u|^2, I): A has full column rank, its Gram solve is a
        division, and b is always in the range of A' (no ray);
      - the complement of A's range is Q [H; 0], H an orthonormal basis of
        the complement of u in R^k (all of R^k when there is no l);
      - A y = Q [u y_0; y_1:] and A'x = [u'(Q'x)_:k; (Q'x)_k:], through the
        reflectors.

    It serves RestrictedReduction as PivotedQR serves a packed a_svec: rank,
    independent, solve_gram, ray and complement.
    """

    def __init__(self, matrix: np.ndarray, lower: Optional[np.ndarray] = None):
        self.matrix = np.array(matrix, dtype=float, order="C")
        self.lower = None if lower is None else np.array(lower, dtype=float)
        if self.lower is not None and self.lower.shape != self.matrix.shape[:1]:
            raise ValueError(f"the lower-bound vector has shape {self.lower.shape}, "
                             f"not one entry per row of the {self.matrix.shape} matching map")
        if not all(np.isfinite(a).all() for a in (self.matrix, self.lower) if a is not None):
            raise ValueError("the matching system has a non-finite entry")
        for a in (self.matrix, self.lower):
            if a is not None:
                a.flags.writeable = False
        self.qr = PivotedQR(self.matrix.T)
        self.dim = self.matrix.shape[1]
        self._u = None if self.lower is None else self.qr.leading(self.lower)
        self._u_sq = None if self._u is None else float(self._u @ self._u)
        if self._u_sq == 0.0:
            raise ValueError("the lower-bound vector has no part in the range of the matching map")
        # A has full column rank, so its rank is its number of columns.
        self.rank = self.dim - self.qr.rank + (self._u is not None)
        self.independent = np.arange(self.rank)

    def columns(self) -> np.ndarray:
        """[lam, K], formed, as the compiler once stored them."""
        kernel = self.qr.complement()
        if self.lower is None:
            return kernel
        return np.column_stack([self.qr.min_norm_solve(self.lower), kernel])

    def apply(self, y: np.ndarray) -> np.ndarray:
        """A y."""
        k, lead = self.qr.rank, int(self._u is not None)
        z = np.zeros((self.dim, 1), order="F")
        if lead:
            z[:k, 0] = self._u * y[0]
        z[k:, 0] = y[lead:]
        return self.qr.apply_q(z)[:, 0]

    def apply_t(self, x: np.ndarray) -> np.ndarray:
        """A'x."""
        k = self.qr.rank
        q = self.qr.apply_q(np.array(x, dtype=float).reshape(-1, 1), transpose=True)[:, 0]
        return q[k:] if self._u is None else np.concatenate(([self._u @ q[:k]], q[k:]))

    def solve_gram(self, rhs: np.ndarray) -> np.ndarray:
        """z with A'A z = rhs, for a vector or a (cols, j) array."""
        z = np.array(rhs, dtype=float)
        if self._u is not None:
            z[0] = z[0] / self._u_sq
        return z

    def ray(self, rhs: np.ndarray) -> None:
        """None: A has full column rank, so every rhs is in the range of A'."""
        return None

    def complement(self) -> np.ndarray:
        """Orthonormal basis of the complement of A's range, Q [H; 0]."""
        k = self.qr.rank
        head = np.eye(k) if self._u is None else PivotedQR(self._u[:, None]).complement()
        z = np.zeros((self.dim, head.shape[1]), order="F")
        z[:k] = head
        return self.qr.apply_q(z)

    def to_json_dict(self) -> dict:
        rows, cols = np.nonzero(_stored(self.matrix))
        data = {"shape": list(self.matrix.shape), "i": rows.tolist(), "j": cols.tolist(),
                "v": self.matrix[rows, cols].tolist()}
        if self.lower is not None:
            data["lower_bound"] = self.lower.tolist()
        return data


class RestrictedReduction:
    """Elimination of y from S = C - sum_j y_j A_j, shared by every restricted
    dual of one base problem: rows perp' svec(S) = perp' svec(C), cost
    w_obj = A z with A'A z = b, and y recovered from S by the Gram solve.

    One factorization serves all of it: the base's MatchingSystem, whose QR
    its compile took, or else one column-pivoted QR of a_svec, A P = Q R
    (_linalg.PivotedQR), at any rank, by its one rank rule.  perp is its
    complement basis, the Gram solve its basic solution, and `ray`, if b is
    not in the range of A', a d with A d = 0 and b'd > 0: the min side of
    the pair and of every restriction is infeasible.  A full-rank A, such
    as every matching system's, has no ray.  A and A' are applied by the
    base (SdpProblem.apply_a, apply_at), so a matching system's A is never
    formed here."""

    def __init__(self, base: SdpProblem):
        self.base, self.c_vec = base, base.pack(base.cost_blocks)
        self._factored = base.matching if base.matching is not None else PivotedQR(base.a_svec)
        self.rank, self.solve_gram = self._factored.rank, self._factored.solve_gram
        self.ray = self._factored.ray(base.rhs)
        self.independent = self._factored.independent  # A's independent columns
        self.w_obj = base.apply_a(self.solve_gram(base.rhs))
        self.const = float(self.w_obj @ self.c_vec) + base.obj_offset

    # Only the interior-point layout reads the complement basis, so the
    # consensus solver never applies the reflectors.
    @cached_property
    def perp(self) -> np.ndarray:
        """Orthonormal basis of the complement of span{svec(A_j)}: dim - rank columns."""
        return self._factored.complement()

    @cached_property
    def rhs(self) -> np.ndarray:
        with limit_blas_threads():
            return self.perp.T @ self.c_vec

    @cached_property
    def row_segments(self) -> List[np.ndarray]:
        return [np.ascontiguousarray(seg.T) for seg in self.base.segments(self.perp)]

    def recover_y(self, slacks: Sequence[np.ndarray]) -> np.ndarray:
        """y of sum_j y_j A_j + S = C, one slack matrix S_b per block."""
        return self.solve_gram(self.base.apply_at(self.c_vec - self.base.pack(slacks)))

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


def _stored(vals: np.ndarray) -> np.ndarray:
    """Which entries a coordinate form keeps: all but +0.0, so that a
    negative zero reads back to its own bits."""
    return (vals != 0.0) | np.signbit(vals)


def _mat_coords(mat: np.ndarray) -> dict:
    n = mat.shape[0]
    ia, ib = triu_indices(n)
    vals = mat[ia, ib]
    keep = _stored(vals)
    return {
        "i": ia[keep].tolist(),
        "j": ib[keep].tolist(),
        "v": vals[keep].tolist(),
    }


def _packed(arr: np.ndarray) -> dict:
    """An array as its shape and its little-endian float64 bytes in base64."""
    raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return {"shape": list(arr.shape), "float64_le": base64.b64encode(raw).decode("ascii")}


# -- the strict reader ------------------------------------------------------

_SYSTEM_KEYS = frozenset({"a_svec", "matching", "constraints", "rhs"})


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """Whether value is a JSON number that a finite float holds."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an integer beyond any float
        return False


def _object(value, name: str, required, optional=frozenset()) -> dict:
    """value, checked to be a JSON object with the required keys and no
    keys but those and the optional ones."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    for key in sorted(set(required) - value.keys()):
        raise ValueError(f"{name} lacks the field {key!r}")
    for key in sorted(value.keys() - set(required) - set(optional)):
        raise ValueError(f"{name} has an unknown field {key!r}")
    return value


def _per_block(value, name: str, dims) -> list:
    if not (isinstance(value, list) and len(value) == len(dims)):
        raise ValueError(f"{name} must be a list of {len(dims)} entries, one per block")
    return value


def _numbers(value, name: str) -> np.ndarray:
    if not (isinstance(value, list) and all(map(_is_number, value))):
        raise ValueError(f"{name} must be a list of finite numbers")
    return np.array(value, dtype=float)


def _coords(data: dict, name: str, shape) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows, columns and values of a coordinate object {"i", "j", "v"}
    of a matrix of the given shape."""
    index = []
    for key, size in zip("ij", shape):
        vals = data[key]
        if not (isinstance(vals, list) and all(map(_is_int, vals))):
            raise ValueError(f"{name}.{key} must be a list of integers")
        if vals and not 0 <= min(vals) <= max(vals) < size:
            raise ValueError(f"{name}.{key} has an index outside 0..{size - 1}")
        index.append(np.array(vals, dtype=int))
    vals = _numbers(data["v"], f"{name}.v")
    if not index[0].size == index[1].size == vals.size:
        raise ValueError(f"{name}.i, .j and .v must be of one length, not {index[0].size}, "
                         f"{index[1].size} and {vals.size}")
    return index[0], index[1], vals


def _mat_from_coords(data, n: int, name: str) -> np.ndarray:
    ii, jj, vv = _coords(_object(data, name, {"i", "j", "v"}), name, (n, n))
    out = np.zeros((n, n))
    out[ii, jj] = vv
    out[jj, ii] = vv
    return out


def _unpacked(data, what: str) -> np.ndarray:
    _object(data, what, {"shape", "float64_le"})
    shape = data["shape"]
    if not (isinstance(shape, list) and all(map(_is_int, shape))):
        raise ValueError(f"{what}.shape must be a list of integers, got {shape!r}")
    if not isinstance(data["float64_le"], str):
        raise ValueError(f"{what}.float64_le must be a base64 string")
    try:
        raw = base64.b64decode(data["float64_le"], validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ValueError(f"{what} is not valid base64: {exc}") from None
    if min(shape, default=0) < 0 or len(raw) != 8 * int(np.prod(shape)):
        raise ValueError(f"{what} holds {len(raw)} bytes, not 8 per entry of shape {list(shape)}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def _matching_from_json(data, dim: int) -> MatchingSystem:
    _object(data, "matching", {"shape", "i", "j", "v"}, {"lower_bound"})
    shape = data["shape"]
    if not (isinstance(shape, list) and len(shape) == 2
            and all(_is_int(s) and s >= 0 for s in shape)):
        raise ValueError(f"matching.shape must be two integers of at least 0, got {shape!r}")
    if shape[1] != dim:
        raise ValueError(f"matching.shape {shape} has {shape[1]} columns, but block_dims "
                         f"need {dim}")
    rows, cols, vals = _coords(data, "matching", shape)
    matrix = np.zeros(shape)
    matrix[rows, cols] = vals
    lower = None
    if "lower_bound" in data:
        lower = _numbers(data["lower_bound"], "matching.lower_bound")
        if lower.size != shape[0]:
            raise ValueError(f"matching.lower_bound has {lower.size} entries, but "
                             f"matching.shape {shape} has {shape[0]} rows")
    return MatchingSystem(matrix, lower)


def _constraints_from_json(data, dims) -> list:
    if not isinstance(data, list):
        raise ValueError(f"constraints must be a list, got {data!r}")
    out = []
    for k, entry in enumerate(data):
        name = f"constraints[{k}]"
        _object(entry, name, {"rhs", "blocks"})
        if not _is_number(entry["rhs"]):
            raise ValueError(f"{name}.rhs must be a finite number, got {entry['rhs']!r}")
        blocks = _per_block(entry["blocks"], f"{name}.blocks", dims)
        out.append((tuple(_mat_from_coords(a, d, f"{name}.blocks[{b}]")
                          for b, (a, d) in enumerate(zip(blocks, dims))), float(entry["rhs"])))
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

    The problem stores the coefficient-matching system (MatchingSystem), so
    no constraint column is formed.  Block functionals become right-hand
    sides b_j = -<L, A_j>, which are -K' svec(L), applied through the
    system's reflectors.
    """
    dims, c_vec, system = _matching_system(blocks, target, lower_bound_poly)
    offsets = np.cumsum([0] + [svec_dim(d) for d in dims])
    cost_blocks = tuple(smat(c_vec[lo:hi], d)
                        for lo, hi, d in zip(offsets[:-1], offsets[1:], dims))
    obj_offset = 0.0
    rhs = np.zeros(system.rank)
    if lower_bound_poly is not None:
        rhs[0] = 1.0
    if any(spec.objective is not None for spec in blocks):
        if lower_bound_poly is not None:
            # Lower bound and block functionals are not combined in any caller.
            raise NotImplementedError("objective functionals with a lower bound variable")
        obj_offset = sum(float(np.tensordot(spec.objective, mat))
                         for spec, mat in zip(blocks, cost_blocks) if spec.objective is not None)
        rhs = -system.apply_t(np.concatenate([
            np.zeros(svec_dim(d)) if spec.objective is None else svec(sym(spec.objective))
            for spec, d in zip(blocks, dims)]))

    mb = blocks[moment_block].basis
    meta = MomentMeta(block=moment_block, basis=mb, rows=gram_map(mb).rows)
    return SdpProblem(
        block_dims=tuple(dims),
        cost_blocks=cost_blocks,
        matching=system,
        rhs=rhs,
        sense="max",
        obj_offset=obj_offset,
        moment_meta=meta,
    )


def _matching_system(blocks: List[GramBlockSpec], target: Polynomial,
                     lower_bound_poly: Optional[Polynomial]):
    """The coefficient-matching system of matching_program in svec
    coordinates: (block sizes, the particular solution c of the target, the
    MatchingSystem of the map R and the lower-bound polynomial's coefficients).

    The system's one pivoted QR of R' gives c too: the minimum-norm solution,
    from one triangular solve, orthogonal to the kernel.
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

    def coefficients(poly: Polynomial) -> np.ndarray:
        vec = np.zeros(n_rows)
        for mono, coeff in poly.terms.items():
            vec[support[mono]] = coeff
        return vec

    tvec = coefficients(target)
    lvec = None if lower_bound_poly is None else coefficients(lower_bound_poly)
    system = MatchingSystem(R, lvec)

    def particular(rhs: np.ndarray, what: str) -> np.ndarray:
        sol = system.qr.min_norm_solve(rhs)
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
    if lvec is not None:
        particular(lvec, "lower-bound polynomial")
    return dims, c_vec, system


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
