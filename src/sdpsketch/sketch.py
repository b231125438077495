"""Random subspace ensembles and the projected/restricted problem builders.

restrict_dual replaces the dual slack S of the pair by a sum of projected
blocks sum_i U_i S_i U_i' (an inner approximation: maximization value can
only drop), project_primal imposes PSD only on U_i' X U_i (a relaxation).
The two are conic duals of each other, so the solver solves a projected
primal as its restricted dual and reads X off that problem's multipliers.

An ensemble is one read-only (N, r, n) stack of the U_i', generated and
extended stacked, with one random stream per sample for each extension.

A BlockSdp document either embeds its base problem ("base") or names a
base file next to it ("base_ref", a plain file name in the document's own
folder, checked against "base_sha256"); many
restrictions of one base then share one file.  A compiled base stores its
sparse matching system and any other base its packed constraint matrix
(see sos), so a base file decodes to the bits it was written from, and the
default POP sweep's in a few milliseconds.  load_problem
reads either kind of problem file and resolves a reference relative to the
file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ._linalg import lift_congruence, sym
from .sos import SdpProblem, _is_int

_EXTEND_STREAM = 9650218  # namespace tag for nested-extension RNG streams


@dataclass(frozen=True, init=False)
class SubspaceEnsemble:
    """N projection matrices U_i of shape (n, r), seed-reproducible, given as
    (n, r) matrices or an (N, n, r) array and held once, as `ut`: the read-only,
    C-contiguous (N, r, n) stack of the U_i'.  `matrices` is its (N, n, r) view."""

    n: int
    r: int
    N: int
    seed: int
    orthonormal: bool
    ut: np.ndarray = field(init=False, compare=False, repr=False)
    lineage: Tuple[int, ...] = ()

    def __init__(self, n, r, N, seed, orthonormal, matrices, lineage=()):
        stack = np.asarray(matrices, dtype=float)
        if stack.shape != (N, n, r):
            raise ValueError(f"ensemble matrices have shape {stack.shape}, expected {(N, n, r)}")
        ut = np.array(stack.transpose(0, 2, 1), order="C")
        if orthonormal:  # orthonormal columns are of full rank
            err = np.abs(ut @ stack - np.eye(r)).max()
            if not err <= 1e-12:
                raise ValueError(f"orthonormality violated by {err:.2e}")
        elif np.linalg.svd(ut, compute_uv=False)[:, -1].min() <= 1e-10:
            raise ValueError("sampled subspace matrix is numerically rank deficient")
        ut.flags.writeable = False
        for name, value in dict(n=n, r=r, N=N, seed=seed, orthonormal=orthonormal, ut=ut,
                                lineage=tuple(lineage)).items():
            object.__setattr__(self, name, value)

    def __setstate__(self, state):  # unpickled arrays come back writeable
        state["ut"].flags.writeable = False
        self.__dict__.update(state)

    @property
    def matrices(self) -> np.ndarray:
        """The (N, n, r) stack of the U_i, a read-only view of `ut`."""
        return self.ut.transpose(0, 2, 1)

    # Serialization stores only the recipe; matrices are regenerated.
    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "N": self.N,
            "seed": self.seed,
            "orthonormal": self.orthonormal,
            "lineage": list(self.lineage) or [self.r],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "SubspaceEnsemble":
        """The ensemble of a recipe: n, r, N and seed JSON integers,
        orthonormal a JSON boolean, and lineage (default [r]) a non-empty
        list of increasing integers that ends at r."""
        n, r, big_n, seed = (_json_int(data[key], key) for key in ("n", "r", "N", "seed"))
        orthonormal = data["orthonormal"]
        if not isinstance(orthonormal, bool):
            raise ValueError(f"ensemble field orthonormal must be true or false, "
                             f"got {orthonormal!r}")
        lineage = data.get("lineage", [r])
        if not (isinstance(lineage, list) and lineage and all(map(_is_int, lineage))
                and all(a < b for a, b in zip(lineage, lineage[1:])) and lineage[-1] == r):
            raise ValueError(f"ensemble lineage must be a non-empty list of increasing "
                             f"integers that ends at r = {r}, got {lineage!r}")
        ens = sample_ensemble(n, lineage[0], big_n, seed, orthonormal=orthonormal)
        for r_new in lineage[1:]:
            ens = extend_ensemble(ens, r_new)
        return ens


def _json_int(value, name: str) -> int:
    if not _is_int(value):
        raise ValueError(f"ensemble field {name} must be an integer, got {value!r}")
    return value


def _orth_columns(mat: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(mat)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


def sample_ensemble(n: int, r: int, N: int, seed: int, orthonormal: bool = True) -> SubspaceEnsemble:
    """Draw N i.i.d. standard-normal n-by-r matrices from the seeded generator.

    With orthonormal=True each matrix is replaced by an orthonormal basis of
    its range (same span, better conditioning).  Identical (seed, n, r, N)
    give a bit-identical ensemble.
    """
    if not (1 <= r <= n):
        raise ValueError(f"rank r={r} must satisfy 1 <= r <= n={n}")
    if N < 1:
        raise ValueError("N must be >= 1")
    mats = np.random.default_rng(seed).standard_normal((N, n, r))
    if orthonormal:
        mats = _orth_columns(mats)
    return SubspaceEnsemble(n=n, r=r, N=N, seed=int(seed), orthonormal=orthonormal,
                            matrices=mats, lineage=(r,))


def extend_ensemble(parent: SubspaceEnsemble, r_new: int) -> SubspaceEnsemble:
    """Append fresh columns so spans nest; first r columns are the parent's.
    Sample i draws them from its own generator, seeded by (seed, _EXTEND_STREAM, i, r)."""
    if r_new <= parent.r:
        raise ValueError("r_new must exceed the parent rank")
    if r_new > parent.n:
        raise ValueError(f"r_new={r_new} exceeds ambient dimension n={parent.n}")
    extra = r_new - parent.r
    fresh = np.stack([np.random.default_rng((parent.seed, _EXTEND_STREAM, i, parent.r))
                      .standard_normal((parent.n, extra)) for i in range(parent.N)])
    # Computed on a C-contiguous (N, n, r) U: products through the transposed
    # layout of `ut` round differently.
    u_old = np.ascontiguousarray(parent.matrices)
    if parent.orthonormal:
        # two projection passes keep the joint frame orthonormal to
        # machine precision across long nesting chains
        for _ in range(2):
            fresh = fresh - u_old @ (u_old.transpose(0, 2, 1) @ fresh)
            fresh = _orth_columns(fresh)
    return SubspaceEnsemble(
        n=parent.n, r=r_new, N=parent.N, seed=parent.seed,
        orthonormal=parent.orthonormal, matrices=np.concatenate((u_old, fresh), axis=2),
        lineage=parent.lineage + (r_new,),
    )


def ensembles_for_problem(
    base: SdpProblem, r: int, N: int, seed: int, orthonormal: bool = True
) -> List[SubspaceEnsemble]:
    """Per-block ensembles at effective rank min(r, n_b); blocks of equal
    dimension share one ensemble."""
    shared = {}
    for n_b in base.block_dims:
        if n_b not in shared:
            shared[n_b] = sample_ensemble(n_b, min(r, n_b), N, seed, orthonormal=orthonormal)
    return [shared[n_b] for n_b in base.block_dims]


def extend_ensembles(parents: Sequence[SubspaceEnsemble], r_new: int) -> List[SubspaceEnsemble]:
    """Each distinct parent extended once, to rank min(r_new, n)."""
    cache = {}
    for ens in parents:
        if id(ens) not in cache:
            r_eff = min(r_new, ens.n)
            cache[id(ens)] = ens if r_eff <= ens.r else extend_ensemble(ens, r_eff)
    return [cache[id(ens)] for ens in parents]


@dataclass
class BlockSdp:
    """A base pair plus ensembles: the restricted dual replaces the dual
    slack by a sum of per-sample blocks, the projected primal loosens the
    primal cone to the sampled projections."""

    base: SdpProblem
    ensembles: List[SubspaceEnsemble]  # or one ensemble for every block
    kind: str = "restricted_dual"

    def __post_init__(self):
        if self.kind not in ("restricted_dual", "projected_primal"):
            raise ValueError(f"unknown BlockSdp kind {self.kind!r}")
        one = isinstance(self.ensembles, SubspaceEnsemble)
        self.ensembles = [self.ensembles] if one else list(self.ensembles)
        if len(self.ensembles) == 1:
            self.ensembles *= self.base.num_blocks
        if len(self.ensembles) != self.base.num_blocks:
            raise ValueError("need one ensemble per base block")
        for ens, n_b in zip(self.ensembles, self.base.block_dims):
            if ens.n != n_b:
                raise ValueError(
                    f"ensemble ambient dimension {ens.n} does not match block size {n_b}"
                )

    @property
    def sense(self) -> str:
        return "max" if self.kind == "restricted_dual" else "min"

    def to_json_dict(self, base_ref: Optional[str] = None,
                     base_sha256: Optional[str] = None) -> dict:
        """The self-contained document, or with base_ref the reference form:
        the base is the file base_ref, relative to the document's own file,
        whose bytes hash to base_sha256."""
        data = {"type": "block_sdp", "kind": self.kind}
        if base_ref is None:
            data["base"] = self.base.to_json_dict()
        else:
            data.update(base_ref=base_ref, base_sha256=base_sha256)
        data["ensembles"] = [e.to_json_dict() for e in self.ensembles]
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict, directory: Optional[Path] = None) -> "BlockSdp":
        """Reads either form; a base_ref resolves against `directory`, the
        folder of the file the document was read from."""
        if "base" in data:
            base = SdpProblem.from_json_dict(data["base"])
        else:
            base = _referenced_base(data["base_ref"], data["base_sha256"], directory)
        return BlockSdp(
            base=base,
            ensembles=[SubspaceEnsemble.from_json_dict(e) for e in data["ensembles"]],
            kind=data.get("kind", "restricted_dual"),
        )

    @staticmethod
    def from_json(text: str) -> "BlockSdp":
        return BlockSdp.from_json_dict(json.loads(text))


def _referenced_base(ref: str, sha256: str, directory: Optional[Path]) -> SdpProblem:
    if directory is None:
        raise ValueError(
            f"the block_sdp document names its base problem {ref!r} relative to its own "
            "file; read it with load_problem(path) so that the reference can be resolved")
    if not (isinstance(ref, str) and ref not in ("", ".", "..") and Path(ref).name == ref):
        raise ValueError(f"base_ref must be a plain file name in the document's own "
                         f"folder, got {ref!r}")
    path = Path(directory) / ref
    raw = path.read_bytes()
    if hashlib.sha256(raw).hexdigest() != sha256:
        raise ValueError(f"{path} does not match the document's base_sha256: "
                         "the base file changed after the document was written")
    try:
        return SdpProblem.from_json_dict(json.loads(raw))
    except _INVALID as exc:
        raise ValueError(f"base problem {path}: {_reason(exc)}") from exc


_INVALID = (KeyError, IndexError, TypeError, ValueError)


def _reason(exc: Exception) -> str:
    return f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)


def load_problem(path) -> Union[SdpProblem, BlockSdp]:
    """The SdpProblem or BlockSdp in a JSON file; a block_sdp's base_ref is
    resolved relative to the file and checked against its base_sha256.

    A file that cannot be read or parsed raises OSError or
    json.JSONDecodeError; a document that is not a valid problem raises
    ValueError naming the file.
    """
    path = Path(path)
    with open(path) as fh:
        data = json.load(fh)
    kind = data.get("type") if isinstance(data, dict) else None
    try:
        if kind == "block_sdp":
            return BlockSdp.from_json_dict(data, path.parent)
        if kind == "sdp_problem" or (isinstance(data, dict) and "block_dims" in data):
            return SdpProblem.from_json_dict(data)
    except _INVALID as exc:
        raise ValueError(f"{path} is not a valid problem document: {_reason(exc)}") from exc
    raise ValueError(f"{path} does not contain an SDP or block-SDP document")


def restrict_dual(base: SdpProblem, ensembles) -> BlockSdp:
    """Restrict the dual reading: S_b becomes sum_i U_{b,i} S_{b,i} U_{b,i}'."""
    return BlockSdp(base=base, ensembles=ensembles, kind="restricted_dual")


def project_primal(base: SdpProblem, ensembles) -> BlockSdp:
    """Relax the primal reading: X_b free symmetric, PSD only on U' X U."""
    return BlockSdp(base=base, ensembles=ensembles, kind="projected_primal")


def lift_dual_certificate(blocks: Sequence[np.ndarray], ens: SubspaceEnsemble) -> np.ndarray:
    """sum_i U_i S_i U_i' of the N blocks S_i (a list or an (N, r, r) stack);
    PSD whenever every S_i is."""
    stack = np.asarray(blocks, dtype=float)
    if stack.shape != (ens.N, ens.r, ens.r):
        raise ValueError(f"got blocks of shape {stack.shape} for an ensemble of "
                         f"N={ens.N} blocks of shape {(ens.r, ens.r)}")
    return sym(lift_congruence(ens.ut, sym(stack)))


def lift_blocks(bs: BlockSdp, blocks: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Per-base-block lifts of a solution's per-sample block list."""
    ends = np.cumsum([ens.N for ens in bs.ensembles])
    return [lift_dual_certificate(blocks[end - ens.N:end], ens)
            for ens, end in zip(bs.ensembles, ends)]
