"""Moment-side recovery and density rendering.

The multipliers of a solved program's matrix equation form a moment matrix;
extract_moments reads one scalar per monomial from it (averaging the Gram
positions that share the monomial) and normalizes the mass to 1.  Densities
are rendered as inverse Christoffel scores 1/(phi' (M + eps I)^{-1} phi),
which concentrate on the support of the underlying measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np
from scipy.linalg import solve_triangular

from .polynomial import Basis, Monomial, Polynomial, monomial_basis, mul_monomials
from .sketch import BlockSdp
from .sos import SdpProblem


class MomentRecoveryError(RuntimeError):
    pass


@dataclass
class MomentVector:
    """Moments y_a = integral of x^a, normalized so the mass y_0 is 1.

    mass holds the un-normalized y_0 (1 for minimizer measures; the measure's
    total mass for occupation measures, whose raw moments are mass * y_a).
    """

    basis: Basis
    moments: Dict[Monomial, float]
    mass: float = 1.0

    def __getitem__(self, mono: Monomial) -> float:
        return self.moments[tuple(mono)]

    def pairing(self, p: Polynomial, raw: bool = False) -> float:
        """<p, y> = sum of p's coefficients times matching moments."""
        total = 0.0
        for mono, coeff in p.terms.items():
            if mono not in self.moments:
                raise MomentRecoveryError(f"moment for {mono} is not available")
            total += coeff * self.moments[mono]
        return total * (self.mass if raw else 1.0)

    def marginal(self, keep: Sequence[int]) -> "MomentVector":
        """Moments of the pushforward onto the kept coordinates."""
        keep = list(keep)
        dropped = [i for i in range(self.basis.num_vars) if i not in keep]
        sub: Dict[Monomial, float] = {}
        for mono, val in self.moments.items():
            if all(mono[i] == 0 for i in dropped):
                sub[tuple(mono[i] for i in keep)] = val
        max_deg = max((sum(m) for m in sub), default=0)
        return MomentVector(basis=monomial_basis(len(keep), max_deg), moments=sub,
                            mass=self.mass)


def extract_moments(solution, problem: Union[SdpProblem, BlockSdp]) -> MomentVector:
    """Read the moment vector off a solved program's equation multipliers."""
    from .solver import Status

    base = problem.base if isinstance(problem, BlockSdp) else problem
    meta = base.moment_meta
    if meta is None:
        raise MomentRecoveryError("problem carries no moment metadata")
    if solution.status != Status.Optimal:
        raise MomentRecoveryError(f"cannot recover moments from status {solution.status}")
    if not solution.moment_matrices:
        raise MomentRecoveryError("solution carries no multiplier matrices")
    mat = solution.moment_matrices[meta.block]
    raw: Dict[Monomial, float] = {}
    for mono, positions in meta.rows.items():
        raw[mono] = float(np.mean([mat[i, j] for i, j, _ in positions]))
    zero = tuple([0] * meta.basis.num_vars)
    y0 = raw.get(zero, 0.0)
    if y0 <= 0.0:
        raise MomentRecoveryError(f"degenerate mass multiplier y0 = {y0:.3e}")
    moments = {m: v / y0 for m, v in raw.items()}
    return MomentVector(basis=meta.basis, moments=moments, mass=y0)


def moment_matrix(mv: MomentVector, sub_basis: Basis) -> np.ndarray:
    """M[b, g] = y_{b+g} over the sub-basis; symmetric by construction."""
    n = len(sub_basis)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            mono = mul_monomials(sub_basis.elements[i], sub_basis.elements[j])
            if mono not in mv.moments:
                raise MomentRecoveryError(
                    f"moment matrix needs y_{mono}, which was not recovered"
                )
            out[i, j] = out[j, i] = mv.moments[mono]
    return out


@dataclass
class GridDensity:
    axes: List[np.ndarray]
    values: np.ndarray  # shape = tuple(len(a) for a in axes), sums to 1

    def argmax_point(self) -> Tuple[float, ...]:
        idx = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return tuple(float(a[i]) for a, i in zip(self.axes, idx))

    def to_csv(self, path) -> None:
        """One row per grid point, in the C order of the ij meshgrid; every
        number is the repr of a Python float, each axis coordinate made once."""
        header = ",".join([f"x{i+1}" for i in range(len(self.axes))] + ["value"])
        coords = [[repr(x) for x in np.asarray(a, float).tolist()] for a in self.axes]
        values = map(repr, np.asarray(self.values, float).ravel().tolist())
        rows = (",".join(point) + "," + v for point, v in zip(product(*coords), values))
        with open(path, "w") as fh:
            fh.write("\n".join(chain([header], rows)) + "\n")

    def to_pgm(self, path) -> None:
        if len(self.axes) != 2:
            raise ValueError("PGM output is defined for 2-D grids")
        vmax = float(self.values.max())
        scaled = np.zeros_like(self.values) if vmax <= 0 else self.values / vmax
        img = np.round(scaled * 65535.0).astype(">u2")
        with open(path, "wb") as fh:
            fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode())
            fh.write(img.tobytes())


def density_grid(
    mv: MomentVector,
    sub_basis: Basis,
    axes: Sequence[Union[np.ndarray, Tuple[float, float, int]]],
) -> GridDensity:
    """Inverse Christoffel score on a grid, normalized to total mass 1.

    axes entries are either explicit coordinate arrays or (lo, hi, count)
    specs expanded as closed linspace grids.
    """
    if len(axes) != sub_basis.num_vars:
        raise ValueError("need one axis per variable of the sub-basis")
    axis_arrays = []
    for ax in axes:
        if isinstance(ax, tuple):
            lo, hi, count = ax
            if count < 1:
                raise ValueError("empty grid axis")
            axis_arrays.append(np.linspace(lo, hi, int(count)))
        else:
            arr = np.asarray(ax, dtype=float)
            if arr.size == 0:
                raise ValueError("empty grid axis")
            axis_arrays.append(arr)

    m = moment_matrix(mv, sub_basis)
    dim = m.shape[0]
    ridge = 1e-8 * np.trace(m) / dim
    if ridge <= 0:
        ridge = 1e-12
    chol = None
    for _ in range(8):
        try:
            chol = np.linalg.cholesky(m + ridge * np.eye(dim))
            break
        except np.linalg.LinAlgError:
            ridge *= 10.0
    if chol is None:
        raise MomentRecoveryError("moment matrix is indefinite beyond regularization")

    grids = np.meshgrid(*axis_arrays, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    phi = np.ones((pts.shape[0], dim))
    for k, mono in enumerate(sub_basis.elements):
        col = np.ones(pts.shape[0])
        for var, e in enumerate(mono):
            if e:
                col = col * pts[:, var] ** e
        phi[:, k] = col
    half = solve_triangular(chol, phi.T, lower=True)
    quad = np.sum(half * half, axis=0)
    vals = 1.0 / np.maximum(quad, 1e-300)
    vals = vals / vals.sum()
    return GridDensity(axes=axis_arrays, values=vals.reshape([a.size for a in axis_arrays]))


def local_maxima(grid: GridDensity, top: int) -> List[Tuple[float, ...]]:
    """Coordinates of the strongest local maxima (8-neighborhood in 2-D,
    2-neighborhood in 1-D), strongest first."""
    vals = grid.values
    peaks = []
    if vals.ndim == 1:
        for i in range(vals.size):
            lo = max(i - 1, 0)
            hi = min(i + 2, vals.size)
            if vals[i] >= vals[lo:hi].max():
                peaks.append((vals[i], (i,)))
    elif vals.ndim == 2:
        for i in range(vals.shape[0]):
            for j in range(vals.shape[1]):
                sl = vals[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2]
                if vals[i, j] >= sl.max():
                    peaks.append((vals[i, j], (i, j)))
    else:
        raise ValueError("local maxima supported for 1-D and 2-D grids")
    peaks.sort(key=lambda t: -t[0])
    out = []
    for _, idx in peaks[:top]:
        out.append(tuple(float(a[i]) for a, i in zip(grid.axes, idx)))
    return out
