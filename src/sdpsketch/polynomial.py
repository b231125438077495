"""Sparse multivariate polynomials and graded monomial bases.

Monomials are exponent tuples; polynomials map monomials to float
coefficients and are kept in canonical form (no stored zero coefficients).
All values are immutable by convention after construction and safe to share
across threads.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Dict, List, Sequence, Tuple

import numpy as np

Monomial = Tuple[int, ...]


def grlex_key(mono: Monomial):
    """Sort key for graded-lexicographic order with x1 > x2 > ...."""
    return (sum(mono), tuple(-e for e in mono))


def mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


class DimensionMismatchError(ValueError):
    pass


class DegreeOverflowError(ValueError):
    pass


@dataclass(frozen=True)
class Basis:
    """All monomials of total degree <= max_degree in graded-lex order."""

    num_vars: int
    max_degree: int
    elements: Tuple[Monomial, ...]
    index: Dict[Monomial, int] = field(compare=False, hash=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "index", {m: i for i, m in enumerate(self.elements)})

    def __len__(self) -> int:
        return len(self.elements)


def monomial_basis(num_vars: int, max_degree: int) -> Basis:
    """Graded-lex ordered basis of all monomials with degree <= max_degree."""
    if num_vars < 1:
        raise ValueError("num_vars must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    monos: List[Monomial] = []
    for deg in range(max_degree + 1):
        block = []
        for slots in combinations_with_replacement(range(num_vars), deg):
            e = [0] * num_vars
            for s in slots:
                e[s] += 1
            block.append(tuple(e))
        block.sort(key=grlex_key)
        monos.extend(block)
    expected = math.comb(num_vars + max_degree, num_vars)
    assert len(monos) == expected and len(set(monos)) == expected
    return Basis(num_vars=num_vars, max_degree=max_degree, elements=tuple(monos))


@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial: {exponent tuple: coefficient}, canonical form."""

    num_vars: int
    terms: Dict[Monomial, float]

    def __post_init__(self):
        clean = {}
        for mono, coeff in self.terms.items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != self.num_vars or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono} for {self.num_vars} variables")
            c = float(coeff)
            if c != 0.0:
                clean[mono] = c
        object.__setattr__(self, "terms", clean)

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(num_vars: int) -> "Polynomial":
        return Polynomial(num_vars, {})

    @staticmethod
    def constant(num_vars: int, value: float) -> "Polynomial":
        return Polynomial(num_vars, {tuple([0] * num_vars): value})

    @staticmethod
    def variable(num_vars: int, idx: int) -> "Polynomial":
        mono = tuple(1 if i == idx else 0 for i in range(num_vars))
        return Polynomial(num_vars, {mono: 1.0})

    # -- queries -------------------------------------------------------
    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def coefficient(self, mono: Monomial) -> float:
        return self.terms.get(tuple(mono), 0.0)

    def __call__(self, point: Sequence[float]) -> float:
        return evaluate(self, point)

    # -- arithmetic ----------------------------------------------------
    def _check(self, other: "Polynomial"):
        if self.num_vars != other.num_vars:
            raise DimensionMismatchError(
                f"operands over {self.num_vars} and {other.num_vars} variables"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0.0) + c
        return Polynomial(self.num_vars, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1.0)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1.0)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out: Dict[Monomial, float] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mul_monomials(m1, m2)
                out[m] = out.get(m, 0.0) + c1 * c2
        return Polynomial(self.num_vars, out)

    def scale(self, factor: float) -> "Polynomial":
        return Polynomial(self.num_vars, {m: c * factor for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    # -- text / JSON forms ----------------------------------------------
    def to_string(self, var_names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        names = list(var_names) if var_names else [f"x{i+1}" for i in range(self.num_vars)]
        parts = []
        for mono in sorted(self.terms, key=grlex_key, reverse=True):
            coeff = self.terms[mono]
            factors = []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            mag = repr(abs(coeff))
            if factors and abs(coeff) == 1.0:
                body = "*".join(factors)
            elif factors:
                body = "*".join([mag] + factors)
            else:
                body = mag
            parts.append(("- " if coeff < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __str__(self) -> str:
        return self.to_string()

    def to_json_dict(self) -> dict:
        order = sorted(self.terms, key=grlex_key)
        return {
            "num_vars": self.num_vars,
            "terms": [{"exponents": list(m), "coeff": self.terms[m]} for m in order],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Polynomial":
        terms = {tuple(t["exponents"]): float(t["coeff"]) for t in data["terms"]}
        return Polynomial(int(data["num_vars"]), terms)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json(text: str) -> "Polynomial":
        return Polynomial.from_json_dict(json.loads(text))


def evaluate(p: Polynomial, point: Sequence[float]) -> float:
    pt = np.asarray(point, dtype=float)
    if pt.shape != (p.num_vars,):
        raise DimensionMismatchError(f"point of length {pt.size}, expected {p.num_vars}")
    total = 0.0
    for mono, coeff in p.terms.items():
        term = coeff
        for x, e in zip(pt, mono):
            if e:
                term *= x**e
        total += term
    return total


def gradient(p: Polynomial) -> List[Polynomial]:
    """Componentwise partial derivatives of p."""
    grads = []
    for i in range(p.num_vars):
        terms: Dict[Monomial, float] = {}
        for mono, coeff in p.terms.items():
            e = mono[i]
            if e == 0:
                continue
            lowered = tuple(v - 1 if j == i else v for j, v in enumerate(mono))
            terms[lowered] = terms.get(lowered, 0.0) + coeff * e
        grads.append(Polynomial(p.num_vars, terms))
    return grads


_TERM_SPLIT = re.compile(r"(?<![eE])(?=[+-])")
_FACTOR = re.compile(r"^([A-Za-z_]\w*)(?:\^(\d+))?$")


def parse_polynomial(
    text: str, num_vars: int, var_names: Sequence[str] | None = None
) -> Polynomial:
    """Parse strings like "2*x1^2*x2 - 3.5" into canonical form.

    Variables default to x1..xN; an explicit ordered name list may be given
    (e.g. ["x1", "u1"] for control problems).
    """
    names = list(var_names) if var_names else [f"x{i+1}" for i in range(num_vars)]
    if len(names) != num_vars:
        raise ValueError("var_names length must equal num_vars")
    where = {nm: i for i, nm in enumerate(names)}
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty polynomial string")
    terms: Dict[Monomial, float] = {}
    for chunk in _TERM_SPLIT.split(compact):
        if not chunk:
            continue
        sign = 1.0
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = -1.0
            chunk = chunk[1:]
        if not chunk:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = sign
        expo = [0] * num_vars
        for factor in chunk.split("*"):
            m = _FACTOR.match(factor)
            if m and m.group(1) in where:
                expo[where[m.group(1)]] += int(m.group(2) or 1)
            else:
                try:
                    coeff *= float(factor)
                except ValueError:
                    raise ValueError(f"cannot parse factor {factor!r} in {text!r}") from None
        key = tuple(expo)
        terms[key] = terms.get(key, 0.0) + coeff
    return Polynomial(num_vars, terms)
