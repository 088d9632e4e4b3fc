"""Exact arithmetic for multigraded supercommutative polynomials.

Monomials mix even (polynomial) generators with odd (exterior) ones;
odd generators anticommute and square to zero.  Coefficients are
integers of any size, and mod(p) reduces them.  grading_functional
decides exactly whether a set of degrees admits a positive grading, and
exponent_rows prunes the walk it bounds to a (q, t) box: the one graded
walk of homology's enumerator and of series' factored expansion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import NamedTuple


class StructuralError(ValueError):
    """Operands from different presentations."""


class Degree(NamedTuple):
    """Exponent triple on the (q, t, a) grading lattice."""

    q: int = 0
    t: int = 0
    a: int = 0
    __mul__ = __rmul__ = None  # deg * 2 raises TypeError, not tuple repetition

    def __add__(self, other: "Degree") -> "Degree":
        return Degree(self.q + other.q, self.t + other.t, self.a + other.a)

    def __sub__(self, other: "Degree") -> "Degree":
        return Degree(self.q - other.q, self.t - other.t, self.a - other.a)

    def scale(self, n: int) -> "Degree":
        return Degree(n * self.q, n * self.t, n * self.a)

    def key(self):
        # canonical (t, q, a) order used everywhere for serialization
        return (self.t, self.q, self.a)

    def __str__(self):
        return f"q^{self.q} t^{self.t}" + (f" a^{self.a}" if self.a else "")


def read_int(text: str) -> int:
    """The integer that ASCII -?[0-9]+ spells, blanks around it allowed;
    int() alone would also read 1_0, +2 and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", text.strip()):
        raise ValueError(f"non-integer entry {text.strip()!r}")
    return int(text)


ZERO_DEGREE = Degree(0, 0, 0)
T_STEP = Degree(0, 1, 0)  # the differential moves degrees by -T_STEP


def _det(rows) -> int:
    return 1 if not rows else sum(
        (-1) ** j * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0]) if x)


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


@lru_cache(maxsize=None)
def grading_functional(vecs: tuple):
    """Gordan's alternative for integer vectors of dimension at most 3.

    Returns (lam, None) with lam an integer point of the polyhedron
    P = {lam : lam . v >= 1 for v in vecs}, or, when P is empty,
    (None, y): one nonnegative integer per vector, not all 0, with
    sum y_i v_i = 0 (exactly one of the two exists).

    Coordinates that complete the vectors to a basis are fixed at 0 (the
    last ones first), which keeps P nonempty and makes it pointed.  Each
    tight subsystem is solved by Cramer's rule and its solution divided
    by the gcd, a multiple >= 1 of the vertex; lam is the least feasible
    one by (max |lam_i|, lam).  y is the first circuit, a minimally
    dependent set of at most rank + 1 vectors whose null vector (signed
    maximal minors) has one sign.  With no vectors lam is ().
    """
    if not vecs:
        return (), None
    dim = len(vecs[0])
    minor = lambda vs, cols: _det([tuple(v[c] for c in cols) for v in vs])
    rank, free = next((k, cols) for k in range(dim, -1, -1)
                      for cols in combinations(range(dim), k)
                      if any(minor(vs, cols) for vs in combinations(vecs, k)))
    feasible = []
    for rows in combinations(vecs, rank):
        mat = [tuple(v[c] for c in free) for v in rows]
        det = _det(mat)
        if not det:
            continue
        sol = [_det([r[:j] + (1,) + r[j + 1:] for r in mat])
               for j in range(rank)]
        scale = (gcd(*sol) or 1) * (1 if det > 0 else -1)
        lam = [0] * dim
        for c, x in zip(free, sol):
            lam[c] = x // scale
        if all(_dot(lam, v) >= 1 for v in vecs):
            feasible.append((max(map(abs, lam)), tuple(lam)))
    if feasible:
        return min(feasible)[1], None
    for size in range(1, rank + 2):
        for idx in combinations(range(len(vecs)), size):
            vs = [vecs[i] for i in idx]
            for coords in combinations(range(dim), size - 1):
                y = [(-1) ** i * minor(vs[:i] + vs[i + 1:], coords)
                     for i in range(size)]
                if any(y):
                    break
            y = [-c for c in y] if y[0] < 0 else y
            if (all(c > 0 for c in y)
                    and not any(_dot(y, col) for col in zip(*vs))):
                witness = [0] * len(vecs)
                for i, c in zip(idx, y):
                    witness[i] = c // gcd(*y)
                return None, tuple(witness)
    raise ArithmeticError("neither a functional nor a witness")


def exponent_rows(gens, weights, corners):
    """Yields, per generator, the rows that prune its exponent to the box.

    gens are degrees (q, t, ...) walked in order, each spending weights[i]
    >= 1 of a budget per unit of exponent; corners (q, t) span the box.
    Along a direction u of the (q, t) plane, with B of the budget left
    after generator i, generators k > i move u . (q, t) by at most B r,
    r = max(0, max_k u . deg_k / w_k), and at least B r', r' = min(0,
    min_k u . deg_k / w_k).  Both bounds are linear in the exponent e of
    generator i, so a row (u, v, edge, s, k, D, N) says e k >= s ((edge -
    u q - v t) D - B N): the box edge on side s is still in reach, with
    N / D = r (s = 1) or r' (s = -1).  The directions are q, t and, for
    the generator before the last, the one the last cannot move in, which
    fixes e when the box is one degree; the last one's interval is exact.
    """
    for i, gen in enumerate(gens):
        dirs = [(1, 0), (0, 1)]
        if i == len(gens) - 2:
            dirs.append((gens[-1][1], -gens[-1][0]))
        rows = []
        for u, v in dirs:
            ends = [u * q + v * t for q, t in corners]
            for s, edge in ((1, min(ends)), (-1, max(ends))):
                num, den = 0, 1
                for g, wk in zip(gens[i + 1:], weights[i + 1:]):
                    if s * (u * g[0] + v * g[1]) * den > s * num * wk:
                        num, den = u * g[0] + v * g[1], wk
                k = s * ((u * gen[0] + v * gen[1]) * den - weights[i] * num)
                rows.append((u, v, edge, s, k, den, num))
        yield rows


def exponent_range(rows, q, t, budget, weight):
    """(lo, hi): the exponents e >= 0, e weight <= budget, from which the
    box of exponent_rows is still in reach at (q, t); lo > hi if none."""
    lo, hi = 0, budget // weight
    for u, v, edge, s, k, den, num in rows:
        rhs = s * ((edge - u * q - v * t) * den - budget * num)
        if k > 0:
            lo = max(lo, -(-rhs // k))
        elif k < 0:
            hi = min(hi, rhs // k)
        elif rhs > 0:
            return 0, -1
    return lo, hi


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class CoefficientRing:
    """One of Q, Z, or F_p (p prime)."""

    kind: str  # "Q" | "Z" | "Fp"
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Q", "Z", "Fp"):
            raise ValueError(f"unknown coefficient ring kind {self.kind!r}")
        if self.kind == "Fp":
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"PrimeField requires a prime, got {self.p}")
        elif self.p is not None:
            raise ValueError("p only makes sense for PrimeField")

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    def __str__(self):
        return {"Q": "Q", "Z": "Z"}.get(self.kind, f"F{self.p}")

    @classmethod
    def parse(cls, tag: str) -> "CoefficientRing":
        """Inverse of str: Q, Z or F<p>; Fp:<p> is also accepted."""
        tag = tag.strip()
        if tag in ("Q", "Z"):
            return cls(tag)
        if tag.startswith("F"):
            return cls("Fp", read_int(tag[3:] if tag.startswith("Fp:")
                                      else tag[1:]))
        raise ValueError(f"unknown coefficient tag {tag!r}")


QQ = CoefficientRing("Q")
ZZ = CoefficientRing("Z")


def prime_field(p: int) -> CoefficientRing:
    return CoefficientRing("Fp", p)


@dataclass(frozen=True)
class Monomial:
    """Even exponent vector plus a sorted tuple of odd generator indices."""

    even: tuple
    odd: tuple = ()

    def __post_init__(self):
        if any(e < 0 for e in self.even):
            raise ValueError("negative even exponent")
        if any(self.odd[i] >= self.odd[i + 1] for i in range(len(self.odd) - 1)):
            raise ValueError("odd indices must be strictly increasing")

    @property
    def parity(self) -> int:
        return len(self.odd) % 2


def one_monomial(n_even: int) -> Monomial:
    return Monomial((0,) * n_even)


def mono_mul(m1: Monomial, m2: Monomial):
    """Multiply monomials; returns (sign, product) or None when it vanishes.

    The sign counts inversions when merging the two odd index sequences
    (Koszul sign rule); a shared odd index kills the product.
    """
    if len(m1.even) != len(m2.even):
        raise StructuralError("monomials over different presentations")
    if set(m1.odd) & set(m2.odd):
        return None
    # merge-count inversions between the sorted odd sequences
    inv = 0
    i = 0
    for b in m2.odd:
        while i < len(m1.odd) and m1.odd[i] < b:
            i += 1
        inv += len(m1.odd) - i
    even = tuple(a + b for a, b in zip(m1.even, m2.even))
    odd = tuple(sorted(m1.odd + m2.odd))
    return (-1) ** inv, Monomial(even, odd)


def mono_degree(m: Monomial, pres) -> Degree:
    """Total degree of a monomial over a presentation."""
    deg = ZERO_DEGREE
    for e, d in zip(m.even, pres.even_degrees):
        if e:
            deg = deg + d.scale(e)
    for j in m.odd:
        deg = deg + pres.odd_degrees[j]
    return deg


class SuperPolynomial:
    """Finite sum of monomials with nonzero integer coefficients.

    Values are immutable by convention; all operations return new objects.
    """

    __slots__ = ("n_even", "terms")

    def __init__(self, n_even: int, terms=None):
        self.n_even = n_even
        self.terms = {m: c for m, c in terms.items() if c} if terms else {}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n_even):
        return cls(n_even)

    @classmethod
    def one(cls, n_even):
        return cls(n_even, {one_monomial(n_even): 1})

    @classmethod
    def from_monomial(cls, m: Monomial, coeff=1):
        return cls(len(m.even), {m: coeff})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self.n_even == other.n_even and self.terms == other.terms

    def __hash__(self):
        return hash((self.n_even, frozenset(self.terms.items())))

    def _check(self, other):
        if self.n_even != other.n_even:
            raise StructuralError("presentation mismatch")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return SuperPolynomial(self.n_even, terms)

    def __neg__(self):
        return SuperPolynomial(self.n_even,
                               {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c):
        return SuperPolynomial(self.n_even,
                               {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, SuperPolynomial):
            return self.scaled(other)
        self._check(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                r = mono_mul(m1, m2)
                if r is None:
                    continue
                sign, m = r
                terms[m] = terms.get(m, 0) + sign * c1 * c2
        return SuperPolynomial(self.n_even, terms)

    __rmul__ = scaled

    def mod(self, p: int) -> "SuperPolynomial":
        """Coefficients reduced to 0..p-1; zero when p divides them all."""
        return SuperPolynomial(self.n_even,
                               {m: c % p for m, c in self.terms.items()})

    # -- canonical order and text form ---------------------------------

    def sorted_terms(self, pres=None):
        """Terms in canonical order: graded-lex (t, q, evenExp, oddSet)."""
        if pres is None:
            key = lambda m: (m.even, m.odd)
        else:
            key = lambda m: (mono_degree(m, pres).key(), m.even, m.odd)
        return [(m, self.terms[m]) for m in sorted(self.terms, key=key)]

    def text(self, pres) -> str:
        """Canonical text form, e.g. ``2*x1*xi0 - x0*xi1``."""
        if not self.terms:
            return "0"
        pieces = []
        for m, c in self.sorted_terms(pres):
            factors = []
            for i, e in enumerate(m.even):
                if e == 1:
                    factors.append(pres.even_symbols[i])
                elif e > 1:
                    factors.append(f"{pres.even_symbols[i]}^{e}")
            for j in m.odd:
                factors.append(pres.odd_symbols[j])
            body = "*".join(factors) if factors else "1"
            if c == 1 and factors:
                term = body
            elif c == -1 and factors:
                term = f"-{body}"
            elif factors:
                term = f"{c}*{body}"
            else:
                term = str(c)
            pieces.append(term)
        out = pieces[0]
        for term in pieces[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self):
        return f"SuperPolynomial({len(self.terms)} terms)"
