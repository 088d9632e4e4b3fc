"""Per-bidegree chain complexes, exact ranks, and integral torsion.

Graded pieces come from one enumerator over a (q, t) box, pruned by the
size of the generator degrees: basis_at runs it on one degree and
window_bases on a whole window.  Its walk has one budget, an integer
functional positive on every even generator degree, from the exact
decision algebra.grading_functional, so every graded piece is whole and
every table exact; when no such functional exists the graded pieces are
infinite, and the error names the exact witness, a product of even
generators of degree zero.  The walk fixes the exponents the quotient
below caps first, then the steepest generators' (largest |t|, then |q|),
which the box prunes soonest (hook_Q: 520 nodes, 919 in index order),
and packs each x^e xi_S into one int key: e in mixed radix B, e_0 the
most significant digit, then the rank of S among the odd parts in tuple
order, so sorted keys are sorted (even, odd) pairs in any visit order.
B exceeds every walked exponent plus every image exponent, so key +
packed image exponent never carries: it is the image's key, in the basis
only for a basis monomial.  d_matrix assembles exact integer matrices
with one int add and one lookup per image term; GradedBasis decodes
pairs only when read; apply_d is the term-by-term reference.  One row
echelon loop gives the ranks over Q (fraction-free) and F_p; over Z one
Smith loop pivots on the +-1 entries, then on the least entries, and only
diagonalizes: gcd and lcm turn the diagonal into the invariant factors.
homology_table is the one homology path: one enumeration, one pass that
takes each matrix's rank or Smith form once per translation class (five
small ints, each basis shape interned) and one that forms the groups, on
the complex's quotient by its regular sequence of unit powers of
distinct variables; homology_at is homology_table on a one-degree
window.  Maps whose keys differ by one multiple of C share one matrix.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import defaultdict
from math import gcd
from operator import itemgetter, mul

from .algebra import (CoefficientRing, Degree, Monomial, T_STEP, _Record,
                      _frozen, exponent_range, exponent_rows,
                      grading_functional, mono_degree, read_int)
from .presentations import Presentation


class NonProperGradingError(ValueError):
    """Graded pieces are infinite-dimensional: no functional is positive on
    every even generator degree; the message names a degree-0 product."""


class Window(_frozen("Window", "qmin qmax tmin tmax")):
    """Finite degree box; q/t below tmin/qmin are not computed."""

    def __new__(cls, qmin: int = 0, qmax: int = 0, tmin: int = 0,
                tmax: int = 0):
        if qmin > qmax or tmin > tmax:
            raise ValueError(f"empty window q:{qmin}..{qmax}, "
                             f"t:{tmin}..{tmax}")
        return super().__new__(cls, qmin, qmax, tmin, tmax)

    def degrees(self):
        return (Degree(q, t) for t in range(self.tmin, self.tmax + 1)
                for q in range(self.qmin, self.qmax + 1))

    def contains(self, deg: Degree) -> bool:
        return (self.qmin <= deg.q <= self.qmax
                and self.tmin <= deg.t <= self.tmax)


class GradedBasis(_Record):
    """Sorted basis keys at one degree; exps and monomials decode them.

    key = sum e_i place[i+1] + odds.index(odd), place[i] = B^(n-i) len(odds),
    under the layout (odds, place, image terms) that all bases of one walk
    share; keys of two layouts do not compare.  B exceeds every walked
    exponent plus every image exponent, so no key + packed image exponent
    carries.  moves caches d_matrix's (+-c, delta) per odd part; == and
    repr leave it out.
    """

    _fields = ("degree", "keys", "layout")

    def __init__(self, degree: Degree, keys: list, layout: tuple = None,
                 moves: dict = None):
        self.degree, self.keys, self.layout = degree, keys, layout
        self.moves = {} if moves is None else moves

    @property
    def exps(self) -> list:
        """The sorted (even, odd) exponent pairs."""
        odds, place, _images = self.layout or ((), (1,), ())
        digits = tuple(zip(place, place[1:]))
        return [(tuple([k % a // b for a, b in digits]), odds[k % place[-1]])
                for k in self.keys]

    @property
    def monomials(self) -> list:
        return [Monomial(e, o) for e, o in self.exps]


class IntegerMatrix(_Record):
    """Sparse integer matrix; entries maps (row, col) to a value, and
    stored zeros count as absent."""

    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict = None):
        self.rows, self.cols = rows, cols
        self.entries = {} if entries is None else entries


class HomologyGroup(_frozen("HomologyGroup", "free_rank torsion")):
    """Z^free_rank plus Z/d for each invariant factor d in torsion, each
    > 1 and dividing the next."""

    def __new__(cls, free_rank: int, torsion: tuple = ()):
        if free_rank < 0:
            raise ValueError(f"negative free rank {free_rank}")
        if torsion and (any(d < 2 for d in torsion) or any(
                b % a for a, b in zip(torsion, torsion[1:]))):
            raise ValueError(f"invariant factors {torsion} are not a "
                             "divisibility chain of integers > 1")
        return super().__new__(cls, free_rank, torsion)

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) or "0"


# ---------------------------------------------------------------------------
# graded basis enumeration


def _unit_images(pres: Presentation) -> dict:
    """j -> f for the odd generators j whose d(xi_j) is one term +-x_k^f[k]
    of xi_j's own degree, taken greedily in generator order with k not
    taken before: powers of distinct variables form a regular sequence.
    f is all zeros for the image +-1."""
    taken, used = {}, set()
    for j, img in enumerate(pres.d_images):
        if img and len(img.terms) == 1:
            [(m, c)] = img.terms.items()
            support = {k for k, e in enumerate(m.even) if e}
            if (c in (1, -1) and len(support) <= 1 and
                    used.isdisjoint(support) and
                    mono_degree(m, pres) == pres.odd_degrees[j] - T_STEP):
                taken[j] = m.even
                used |= support
    return taken


def _search(pres: Presentation, corners, reduced: bool = False) -> dict:
    """Monomials whose (q, t) lies in the box spanned by the corners.

    Returns Degree -> GradedBasis of the keys of valid Monomials, one
    layout for all, with radix B = 1 + the largest image exponent + the
    largest budget // the least weight.  The walk is finite because of one
    budget: the functional lam of grading_functional gives even generator
    k the weight lam . deg_k >= 1, and the amount is max lam . corner
    minus the odd part, so every monomial of a corner's degree is reached.
    algebra.exponent_rows prunes every exponent to the values from which
    the box can still be reached within the budget.

    A stack fixes the capped exponents first, then the steepest (|t|, then
    |q|, largest first), which the box prunes soonest; e_k packs at
    place[k + 1] in any order, so keys do not depend on it.  reduced walks
    the quotient by _unit_images: it skips their odd generators and caps
    exponent k below e for x_k^e; B caps the other exponents.
    """
    ev = tuple((d.q, d.t, d.a) for d in pres.even_degrees)
    lam, witness = grading_functional(ev)
    if lam is None:
        product = "*".join(s if e == 1 else f"{s}^{e}"
                           for s, e in zip(pres.even_symbols, witness) if e)
        raise NonProperGradingError(
            f"{pres.name} has infinite graded pieces "
            f"(degree-0 product witness: {product})")
    units = _unit_images(pres) if reduced else {}
    if not all(map(any, units.values())):
        return {}  # an image is 1, and R/(1) = 0
    caps = {f.index(sum(f)): sum(f) - 1 for f in units.values()}
    free = [j for j in range(pres.n_odd) if j not in units]
    n = len(ev)
    ws = tuple(sum(map(mul, lam, g)) for g in ev)
    top = max(sum(map(mul, lam, (c.q, c.t, c.a))) for c in corners)
    most = top - sum(min(0, sum(map(mul, lam, pres.odd_degrees[j])))
                     for j in free)
    radix = max(most, 0) // min(ws, default=1) + 1 + max(
        [e for img in pres.image_terms for _c, f in img for e in f] or [0])
    odds = sorted(S for size in range(len(free) + 1)
                  for S in itertools.combinations(free, size))
    place = tuple(radix ** (n - i) * len(odds) for i in range(n + 1))
    layout, moves = (odds, place, pres.image_terms), {}
    box = [(c.q, c.t) for c in corners]
    order = sorted(range(n), key=lambda k: (
        k not in caps, -abs(ev[k][1]), -abs(ev[k][0])))
    rows = exponent_rows([ev[k] for k in order], [ws[k] for k in order], box)
    steps = [(row, ws[k], caps.get(k, radix), ev[k], place[k + 1])
             for k, row in zip(order, rows)]
    found, stack = defaultdict(list), []
    for code, S in enumerate(odds):
        q, t, a = map(sum, zip((0, 0, 0), *(pres.odd_degrees[j] for j in S)))
        if (budget := top - sum(map(mul, lam, (q, t, a)))) < 0:
            continue
        if n:
            stack.append((0, q, t, a, code, budget))
        elif all(min(x) <= y <= max(x) for x, y in zip(zip(*box), (q, t))):
            found[q, t, a].append(code)
    while stack:
        i, q, t, a, key, budget = stack.pop()
        row, w, cap, (dq, dt, da), p = steps[i]
        lo, hi = exponent_range(row, q, t, budget, w)
        hi = min(hi, cap)
        if i == n - 1:
            for e in range(lo, hi + 1):
                found[q + e * dq, t + e * dt, a + e * da].append(key + e * p)
        else:
            i += 1
            for e in range(lo, hi + 1):
                stack.append((i, q + e * dq, t + e * dt, a + e * da,
                              key + e * p, budget - e * w))
    for keys in found.values():
        keys.sort()
    return {(deg := Degree(*at)): GradedBasis(deg, keys, layout, moves)
            for at, keys in found.items()}


def basis_at(pres: Presentation, deg: Degree) -> GradedBasis:
    """All monomials of exactly the given degree, as sorted basis keys.

    One call of the shared enumerator on the one-degree box, with the
    lam-budget lam . deg (the a-degree included); the monomials of other
    a-degrees it meets are dropped.  The presentation must be properly
    graded, or NonProperGradingError names a witness (x^9*y).
    """
    return _search(pres, [deg]).get(deg) or GradedBasis(deg, [])


def window_bases(pres: Presentation, window: Window,
                 reduced: bool = False) -> dict:
    """Bases for every degree in the window by one enumeration.

    Returns Degree -> GradedBasis of the walk's keys, in one layout, for the
    nonempty degrees of the window extended by one t-step on both sides
    (the extra rows back the boundary matrices).  It is the enumerator of
    basis_at run once on the whole box, so a window costs one pruned walk
    instead of one per degree.  Each degree returned equals basis_at's, and
    the a = 0 slice is whole.  A degree at a != 0 is returned only if
    lam . deg is within the walk's lam-budget; the rest may be infinitely
    many (x z has degree (0, 0, 1) for even degrees (1, 0, 1) and
    (-1, 0, 0)), so ask basis_at for them.

    reduced gives homology_table's quotient complex: no xi_j of
    _unit_images and no multiple of its image x_k^e.  The dict's order is
    not part of the contract.
    """
    corners = [Degree(q, t) for q in (window.qmin, window.qmax)
               for t in (window.tmin - 1, window.tmax + 1)]
    return _search(pres, corners, reduced)


def d_matrix(pres: Presentation, deg: Degree,
             src: GradedBasis | None = None, dst: GradedBasis | None = None
             ) -> IntegerMatrix:
    """Matrix of the differential from degree deg to degree deg - t_step.

    Columns are indexed by the basis at deg, rows by the basis one
    t-degree down; entries are exact integers.  Every d(xi_j) is purely
    even, so d(x^e xi_S) is the sum over the l-th odd factor j of S of
    (-1)^l c x^(e+f) xi_(S-j), with c x^f running over the terms of
    d(xi_j) in pres.image_terms.  A term's row has the key src key + delta,
    delta = packed f + code(S - j) - code(S), compiled once per walk and
    odd part S.  So src and dst must share the layout of one walk of pres,
    as the default bases do, or ValueError is raised.  apply_d computes the
    same images through SuperPolynomial products, for the tests.
    """
    if src is None or dst is None:
        walk = _search(pres, [deg, deg - T_STEP])
        src = src or walk.get(deg) or GradedBasis(deg, [])
        dst = dst or walk.get(deg - T_STEP) or GradedBasis(deg - T_STEP, [])
    if not (src.keys and dst.keys):
        return IntegerMatrix(len(dst.keys), len(src.keys))
    if src.layout != dst.layout:
        raise ValueError(f"the bases at {src.degree} and {dst.degree} come "
                         "from different walks; their keys do not compare")
    (odds, place, images), moves = src.layout, src.moves
    index = {key: r for r, key in enumerate(dst.keys)}
    entries, mask = {}, len(odds) - 1
    for col, key in enumerate(src.keys):
        if (move := moves.get(code := key & mask)) is None:
            odd = odds[code]
            move = moves[code] = [
                (-c if l % 2 else c, sum(map(mul, f, place[1:]))
                 + bisect_left(odds, odd[:l] + odd[l + 1:]) - code)
                for l, j in enumerate(odd) for c, f in images[j]]
        for v, delta in move:
            # a missing row is reduced away by homology_table's quotient
            # or is a term of an inhomogeneous image, of another degree
            if (r := index.get(key + delta)) is not None:
                entries[r, col] = v
    return IntegerMatrix(len(dst.keys), len(src.keys), entries)


# ---------------------------------------------------------------------------
# exact linear algebra


def _echelon(mat: IntegerMatrix, p: int = 0) -> dict:
    """Row echelon form over F_p, or over Q for p = 0: lead col -> row.

    The rows are taken shortest first, and each is reduced against the
    pivot row of its leading column until it leads a column without one or
    vanishes: with f under the pivot u and g = gcd(u, f) it becomes (u/g)
    row - (f/g) pivot row, its entries taken mod p or over Q divided by
    their gcd, so every nonzero entry is a pivot and entries stay small.
    """
    rows = defaultdict(dict)
    for (r, c), v in mat.entries.items():
        if p:
            v %= p
        if v:
            rows[r][c] = v
    pivots = {}
    for row in sorted(rows.values(), key=len):
        while row:
            c = min(row)
            if (prow := pivots.setdefault(c, row)) is row:
                break
            g = gcd(prow[c], row[c])
            a, b = prow[c] // g, row[c] // g
            if a != 1:
                row = {cc: a * v for cc, v in row.items()}
            for cc, v in prow.items():
                if nv := row.get(cc, 0) - b * v:
                    row[cc] = nv
                else:
                    del row[cc]
            if p:
                row = {cc: w for cc, v in row.items() if (w := v % p)}
            elif (g := gcd(*row.values())) > 1:
                row = {cc: v // g for cc, v in row.items()}
    return pivots


def smith_normal_form(mat: IntegerMatrix):
    """Invariant factors of an integer matrix, by the one Smith loop over Z.

    Returns (factors, None, None), the tuple its callers index: the factors
    are positive, units first, and each divides the next.  The loop only
    diagonalizes.  The pivot is a unit while one is left: each sweep
    visits, in order, the columns that gained a +-1 since the last one and
    takes the unit of the shortest row (the elimination step of Dumas,
    Saunders and Villard, J. Symbolic Comput. 32, 2001).  Then it is an
    entry of least absolute value.  Its column is cleared by row
    operations, and the rest of its row reduced mod the pivot by column
    operations, which touch no other row; a nonzero remainder becomes the
    pivot.  Otherwise the row and column leave (a unit's as soon as its
    column is clear), and |pivot| joins the diagonal, which
    _invariant_factors turns into the divisibility chain.
    """
    rows, fresh, sweep = defaultdict(dict), set(), []
    # col -> rows that held it, in order; a row that left or whose entry
    # cancelled stays listed and is skipped when the column is read
    cols = defaultdict(dict)
    for (r, c), v in mat.entries.items():
        if v:
            rows[r][c] = v
            cols[c][r] = None
            if v in (1, -1):
                fresh.add(c)

    def add_row(src, dst, k):
        # row dst += k * row src
        row = rows[dst]
        for c, v in rows[src].items():
            old = row.get(c)
            if nv := (old or 0) + k * v:
                row[c] = nv
                if old is None:
                    cols[c][dst] = None
                if nv in (1, -1):
                    fresh.add(c)
            else:
                del row[c]

    diagonal = []
    while True:
        if not sweep:
            sweep = sorted(fresh, reverse=True)
            fresh.clear()
        if sweep:
            c = sweep.pop()
            units = [(len(row), x) for x in cols.get(c, ())
                     if (row := rows.get(x)) and row.get(c) in (1, -1)]
            if not units:
                continue
            r = min(units)[1]
        else:
            pivot = min(((abs(v), r, c) for r, row in rows.items()
                         for c, v in row.items()), default=None)
            if pivot is None:
                break
            _, r, c = pivot
        while True:
            piv = rows[r][c]
            for r2 in [x for x in cols[c] if x != r and c in rows.get(x, ())]:
                if k := rows[r2][c] // piv:
                    add_row(r, r2, -k)
                if c in rows[r2]:  # the remainder becomes the pivot
                    r = r2
                    break
            else:  # column c holds only the pivot
                if piv in (1, -1) or (c2 := next(
                        (x for x, v in rows[r].items() if v % piv),
                        None)) is None:
                    break
                rows[r][c2] %= piv  # col c2 -= (rows[r][c2] // piv) * col c
                c = c2
        del rows[r], cols[c]
        diagonal.append(abs(piv))
    return _invariant_factors(diagonal), None, None


def _invariant_factors(diagonal: list) -> list:
    """The invariant factors of a diagonal matrix: its non-unit entries,
    sorted, with each pair (a, b) replaced by (gcd, lcm) in turn, which
    keeps each prime's exponents and leaves a divisibility chain."""
    chain = sorted(d for d in diagonal if d != 1)
    for i, j in itertools.combinations(range(len(chain)), 2):
        g = gcd(chain[i], chain[j])
        chain[i], chain[j] = g, chain[i] // g * chain[j]
    return [1] * (len(diagonal) - len(chain)) + chain


def rank_mod_p(mat: IntegerMatrix, p: int) -> int:
    """Rank over F_p: the pivots of the row echelon form mod p."""
    return len(_echelon(mat, p))


def rank_exact(mat: IntegerMatrix) -> int:
    """Rank over Q (equivalently over Z): the fraction-free echelon pivots."""
    return len(_echelon(mat))


def matrix_rank(mat: IntegerMatrix, ring: CoefficientRing) -> int:
    if ring.kind == "Fp":
        return rank_mod_p(mat, ring.p)
    return rank_exact(mat)


# ---------------------------------------------------------------------------
# homology


class TableFormatError(ValueError):
    """Malformed table text; the message starts with the line number."""


def _read_table(text: str, headers: dict, keys: tuple, torsion):
    """Read the line grammar that model tables and external data share.

    ``#`` starts a comment and blank lines are skipped.  A line
    ``name=value`` with name in headers is a header, parsed once by
    headers[name].  Every other line is a cell: comma-separated
    ``key=value`` fields, one per name in keys, all integers and the last a
    rank >= 0, and an optional tor field whose list may continue over
    further commas, parsed by torsion.  Returns the parsed headers, the
    cells as {key values but the rank: (rank, torsion)}, the line of each
    cell, and the stripped lines that hold only a comment or nothing.
    """
    found, cells, lines, comments = {}, {}, {}, []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            comments.append(raw.strip())
            continue
        try:
            name, _, value = line.partition("=")
            if name in headers:
                if name in found:
                    raise ValueError(f"repeated {name}= header")
                try:
                    found[name] = headers[name](value)
                except ValueError as exc:
                    raise ValueError(
                        f"bad {name} header {line!r} ({exc})") from None
                continue
            fields, key = {}, None
            for chunk in line.split(","):
                if "=" in chunk:
                    key, val = chunk.split("=", 1)
                    key = key.strip()
                    if key in fields:
                        raise ValueError(f"duplicate field {key!r}")
                    fields[key] = val.strip()
                elif key == "tor":
                    fields["tor"] += "," + chunk.strip()
                else:
                    raise ValueError(f"stray token {chunk.strip()!r}")
            missing = set(keys) - set(fields)
            if missing:
                raise ValueError(f"missing field(s) {sorted(missing)}")
            unknown = set(fields) - set(keys) - {"tor"}
            if unknown:
                raise ValueError(f"unknown field(s) {sorted(unknown)}")
            *cell, rank = map(read_int, (fields[k] for k in keys))
            if rank < 0:
                raise ValueError("negative rank")
            cell = tuple(cell)
            if cell in cells:
                raise ValueError("duplicate cell (" + ", ".join(
                    f"{k}={v}" for k, v in zip(keys, cell)) + ")")
            try:
                tor = torsion(fields["tor"]) if "tor" in fields else ()
            except ValueError as exc:
                raise ValueError(f"bad torsion entry {fields['tor']!r} "
                                 f"({exc})") from None
        except ValueError as exc:
            raise TableFormatError(f"line {lineno}: {exc}") from None
        cells[cell] = (rank, tor)
        lines[cell] = lineno
    return found, cells, lines, comments


def _parse_window(text: str) -> Window:
    qpart, tpart = text.split(",")
    if qpart[:2] != "q:" or tpart[:2] != "t:":
        raise ValueError("window needs q: and t: ranges")
    qlo, qhi = qpart[2:].split("..")
    tlo, thi = tpart[2:].split("..")
    return Window(*map(read_int, (qlo, qhi, tlo, thi)))


def _parse_invariant_factors(text: str) -> tuple:
    """'3;9' -> (3, 9); HomologyGroup checks the divisibility chain."""
    return HomologyGroup(0, tuple(map(read_int, text.split(";")))).torsion


class HomologyTable(_Record):
    """Nonzero homology groups per degree inside a finite window."""

    _fields = ("pres_name", "ring", "window", "groups")

    def __init__(self, pres_name: str, ring: CoefficientRing, window: Window,
                 groups: dict):  # Degree -> HomologyGroup
        self.pres_name, self.ring, self.window = pres_name, ring, window
        self.groups = groups

    def rank_at(self, deg: Degree) -> int:
        return self.groups[deg].free_rank if deg in self.groups else 0

    def serialize(self) -> str:
        lines = [
            "# koszulknots homology table",
            f"# presentation: {self.pres_name}",
            f"coeff={self.ring}",
            f"window=q:{self.window.qmin}..{self.window.qmax},"
            f"t:{self.window.tmin}..{self.window.tmax}",
        ]
        # stable sorts by a, q and t give the Degree.key order, (t, q, a)
        degs = sorted(self.groups, key=itemgetter(2))
        degs.sort(key=itemgetter(0))
        degs.sort(key=itemgetter(1))
        ends = {}  # the text after q, t: one per group object
        for deg in degs:
            if (end := ends.get(id(g := self.groups[deg]))) is None:
                end = ends[id(g)] = f", rank={g.free_rank}" + (
                    ", tor=" + ";".join(map(str, g.torsion)) if g.torsion
                    else "")
            lines.append(f"q={deg.q}, t={deg.t}{end}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "HomologyTable":
        """Inverse of serialize; malformed text raises TableFormatError."""
        headers, cells, lines, comments = _read_table(
            text, {"coeff": CoefficientRing.parse, "window": _parse_window},
            ("q", "t", "rank"), _parse_invariant_factors)
        if len(headers) < 2:
            raise TableFormatError(f"line {len(text.splitlines())}: input "
                                   "ends without a coeff= or window= header")
        window, groups = headers["window"], {}
        for (q, t), (rank, torsion) in cells.items():
            if not window.contains(Degree(q, t)):
                raise TableFormatError(f"line {lines[q, t]}: cell q={q}, "
                                       f"t={t} lies outside the window")
            groups[Degree(q, t)] = HomologyGroup(rank, torsion)
        names = [c.split(":", 1)[1].strip() for c in comments
                 if c.startswith("# presentation:")]
        return cls(names[-1] if names else "?", headers["coeff"], window,
                   groups)


def homology_table(pres: Presentation, ring: CoefficientRing, window: Window
                   ) -> HomologyTable:
    """Homology over the chosen ring at every degree of the window.

    One enumeration (window_bases) backs all degrees.  A first pass takes
    the rank, or over Z inside the window the Smith form, of each matrix
    with a basis on both sides, once; a second forms the groups.  An
    invariant factor d > 1 of the matrix out of deg is a d-torsion class
    reported at deg, the degree of the extra mod-p cycles it produces (its
    cokernel representative lives one t lower).

    Each result is kept per translation class of maps, five small ints:
    the mode (rank or Smith form), k0 % C for the first source key k0 and
    C odd parts, the source shape id, the target's first key less k0 and
    the target shape id.  A shape is a basis's keys less its first key,
    interned once per distinct shape (11 for hook_Q's 795 degrees) in the
    dict (q, t) -> (basis, k0, shape id) that both passes read.  d_matrix
    reads a source key only through key % C and index.get(key + delta), so
    moving every key of both sides by K = 0 mod C gives the same matrix.

    The complex is reduced first: the images that are powers +-x_k^e of
    their own degree with distinct k (taken greedily in generator order)
    form a regular sequence f_j over Z and every F_p, and for a
    nonzerodivisor f, H(K(f, g_2, ...; R)) = H(K(g_2, ...; R/f))
    (Eisenbud, Commutative Algebra, section 17).  So window_bases walks
    R/(f_j) tensored with the exterior algebra on the other xi.
    """
    bases = window_bases(pres, window, reduced=True)
    qmin, qmax, tmin, tmax = window
    cells, shapes = {}, {}  # (q, t) -> (basis, k0, shape id) at a = 0
    for (q, t, a), b in bases.items():
        if not a:
            k0 = b.keys[0]
            shape = tuple([k - k0 for k in b.keys])
            cells[q, t] = b, k0, shapes.setdefault(shape, len(shapes))
    # (q, t) -> (rank, torsion) of the map out of (q, t); torsion: Z, t <= tmax
    out, done, field = {}, {}, ring.is_field
    for (q, t), (src, k0, sid) in cells.items():
        if (qmin <= q <= qmax and tmin <= t <= tmax + 1
                and (below := cells.get((q, t - 1)))):
            dst, k1, did = below
            rank = field or t > tmax
            key = rank, k0 % len(src.layout[0]), sid, k1 - k0, did
            if key not in done:
                mat = d_matrix(pres, src.degree, src, dst)
                factors = ([1] * matrix_rank(mat, ring) if rank
                           else smith_normal_form(mat)[0])
                done[key] = len(factors), tuple(f for f in factors if f > 1)
            out[q, t] = done[key]
    groups, made = {}, {}  # made: one frozen group per (free, torsion)
    for (q, t), (b, _k0, _sid) in cells.items():
        if qmin <= q <= qmax and tmin <= t <= tmax:
            rank, torsion = out.get((q, t), (0, ()))
            free = len(b.keys) - rank - out.get((q, t + 1), (0,))[0]
            if free or torsion:
                if (free, torsion) not in made:
                    made[free, torsion] = HomologyGroup(free, torsion)
                groups[b.degree] = made[free, torsion]
    return HomologyTable(pres.name, ring, window, groups)


def homology_at(pres: Presentation, deg: Degree, ring: CoefficientRing
                ) -> HomologyGroup:
    """Homology at one degree: homology_table on the one-degree window.

    Tables are slices at a = 0, so deg must have a-degree 0.
    """
    if deg.a:
        raise ValueError(f"homology is computed at a = 0 only, got {deg}")
    window = Window(deg.q, deg.q, deg.t, deg.t)
    return homology_table(pres, ring, window).groups.get(
        deg, HomologyGroup(0))


def euler_characteristic_check(pres: Presentation, ring: CoefficientRing,
                               window: Window, q: int) -> bool:
    """Alternating sums of chain dims and homology ranks agree at fixed q."""
    chain = hom = 0
    column = window_bases(pres, Window(q, q, window.tmin, window.tmax))
    table = homology_table(pres, ring, window)
    for t in range(window.tmin, window.tmax + 1):
        deg = Degree(q, t)
        chain += (-1) ** t * len(column[deg].keys) if deg in column else 0
        hom += (-1) ** t * table.rank_at(deg)
    # boundary terms vanish when the window covers the whole q-column
    return chain == hom
