"""External knot-homology tables and the model/data comparator.

External tables index cells by (t, ddagger) with ddagger = q - 2t; the
comparator realigns the q-grading (automatically or by an explicit
shift) and reports the first cell, in (t, then q) order, where ranks or
torsion disagree.
"""

from __future__ import annotations

from .algebra import CoefficientRing, _Record, _is_prime, read_int
from .homology import HomologyTable, TableFormatError, _read_table


class ExternalTable(_Record):
    """Cells of an independently computed knot-homology table.

    cells maps (t, ddagger) to (rank, torsion) where torsion is a tuple of
    (prime_power, count) pairs as written in the source, e.g. 5^1; knot
    holds the torus parameters (n, m), if declared.
    """

    _fields = ("knot", "ring", "cells")

    def __init__(self, knot: tuple | None = None,
                 ring: CoefficientRing | None = None, cells: dict = None):
        self.knot, self.ring = knot, ring
        self.cells = {} if cells is None else cells

    def qt_cells(self):
        """Cells re-keyed by (q, t) with q = ddagger + 2t, torsion expanded."""
        return {(dd + 2 * t, t): (rank, tuple(sorted(
                    power for power, count in torsion for _ in range(count)))
                    if torsion else ())
                for (t, dd), (rank, torsion) in self.cells.items()}


def _parse_torsion(text: str) -> tuple:
    """'5^2, 3' -> ((5, 2), (3, 1)); empty pieces are skipped."""
    entries = []
    for piece in filter(None, (p.strip() for p in text.split(","))):
        base, _, count = piece.partition("^")
        entries.append((read_int(base), read_int(count) if count else 1))
        if entries[-1][0] < 2 or entries[-1][1] < 1:
            raise ValueError("order below 2 or count below 1")
    return tuple(entries)


def _parse_knot(text: str) -> tuple:
    n, m = map(read_int, text.split(","))
    return n, m


def parse_table(text: str) -> ExternalTable:
    """Parse the documented text format.

    Records look like ``t=3, dd=6, rank=1`` with an optional
    ``tor=5^1,...`` field (torsion entries separated by commas after the
    tor key); ``#`` starts a comment; optional headers ``coeff=<tag>`` and
    ``knot=<n>,<m>``, each at most once.  Malformed text raises
    TableFormatError.
    """
    headers, cells, _, _ = _read_table(
        text, {"coeff": CoefficientRing.parse, "knot": _parse_knot},
        ("t", "dd", "rank"), _parse_torsion)
    return ExternalTable(headers.get("knot"), headers.get("coeff"), cells)


def _prime_power_multiset(factors, primes=None):
    """Cyclic orders -> sorted prime-power list, optionally filtered."""
    out = []
    for rest in factors:
        d = 2
        while rest > 1:
            d = d if d * d <= rest else rest
            power = 1
            while rest % d == 0:
                rest //= d
                power *= d
            if power > 1 and (primes is None or d in primes):
                out.append(power)
            d += 1
    return tuple(sorted(out))


class DiffReport(_Record):
    """first_divergence is a (t, q) in the external frame, mismatches the
    (t, q)-ordered [(t, q, model_cell, data_cell)], and agreeing_region
    the fully matched t-range (tmin, tmax), or None."""

    _fields = ("shift", "first_divergence", "mismatches", "compared_cells",
               "agreeing_region")

    def __init__(self, shift: int, first_divergence: tuple | None,
                 mismatches: list, compared_cells: int,
                 agreeing_region: tuple | None):
        self.shift, self.first_divergence = shift, first_divergence
        self.mismatches, self.compared_cells = mismatches, compared_cells
        self.agreeing_region = agreeing_region

    @property
    def agree(self):
        return not self.mismatches

    def text(self) -> str:
        lines = [f"comparison: shift q -> q + {self.shift}, "
                 f"{self.compared_cells} cells"]
        if self.agreeing_region:
            lines.append(f"  agreement for t in "
                         f"[{self.agreeing_region[0]}, "
                         f"{self.agreeing_region[1]}]")
        if self.agree:
            lines.append("  no divergence")
        else:
            t, q = self.first_divergence
            lines.append(f"  first divergence at t={t}, q={q}")
            for t, q, mc, dc in self.mismatches[:10]:
                lines.append(f"    t={t}, q={q}: model {mc}, data {dc}")
            if len(self.mismatches) > 10:
                lines.append(f"    ... {len(self.mismatches) - 10} more")
        return "\n".join(lines)


def compare(model: HomologyTable, ext: ExternalTable, shift="auto",
            torsion_primes=None) -> DiffReport:
    """Match a model table against external data after a q-shift.

    shift="auto" aligns the lowest nonzero cells in (t, q) order;
    otherwise the model's q is mapped to q + shift, an int or its text,
    read as strictly as table integers (read_int).  torsion_primes, when
    given, restricts the torsion comparison to those primes (for sources
    that print torsion selectively); an entry that is not prime raises
    ValueError, as it would filter out every torsion factor.  Only the
    data cells inside the model's window (after the shift) are compared:
    the model says nothing about the rest.
    """
    if ext.ring is not None and ext.ring != model.ring:
        raise ValueError(f"coefficient ring mismatch: model {model.ring}, "
                         f"data {ext.ring}")
    if torsion_primes is not None and (bad := sorted(
            p for p in torsion_primes if not _is_prime(p))):
        raise ValueError(f"torsion primes {bad} are not prime")
    w = model.window
    # both sides as prime-power multisets, so tor=6 matches Z/6; the data
    # cells re-keyed as by qt_cells, but only at the window's t
    data = {(dd + 2 * t, t): (r, _prime_power_multiset(
                [p for p, count in tor for _ in range(count)], torsion_primes)
                if tor else ())
            for (t, dd), (r, tor) in ext.cells.items()
            if w.tmin <= t <= w.tmax}
    model_cells, cells = {}, {}  # cells: one per group object
    for d, g in model.groups.items():
        if (cell := cells.get(id(g))) is None:
            cell = cells[id(g)] = (g.free_rank, _prime_power_multiset(
                g.torsion, torsion_primes))
        if cell != (0, ()):
            model_cells[(d.q, d.t)] = cell

    if shift != "auto":
        s = read_int(str(shift))
    elif model_cells and (live := [k for k, c in data.items()
                                   if c != (0, ())]):
        mq, mt = min(model_cells, key=lambda k: (k[1], k[0]))
        dq, dt = min(live, key=lambda k: (k[1], k[0]))
        if mt != dt:
            raise ValueError("cannot auto-align: lowest cells differ in t "
                             f"(model t={mt}, data t={dt})")
        s = dq - mq
    else:
        s = 0
    qlo, qhi = w.qmin + s, w.qmax + s
    data = {k: c for k, c in data.items() if qlo <= k[0] <= qhi}
    shifted = {(q + s, t): c for (q, t), c in model_cells.items()}

    # only a cell on one side, or with two values, can differ; a data cell
    # (0, ()) that the model does not list matches the model's zero
    zero = (0, ())
    differ = {k for k, _c in shifted.items() ^ data.items()}
    mismatches = sorted(  # (t, q) is unique, so no two cells are compared
        (t, q, mc, dc) for q, t in differ
        if (mc := shifted.get((q, t), zero)) != (dc := data.get((q, t), zero)))

    first = mismatches[0][:2] if mismatches else None
    ts = [t for _q, t in data]
    tmax = first[0] - 1 if first else max(ts, default=0)
    region = (min(ts), tmax) if ts and tmax >= min(ts) else None
    return DiffReport(s, first, mismatches,
                      len(shifted.keys() | data.keys()), region)

