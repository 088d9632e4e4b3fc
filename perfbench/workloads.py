"""Workloads of the koszulknots benchmark.

Each workload has four steps:

* ``setup(seed)`` builds what a user builds before the first computation:
  the presentations and the series catalogue.  Together with the import of
  ``koszulknots`` this is what ``setup_s`` measures.
* ``prepare(state)`` computes the reference answers the checks use, and
  draws seeded samples whose population comes from those answers.  It is
  not timed.
* ``items(state)`` lists the timed units of one pass as ``(label, fn)``.
  Every call into the library goes through a module attribute
  (``homology.homology_table``, ``series.expand`` ...), so the tracer in
  ``spans.py`` can wrap the real functions for a traced run.
* ``check_item`` and ``check_pass`` decide, exactly, whether the outputs of
  one pass are right.  They read the shipped tables in ``tests/data`` and
  never write them.

The constructors take the problem sizes, so ``selfcheck.py`` can build the
same workloads at tiny sizes.
"""

from __future__ import annotations

import random
from pathlib import Path

from koszulknots import homology, interface, presentations, series
from koszulknots.algebra import QQ, ZZ, Degree, prime_field
from koszulknots.homology import HomologyGroup, HomologyTable, Window

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
F3 = prime_field(3)


def stratified_sample(population, k, key, rng):
    """One seeded draw from each of k consecutive strata of the sorted
    population.

    The cost of one query is very uneven (the dearest cell or assembly
    costs hundreds of times the cheapest), so a plain sample would change
    the amount of work from seed to seed.  Sorting by a cost key and
    drawing once per stratum keeps every cost level in each sample: the
    seed changes which inputs run, and hardly how much work they make.
    """
    pop = sorted(population, key=key)
    n = len(pop)
    if not 0 < k <= n:
        raise ValueError(f"cannot draw {k} of {n} inputs")
    cuts = [i * n // k for i in range(k + 1)]
    return [pop[rng.randrange(cuts[i], cuts[i + 1])] for i in range(k)]


def _round_trips(table, text):
    return HomologyTable.parse(text).groups == table.groups


class HookQ:
    """Hook projector algebra [12,3] at N = 3 over Q on one window, compared
    with the expansion of its closed form through the table comparator."""

    name = "hook_Q"

    def __init__(self, window=Window(-60, 60, -12, 12)):
        self.window = window

    def setup(self, seed):
        # one fixed input; the seed changes nothing here
        return {"pres": presentations.projector_presentation("[12,3]", 3)}

    def prepare(self, state):
        w = self.window
        rf = series.projector_series("[12,3]", 3, "dN")
        coeffs = series.expand(rf, series.SeriesWindow(w.tmin, w.tmax,
                                                       w.qmin, w.qmax))
        expect = {k: v for k, v in coeffs.items() if v}
        # the closed form as external data, cells keyed (t, q - 2t)
        state["data"] = interface.ExternalTable(ring=QQ, cells={
            (t, q - 2 * t): (v, ()) for (q, t), v in expect.items()})
        return expect

    def items(self, state):
        pres, window = state["pres"], self.window

        def table():
            tab = homology.homology_table(pres, QQ, window)
            report = interface.compare(tab, state["data"], shift=0)
            return tab, tab.serialize(), report
        return [("table", table)]

    def check_item(self, label, out, expect):
        tab, text, report = out
        ranks = {(d.q, d.t): g.free_rank for d, g in tab.groups.items()
                 if g.free_rank}
        return (ranks == expect and report.agree
                and not any(g.torsion for g in tab.groups.values())
                and _round_trips(tab, text))

    def check_pass(self, outputs, expect):
        return []


class T59:
    """Stable 5-strand SL(3) model over Z and F3 against the shipped
    T(5,9) tables.

    Run it by name; BENCHMARK.json does not list it.  On a shared 2-vCPU
    virtual machine its ten-seed quartile spread reached 28-32 % with
    50 s runs, above any bound the benchmark may set (25 %).  hook_Q
    covers the same layers except Smith normal form and rank mod p.
    """

    name = "t59"
    TORSION_CELL = Degree(18, 11)

    def __init__(self, window=Window(0, 72, 0, 26)):
        self.window = window

    def setup(self, seed):
        rings = [ZZ, F3]
        random.Random(seed).shuffle(rings)  # the seed sets the order only
        return {
            "pres": presentations.stable_presentation(5, 3),
            "rings": rings,
            "data": {
                ZZ: interface.parse_table(
                    (DATA / "table1_T59_Z.txt").read_text()),
                F3: interface.parse_table(
                    (DATA / "table2_T59_F3.txt").read_text()),
            },
        }

    def prepare(self, state):
        return None

    def items(self, state):
        pres, window = state["pres"], self.window

        def table(ring):
            # the Z source prints 5-torsion only
            primes = [5] if ring == ZZ else None

            def fn():
                tab = homology.homology_table(pres, ring, window)
                report = interface.compare(tab, state["data"][ring],
                                           torsion_primes=primes)
                return tab, tab.serialize(), report
            return fn
        return [(str(ring), table(ring)) for ring in state["rings"]]

    def check_item(self, label, out, expect):
        tab, text, report = out
        ok = (report.agreeing_region == (0, 15)
              and report.first_divergence[0] == 16
              and _round_trips(tab, text))
        if label == str(ZZ):
            # the paper's Z5 class: exactly one factor Z/5^1 at (18, 11)
            g = tab.groups.get(self.TORSION_CELL, HomologyGroup(0))
            fives = [f for f in g.torsion if f % 5 == 0]
            ok = ok and len(fives) == 1 and fives[0] % 25 != 0
        return ok

    def check_pass(self, outputs, expect):
        """Universal coefficients: dim H(F3) at (q, t) is the free rank
        plus the 3-torsion factors at (q, t) and (q, t + 1)."""
        tables = {label: out[0] for label, out in outputs}
        z, f3 = tables[str(ZZ)], tables[str(F3)]

        def threes(deg):
            g = z.groups.get(deg)
            return sum(1 for f in g.torsion if f % 3 == 0) if g else 0

        w = self.window
        for t in range(w.tmin, w.tmax):  # t + 1 must lie in the window
            for q in range(w.qmin, w.qmax + 1):
                deg = Degree(q, t)
                if f3.rank_at(deg) != (z.rank_at(deg) + threes(deg)
                                       + threes(Degree(q, t + 1))):
                    return [False]
        return [True]


class CellsZ:
    """Single-degree integral queries, the traffic certificates make.

    Run it by name; BENCHMARK.json does not list it.  On a shared 2-vCPU
    virtual machine its ten-seed quartile spread was 37-44 % on every
    end-to-end time, above any bound the benchmark may set (25 %), while
    its sampling alone moves those times by about 3 %.
    """

    name = "cells_Z"

    def __init__(self, window=Window(0, 36, 0, 14), k=100):
        self.window, self.k = window, k

    def setup(self, seed):
        return {"pres": presentations.stable_presentation(5, 3),
                "seed": seed}

    def prepare(self, state):
        pres, window = state["pres"], self.window
        bases = homology.window_bases(pres, window)
        nonempty = [d for d, b in bases.items()
                    if b.monomials and window.contains(d)]
        # q - t is the value of this presentation's grading functional,
        # which bounds the enumeration a query makes; within one value the
        # lower t costs more
        state["cells"] = stratified_sample(
            nonempty, self.k, key=lambda d: (d.q - d.t, -d.t),
            rng=random.Random(state["seed"]))
        ref = homology.homology_table(pres, ZZ, window)
        return {d: ref.groups.get(d, HomologyGroup(0))
                for d in state["cells"]}

    def items(self, state):
        pres = state["pres"]
        return [(deg, lambda deg=deg: homology.homology_at(pres, deg, ZZ))
                for deg in state["cells"]]

    def check_item(self, label, out, expect):
        return out == expect[label]

    def check_pass(self, outputs, expect):
        return []


def _expansion_solves(rf, coeffs, window):
    """coeffs * den == num at every (q, t) whose product terms all come
    from inside the window; an exact test of the expansion that does not
    use the expander."""
    den = [((q, t), c) for (q, t, _a), c in rf.den.terms.items()]
    num = {(q, t): c for (q, t, _a), c in rf.num.terms.items()}
    spots = {(q + dq, t + dt) for q, t in coeffs for (dq, dt), _c in den}
    for q, t in spots | set(num):
        if all(window.contains(q - dq, t - dt) for (dq, dt), _c in den):
            got = sum(coeffs.get((q - dq, t - dt), 0) * c
                      for (dq, dt), c in den)
            if got != num.get((q, t), 0):
                return False
    return True


class Series:
    """Torus-knot assemblies, column-sum identities and catalogue
    expansions: series layers only."""

    name = "series"
    NS = (2, 3, 4, 5)
    IDENTITIES = ((("[12]", "[1,2]"), "[1]"),
                  (("[123]", "[12,3]"), "[12]"),
                  (("[1,2,3]", "[13,2]"), "[1,2]"))

    def __init__(self, k=200, m3=41, m2=82,
                 window=series.SeriesWindow(-12, 12, -60, 60)):
        self.k, self.window = k, window
        t3 = [m for m in range(1, m3) if m % 3]
        self.grid = ([("T3", m, N, False) for N in self.NS for m in t3]
                     + [("T2", m, N, False) for N in self.NS
                        for m in range(1, m2, 2)]
                     + [("T3", m, 0, True) for m in t3])

    def setup(self, seed):
        catalogue = []
        for name in series.list_formulas():
            if not name.endswith("_dN"):
                continue
            for N in self.NS:
                try:
                    rf = series.formula(name, N=N)
                except ValueError:  # not catalogued at this N
                    continue
                catalogue.append((f"{name}@{N}", rf))
        # the size of an assembly grows with m within each family
        sample = stratified_sample(
            self.grid, self.k, key=lambda g: (g[0], g[3], g[2], g[1]),
            rng=random.Random(seed))
        return {"catalogue": catalogue, "sample": sample}

    def prepare(self, state):
        return None

    def items(self, state):
        out = []
        for kind, m, N, reduced in state["sample"]:
            def assemble(kind=kind, m=m, N=N, reduced=reduced):
                fn = (series.assemble_torus3 if kind == "T3"
                      else series.assemble_torus2)
                return fn(m, N, reduced=reduced)
            out.append((("assembly", kind, m, N, reduced), assemble))
        for (a, b), whole in self.IDENTITIES:
            def identity(a=a, b=b, whole=whole):
                lhs = (series.projector_series(a, None, "homfly")
                       + series.projector_series(b, None, "homfly"))
                return series.identity_check(
                    lhs, series.projector_series(whole, None, "homfly"))
            out.append((("identity", a, b), identity))
        for name, rf in state["catalogue"]:
            out.append((("expand", name, rf),
                        lambda rf=rf: series.expand(rf, self.window)))
        return out

    def check_item(self, label, out, expect):
        if label[0] == "assembly":
            return out.is_polynomial and out.nonnegative()
        if label[0] == "identity":
            return out is True
        return _expansion_solves(label[2], out, self.window)

    def check_pass(self, outputs, expect):
        return []


WORKLOADS = {w.name: w for w in (HookQ(), T59(), CellsZ(), Series())}
