"""External tables: parsing, alignment, divergence reporting."""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from koszulknots.algebra import Degree, ZZ, prime_field, read_int
from koszulknots.homology import (HomologyGroup, HomologyTable, Window,
                                  homology_table)
from koszulknots.interface import (DiffReport, ExternalTable,
                                   TableFormatError, _prime_power_multiset,
                                   compare, parse_table)
from koszulknots.presentations import stable_presentation

DATA = os.path.join(os.path.dirname(__file__), "data")


def fixture(name):
    with open(os.path.join(DATA, name)) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# parsing

def test_parse_minimal_table():
    table = parse_table("""
        # comment
        coeff=F3
        knot=5,9
        t=0, dd=4, rank=1
        t=11, dd=-4, rank=0, tor=5
        t=20, dd=-4, rank=2, tor=5^2, 3
    """)
    assert table.ring == prime_field(3)
    assert table.knot == (5, 9)
    assert table.cells[(0, 4)] == (1, ())
    assert table.cells[(11, -4)] == (0, ((5, 1),))
    assert table.cells[(20, -4)] == (2, ((5, 2), (3, 1)))


def test_qt_cells_expansion():
    table = parse_table("t=11, dd=-4, rank=1, tor=5^2")
    assert table.qt_cells() == {(18, 11): (1, (5, 5))}


def test_qt_cells_mixes_torsion_and_torsion_free_cells():
    table = parse_table("t=11, dd=-4, rank=1, tor=5^2,3\n"
                        "t=0, dd=4, rank=2\nt=3, dd=0, rank=0")
    assert table.qt_cells() == {(18, 11): (1, (3, 5, 5)), (4, 0): (2, ()),
                                (6, 3): (0, ())}
    # Z/5 + Z/15 in the model is the data's 5^2,3; the cell at t = 30
    # lies above the model's window and is not compared
    model = HomologyTable("m", ZZ, Window(0, 20, 0, 12), {
        Degree(18, 11): HomologyGroup(1, (5, 15)),
        Degree(4, 0): HomologyGroup(2)})
    table.cells[(30, 0)] = (1, ((7, 1),))
    report = compare(model, table, shift=0)
    assert report.agree and report.compared_cells == 3
    table.cells[(11, -4)] = (1, ((5, 1), (3, 1)))
    assert compare(model, table, shift=0).mismatches == [
        (11, 18, (1, (3, 5, 5)), (1, (3, 5)))]


@pytest.mark.parametrize("text,fragment", [
    ("t=0, dd=0", "missing field"),
    ("t=0, dd=0, rank=1, foo=2", "unknown field"),
    ("t=x, dd=0, rank=1", "non-integer"),
    ("t=0, dd=0, rank=-1", "negative rank"),
    ("t=0, dd=0, rank=1, tor=1", "bad torsion"),
    ("t=0, dd=0, rank=1\nt=0, dd=0, rank=2", "duplicate cell"),
    ("t=0, dd=0, rank=1, rank=2", "duplicate field"),
    ("knot=5", "bad knot header"),
    ("t=0, dd=0, rank=1, stray", "stray token"),
    ("coeff=F4", "bad coeff header"),
    ("coeff=Fx", "bad coeff header"),
    ("# header\ncoeff=R", "bad coeff header"),
    ("coeff=Z\nknot=5,9\ncoeff=Z", "repeated coeff= header"),
    ("knot=5,9\n# again\nknot=5,9", "repeated knot= header"),
    ("t=1_0, dd=0, rank=1", "non-integer entry '1_0'"),
    ("t=0, dd=0, rank=+2", "non-integer entry '+2'"),
    ("t=0, dd=\u0664, rank=1", "non-integer entry"),
    ("knot=5,\u0669", "bad knot header"),
    ("knot=+5,9", "bad knot header"),
    ("t=0, dd=0, rank=1, tor=5^+1", "bad torsion"),
    ("t=0, dd=0, rank=1, tor=1_1", "bad torsion"),
    ("coeff=Z\nt=0, dd=0, rank=1, tor=\u0665", "bad torsion"),
    ("coeff=F+3", "bad coeff header"),
])
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(TableFormatError) as err:
        parse_table(text)
    assert str(err.value).startswith(f"line {text.count(chr(10)) + 1}:")
    assert fragment in str(err.value)


FORMATS = {
    "model": (HomologyTable.parse, "coeff=Q\nwindow=q:0..9,t:0..9\n",
              "q", "t"),
    "data": (parse_table, "coeff=Q\nknot=5,9\n", "t", "dd"),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("record,fragment", [
    ("{a}=1, {b}=0, rank=1, junk", "stray token 'junk'"),
    ("{a}=1, {b}=0", "missing field(s) ['rank']"),
    ("{a}=1, {b}=x, rank=1", "non-integer entry"),
    ("{a}=1, {b}=0, rank=-1", "negative rank"),
    ("{a}=1, {b}=0, rank=1, rank=2", "duplicate field 'rank'"),
    ("{a}=1, {b}=0, rank=1\n{a}=1, {b}=0, rank=2", "duplicate cell"),
    ("coeff=Z", "repeated coeff= header"),
])
def test_both_readers_share_record_rules(fmt, record, fragment):
    """Model tables and external data reject the same faults alike."""
    parse, headers, a, b = FORMATS[fmt]
    text = headers + record.format(a=a, b=b)
    with pytest.raises(TableFormatError) as err:
        parse(text)
    assert str(err.value).startswith(
        f"line {text.count(chr(10)) + 1}: {fragment}")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet="tdrankorcefknotQZFp=,^;:-0123456789 #",
                        max_size=24), max_size=5))
def test_parse_table_fuzz(lines):
    """Any input parses or fails with a TableFormatError naming a line."""
    for text in ("\n".join(lines), "coeff=Z\nknot=5,9\n" + "\n".join(lines)):
        try:
            parse_table(text)
        except TableFormatError as exc:
            assert str(exc).startswith("line ")


def test_fixtures_parse():
    t1 = parse_table(fixture("table1_T59_Z.txt"))
    t2 = parse_table(fixture("table2_T59_F3.txt"))
    assert t1.ring == ZZ and t2.ring == prime_field(3)
    assert t1.knot == t2.knot == (5, 9)
    # spot checks against the source tables
    assert t2.cells[(7, 4)] == (3, ())
    assert t1.cells[(11, -4)] == (0, ((5, 1),))  # the boxed torsion cell


# ---------------------------------------------------------------------------
# comparison

def small_model():
    pres = stable_presentation(2, 2)
    return homology_table(pres, ZZ, Window(0, 16, 0, 6))


def to_external(table, shift=0, ring="same"):
    ext = ExternalTable(ring=table.ring if ring == "same" else ring)
    for deg, g in table.groups.items():
        if g.free_rank or g.torsion:
            tor = []
            for f in g.torsion:
                tor.append((f, 1))
            ext.cells[(deg.t, deg.q + shift - 2 * deg.t)] = (
                g.free_rank, tuple(tor))
    return ext


def test_compare_identical_tables_agree():
    model = small_model()
    report = compare(model, to_external(model))
    assert report.agree
    assert report.shift == 0
    assert report.first_divergence is None


def test_compare_auto_shift():
    model = small_model()
    report = compare(model, to_external(model, shift=62))
    assert report.agree and report.shift == 62


def test_compare_explicit_shift():
    model = small_model()
    report = compare(model, to_external(model, shift=4), shift=4)
    assert report.agree


def test_compare_reads_a_text_shift_strictly():
    # a shift given as text is read as strictly as table integers
    model = small_model()
    assert compare(model, to_external(model, shift=4), shift="4").agree
    for bad in ("0_4", "+4", "4.0"):
        with pytest.raises(ValueError, match="non-integer"):
            compare(model, to_external(model, shift=4), shift=bad)


def test_compare_reports_first_divergence_in_t_order():
    model = small_model()
    ext = to_external(model)
    # corrupt two cells; the lower-t one must be reported first
    keys = sorted(ext.cells, key=lambda k: k[0])
    ext.cells[keys[-1]] = (99, ())
    ext.cells[keys[2]] = (99, ())
    report = compare(model, ext)
    assert not report.agree
    assert report.first_divergence[0] == keys[2][0]
    assert "first divergence" in report.text()


def test_compare_sorts_mismatches_in_t_then_q_order():
    """Five mismatches on two t rows, model groups and data cells both
    inserted out of (t, q) order, and one repeated group object: the
    report lists them by t, then q, whatever the dict order."""
    one = HomologyGroup(1)
    model = HomologyTable("scrambled", ZZ, Window(0, 10, 0, 3), {
        Degree(6, 2): one, Degree(2, 1): one, Degree(0, 0): HomologyGroup(1),
        Degree(4, 2): HomologyGroup(0, (3,)), Degree(8, 1): HomologyGroup(2),
        Degree(6, 3): one})
    # cells keyed (t, dd), dd = q - 2t
    ext = ExternalTable(ring=ZZ, cells={
        (2, 0): (1, ()), (0, 0): (1, ()), (1, 6): (1, ()), (1, 0): (3, ()),
        (2, 6): (1, ()), (3, 0): (1, ())})
    for shift in ("auto", 0):
        report = compare(model, ext, shift=shift)
        assert report.shift == 0
        assert report.mismatches == [
            (1, 2, (1, ()), (3, ())), (1, 8, (2, ()), (1, ())),
            (2, 4, (0, (3,)), (1, ())), (2, 6, (1, ()), (0, ())),
            (2, 10, (0, ()), (1, ()))]
        assert report.first_divergence == (1, 2)
        assert report.agreeing_region == (0, 0)
        assert report.compared_cells == 7


def test_compare_ring_mismatch():
    model = small_model()
    ext = to_external(model, ring=prime_field(3))
    with pytest.raises(ValueError):
        compare(model, ext)


def test_compare_torsion_prime_filter():
    pres = stable_presentation(5, 2)
    model = homology_table(pres, ZZ, Window(16, 16, 11, 11))
    # the cell holds one Z5 factor alongside 2/3-torsion; a source that
    # prints only 5-torsion still matches under the filter
    ext = ExternalTable(ring=ZZ)
    g = model.groups[Degree(16, 11)]
    ext.cells[(11, 16 - 22)] = (g.free_rank, ((5, 1),))
    report = compare(model, ext, torsion_primes={5})
    assert report.agree
    # a non-prime would filter out every factor, so every cell would agree
    for primes in ({6}, {4}, {1}, {0}, {-7}, {5, 6}):
        with pytest.raises(ValueError, match="not prime"):
            compare(model, ext, torsion_primes=primes)


def test_compare_composite_torsion():
    # a data cell tor=6 is Z/6: both sides split into prime powers (2, 3)
    model = HomologyTable("z6", ZZ, Window(0, 0, 0, 0),
                          {Degree(0, 0): HomologyGroup(1, (6,))})
    ext = parse_table("t=0, dd=0, rank=1, tor=6")
    assert compare(model, ext).agree
    assert compare(model, ext, torsion_primes={3}).agree
    worse = compare(model, parse_table("t=0, dd=0, rank=1, tor=3"))
    assert worse.mismatches == [(0, 0, (1, (2, 3)), (1, (3,)))]
    # a data tor=2^1,3^1 is Z/2 + Z/3, which is Z/6 too
    assert compare(model, parse_table("t=0, dd=0, rank=1, tor=2^1,3^1")).agree
    # a torsion-free model cell takes the empty-torsion path, and is still
    # a mismatch against data 5-torsion under the 5 filter
    free = HomologyTable("free", ZZ, Window(0, 0, 0, 0),
                         {Degree(0, 0): HomologyGroup(1)})
    five = compare(free, parse_table("t=0, dd=0, rank=1, tor=5"),
                   torsion_primes=[5])
    assert five.mismatches == [(0, 0, (1, ()), (1, (5,)))]


def test_compare_auto_shift_on_trivial_data():
    # data whose every cell is trivial aligns like empty data, at shift 0
    model = small_model()
    assert compare(model, parse_table("t=0, dd=0, rank=0")).shift == 0
    z3 = parse_table("t=0, dd=0, rank=0, tor=3")
    assert compare(model, z3, torsion_primes={5}).shift == 0


def test_compare_misaligned_lowest_t():
    model = small_model()
    ext = ExternalTable(ring=ZZ)
    ext.cells[(3, 0)] = (1, ())
    with pytest.raises(ValueError):
        compare(model, ext)


def test_compare_stays_inside_the_model_window():
    # data past the model's window was never computed by the model, so it
    # is neither a mismatch nor part of the agreeing region
    model = small_model()
    ext = to_external(model, shift=4)
    ext.cells[(7, 0)] = (1, ())  # t = 7 > tmax
    ext.cells[(0, 30)] = (1, ())  # q - 4 = 26 > qmax
    report = compare(model, ext)
    assert report.agree and report.shift == 4
    assert report.agreeing_region == (0, 6)
    t59 = homology_table(stable_presentation(5, 3), ZZ, Window(0, 60, 0, 8))
    report = compare(t59, parse_table(fixture("table1_T59_Z.txt")),
                     torsion_primes={5})
    assert report.agree and report.agreeing_region == (0, 8)
    assert "agreement for t in [0, 8]" in report.text()


def test_report_text_lists_ten_mismatches_and_counts_the_rest():
    mismatches = [(t, 2 * t, (1, ()), (0, ())) for t in range(13)]
    text = DiffReport(0, (0, 0), mismatches, 13, None).text()
    lines = text.splitlines()
    assert lines[:2] == ["comparison: shift q -> q + 0, 13 cells",
                         "  first divergence at t=0, q=0"]
    assert lines[2:12] == [f"    t={t}, q={2 * t}: model (1, ()), "
                           "data (0, ())" for t in range(10)]
    assert lines[12:] == ["    ... 3 more"]


def _compare_per_cell(model, ext, shift="auto", torsion_primes=None):
    """compare as one loop over the union of the shifted model cells and the
    data cells, less its ring and prime checks: the per-cell reference."""
    w = model.window
    data = {(dd + 2 * t, t): (r, _prime_power_multiset(
                [p for p, count in tor for _ in range(count)], torsion_primes)
                if tor else ())
            for (t, dd), (r, tor) in ext.cells.items()
            if w.tmin <= t <= w.tmax}
    model_cells, cells = {}, {}
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
    data = {(q, t): c for (q, t), c in data.items()
            if w.qmin <= q - s <= w.qmax}
    keys = {(q + s, t) for q, t in model_cells} | set(data)
    mismatches = []
    for q, t in keys:
        mc = model_cells.get((q - s, t), (0, ()))
        dc = data.get((q, t), (0, ()))
        if mc != dc:
            mismatches.append((t, q, mc, dc))
    mismatches.sort()
    first = mismatches[0][:2] if mismatches else None
    ts = [t for _q, t in data]
    tmax = first[0] - 1 if first else max(ts, default=0)
    region = (min(ts), tmax) if ts and tmax >= min(ts) else None
    return DiffReport(s, first, mismatches, len(keys), region)


_TORSIONS = ((), (), (), (2,), (3,), (6,), (2, 4), (5, 25), (3, 9, 45))


def _random_pair(rng):
    """A model table on a small random window, with shared and torsion-only
    groups, and data cells copied from it at a shift, then perturbed: cells
    dropped, ranks and torsion changed, explicit (0, ()) cells, and cells
    outside the model's window in t and in q."""
    qmin, tmin = rng.randint(-6, 6), rng.randint(-3, 3)
    window = Window(qmin, qmin + rng.randint(0, 10),
                    tmin, tmin + rng.randint(0, 5))
    shared = HomologyGroup(1)
    groups = {}
    for deg in window.degrees():
        if rng.random() < 0.4:
            groups[deg] = rng.choice([shared, HomologyGroup(
                rng.randint(0, 2), rng.choice(_TORSIONS[3:]))])
    model = HomologyTable("random", ZZ, window, groups)
    shift = rng.randint(-4, 4)
    cells = {}
    for deg, g in groups.items():
        if rng.random() < 0.85:
            cells[deg.t, deg.q + shift - 2 * deg.t] = (
                g.free_rank, tuple((f, 1) for f in g.torsion))
    for _ in range(rng.randint(0, 6)):
        t = rng.randint(window.tmin - 2, window.tmax + 2)
        q = rng.randint(window.qmin - 3, window.qmax + 3) + shift
        tor = rng.choice(_TORSIONS)
        cells[t, q - 2 * t] = rng.choice([
            (0, ()), (0, ()), (rng.randint(0, 3), tuple((f, 1) for f in tor)),
            (1, tuple((f, rng.randint(1, 2)) for f in tor))])
    return model, ExternalTable(ring=ZZ, cells=cells), shift


def _outcome(model, ext, shift, primes, fn):
    try:
        return fn(model, ext, shift=shift, torsion_primes=primes)
    except ValueError as exc:
        return str(exc)


def test_compare_matches_the_per_cell_reference():
    """On 600 seeded random model/data pairs, under the auto, int and text
    shifts and with and without a torsion filter, compare returns the very
    DiffReport of the per-cell loop, or raises the same error."""
    rng = random.Random(20141)
    outcomes = set()
    for _ in range(600):
        model, ext, shift = _random_pair(rng)
        for how in ("auto", shift, str(rng.randint(-4, 4))):
            primes = rng.choice([None, {2}, {3, 5}, [5]])
            want = _outcome(model, ext, how, primes, _compare_per_cell)
            assert _outcome(model, ext, how, primes, compare) == want
            outcomes.add(type(want).__name__ + str(
                getattr(want, "agree", "")))
    # every kind of outcome occurred: agreement, mismatches, refusal
    assert outcomes == {"DiffReportTrue", "DiffReportFalse", "str"}
