"""Homology engine: bases, matrices, Smith normal form, tables."""

import gc
import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from math import gcd, prod
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from koszulknots import homology
from koszulknots.algebra import Degree, Monomial, QQ, SuperPolynomial, \
    T_STEP, ZZ, exponent_rows, grading_functional, mono_degree, prime_field
from koszulknots.homology import (HomologyGroup, HomologyTable,
                                  IntegerMatrix,
                                  NonProperGradingError, Window, basis_at,
                                  d_matrix, euler_characteristic_check,
                                  homology_at, homology_table, rank_exact,
                                  rank_mod_p, smith_normal_form,
                                  TableFormatError, window_bases)
from koszulknots.presentations import (HOMFLY, PROJECTOR_SHAPES,
                                       Presentation, apply_d,
                                       projector_presentation,
                                       reduced_presentation,
                                       stable_presentation)


# ---------------------------------------------------------------------------
# matrices and Smith normal form

def dense(mat):
    return [[mat.entries.get((r, c), 0) for c in range(mat.cols)]
            for r in range(mat.rows)]


def det(rows):
    """Integer determinant by fraction-free Gaussian elimination (1 for the
    empty matrix)."""
    n = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def int_matrices(size, values=st.one_of(st.sampled_from([-1, 0, 1]),
                                        st.integers(-9, 9))):
    """Integer matrices up to size x size, entries biased toward 0 and +-1
    by default (so unit pivots and stored zeros are common)."""
    return st.builds(
        lambda rows, cols, vals: IntegerMatrix(rows, cols, dict(
            zip(itertools.product(range(rows), range(cols)), vals))),
        st.integers(1, size), st.integers(1, size),
        st.lists(values, min_size=size * size, max_size=size * size),
    )


matrices = int_matrices(5)


def dense_rank(mat, p=None):
    """Rank by dense Gaussian elimination over Q (Fractions) or F_p."""
    a = [[Fraction(v) if p is None else v % p for v in row]
         for row in dense(mat)]
    rank = 0
    for c in range(mat.cols):
        piv = next((r for r in range(rank, mat.rows) if a[r][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][c] if p is None else pow(a[rank][c], -1, p)
        for r in range(rank + 1, mat.rows):
            f = a[r][c] * inv
            a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
            if p is not None:
                a[r] = [x % p for x in a[r]]
        rank += 1
    return rank


def minors(mat, k):
    """Every k x k minor of mat, rows and columns in lexicographic order."""
    a = dense(mat)
    for rs in itertools.combinations(range(mat.rows), k):
        for cs in itertools.combinations(range(mat.cols), k):
            yield det([[a[r][c] for c in cs] for r in rs])


def check_smith_factors(mat):
    """The factors are positive, each divides the next, and d_1...d_k is the
    gcd of all k x k minors for every k up to min(rows, cols), which is 0
    past the rank: the factors are the determinantal divisors' quotients.
    Returns the factors."""
    factors = smith_normal_form(mat)[0]
    assert all(f > 0 for f in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    products = list(itertools.accumulate(factors, mul))
    for k in range(1, min(mat.rows, mat.cols) + 1):
        want = products[k - 1] if k <= len(products) else 0
        assert gcd(*minors(mat, k)) == want, k
    return factors


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_snf_factorization(mat):
    """The factors are the determinantal divisors' quotients, in a
    divisibility chain."""
    check_smith_factors(mat)


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_rank_consistency(mat):
    r = rank_exact(mat)
    nonzero = [f for f in smith_normal_form(mat)[0] if f]
    assert len(nonzero) == r
    for p in (2, 3, 5):
        assert rank_mod_p(mat, p) <= r


@settings(max_examples=300, deadline=None)
@given(int_matrices(7))
def test_ranks_match_dense_elimination(mat):
    assert rank_exact(mat) == dense_rank(mat)
    for p in (2, 3, 5):
        assert rank_mod_p(mat, p) == dense_rank(mat, p)


@settings(max_examples=200, deadline=None)
@given(int_matrices(12, st.sampled_from([0, 2, -2, 3, -3, 6, 9])))
def test_rank_over_q_without_unit_entries(mat):
    """No entry is a unit over Z, and every nonzero entry is a pivot over
    Q: the fraction-free row echelon form leaves nothing over."""
    pivots = homology._echelon(mat)
    assert len(pivots) == rank_exact(mat) == dense_rank(mat)
    # each pivot row leads at its own column, and every row of mat
    # reduces to zero against the pivot rows
    assert all(min(row) == c for c, row in pivots.items())
    for r in range(mat.rows):
        rest = {c: Fraction(v) for (rr, c), v in mat.entries.items()
                if rr == r and v}
        for c in sorted(pivots):
            if c in rest:
                k = rest[c] / pivots[c][c]
                for cc, v in pivots[c].items():
                    rest[cc] = rest.get(cc, 0) - k * v
                rest = {cc: v for cc, v in rest.items() if v}
        assert rest == {}


def _outgoing_maps(pres, window):
    """(q, t, src, dst, d_matrix) for every outgoing map of the window that
    homology_table takes: a = 0, q in the window, tmin <= t <= tmax + 1 and
    a basis on both sides, built directly over the quotient bases."""
    bases = window_bases(pres, window, reduced=True)
    maps = []
    for deg, src in bases.items():
        q, t, a = deg
        dst = bases.get(Degree(q, t - 1))
        if (not a and window.qmin <= q <= window.qmax
                and window.tmin <= t <= window.tmax + 1 and dst is not None):
            maps.append((q, t, src, dst, d_matrix(pres, deg, src, dst)))
    return maps


def _table_matrices(pres, window):
    return [mat for *_, mat in _outgoing_maps(pres, window)]


def test_field_ranks_match_smith_factors_on_table_matrices():
    """On the matrices of the hook_Q and T(5,9) tables, the row echelon
    rank over Q is the number of Smith factors over Z, and the rank mod p
    the number of Smith factors that p does not divide."""
    mats = _table_matrices(projector_presentation("[12,3]", 3),
                           Window(-60, 60, -12, 12))
    assert len(mats) == 752
    t59 = _table_matrices(stable_presentation(5, 3), Window(0, 72, 0, 26))
    assert len(t59) == 176
    mats += t59
    for mat in mats:
        factors = smith_normal_form(mat)[0]
        assert rank_exact(mat) == len(factors)
        for p in (2, 3, 5):
            assert rank_mod_p(mat, p) == sum(1 for f in factors if f % p)


def test_rank_over_q_never_runs_the_smith_loop(monkeypatch):
    """rank_exact, and with it every table over Q, runs the elimination
    kernel alone; the general Smith loop serves the Smith form over Z."""
    def refuse(*args, **kw):
        raise AssertionError("rank over Q entered smith_normal_form")

    monkeypatch.setattr(homology, "smith_normal_form", refuse)
    # a +-3 and 9 block like those the hook_Q matrices leave over Z
    mat = IntegerMatrix(4, 2, {(0, 0): 3, (0, 1): -3, (1, 0): 9,
                               (2, 1): 3, (3, 0): -3, (3, 1): 9})
    assert rank_exact(mat) == 2
    with pytest.raises(AssertionError, match="entered smith_normal_form"):
        homology.smith_normal_form(mat)
    table = homology_table(projector_presentation("[12,3]", 3), QQ,
                           Window(-20, 20, -6, 6))
    assert table.groups


def test_dense_rank_without_unit_entries_is_fast():
    """A dense 60 x 60 matrix with no unit entry: 50 random rows from
    {0, +-2, +-3, 6, 9} and 10 sums 2 (r_a + r_b), so its rank is 50.  Unit
    elimination finds nothing to do on it, and the general Smith loop
    takes over a minute; over Q every entry is a pivot, and the primitive
    rows keep the fraction-free entries small."""
    rng = random.Random(14)
    rows = [[rng.choice([0, 2, -2, 3, -3, 6, 9]) for _ in range(60)]
            for _ in range(50)]
    for _ in range(10):
        a, b = rng.sample(rows[:50], 2)
        rows.append([2 * (x + y) for x, y in zip(a, b)])
    rng.shuffle(rows)
    mat = IntegerMatrix(60, 60, {(r, c): v for r, row in enumerate(rows)
                                 for c, v in enumerate(row) if v})
    start = time.perf_counter()
    assert rank_exact(mat) == 50
    assert time.perf_counter() - start < 5
    # rank mod p <= rank over Q <= 50 by construction
    assert rank_mod_p(mat, 2 ** 31 - 1) == 50


def stalling_smith_input():
    """The map q^48 t^32 -> q^48 t^31 of the reduced stable(8, 3) complex:
    231 x 227, entries +-1, +-3 and +-6, invariant factors up to 126."""
    pres = stable_presentation(8, 3)
    bases = window_bases(pres, Window(48, 48, 31, 32), reduced=True)
    src, dst = bases[Degree(48, 32)], bases[Degree(48, 31)]
    return d_matrix(pres, src.degree, src, dst)


def test_stalling_smith_input_is_pinned():
    """Shape, entries, ranks and Smith form of the stalling input: its
    cokernel has 2-, 3- and 7-torsion and none at 5, 11 or 13, and for
    each p the number of factors p divides is the rank over Q less the
    rank over F_p."""
    mat = stalling_smith_input()
    values = list(mat.entries.values())
    assert (mat.rows, mat.cols, len(values)) == (231, 227, 986)
    assert sum(v in (1, -1) for v in values) == 84
    assert set(values) == {1, -1, 3, -3, 6, -6}
    assert rank_exact(mat) == 140
    ranks = [rank_mod_p(mat, p) for p in (2, 3, 5, 7, 11, 13)]
    assert ranks == [133, 77, 140, 137, 140, 140]
    factors = smith_normal_form(mat)[0]
    assert sorted(Counter(factors).items()) \
        == [(1, 77), (3, 56), (6, 4), (42, 2), (126, 1)]
    for p, rank_p in zip((2, 3, 5, 7, 11, 13), ranks):
        assert sum(f % p == 0 for f in factors) == 140 - rank_p


SMITH_EXAMPLES = (
    ([[2, 4], [4, 2]], [2, 6]),
    # the unit pivot 1 leaves -1 at (1, 1) by a row operation
    ([[1, 2], [3, 5]], [1, 1]),
    # no unit at first: the remainder 1 of 3 by 2 becomes the pivot
    ([[2, 4], [3, 5]], [1, 2]),
    # the diagonal 2, 3 is no chain: gcd and lcm make it 1, 6
    ([[2, 0], [0, 3]], [1, 6]),
    # sorted, diag(6, 4, 9) is 4, 6, 9; only gcd and lcm give 1, 6, 36
    ([[6, 0, 0], [0, 4, 0], [0, 0, 9]], [1, 6, 36]),
    ([[0, 0, 0], [0, 0, 0]], []),
)


def test_snf_known_example():
    for rows, factors in SMITH_EXAMPLES:
        mat = IntegerMatrix(len(rows), len(rows[0]), {
            (r, c): v for r, row in enumerate(rows)
            for c, v in enumerate(row)})
        assert smith_normal_form(mat) == (factors, None, None)
        assert check_smith_factors(mat) == factors


def test_snf_certificate_on_table_matrices():
    """The factors of every matrix of a small table over Z, all 1 or 3,
    fixed exactly by two checks.  For each p, the number of factors p
    divides is the rank over Q less the rank over F_p.  And the gcd of the
    r x r minors, r the rank, taken until it reaches the product 3^m of the
    factors, is 3^m.  That gcd is a multiple of the true d_1...d_r, which
    has m factors divisible by 3 (the rank counts), so it is 3^m too."""
    mats = _table_matrices(stable_presentation(4, 3), Window(0, 40, 0, 14))
    assert len(mats) == 57
    found = set()
    for mat in mats:
        factors = smith_normal_form(mat)[0]
        rank = rank_exact(mat)
        assert len(factors) == rank
        for p in (2, 3, 5, 7):
            assert sum(f % p == 0 for f in factors) \
                == rank - rank_mod_p(mat, p)
        g, want = 0, prod(factors)
        for minor in minors(mat, rank):
            if (g := gcd(g, minor)) == want:
                break
        assert g == want
        found.update(factors)
    assert found == {1, 3}  # the table's Z/3 classes


def test_homology_group_rejects_broken_divisibility_chain():
    # single factors leave the chain check nothing to pair
    for torsion in ((3, 2), (1, 2), (0, 3), (1,), (0,), (2, 3)):
        with pytest.raises(ValueError):
            HomologyGroup(0, torsion)
    with pytest.raises(ValueError, match="negative free rank"):
        HomologyGroup(-1)
    assert str(HomologyGroup(1, (2, 6))) == "Z + Z/2 + Z/6"
    # the checks are exceptions, so they survive python -O
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = ("from koszulknots.homology import HomologyGroup\n"
            "for args in ((0, (3, 2)), (-1,), (0, (1,)), (0, (0,)),\n"
            "             (0, (2, 3))):\n"
            "    try:\n        HomologyGroup(*args)\n"
            "    except ValueError:\n        continue\n"
            "    raise SystemExit(1)\n")
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          timeout=60)
    assert done.returncode == 0


# ---------------------------------------------------------------------------
# graded bases

def test_basis_oracle_stable22():
    """Brute-force monomial count at a degree vs basis_at."""
    pres = stable_presentation(2, 2)
    deg = Degree(12, 6)
    brute = 0
    for e0 in range(7):
        for e1 in range(7):
            for odd in [(), (0,), (1,), (0, 1)]:
                m = Monomial((e0, e1), odd)
                if mono_degree(m, pres) == deg:
                    brute += 1
    assert len(basis_at(pres, deg).monomials) == brute


def _degenerate():
    """u and v have opposite degrees: no positive functional exists."""
    return Presentation(
        "degenerate", ("u", "v"), (Degree(2, 0), Degree(-2, 0)),
        ("e",), (Degree(0, 1),),
        [SuperPolynomial.zero(2)])


def _edges(window):
    """Degrees on the edges of a window's enumeration box, where a wrong
    prune would drop monomials first."""
    return [Degree(q, t) for t in range(window.tmin - 1, window.tmax + 2)
            for q in range(window.qmin, window.qmax + 1)
            if t in (window.tmin - 1, window.tmax + 1)
            or q in (window.qmin, window.qmax)]


def _box(window, a_degrees=(0,)):
    return [Degree(q, t, a) for a in a_degrees
            for t in range(window.tmin - 1, window.tmax + 2)
            for q in range(window.qmin, window.qmax + 1)]


def test_window_bases_match_per_degree():
    hook_window = Window(-60, 60, -12, 12)  # the hook_Q benchmark window
    cases = [
        (projector_presentation("[12,3]", 2), Window(-12, 12, -4, 4),
         _box(Window(-12, 12, -4, 4))),
        (projector_presentation("[12,3]", 3), hook_window,
         _edges(hook_window)),
        # HOMFLY: odd generators carry a = 2, so pieces at a != 0 exist
        (projector_presentation("[123]", "homfly"), Window(-16, 16, -3, 3),
         _box(Window(-16, 16, -3, 3), (0, 2, 4, 6))),
    ]
    key = lambda m: (m.even, m.odd)
    for pres, window, degrees in cases:
        bases = window_bases(pres, window)
        assert all(window.qmin <= d.q <= window.qmax
                   and window.tmin - 1 <= d.t <= window.tmax + 1
                   and b.monomials for d, b in bases.items())
        for deg in degrees:
            got = bases.get(deg)
            want = basis_at(pres, deg)
            assert sorted((got.monomials if got else []), key=key) \
                == sorted(want.monomials, key=key), (pres.name, deg)


def _capped_off_first():
    """Even u, v, w of the hook degrees (4, 2), (2, 0), (-6, -4) and
    d(e0) = v^3, a unit power on v, which is neither the first generator
    nor the steepest: the walk visits v, w, u, so the cap below 3 must
    follow v to its place in that order.  d(e1) = u w stays."""
    return Presentation(
        "capped-off-first", ("u", "v", "w"),
        (Degree(4, 2), Degree(2, 0), Degree(-6, -4)), ("e0", "e1"),
        (Degree(6, 1), Degree(-2, -1)),
        [SuperPolynomial(3, {Monomial((0, 3, 0)): 1}),
         SuperPolynomial(3, {Monomial((1, 0, 1)): 1})])


BRUTE_FORCE_CASES = [
    (projector_presentation("[12,3]", "homfly"), Window(-16, 16, -3, 3),
     (3, -5, 0)),
    (projector_presentation("[13,2]", 3, "displayed"), Window(-16, 16, -3, 3),
     (2, -5, 0)),
    (stable_presentation(4, 3), Window(0, 24, 0, 8), (1, -1, 0)),
    (projector_presentation("[12,3]", 3), Window(-16, 16, -3, 3),
     (3, -5, 0)),
    (stable_presentation(5, 3), Window(0, 12, 0, 4), (1, -1, 0)),
    (_capped_off_first(), Window(-12, 12, -3, 3), (3, -5, 0)),
]


@pytest.mark.parametrize("pres,window,lam,reduced", [
    pytest.param(*case, reduced,
                 id=f"{case[0].name}--" + ("reduced" if reduced else ""))
    for case in BRUTE_FORCE_CASES for reduced in (False, True)
    # with no unit image to divide out, the reduced walk is the whole one
    if not reduced or homology._unit_images(case[0])])
def test_window_bases_match_brute_force(pres, window, lam, reduced):
    """The pruned walk against every monomial within its budget, listed
    without any pruning: each even exponent k at most B // (lam . deg_k),
    B the largest budget of an odd part (top, the largest lam . corner of
    the box, minus the odd part's lam . degree).  The reduced walk lists
    no odd generator of _unit_images and caps x_k below e for its x_k^e."""
    dot = lambda d: lam[0] * d.q + lam[1] * d.t + lam[2] * d.a
    assert grading_functional(tuple((d.q, d.t, d.a)
                                    for d in pres.even_degrees))[0] == lam
    units = homology._unit_images(pres) if reduced else {}
    caps = {f.index(sum(f)): sum(f) for f in units.values()}
    if pres.name == "capped-off-first":
        assert caps == ({1: 3} if reduced else {})
    top = max(dot(Degree(q, t)) for q in (window.qmin, window.qmax)
              for t in (window.tmin - 1, window.tmax + 1))
    budget = top - sum(min(0, dot(d)) for d in pres.odd_degrees)
    free = [j for j in range(pres.n_odd) if j not in units]
    odd_parts = [(odd, sum((pres.odd_degrees[j] for j in odd), Degree(0, 0)))
                 for size in range(len(free) + 1)
                 for odd in itertools.combinations(free, size)]
    want = {}
    for even in itertools.product(*(
            range(min(budget // dot(d), caps.get(k, budget) - 1) + 1)
            for k, d in enumerate(pres.even_degrees))):
        base = sum((d.scale(e) for e, d in zip(even, pres.even_degrees)),
                   Degree(0, 0))
        for odd, part in odd_parts:
            deg = base + part
            if (dot(deg) <= top
                    and window.qmin <= deg.q <= window.qmax
                    and window.tmin - 1 <= deg.t <= window.tmax + 1):
                m = Monomial(even, odd)
                assert mono_degree(m, pres) == deg
                want.setdefault(deg, []).append(m)
    got = window_bases(pres, window, reduced=reduced)
    assert {d: b.monomials for d, b in got.items()} \
        == {d: sorted(ms, key=lambda m: (m.even, m.odd))
            for d, ms in want.items()}


def test_hook_window_stays_in_exponent_pairs(monkeypatch):
    """The hook_Q table (the benchmark's [12,3], N = 3 window) enumerates
    and assembles on sorted exponent pairs and builds no Monomial.  It
    walks the quotient by d(xi0) = x0^3, so x0 stays below 3 and xi0 is
    absent: 4,494 pairs where the whole complex has 45,169."""
    pres = projector_presentation("[12,3]", 3)
    window = Window(-60, 60, -12, 12)
    built, bases, nnz = [0], [], []
    real_new = Monomial.__new__

    def new(cls, *args, **kw):
        built[0] += 1
        return real_new(cls, *args, **kw)

    def bases_of(*args, **kw):
        bases.append(window_bases(*args, **kw))
        return bases[-1]

    def matrix_of(*args, **kw):
        mat = d_matrix(*args, **kw)
        nnz.append(len(mat.entries))
        return mat

    monkeypatch.setattr(Monomial, "__new__", new)
    monkeypatch.setattr(homology, "window_bases", bases_of)
    monkeypatch.setattr(homology, "d_matrix", matrix_of)
    homology_table(pres, QQ, window)
    assert built == [0]
    [found] = bases
    assert sum(len(b.exps) for b in found.values()) == 4494
    # 782 maps leave the window's nonempty degrees and their neighbours one
    # t-step up; the 30 with no basis on one side are never built, and the
    # other 752 fall into 19 translation classes, one matrix each
    assert len(nnz) == 19
    assert sum(nnz) == 43
    assert all(e[0] < 3 and 0 not in o
               for b in found.values() for e, o in b.exps)
    assert all(a < b for basis in found.values()
               for a, b in zip(basis.exps, basis.exps[1:]))
    # monomials wraps the same pairs in checked Monomials, in the same order
    basis = found[Degree(0, 0)]
    assert [(m.even, m.odd) for m in basis.monomials] == basis.exps
    assert built == [len(basis.exps)]
    # the public window_bases still returns the whole algebra's bases
    whole = window_bases(pres, window)
    assert sum(len(b.exps) for b in whole.values()) == 45169


def _index_order_walk(pres, window, layout):
    """The reduced walk of window_bases with the even generators visited in
    index order, by recursion: Degree -> sorted keys packed in layout.  It
    calls homology.exponent_range once per node."""
    odds, place, _images = layout
    ev = [(d.q, d.t, d.a) for d in pres.even_degrees]
    lam = grading_functional(tuple(ev))[0]
    dot = lambda d: sum(x * y for x, y in zip(lam, d))
    ws = [dot(g) for g in ev]
    box = [(q, t) for q in (window.qmin, window.qmax)
           for t in (window.tmin - 1, window.tmax + 1)]
    top = max(dot((q, t, 0)) for q, t in box)
    caps = {f.index(sum(f)): sum(f) - 1
            for f in homology._unit_images(pres).values()}
    rows = list(exponent_rows(ev, ws, box))
    found = defaultdict(list)

    def walk(i, at, key, budget):
        lo, hi = homology.exponent_range(rows[i], at[0], at[1], budget, ws[i])
        for e in range(lo, min(hi, caps.get(i, hi)) + 1):
            deg = tuple(x + e * dx for x, dx in zip(at, ev[i]))
            if i == len(ev) - 1:
                found[Degree(*deg)].append(key + e * place[i + 1])
            else:
                walk(i + 1, deg, key + e * place[i + 1], budget - e * ws[i])

    for code, odd in enumerate(odds):
        at = tuple(sum(pres.odd_degrees[j][x] for j in odd) for x in range(3))
        if (budget := top - dot(at)) >= 0:
            walk(0, at, code, budget)
    return {deg: sorted(keys) for deg, keys in found.items()}


@pytest.mark.parametrize("pres,window,nodes,index_nodes", [
    (projector_presentation("[12,3]", 3), Window(-60, 60, -12, 12), 520, 919),
    (stable_presentation(6, 3), Window(0, 90, 0, 30), 3194, 12734),
], ids=["hook_Q", "stable63"])
def test_walk_visits_steep_generators_first(monkeypatch, pres, window, nodes,
                                            index_nodes):
    """The reduced walk fixes the capped x0 first, then the generators of
    largest |t|: hook_Q's walk has 520 nodes and stable(6,3)'s 3,194, where
    index order has 919 and 12,734.  The keys at every degree are the same
    either way."""
    calls = [0]
    real = homology.exponent_range

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(homology, "exponent_range", counted)
    bases = window_bases(pres, window, reduced=True)
    assert calls == [nodes]
    calls[0] = 0
    layout = next(iter(bases.values())).layout
    in_index_order = _index_order_walk(pres, window, layout)
    assert calls == [index_nodes]
    assert {deg: b.keys for deg, b in bases.items()} == in_index_order


def test_walk_leaves_no_cyclic_garbage():
    """The walk keeps its nodes on a list, not in a closure that refers to
    itself, so one hook_Q walk leaves nothing to the cycle collector."""
    pres = projector_presentation("[12,3]", 3)
    gc.collect()
    gc.disable()
    try:
        window_bases(pres, Window(-60, 60, -12, 12), reduced=True)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_non_proper_grading_detected():
    with pytest.raises(NonProperGradingError,
                       match=r"witness: u\*v\)$") as err:
        basis_at(_degenerate(), Degree(0, 0))
    # no option makes such a presentation computable
    assert "bound" not in str(err.value)


def _even_only(name, *degrees):
    symbols = ("x", "y", "z")[:len(degrees)]
    return Presentation(name, symbols, degrees, (), (), ())


def test_window_bases_even_a_degrees():
    # lam = (-1, 1, 2): x^k z^k has degree (0, 0, k) for every k, so the
    # box holds infinitely many nonempty a-degrees; each one returned must
    # equal basis_at, and no nonempty a = 0 degree may be missing
    pres = _even_only("even-a", Degree(1, 0, 1), Degree(0, 1, 0),
                      Degree(-1, 0, 0))
    window = Window(-3, 3, 0, 2)
    bases = window_bases(pres, window)
    assert len(bases) == 60 and {d.a for d in bases} == {0, 1, 2, 3, 4}
    for deg, basis in bases.items():
        assert basis.monomials == basis_at(pres, deg).monomials, deg
    for deg in _box(window):
        assert (deg in bases) == bool(basis_at(pres, deg).monomials), deg


def test_steep_grading_is_proper():
    # lam = (141, 2) is the least functional positive on both degrees
    steep = _even_only("steep", Degree(1, -70), Degree(-1, 71))
    assert basis_at(steep, Degree(0, 1)).monomials == [Monomial((1, 1))]


@pytest.mark.parametrize("degrees,witness", [
    ((Degree(1, 0), Degree(-9, 0)), "x^9*y"),
    ((Degree(0, 0), Degree(1, 0)), "x"),
    ((Degree(2, 1, 1), Degree(-1, 0, -1), Degree(0, -1, 1)), "x*y^2*z"),
])
def test_non_proper_grading_names_exact_witness(degrees, witness):
    pres = _even_only("flat", *degrees)
    with pytest.raises(NonProperGradingError) as err:
        basis_at(pres, Degree(0, 1))
    assert f"witness: {witness})" in str(err.value)


def test_grading_functional_of_benchmark_presentations():
    # the lam-budget of _search, and with it the enumeration cost of the
    # hook_Q and t59 benchmark tables, is fixed by these functionals
    ev = lambda pres: tuple((d.q, d.t, d.a) for d in pres.even_degrees)
    assert grading_functional(ev(projector_presentation("[12,3]", 3))) \
        == ((3, -5, 0), None)
    assert grading_functional(ev(stable_presentation(5, 3))) \
        == ((1, -1, 0), None)


def _d_matrix_cases():
    cases = [(projector_presentation(shape, N), False, Window(-16, 16, -4, 4))
             for shape in PROJECTOR_SHAPES for N in (2, 3)]
    cases += [(projector_presentation(shape, 0), False, Window(-16, 16, -4, 4))
              for shape in ("[123]", "[1,2,3]", "[12,3]", "[13,2]")]
    # the displayed xi0 image x0^(N-1) is not of xi0's degree
    cases.append((projector_presentation("[13,2]", 3, "displayed"), True,
                  Window(-16, 16, -4, 4)))
    cases.append((stable_presentation(4, 3), False, Window(0, 30, 0, 10)))
    return cases


@pytest.mark.parametrize("pres,inhomogeneous,window", _d_matrix_cases(),
                         ids=lambda v: getattr(v, "name", ""))
def test_d_matrix_matches_apply_d(pres, inhomogeneous, window):
    """Every column of the compiled differential against apply_d."""
    truncated = off_degree = 0
    for deg in window.degrees():
        mat = d_matrix(pres, deg)
        src = basis_at(pres, deg).monomials
        dst = basis_at(pres, deg - T_STEP).monomials
        assert (mat.rows, mat.cols) == (len(dst), len(src))
        row = {m: r for r, m in enumerate(dst)}
        want = {}
        for col, m in enumerate(src):
            image = apply_d(pres, SuperPolynomial.from_monomial(m))
            for target, v in image.terms.items():
                if target in row:
                    want[(row[target], col)] = v
                elif mono_degree(target, pres) == deg - T_STEP:
                    truncated += 1
                else:
                    off_degree += 1
        assert mat.entries == want, (pres.name, deg)
    # the bases are whole: every target of the right degree has a row
    assert not truncated
    assert bool(off_degree) == inhomogeneous


def _apply_d_entries(pres, src, dst):
    """(row, col) -> entry of apply_d on the src monomials, on dst's rows."""
    row = {m: r for r, m in enumerate(dst)}
    return {(row[target], col): v for col, m in enumerate(src)
            for target, v in apply_d(
                pres, SuperPolynomial.from_monomial(m)).terms.items()
            if target in row}


def _high_image():
    """d(xi) = x^7 for u, x of degrees (2, 1), (1, 0): the image is not of
    xi's degree, and its exponent 7 lies above every exponent walked for
    q <= 6.  In d_matrix's walk at (6, 2) a radix of the walked exponents
    alone (6) would carry x^3 xi -> x^10 into u x^4, a row at (6, 1)."""
    return Presentation("high-image", ("u", "x"), (Degree(2, 1), Degree(1, 0)),
                        ("xi",), (Degree(3, 2),),
                        [SuperPolynomial(2, {Monomial((0, 7)): 1})])


@pytest.mark.parametrize("pres,window", [
    (_high_image(), Window(0, 6, 0, 3)),
    (projector_presentation("[13,2]", 3, "displayed"), Window(-8, 8, -2, 3)),
], ids=lambda v: getattr(v, "name", ""))
def test_d_matrix_image_exponent_above_the_walk(pres, window):
    """A key plus a packed image exponent never carries into a basis key,
    for the default bases and for one window's."""
    bases = window_bases(pres, window)
    if pres.name == "high-image":
        assert pres.homogeneity_violations and max(
            e for b in bases.values() for even, _odd in b.exps
            for e in even) == 6
    for deg in window.degrees():
        src, dst = basis_at(pres, deg), basis_at(pres, deg - T_STEP)
        want = _apply_d_entries(pres, src.monomials, dst.monomials)
        assert d_matrix(pres, deg).entries == want, deg
        if deg in bases and deg - T_STEP in bases:
            assert d_matrix(pres, deg, bases[deg],
                            bases[deg - T_STEP]).entries == want, deg


@pytest.mark.parametrize("case", [0, -1])
def test_default_bases_match_one_window_walk(case):
    """d_matrix's default bases come from one walk over deg and the degree
    below; the same matrix comes from the bases of one window_bases."""
    pres, _inhomogeneous, window = _d_matrix_cases()[case]
    bases = window_bases(pres, window)
    basis = lambda deg: bases.get(deg) or homology.GradedBasis(deg, [])
    for deg in window.degrees():
        got = d_matrix(pres, deg, basis(deg), basis(deg - T_STEP))
        want = d_matrix(pres, deg)
        assert (got.rows, got.cols, got.entries) \
            == (want.rows, want.cols, want.entries), deg
        # sorted keys are the sorted exponent pairs
        exps = basis(deg).exps
        assert exps == basis_at(pres, deg).exps
        assert all(a < b for a, b in zip(exps, exps[1:]))


def test_d_matrix_rejects_keys_of_two_walks():
    pres, deg = stable_presentation(4, 3), Degree(6, 1)
    src, dst = basis_at(pres, deg), basis_at(pres, deg - T_STEP)
    assert src.keys and dst.keys and src.layout != dst.layout
    with pytest.raises(ValueError, match="different walks"):
        d_matrix(pres, deg, src, dst)
    # an empty side has no keys to compare
    empty = homology.GradedBasis(deg - T_STEP, [])
    assert d_matrix(pres, deg, src, empty).entries == {}


def test_d_matrix_takes_both_bases_or_neither():
    pres, deg = stable_presentation(4, 3), Degree(10, 3)
    bases = window_bases(pres, Window(0, 12, 0, 4))
    src, dst = bases[deg], bases[deg - T_STEP]
    for one in ({"src": src}, {"dst": dst}):
        with pytest.raises(ValueError, match="both bases or neither"):
            d_matrix(pres, deg, **one)
    got, want = d_matrix(pres, deg), d_matrix(pres, deg, src, dst)
    assert want.entries
    assert (got.rows, got.cols, got.entries) \
        == (want.rows, want.cols, want.entries)


def test_odd_codes_follow_tuple_order():
    """The odd code of S is its rank among the walk's odd parts in tuple
    order, so (1, 2) sorts between (1,) and (2,), and keys decode to the
    pairs they were packed from."""
    pres, window = stable_presentation(4, 3), Window(0, 16, 0, 5)
    for reduced, free in ((False, range(4)), (True, range(1, 4))):
        bases = window_bases(pres, window, reduced)
        layout = next(iter(bases.values())).layout
        assert all(b.layout is layout for b in bases.values())
        assert layout[0] == sorted(S for k in range(len(free) + 1)
                                   for S in itertools.combinations(free, k))
        for basis in bases.values():
            assert [(m.even, m.odd) for m in basis.monomials] == basis.exps
            assert basis.exps == sorted(basis.exps)


def test_d_matrix_squares_to_zero():
    pres = stable_presentation(3, 2)
    for t in range(2, 10):
        for q in range(0, 24, 2):
            deg = Degree(q, t)
            down = Degree(q, t - 1)
            m1 = d_matrix(pres, deg)
            m2 = d_matrix(pres, down)
            prod = {}
            for (r, k), v in m2.entries.items():
                for (kk, c), w in m1.entries.items():
                    if k == kk:
                        prod[(r, c)] = prod.get((r, c), 0) + v * w
            assert all(v == 0 for v in prod.values())


# ---------------------------------------------------------------------------
# homology tables

def test_unknot_dimensions():
    for N in range(2, 7):
        pres = stable_presentation(1, N)
        table = homology_table(pres, QQ, Window(0, 2 * N + 2, 0, 3))
        cells = {(d.q, d.t): g.free_rank for d, g in table.groups.items()
                 if g.free_rank}
        assert cells == {(2 * j, 0): 1 for j in range(N)}


def test_stable22_hand_column():
    """H(stable(2,2)) at q=6: classes x_0^3, x_0 x_1 die/survive per d."""
    pres = stable_presentation(2, 2)
    table = homology_table(pres, QQ, Window(0, 12, 0, 6))
    # against the closed form (1 - q^4 - q^6 t^2 + q^8 t^2 + q^8 t^3
    #   - q^{10} t^3) / ((1-q^2)(1-q^4 t^2)) -- low cells by hand:
    assert table.rank_at(Degree(0, 0)) == 1
    assert table.rank_at(Degree(2, 0)) == 1
    assert table.rank_at(Degree(4, 0)) == 0
    assert table.rank_at(Degree(8, 3)) == 1
    assert table.rank_at(Degree(10, 4)) == 0


def test_universal_coefficients():
    """dim H_t(F_p) = rank_t + #p-torsion attributed at t and at t + 1."""
    window = Window(0, 30, 0, 14)
    for (n, N) in [(3, 2), (4, 2), (4, 3)]:
        pres = stable_presentation(n, N)
        integral = homology_table(pres, ZZ, window)
        for p in (2, 3, 5, 7):
            modp = homology_table(pres, prime_field(p), window)

            def p_tors(deg):
                g = integral.groups.get(deg)
                return sum(1 for f in g.torsion if f % p == 0) if g else 0

            for t in range(0, 13):
                for q in range(0, 29):
                    deg = Degree(q, t)
                    g = integral.groups.get(deg)
                    free = g.free_rank if g else 0
                    want = free + p_tors(deg) + p_tors(Degree(q, t + 1))
                    assert modp.rank_at(deg) == want, (n, N, p, q, t)


def test_euler_characteristic_full_columns():
    pres = stable_presentation(3, 2)
    for q in range(0, 18, 2):
        # t-range covering every chain group in the column
        assert euler_characteristic_check(pres, QQ, Window(q, q, 0, 3 * q), q)


def test_homology_at_matches_table():
    """Every degree of the window, zero cells included."""
    cases = [
        (stable_presentation(2, 3), ZZ, Window(0, 16, 0, 6)),
        (stable_presentation(3, 2), QQ, Window(0, 18, 0, 8)),
        (stable_presentation(3, 2), prime_field(3), Window(0, 18, 0, 8)),
        # with the inhomogeneous xi0 image
        (projector_presentation("[13,2]", 3, "displayed"), ZZ,
         Window(-12, 12, -3, 3)),
    ]
    for pres, ring, window in cases:
        table = homology_table(pres, ring, window)
        for deg in window.degrees():
            single = homology_at(pres, deg, ring)
            g = table.groups.get(deg, HomologyGroup(0))
            assert (single.free_rank, single.torsion) \
                == (g.free_rank, g.torsion), (pres.name, ring, deg)
        with pytest.raises(ValueError, match="a = 0"):
            homology_at(pres, Degree(0, 0, 1), ring)


F2, F3 = prime_field(2), prime_field(3)
RINGS = (ZZ, QQ, F2, F3)


def _full_complex_tables(pres, window):
    """ring -> serialize() of the table of the whole Koszul complex, from
    the public bases, d_matrix and Smith form or rank mod p: the reference
    for homology_table, which computes on a quotient complex."""
    bases = window_bases(pres, window)
    basis = lambda deg: bases.get(deg) or homology.GradedBasis(deg, [])
    mats = {}
    for t in range(window.tmin, window.tmax + 2):
        for q in range(window.qmin, window.qmax + 1):
            deg = Degree(q, t)
            mats[deg] = d_matrix(pres, deg, src=basis(deg),
                                 dst=basis(deg - T_STEP))
    factors = {deg: smith_normal_form(m)[0] for deg, m in mats.items()}
    out = {}
    for ring in RINGS:
        rank = (lambda deg: len(factors[deg])) if ring.p is None else \
            (lambda deg: rank_mod_p(mats[deg], ring.p))
        groups = {}
        for deg in window.degrees():
            torsion = () if ring.is_field else \
                tuple(f for f in factors[deg] if f > 1)
            free = len(basis(deg).exps) - rank(deg) - rank(deg + T_STEP)
            if free or torsion:
                groups[deg] = HomologyGroup(free, torsion)
        out[ring] = HomologyTable(pres.name, ring, window, groups).serialize()
    return out


def _shipped_quotient_cases():
    small = Window(-12, 12, -4, 4)
    for shape in PROJECTOR_SHAPES:
        for N in (0, 2, 3, 4, 5):
            if N or shape in ("[123]", "[1,2,3]", "[12,3]", "[13,2]"):
                yield projector_presentation(shape, N), small
        # no image at all; the walk also returns degrees at a != 0
        yield projector_presentation(shape, HOMFLY), small
    for n in range(1, 6):
        for N in (2, 3, 4):
            yield stable_presentation(n, N), Window(0, 24, 0, 8)
            yield reduced_presentation(n, N), Window(0, 24, 0, 8)


@pytest.mark.parametrize("pres,window", _shipped_quotient_cases(),
                         ids=lambda v: getattr(v, "name", ""))
def test_quotient_table_matches_full_complex(pres, window):
    """homology_table walks the quotient by the regular unit-monomial
    images; over every ring it must equal the whole complex's table."""
    want = _full_complex_tables(pres, window)
    for ring in RINGS:
        assert homology_table(pres, ring, window).serialize() == want[ring]


# sha-256 of serialize() for the acceptance tables, as computed before the
# two-pass homology_table and the row echelon field rank
PINNED_TABLES = (
    (lambda: projector_presentation("[12,3]", 3), QQ,
     Window(-60, 60, -12, 12),
     "e06a3d57efc61adf38cc9cade7cfaaa88d4b98ae69502066250d91f317354459"),
    (lambda: stable_presentation(5, 3), ZZ, Window(0, 72, 0, 26),
     "8db6c010cb042baf6f1cd3603b69fcd80d3152700641e0e2959c78a499ec90a9"),
    (lambda: stable_presentation(5, 3), F3, Window(0, 72, 0, 26),
     "9580246d89edb32165e7c64589a394c65bcc4950809249555a513d26671de35f"),
    (lambda: stable_presentation(6, 3), ZZ, Window(0, 90, 0, 30),
     "168c8ce00246b67db77aec6603964edf57882df20da3a5f07d069cd6e93fe5a1"),
)


@pytest.mark.parametrize("build,ring,window,digest", PINNED_TABLES,
                         ids=["hook_Q", "T59_Z", "T59_F3", "stable63_Z"])
def test_pinned_tables_are_byte_identical(build, ring, window, digest):
    text = homology_table(build(), ring, window).serialize()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


UCT_CASES = (
    (lambda: projector_presentation("[12,3]", 3), Window(-60, 60, -12, 12)),
    (lambda: stable_presentation(4, 3), Window(0, 40, 0, 14)),
    (lambda: stable_presentation(5, 2), Window(0, 60, 0, 20)),
    (lambda: stable_presentation(5, 3), Window(0, 72, 0, 26)),
    (lambda: stable_presentation(6, 3), Window(0, 90, 0, 30)),
    (lambda: projector_presentation("[12,3]", 0), Window(-40, 40, -10, 10)),
)


@pytest.mark.parametrize("build,window", UCT_CASES,
                         ids=["hook_Q", "stable43", "stable52", "stable53",
                              "stable63", "hook_d0"])
def test_universal_coefficients_tie_Z_to_Fp(build, window):
    """The Smith loop (over Z) and the echelon loop (over F_p) agree by
    universal coefficients: with n_p(q, t) the number of p-divisible
    invariant factors at (q, t), the F_p rank at (q, t) is
    free(q, t) + n_p(q, t) + n_p(q, t + 1) for t < tmax."""
    pres = build()
    table_z = homology_table(pres, ZZ, window)
    for p in (2, 3, 5, 7, 11, 13):
        table_p = homology_table(pres, prime_field(p), window)
        n_p = {deg: sum(1 for f in g.torsion if f % p == 0)
               for deg, g in table_z.groups.items()}
        for deg in window.degrees():
            if deg.t == window.tmax:
                continue
            want = (table_z.rank_at(deg) + n_p.get(deg, 0)
                    + n_p.get(deg + T_STEP, 0))
            assert table_p.rank_at(deg) == want, (p, deg)


def _residues():
    """No even generator and d(e_j) = 2 for e0, e1, e2 of degrees (2, 1),
    (0, 1), (-2, 1), inhomogeneous.  The maps e0 e2 -> e1 and e1 e2 -> e2
    have the same key offsets, +1, but odd parts of codes 4 and 6 mod 8:
    the first is 0, the second 2, so k0 % C must be part of the class."""
    return Presentation("residues", (), (), ("e0", "e1", "e2"),
                        (Degree(2, 1), Degree(0, 1), Degree(-2, 1)),
                        [SuperPolynomial(0, {Monomial(()): 2})] * 3)


def _twos():
    """d(e) = 2 over Z[x], x of degree (-2, -2) and e of (0, 1): every map
    x^a e -> x^a is in one class.  The walk meets e at t = 1 before x e at
    t = -1, so on t <= 0 the rank of the first must not stand in for the
    Smith form, and its Z/2, of the second."""
    return Presentation("twos", ("x",), (Degree(-2, -2),), ("e",),
                        (Degree(0, 1),),
                        [SuperPolynomial(1, {Monomial((0,)): 2})])


# (presentation, window, maps, translation classes): the benchmark tables,
# small tables over Z (stable(3,3) has maps whose classes differ only in
# their targets), the inhomogeneous displayed xi0 image, a reduced d0
# projector, whose mixed unit image x1 b2 stays in the complex, _residues
# and _twos
CLASS_CASES = (
    (projector_presentation("[12,3]", 3), Window(-60, 60, -12, 12), 752, 19),
    (stable_presentation(5, 3), Window(0, 72, 0, 26), 176, 144),
    (stable_presentation(4, 3), Window(0, 40, 0, 14), 57, 51),
    (stable_presentation(3, 3), Window(0, 40, 0, 14), 50, 32),
    (projector_presentation("[13,2]", 3, "displayed"),
     Window(-40, 40, -10, 10), 415, 136),
    (projector_presentation("[12,3]", 0), Window(-40, 40, -10, 10), 436, 3),
    (_residues(), Window(-4, 4, 0, 3), 5, 5),
    (_twos(), Window(-8, 8, -4, 0), 3, 1),
)
CLASS_IDS = ["hook_Q", "T59", "stable43", "stable33", "displayed",
             "d0_reduced", "residues", "twos"]


def _class_key(src, dst):
    """A map's translation class, less homology_table's rank/Smith mode:
    the first source key k0 mod C (the number of odd parts) and both sides'
    keys less k0."""
    k0 = src.keys[0]
    return (k0 % len(src.layout[0]), tuple(k - k0 for k in src.keys),
            tuple(k - k0 for k in dst.keys))


@pytest.mark.parametrize("pres,window,maps,classes", CLASS_CASES,
                         ids=CLASS_IDS)
def test_translation_classes_share_one_matrix(pres, window, maps, classes):
    """Maps whose keys differ by one multiple of C have one matrix."""
    groups = defaultdict(list)
    for _q, _t, src, dst, mat in _outgoing_maps(pres, window):
        groups[_class_key(src, dst)].append(mat)
    assert sum(map(len, groups.values())) == maps
    assert len(groups) == classes
    for members in groups.values():
        assert all(m == members[0] for m in members)


def _per_map_table(pres, ring, window):
    """serialize() of homology_table computed with one rank, or over Z
    inside the window one Smith form, per outgoing map, with no memo."""
    out = {}
    for q, t, _src, _dst, mat in _outgoing_maps(pres, window):
        if ring.is_field or t > window.tmax:
            out[q, t] = homology.matrix_rank(mat, ring), ()
        else:
            factors = smith_normal_form(mat)[0]
            out[q, t] = len(factors), tuple(f for f in factors if f > 1)
    groups = {}
    for deg, b in window_bases(pres, window, reduced=True).items():
        if not deg.a and window.contains(deg):
            rank, torsion = out.get((deg.q, deg.t), (0, ()))
            free = len(b.keys) - rank - out.get((deg.q, deg.t + 1), (0,))[0]
            if free or torsion:
                groups[deg] = HomologyGroup(free, torsion)
    return HomologyTable(pres.name, ring, window, groups).serialize()


@pytest.mark.parametrize("pres,window,maps,classes", CLASS_CASES,
                         ids=CLASS_IDS)
def test_table_matches_per_map_reference(pres, window, maps, classes):
    """The class memo changes no group over Q, Z or F3, the Z row at
    t = tmax + 1 (a rank, not a Smith form) included."""
    for ring in (QQ, ZZ, F3):
        assert homology_table(pres, ring, window).serialize() \
            == _per_map_table(pres, ring, window), ring


def _two_variables(name, images, odd_degrees):
    """x, y of degrees (2, 0), (2, 2) and one odd generator per image."""
    return Presentation(
        name, ("x", "y"), (Degree(2, 0), Degree(2, 2)),
        tuple(f"e{j}" for j in range(len(images))), odd_degrees,
        [SuperPolynomial(2, {Monomial(f): c for f, c in img.items()})
         for img in images])


def _quotient_edge_cases():
    # d(e0) = x^2 and d(e1) = x^3 share x, so only x^2 is divided out
    yield _two_variables("shared", [{(2, 0): 1}, {(3, 0): 1}],
                         (Degree(4, 1), Degree(6, 1))), [0]
    yield _two_variables("minus", [{(0, 2): -1}, {(1, 0): 1}],
                         (Degree(4, 5), Degree(2, 1))), [0, 1]
    # 3 x^2 is not a unit over Z, so it stays, though it is over F2
    yield _two_variables("nonunit", [{(2, 0): 3}, {(0, 1): 1}],
                         (Degree(4, 1), Degree(2, 3))), [1]
    # a mixed image x y stays in the complex
    yield _two_variables("mixed", [{(1, 1): -1}],
                         (Degree(4, 3),)), []
    # d(e0) = x is a unit monomial of the wrong degree: not divided out
    yield _two_variables("inhomogeneous", [{(1, 0): 1}, {(0, 2): 1}],
                         (Degree(4, 1), Degree(4, 5))), [1]
    # d(theta2) = 1: R/(1) = 0, every group vanishes
    yield projector_presentation("[1,2,3]", 2), [0, 2]
    yield Presentation("one", (), (), ("e",), (Degree(0, 1),),
                       [SuperPolynomial.one(0)]), [0]
    # the reduced d0 image x1 b2 has mixed support and stays
    yield projector_presentation("[12,3]", 0), []
    # the displayed xi0 image x0^(N-1) is a unit of the wrong degree
    yield projector_presentation("[13,2]", 3, "displayed"), []
    # d(e0) = x is divided out, d(e1) = 2 y stays and d(e2) = 0: every
    # y^k e2 has no basis one t-step down, but y^k e1 e2 maps onto it
    yield _two_variables("empty-below", [{(1, 0): 1}, {(0, 1): 2}, {}],
                         (Degree(2, 1), Degree(2, 3), Degree(1, 1))), [0]


def _exps(bases):
    return {deg: b.exps for deg, b in bases.items()}


@pytest.mark.parametrize("pres,taken", _quotient_edge_cases(),
                         ids=lambda v: getattr(v, "name", ""))
def test_quotient_edge_cases(pres, taken):
    window = Window(-12, 12, -4, 4)
    want = _full_complex_tables(pres, window)
    assert list(homology._unit_images(pres)) == taken
    for ring in RINGS:
        assert homology_table(pres, ring, window).serialize() == want[ring]
    reduced = window_bases(pres, window, reduced=True)
    assert not any(set(odd) & set(taken)
                   for b in reduced.values() for _even, odd in b.exps)
    if not taken:
        assert _exps(reduced) == _exps(window_bases(pres, window))
    if pres.name in ("projector([1,2,3],d2)", "one"):
        assert homology_table(pres, ZZ, window).groups == {}
    if pres.name == "empty-below":
        assert Degree(3, 3) in reduced and Degree(3, 2) not in reduced
        assert homology_table(pres, ZZ, window).groups[Degree(3, 4)] \
            == HomologyGroup(0, (2,))


def test_quotient_keeps_the_non_proper_grading_witness():
    """d(e) = u is a regular unit image, but u v has degree 0: the error
    and its witness are those of the whole complex."""
    pres = Presentation(
        "degenerate-unit", ("u", "v"), (Degree(2, 0), Degree(-2, 0)),
        ("e",), (Degree(2, 1),),
        [SuperPolynomial.from_monomial(Monomial((1, 0)))])
    with pytest.raises(NonProperGradingError, match=r"witness: u\*v\)"):
        homology_table(pres, QQ, Window(0, 0, 0, 0))


def test_serialize_parse_round_trip():
    pres = stable_presentation(5, 3)
    table = homology_table(pres, ZZ, Window(16, 20, 10, 12))
    back = HomologyTable.parse(table.serialize())
    assert back.ring == table.ring
    assert back.window == table.window
    assert {d: (g.free_rank, tuple(g.torsion))
            for d, g in back.groups.items()} \
        == {d: (g.free_rank, tuple(g.torsion))
            for d, g in table.groups.items()}


@pytest.mark.parametrize("text,lineno", [
    ("coeff=Q\nwindow=q:0..1,t:0..1\nq=1, t\n", 3),
    ("coeff=Q\nwindow=q:0..1,t:0..1\nq=1, t=0, rank=x\n", 3),
    ("coeff=Q\nwindow=q:0..1,t:0..1\nq=1, t=0\n", 3),
    ("coeff=Q\nwindow=q:0..1,t:0..1\nq=1, t=0, rank=0, tor=3;2\n", 3),
    ("coeff=Q\nwindow=q:0..1,t:0..1\nbound=many\n", 3),
    ("coeff=Q\nwindow=q:0..1,t:0..1\nbound=6\n", 3),
    ("coeff=Q\nwindow=q:3..1,t:0..1\n", 2),
    ("coeff=Q\nwindow=q:0..1,t:0..1\nq=1, t=0, rank=1, bogus=7\n", 3),
    ("coeff=Q\nwindow=q:0..1,t:0..1\nq=1, q=0, t=0, rank=1, rank=5\n", 3),
    ("coeff=Q\nwindow=q:0..1,t:0..1\nq=1, t=0, rank=1\nq=1, t=0, rank=2\n",
     4),
    ("coeff=F4\n", 1),
    ("coeff=Q\nwindow=q:0..1\n", 2),
    ("coeff=Q\nwindow=q:0..1,x:0..1\n", 2),
    ("# comment\ncoeff=Q\n\n", 3),
    ("", 0),
    ("coeff=Q\nwindow=q:0..1,t:0..1\ncoeff=Z\n", 3),
    ("coeff=Q\nwindow=q:0..1,t:0..1\nwindow=q:0..2,t:0..1\n", 3),
    ("coeff=Q\nwindow=q:0..1,t:0..1\nq=5, t=9, rank=1\n", 3),
    ("q=0, t=2, rank=1\ncoeff=Q\nwindow=q:0..1,t:0..1\n", 1),
    # int() would read these as q=10, t=2, rank=1
    ("coeff=Q\nwindow=q:0..1,t:0..1\nq=1_0, t=+2, rank=\u0661\n", 3),
    ("coeff=Q\nwindow=q:0..1,t:0..1\nq=1, t=0, rank=+1\n", 3),
    ("coeff=Q\nwindow=q:0..1_0,t:0..1\n", 2),
    ("coeff=Q\nwindow=q:0..1,t:+0..\u0661\n", 2),
    ("coeff=Z\nwindow=q:0..1,t:0..1\nq=1, t=0, rank=0, tor=3;+9\n", 3),
    ("coeff=F\u0663\n", 1),
])
def test_table_parse_errors_name_the_line(text, lineno):
    with pytest.raises(TableFormatError, match=f"^line {lineno}:"):
        HomologyTable.parse(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet="qtrankorbudcefwiQZF=,;.:-0123456789 #",
                        max_size=24), max_size=5))
def test_table_parse_fuzz(lines):
    """Any input parses or fails with a TableFormatError naming a line."""
    text = "coeff=Q\nwindow=q:0..1,t:0..1\n" + "\n".join(lines)
    for candidate in (text, "\n".join(lines)):
        try:
            HomologyTable.parse(candidate)
        except TableFormatError as exc:
            assert str(exc).startswith("line ")
