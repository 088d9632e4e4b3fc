"""Acceptance suite: one criterion per test, one pass/fail line each.

Each test prints ``criterion NN (<label>): PASS`` (or FAIL) together with
its runtime against the stated budget.  The checks are exact; there are
no numeric tolerances anywhere in this suite.
"""

import itertools
import os
import random
import time
from contextlib import contextmanager
from math import gcd
from operator import mul

from koszulknots.algebra import (Degree, Monomial, QQ, ZZ, mono_degree,
                                 mono_mul, prime_field, SuperPolynomial)
from koszulknots.homology import (IntegerMatrix, Window,
                                  euler_characteristic_check, homology_at,
                                  homology_table, smith_normal_form,
                                  window_bases)
from koszulknots.interface import compare, parse_table
from koszulknots.presentations import (apply_d, mu, projector_presentation,
                                       reduced_presentation,
                                       stable_presentation)
from koszulknots.series import (ONE, SeriesWindow, assemble_torus2,
                                assemble_torus3, expand, identity_check,
                                mod_N_series, normalize_lowest, one_minus,
                                one_plus, projector_series, qta, rf_factored,
                                stable_series)

DATA = os.path.join(os.path.dirname(__file__), "data")


@contextmanager
def criterion(num, label, budget):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {num:2d} ({label}): PASS  "
          f"[{elapsed:.2f}s / {budget:.0f}s]")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"


def _det(a):
    """Integer determinant by cofactor expansion along the first row."""
    return sum((-1) ** j * v * _det([row[:j] + row[j + 1:] for row in a[1:]])
               for j, v in enumerate(a[0]) if v) if a else 1


def series_equals_homology(pres, rf, tmax, qmax, ring=QQ,
                           tmin=0, qmin=0):
    table = homology_table(pres, ring, Window(qmin, qmax, tmin, tmax))
    coeffs = expand(rf, SeriesWindow(tmin, tmax, qmin, qmax))
    model = {(d.q, d.t): g.free_rank for d, g in table.groups.items()
             if g.free_rank}
    series = {k: v for k, v in coeffs.items() if v}
    assert model == series, {
        k: (model.get(k, 0), series.get(k, 0))
        for k in set(model) ^ set(series) | {
            k for k in set(model) & set(series)
            if model[k] != series[k]}}


def test_criterion_01_unknot():
    with criterion(1, "unknot dimensions", 1):
        for N in range(2, 7):
            table = homology_table(stable_presentation(1, N), QQ,
                                   Window(0, 2 * N + 4, 0, 4))
            cells = {(d.q, d.t): g.free_rank for d, g in table.groups.items()
                     if g.free_rank}
            assert cells == {(2 * j, 0): 1 for j in range(N)}


def test_criterion_02_two_strand_closed_form():
    with criterion(2, "n=2 closed form, N=2..5, t<=30", 10):
        for N in (2, 3, 4, 5):
            series_equals_homology(stable_presentation(2, N),
                                   stable_series(2, N), tmax=30, qmax=80)


def test_criterion_03_three_strand_closed_form():
    with criterion(3, "n=3 closed form, N=2..4, t<=25", 60):
        for N in (2, 3, 4):
            series_equals_homology(stable_presentation(3, N),
                                   stable_series(3, N), tmax=25, qmax=70)


def test_criterion_04_golden_four_and_five_strand():
    with criterion(4, "catalogued P4/P5 vs homology, t<=20", 600):
        for n in (4, 5):
            series_equals_homology(stable_presentation(n, 3),
                                   stable_series(n, 3), tmax=20, qmax=60)


def test_criterion_05_mod3_model_and_table():
    with criterion(5, "F3 model and T(5,9) stable range", 600):
        pres = stable_presentation(5, 3)
        F3 = prime_field(3)
        # closed form with Z/3 coefficients matches the computed table
        series_equals_homology(pres, mod_N_series(5, 3), tmax=17, qmax=60,
                               ring=F3)
        # the finite (5,9) knot agrees through t = 15 and leaves the
        # stable limit exactly at t = 16
        table = homology_table(pres, F3, Window(0, 60, 0, 17))
        with open(os.path.join(DATA, "table2_T59_F3.txt")) as fh:
            ext = parse_table(fh.read())
        report = compare(table, ext)
        assert not report.agree
        assert report.agreeing_region == (0, 15)
        assert report.first_divergence[0] == 16


def test_criterion_06_five_torsion_cell():
    with criterion(6, "one Z5 factor at (q,t)=(18,11)", 300):
        g = homology_at(stable_presentation(5, 3), Degree(18, 11), ZZ)
        fives = [f for f in g.torsion if f % 5 == 0]
        assert len(fives) == 1
        f = fives[0]
        while f % 5 == 0:
            f //= 5
        assert fives[0] // f == 5  # exactly Z5, not a higher power


def test_criterion_07_certificates():
    from koszulknots import certify
    with criterion(7, "torsion certificates and named classes", 60):
        for (p, N) in [(5, 2), (5, 3), (7, 3)]:
            report = certify.torsion_certificate_tp(p, N)
            assert report.verdict, report.text()
        # the 7-torsion of t_7 is a Z/21 at q^22 t^15
        assert "q^22 t^15" in report.text() and "Z/21" in report.text()
        for name in ("A", "B"):
            report = certify.verify_named_class(name)
            assert report.verdict, report.text()
        # B = x_2 mu_5 modulo 5 is certified as part of class B
        assert any("mu_5" in desc and ok
                   for desc, ok, _w in certify.verify_named_class("B").checks)
    # stretch goal: integral 7-torsion by full Smith normal form
    start = time.monotonic()
    g = homology_at(stable_presentation(6, 3), Degree(24, 15), ZZ)
    assert any(f % 7 == 0 for f in g.torsion)
    print(f"criterion  7 (stretch: 7-torsion at (24,15)): PASS  "
          f"[{time.monotonic() - start:.2f}s / 3600s]")


def test_criterion_08_series_identities():
    with criterion(8, "projector identities and d2 assemblies", 5):
        # column sum identities, verified by cross-multiplication
        for (a, b), whole in [(("[12]", "[1,2]"), "[1]"),
                              (("[123]", "[12,3]"), "[12]"),
                              (("[1,2,3]", "[13,2]"), "[1,2]")]:
            lhs = projector_series(a, None, "homfly") \
                + projector_series(b, None, "homfly")
            assert identity_check(lhs, projector_series(whole, None,
                                                        "homfly"))
        # displayed three-term d_2 assemblies for both torus families
        for m in (2, 4, 5, 7, 8):
            assert identity_check(assemble_torus3(m, 2).rational,
                                  _displayed_d2_assembly(m))
        # reduced trefoil over SL(3)
        asm = assemble_torus3(2, 3, reduced=True)
        assert asm.is_polynomial
        assert normalize_lowest(asm.polynomial, 4) \
            == qta(4) + qta(8, 2) + qta(12, 3)


def _displayed_d2_assembly(m):
    k = m // 3
    first = rf_factored(
        ONE + qta(2) + qta(4, 2) + qta(8, 3) + qta(10, 5) + qta(12, 5),
        (1, (6, 4)))
    second = rf_factored(qta(6 * k, 4 * k) * one_minus(6, 2) * one_plus(4, 1),
                         (1, (4, 2)), (1, (-6, -4)))
    if m % 3 == 1:
        third = rf_factored(qta(6 * k, 4 * k) * one_plus(4, 1),
                            (1, (-4, -2)))
    else:
        third = rf_factored(qta(6 * k + 4, 4 * k + 2) * one_plus(4, 1),
                            (1, (-4, -2)))
    return first + second + third


def test_criterion_09_polynomiality_sweep():
    with criterion(9, "assembly polynomiality sweeps", 60):
        for N in (2, 3, 4):
            for m in range(1, 21):
                if m % 3 == 0:
                    continue
                asm = assemble_torus3(m, N)
                assert asm.is_polynomial and asm.nonnegative(), (m, N)
            for m in range(1, 42, 2):
                asm = assemble_torus2(m, N)
                assert asm.is_polynomial and asm.nonnegative(), (m, N)
        for m in range(1, 21):
            if m % 3 == 0:
                continue
            asm = assemble_torus3(m, 0, reduced=True)
            assert asm.is_polynomial and asm.nonnegative(), (m, "d0")


def test_criterion_10_property_suites():
    with criterion(10, "structural property suites", 300):
        rng = random.Random(20260823)

        # supercommutativity on random monomial pairs
        for _ in range(500):
            a = Monomial(tuple(rng.randrange(4) for _ in range(3)),
                         tuple(sorted(rng.sample(range(3),
                                                 rng.randrange(4)))))
            b = Monomial(tuple(rng.randrange(4) for _ in range(3)),
                         tuple(sorted(rng.sample(range(3),
                                                 rng.randrange(4)))))
            ab, ba = mono_mul(a, b), mono_mul(b, a)
            assert (ab is None) == (ba is None)
            if ab is not None:
                sign = -1 if (a.parity and b.parity) else 1
                assert ab[1] == ba[1] and ab[0] == sign * ba[0]

        # d^2 = 0, exhaustively on a window of stable(4,3)
        pres = stable_presentation(4, 3)
        for basis in window_bases(pres, Window(0, 24, 0, 9)).values():
            for m in basis.monomials:
                p = SuperPolynomial.from_monomial(m)
                assert apply_d(pres, apply_d(pres, p)).is_zero()

        # Euler characteristic column sums
        pres32 = stable_presentation(3, 2)
        for q in range(0, 18, 2):
            assert euler_characteristic_check(pres32, QQ,
                                              Window(q, q, 0, 3 * q), q)

        # universal coefficients over F2, F3, F5
        window = Window(0, 24, 0, 10)
        integral = homology_table(pres32, ZZ, window)
        for p in (2, 3, 5):
            modp = homology_table(pres32, prime_field(p), window)

            def p_tors(deg):
                g = integral.groups.get(deg)
                return sum(1 for f in g.torsion if f % p == 0) if g else 0

            for t in range(0, 9):
                for q in range(0, 23):
                    deg = Degree(q, t)
                    g = integral.groups.get(deg)
                    free = g.free_rank if g else 0
                    assert modp.rank_at(deg) \
                        == free + p_tors(deg) + p_tors(Degree(q, t + 1))

        # Smith factors against the determinantal divisors, random matrices
        for _ in range(200):
            rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
            mat = IntegerMatrix(rows, cols,
                                {(r, c): rng.randrange(-9, 10)
                                 for r in range(rows) for c in range(cols)
                                 if rng.random() < 0.7})
            factors = smith_normal_form(mat)[0]
            dense = [[mat.entries.get((r, c), 0) for c in range(cols)]
                     for r in range(rows)]
            # d_1...d_k is the gcd of the k x k minors, 0 past the rank
            products = list(itertools.accumulate(factors, mul))
            for k in range(1, min(rows, cols) + 1):
                minors = [_det([[dense[r][c] for c in cs] for r in rs])
                          for rs in itertools.combinations(range(rows), k)
                          for cs in itertools.combinations(range(cols), k)]
                want = products[k - 1] if k <= len(products) else 0
                assert gcd(*minors) == want
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0

        # mu_k classes are nonzero cycles
        for (kk, n, N) in [(1, 3, 2), (2, 4, 3), (3, 5, 3)]:
            cycle = mu(kk, n, N)
            assert not cycle.is_zero()
            assert apply_d(stable_presentation(n, N), cycle).is_zero()


def test_criterion_11_projector_homology():
    with criterion(11, "projector homology vs closed forms", 600):
        shapes = ("[12]", "[1,2]", "[123]", "[1,2,3]", "[12,3]", "[13,2]")
        for shape in shapes:
            for N in (2, 3):
                series_equals_homology(
                    projector_presentation(shape, N),
                    projector_series(shape, N, "dN"),
                    tmax=12, qmax=60, tmin=-12, qmin=-60)
