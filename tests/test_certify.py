"""Certificates: torsion witnesses, named classes, structural checks."""

import pytest

from koszulknots import certify
from koszulknots.algebra import Degree, Monomial, QQ, SuperPolynomial, ZZ, \
    mono_degree
from koszulknots.certify import (_NAMED_CLASSES, _named_poly,
                                 _relabeled_stable,
                                 generator_saturation_check,
                                 reduced_factorization_check, t_class,
                                 torsion_certificate_tp, verify_named_class)
from koszulknots.homology import Window, homology_at, homology_table
from koszulknots.presentations import apply_d, reduced_presentation, \
    stable_presentation


# ---------------------------------------------------------------------------
# t_p torsion certificates

def test_t_class_is_homogeneous_mod_p_cycle():
    for (p, N) in [(5, 2), (5, 3), (7, 3), (7, 5)]:
        pres = stable_presentation(p, N)
        cls = t_class(p, N)
        degs = {mono_degree(m, pres) for m in cls.terms}
        assert degs == {Degree(2 * p + 2 * N + 2, 2 * p + 1)}
        img = apply_d(pres, cls)
        assert not img.is_zero()
        assert img.mod(p).is_zero()


def _old_t_class(p, N):
    """t_p written out as a loop over i = 1 .. p-1."""
    terms = {}
    for i in range(1, p):
        if c := N * i - p + i:
            exp = [0] * p
            exp[i] = 1
            terms[Monomial(tuple(exp), (p - i,))] = c
    return SuperPolynomial(p, terms)


def test_t_class_is_mu_p_on_p_strands():
    for p in (5, 7, 11, 13):
        for N in range(2, p - 1):
            assert t_class(p, N) == _old_t_class(p, N)


def test_relabeled_stable_degrees():
    for n in range(1, 7):
        for N in range(2, 6):
            pres = _relabeled_stable(n, N)
            assert pres.even_symbols == tuple(f"x{k + 1}" for k in range(n))
            assert pres.odd_symbols == tuple(f"xi{k + N}" for k in range(n))
            assert pres.even_degrees == tuple(
                Degree(2 * (k + 1) + 2, 2 * (k + 1)) for k in range(n))
            assert pres.odd_degrees == tuple(
                Degree(2 * N + 2 * (k + N), 2 * (k + N) + 1)
                for k in range(n))
            assert pres.d_images == stable_presentation(n, N).d_images


@pytest.mark.parametrize("p,N", [(5, 2), (5, 3)])
def test_tp_certificate_with_homology(p, N):
    report = torsion_certificate_tp(p, N)
    assert report.verdict, report.text()
    assert f"q^{2 * p + 2 * N + 2} t^{2 * p + 1}" in report.text()


def test_tp_certificate_checks_only():
    report = torsion_certificate_tp(7, 3, check_homology=False)
    assert report.verdict
    # homology check skipped: only the algebraic checks are listed
    assert all("H_Z" not in desc for desc, _ok, _w in report.checks)


def test_tp_requires_large_prime():
    with pytest.raises(ValueError):
        torsion_certificate_tp(3, 2)  # needs p > N + 1
    with pytest.raises(ValueError):
        torsion_certificate_tp(4, 2)  # not prime


def test_tp_homology_has_exactly_one_p_factor():
    report = torsion_certificate_tp(5, 2)
    g = homology_at(stable_presentation(5, 2), Degree(16, 11), ZZ)
    assert sum(1 for f in g.torsion if f % 5 == 0) == 1


# ---------------------------------------------------------------------------
# named classes

def test_named_class_A():
    report = verify_named_class("A")
    assert report.verdict, report.text()
    assert "d(A)" in report.text()


def test_named_class_B():
    report = verify_named_class("B")
    assert report.verdict, report.text()
    # B = x_2 mu_5 modulo 5 is part of the certificate
    assert any("mu_5" in desc for desc, _ok, _w in report.checks)


def test_named_class_records_are_the_displayed_products():
    x = stable_presentation(5, 2).gen
    d_a = (x("x1") * x("x3")
           * (x("x1") * x("xi0") * 2 - x("x0") * x("xi1"))) * 10
    y = stable_presentation(6, 3).gen
    d_b = (y("x0") * y("x1") * y("x1") * y("x2") * y("x3")) * (-105)
    for name, want, text in (("A", d_a, "10*x1*x3*(2*x1*xi0 - x0*xi1)"),
                             ("B", d_b, "-105*x0*x1^2*x2*x3")):
        n, _N, _deg, _p, _cls, shown, shown_text, _side = \
            _NAMED_CLASSES[name]
        assert _named_poly(n, shown) == want
        assert shown_text == text


def test_unknown_named_class():
    with pytest.raises(ValueError):
        verify_named_class("C")


# ---------------------------------------------------------------------------
# structural checks

@pytest.mark.parametrize("n,N", [(3, 2), (4, 2), (4, 3), (5, 3)])
def test_reduced_factorization(n, N):
    report = reduced_factorization_check(n, N, Window(0, 40, 0, 8))
    assert report.verdict, report.text()


def test_reduced_factorization_requires_enough_strands():
    with pytest.raises(ValueError):
        reduced_factorization_check(2, 3, Window(0, 10, 0, 4))


def test_reduced_factorization_names_its_mismatches(monkeypatch):
    """With the stable (4, 2) table in place of the reduced one, the check
    fails at the first five degrees where the two tables differ: the
    product side equals the reduced table, as the passing check shows."""
    window = Window(0, 40, 0, 8)
    stable = homology_table(stable_presentation(4, 2), QQ, window)
    reduced = homology_table(reduced_presentation(4, 2), QQ, window)
    real = certify.homology_table
    monkeypatch.setattr(certify, "homology_table", lambda pres, *a: (
        stable if pres.name.startswith("reduced") else real(pres, *a)))
    report = reduced_factorization_check(4, 2, window)
    want = [f"{d}: {stable.rank_at(d)} vs {reduced.rank_at(d)}"
            for d in window.degrees()
            if stable.rank_at(d) != reduced.rank_at(d)]
    assert not report.verdict and len(want) > 5
    assert report.checks[0][2] == "; ".join(want[:5])
    assert "[FAIL] reduced(4,2)" in report.text()


def test_generator_saturation_names_the_unreached_classes(monkeypatch):
    """With every mu_k zero only the x-monomials remain: mu_1 of degree
    deg x_0 + deg xi_1 = (8, 3) and its x_1^k multiples are missed."""
    monkeypatch.setattr(certify, "mu",
                        lambda k, n, N: SuperPolynomial.zero(n))
    report = generator_saturation_check(2, 2, Window(0, 32, 0, 8))
    assert not report.verdict
    assert report.checks[0][2] == "; ".join(
        f"q^{8 + 4 * k} t^{3 + 2 * k}: span 0 < rank 1" for k in range(3))


@pytest.mark.parametrize("n,N", [(2, 2), (2, 3), (3, 2)])
def test_generator_saturation(n, N):
    report = generator_saturation_check(n, N, Window(0, 32, 0, 8))
    assert report.verdict, report.text()


def test_generator_saturation_rejects_large_input():
    with pytest.raises(ValueError):
        generator_saturation_check(9, 5, Window(0, 10, 0, 4))
