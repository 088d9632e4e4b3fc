"""Certificates: torsion witnesses, named classes, structural checks."""

import pytest

from koszulknots.algebra import Degree, ZZ, mono_degree
from koszulknots.certify import (generator_saturation_check,
                                 reduced_factorization_check, t_class,
                                 torsion_certificate_tp, verify_named_class)
from koszulknots.homology import Window, homology_at
from koszulknots.presentations import apply_d, stable_presentation


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


@pytest.mark.parametrize("n,N", [(2, 2), (2, 3), (3, 2)])
def test_generator_saturation(n, N):
    report = generator_saturation_check(n, N, Window(0, 32, 0, 8))
    assert report.verdict, report.text()


def test_generator_saturation_rejects_large_input():
    with pytest.raises(ValueError):
        generator_saturation_check(9, 5, Window(0, 10, 0, 4))
