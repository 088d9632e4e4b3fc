"""Supercommutative algebra layer: monomials, signs, coefficient rings."""

import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from koszulknots.algebra import (CoefficientRing, Degree, Monomial, QQ,
                                 StructuralError, SuperPolynomial, ZZ,
                                 grading_functional, mono_degree, mono_mul,
                                 prime_field, read_int)
from koszulknots.certify import torsion_certificate_tp
from koszulknots.homology import Window, homology_table
from koszulknots.interface import ExternalTable, compare
from koszulknots.presentations import apply_d, stable_presentation
from koszulknots.series import mod_N_series


# ---------------------------------------------------------------------------
# strategies

N_EVEN = 3
N_ODD = 4

monomials = st.builds(
    Monomial,
    st.lists(st.integers(0, 4), min_size=N_EVEN, max_size=N_EVEN)
    .map(tuple),
    st.lists(st.integers(0, N_ODD - 1), unique=True, max_size=N_ODD)
    .map(sorted).map(tuple),
)


def poly(terms):
    return SuperPolynomial(N_EVEN, terms)


polys = st.builds(
    lambda pairs: poly(dict(pairs)),
    st.lists(st.tuples(monomials, st.integers(-5, 5)), max_size=5),
)


# ---------------------------------------------------------------------------
# Degree

def test_degree_arithmetic():
    a = Degree(4, 2, 0)
    b = Degree(-6, -4, 2)
    assert a + b == Degree(-2, -2, 2)
    assert a - b == Degree(10, 6, -2)
    assert b.scale(3) == Degree(-18, -12, 6)
    assert a.key() == (2, 4, 0)


def test_degree_hashable_and_frozen():
    assert len({Degree(1, 2), Degree(1, 2), Degree(2, 1)}) == 2
    with pytest.raises(AttributeError):
        Degree(1, 2).q = 5


def test_degree_value_semantics():
    """Degree is a tuple underneath: its arithmetic stays in Degree, its
    fields are read-only, a defaults to 0, and * is not tuple repetition."""
    d = Degree(1, 2)
    for value in (d + Degree(0, 1), d - Degree(0, 1), d.scale(2)):
        assert type(value) is Degree
    for name in ("q", "t", "a"):
        with pytest.raises(AttributeError):
            setattr(d, name, 3)
    assert d == Degree(1, 2, 0) and hash(d) == hash(Degree(1, 2, 0))
    assert sorted([Degree(5, 1), Degree(-3, 2), Degree(0, 1, 1)],
                  key=Degree.key) == [Degree(0, 1, 1), Degree(5, 1),
                                      Degree(-3, 2)]
    assert str(d) == "q^1 t^2" and str(Degree(1, -2, 3)) == "q^1 t^-2 a^3"
    assert repr(d) == "Degree(q=1, t=2, a=0)"
    with pytest.raises(TypeError):
        d * 2
    with pytest.raises(TypeError):
        2 * d


@pytest.mark.parametrize("text,value", [
    ("7", 7), ("-12", -12), (" 3 ", 3), ("007", 7), ("-0", 0)])
def test_read_int_takes_ascii_integers(text, value):
    assert read_int(text) == value


@pytest.mark.parametrize("text", [
    "1_0", "+2", "\u0661", "1\u0662", "", " ", "-", "--1", "1.0", "0x1",
    "1 2", "- 1"])
def test_read_int_rejects_other_spellings(text):
    """int() alone reads 1_0, +2 and non-ASCII digits; table text may not."""
    with pytest.raises(ValueError, match="non-integer entry"):
        read_int(text)


# ---------------------------------------------------------------------------
# coefficient rings

def test_ring_is_field():
    assert QQ.is_field and prime_field(5).is_field and not ZZ.is_field


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        prime_field(6)


def _compare_filtered_by(primes):
    model = homology_table(stable_presentation(2, 2), ZZ, Window(0, 0, 0, 0))
    return compare(model, ExternalTable(ring=ZZ), torsion_primes=primes)


@pytest.mark.parametrize("call", [
    lambda: prime_field(5.0),
    lambda: CoefficientRing("Fp", 5.0),
    lambda: prime_field(True),
    lambda: _compare_filtered_by({5.0}),
    lambda: mod_N_series(2, 5.0),
    lambda: torsion_certificate_tp(7.0, 3),
], ids=["prime_field", "CoefficientRing", "prime_field_True", "compare",
        "mod_N_series", "torsion_certificate_tp"])
def test_a_prime_must_be_an_int(call):
    """5.0 equals a prime but is no int: F5.0 would not parse back, and
    range(7.0) would raise TypeError deep inside a certificate."""
    with pytest.raises(ValueError):
        call()


def test_ring_equality():
    assert prime_field(3) == CoefficientRing("Fp", 3)
    assert prime_field(3) != prime_field(5)
    assert QQ != ZZ


@pytest.mark.parametrize("ring", [QQ, ZZ] + [prime_field(p)
                                             for p in (2, 3, 5, 7)],
                         ids=str)
def test_ring_parse_inverts_str(ring):
    assert CoefficientRing.parse(str(ring)) == ring
    assert CoefficientRing.parse(f" {ring} ") == ring
    if ring.kind == "Fp":
        assert CoefficientRing.parse(f"Fp:{ring.p}") == ring


@pytest.mark.parametrize("tag", ["F4", "Fx", "R", "", "Fp:", "q", "F+3",
                                 "Fp:1_1", "F\u0663"])
def test_ring_parse_rejects_bad_tags(tag):
    with pytest.raises(ValueError):
        CoefficientRing.parse(tag)


# ---------------------------------------------------------------------------
# monomials and the Koszul sign

def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial((1, -1, 0))
    with pytest.raises(ValueError):
        Monomial((0,), (2, 2))
    with pytest.raises(ValueError):
        Monomial((0,), (3, 1))


def test_mono_mul_squares_odd_to_zero():
    m = Monomial((0, 0, 0), (1,))
    assert mono_mul(m, m) is None


def test_mono_mul_merge_sign():
    # xi_1 * xi_0 = -xi_0 xi_1: one inversion
    a = Monomial((0, 0, 0), (1,))
    b = Monomial((0, 0, 0), (0,))
    sign, prod = mono_mul(a, b)
    assert prod == Monomial((0, 0, 0), (0, 1)) and sign == -1
    sign, prod = mono_mul(b, a)
    assert prod == Monomial((0, 0, 0), (0, 1)) and sign == 1


@settings(max_examples=2000, deadline=None)
@given(monomials, monomials)
def test_supercommutativity(m1, m2):
    """m1 m2 = (-1)^{|m1||m2|} m2 m1 for all monomials."""
    left = mono_mul(m1, m2)
    right = mono_mul(m2, m1)
    if left is None:
        assert right is None
        return
    expected = -1 if (m1.parity and m2.parity) else 1
    assert left[1] == right[1]
    assert left[0] == expected * right[0]


@settings(max_examples=1000, deadline=None)
@given(monomials, monomials, monomials)
def test_monomial_associativity(m1, m2, m3):
    def scaled(res, s):
        return None if res is None else (s * res[0], res[1])

    left = mono_mul(m1, m2)
    left = None if left is None else scaled(mono_mul(left[1], m3), left[0])
    right = mono_mul(m2, m3)
    right = None if right is None else scaled(mono_mul(m1, right[1]),
                                              right[0])
    assert left == right


def test_mono_degree_stable_model():
    pres = stable_presentation(3, 2)
    # x_0 x_1^2 xi_2: q = 2 + 2*4 + 8, t = 0 + 2*2 + 5
    m = Monomial((1, 2, 0), (2,))
    assert mono_degree(m, pres) == Degree(2 + 8 + 8, 4 + 5)


# ---------------------------------------------------------------------------
# polynomials

@settings(max_examples=500, deadline=None)
@given(polys, polys)
def test_poly_supercommutativity_on_homogeneous_parts(p1, p2):
    """ab = ba whenever either factor has even terms only (sufficient here:
    full graded commutativity is checked monomial-wise above)."""
    even1 = poly({m: c for m, c in p1.terms.items() if m.parity == 0})
    assert (even1 * p2).terms == (p2 * even1).terms


@settings(max_examples=500, deadline=None)
@given(polys, polys, polys)
def test_poly_distributivity(p1, p2, p3):
    assert (p1 * (p2 + p3)).terms == (p1 * p2 + p1 * p3).terms


def test_presentation_mismatch_raises_structural_error():
    """Sums and products of polynomials over different presentations, and
    apply_d on a polynomial of another presentation, raise StructuralError."""
    a = poly({Monomial((0, 0, 0)): 1})
    b = SuperPolynomial(2, {Monomial((0, 0)): 1})
    for op in (lambda: a + b, lambda: a * b, lambda: b - a):
        with pytest.raises(StructuralError, match="presentation mismatch"):
            op()
    with pytest.raises(StructuralError, match="not over this presentation"):
        apply_d(stable_presentation(2, 2), a)


def test_mod_reduces_coefficients():
    p = poly({Monomial((1, 0, 0)): 6, Monomial((0, 1, 0)): 5,
              Monomial((0, 0, 1)): -1})
    assert p.mod(3).terms == {Monomial((0, 1, 0)): 2, Monomial((0, 0, 1)): 2}
    assert p.mod(3).n_even == N_EVEN and p.terms[Monomial((1, 0, 0))] == 6
    assert poly({Monomial((1, 0, 0)): -10}).mod(5).is_zero()


def test_scaled_drops_zeros():
    p = poly({Monomial((1, 0, 0)): 2})
    assert p.scaled(0).is_zero()


def test_text_rendering():
    pres = stable_presentation(2, 2)
    p = SuperPolynomial(2, {Monomial((2, 0), (0,)): -3, Monomial((0, 1)): 1})
    s = p.text(pres)
    assert "x0" in s and "xi0" in s and "-3" in s


# ---------------------------------------------------------------------------
# grading functional

def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _rank(vecs):
    """Rank of a list of integer vectors, by exact Gaussian elimination."""
    rows = [list(map(Fraction, v)) for v in vecs]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def vector_lists(draw):
    dim = draw(st.sampled_from([2, 3]))
    vecs = draw(st.lists(st.tuples(*[st.integers(-5, 5)] * dim), max_size=6))
    return dim, tuple(vecs)


@settings(max_examples=500, deadline=None)
@given(vector_lists())
def test_grading_functional_certificate(case):
    dim, vecs = case
    lam, witness = grading_functional(vecs)
    if lam is not None:
        assert witness is None and len(lam) == (dim if vecs else 0)
        assert all(_dot(lam, v) >= 1 for v in vecs)
        return
    # a circuit: a nonnegative, primitive combination summing to zero
    # whose support is minimally dependent
    assert len(witness) == len(vecs)
    assert all(c >= 0 for c in witness) and gcd(*witness) == 1
    assert all(_dot(witness, col) == 0 for col in zip(*vecs))
    support = [v for v, c in zip(vecs, witness) if c]
    assert _rank(support) == len(support) - 1
    for cand in itertools.product(range(-3, 4), repeat=dim):
        assert not all(_dot(cand, v) >= 1 for v in vecs), cand
