"""Closed-form series: catalogue, expansion, assemblies."""

import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from koszulknots.algebra import Degree, QQ, ZZ, prime_field
from koszulknots.homology import Window, homology_table
from koszulknots.presentations import (projector_presentation,
                                       reduced_presentation,
                                       stable_presentation)
from koszulknots.series import (Assembly, ExpansionError, LaurentPoly, ONE,
                                RationalFunction, SeriesWindow, _finish,
                                _torus2_parts, _torus3_parts,
                                assemble_torus2, assemble_torus3,
                                exact_divide, expand, formula, identity_check,
                                list_formulas, mod_N_series, normalize_lowest,
                                one_minus, one_plus, product,
                                projector_series, qta, rf_factored,
                                stable_series, stable_series_reduced)


# ---------------------------------------------------------------------------
# Laurent polynomials

def _laurents(a_exponents):
    return st.builds(
        lambda pairs: LaurentPoly({m: c for m, c in pairs if c}),
        st.lists(st.tuples(st.tuples(st.integers(-6, 6), st.integers(-4, 4),
                                     a_exponents),
                           st.integers(-4, 4)), max_size=5),
    )


laurents = _laurents(st.just(0))
laurents_a = _laurents(st.integers(-2, 2))


def test_qta_basics():
    p = qta(4, 2) + qta(0, 0) - qta(4, 2)
    assert p == ONE
    assert (qta(2) * qta(-2)).terms == ONE.terms
    assert qta(2, 1, 2).terms == {(2, 1, 2): 1}


@settings(max_examples=500, deadline=None)
@given(laurents, laurents, laurents)
def test_laurent_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a - a == LaurentPoly.zero()


def test_substitute_a():
    p = qta(2, 1, 2)  # q^2 t a^2
    assert p.substitute_a(q_per_a=3) == qta(8, 1)
    assert p.substitute_a(t_per_a=-1) == qta(2, -1)


def test_min_max_term():
    p = qta(10, 1) + qta(0, 2) + qta(-4, 2)
    assert p.min_term()[0] == (10, 1, 0)
    assert p.max_term()[0] == (0, 2, 0)


def test_min_max_term_of_zero():
    with pytest.raises(ValueError, match="zero polynomial has no least term"):
        LaurentPoly.zero().min_term()
    with pytest.raises(ValueError,
                       match="zero polynomial has no greatest term"):
        LaurentPoly.zero().max_term()
    with pytest.raises(ValueError, match="no least term"):
        normalize_lowest(LaurentPoly.zero())


# ---------------------------------------------------------------------------
# rational functions

def test_factored_denominator_validated():
    # the denominator is given as its factor list, never as a polynomial
    with pytest.raises(TypeError, match="not iterable"):
        RationalFunction(ONE, one_minus(2))
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        rf_factored(ONE, (1, (2, 0)), (1, (0, 0)))
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        rf_factored(ONE, (1, (2, 0, 1)), (1, (1, 0, -1))).substitute_a(1)
    fs = ((1, (2, 0, 0)), (-1, (4, 2, 1)), (3, (0, 1, 0)))
    num = one_plus(6, 3)
    explicit = RationalFunction(num, fs)
    got = rf_factored(num, (1, (2, 0)), *fs[1:])
    assert (got.num, got.den_factors) == (explicit.num, explicit.den_factors)
    assert got.den == product(ONE - qta(*m, coeff=c) for c, m in fs)
    # den is derived and cached on first read; == compares num and factors
    assert "den" in vars(got) and "den" not in vars(explicit)
    assert got == explicit and hash(got) == hash(explicit)
    assert got != RationalFunction(num, fs[1:] + fs[:1])


def test_rational_sum_and_equality():
    half = rf_factored(ONE, (1, (2, 0)))  # 1/(1-q^2)
    s = half + half
    assert identity_check(s, rf_factored(ONE + ONE, (1, (2, 0))))
    assert not identity_check(half, s)


def test_polynomial_plus_rational():
    rf = stable_series(2, 2)
    for total in (qta(1) + rf, rf + qta(1)):
        assert identity_check(total, RationalFunction(
            rf.num + qta(1) * rf.den, rf.den_factors))
    assert identity_check(ONE - rf,
                          RationalFunction(rf.den - rf.num, rf.den_factors))
    assert identity_check(rf - ONE,
                          RationalFunction(rf.num - rf.den, rf.den_factors))
    with pytest.raises(TypeError):
        ONE - 1
    with pytest.raises(TypeError):
        ONE + 1


def test_rational_rejects_unsupported_operands():
    rf = stable_series(2, 2)
    for op in (lambda: rf + 1, lambda: rf - 1, lambda: 1 + rf,
               lambda: 1 - rf, lambda: rf * 1.5, lambda: 1.5 * rf,
               lambda: rf + "x"):
        with pytest.raises(TypeError):
            op()
    assert identity_check(rf * 2, RationalFunction(rf.num * 2, rf.den_factors))


def test_rational_product_keeps_factors():
    a = rf_factored(ONE, (1, (2, 0)))
    b = rf_factored(one_plus(4, 1), (1, (4, 2)))
    prod = a * b
    assert prod.den_factors == ((1, (2, 0, 0)), (1, (4, 2, 0)))
    sub = rf_factored(ONE, (1, (2, 0, 1)), (-1, (0, 2))).substitute_a(4, -1)
    assert sub.den_factors == ((1, (6, -1, 0)), (-1, (0, 2, 0)))
    assert sub.den == one_minus(6, -1) * one_plus(0, 2)


# ---------------------------------------------------------------------------
# expansion

def test_expand_geometric():
    rf = rf_factored(ONE, (1, (4, 2)))
    coeffs = expand(rf, SeriesWindow(0, 4, 0, 10))
    assert coeffs == {(0, 0): 1, (4, 2): 1, (8, 4): 1}


def test_expand_negative_direction_geometric():
    rf = rf_factored(ONE, (1, (-4, -2)))
    coeffs = expand(rf, SeriesWindow(-6, 0, -14, 0))
    assert coeffs == {(0, 0): 1, (-4, -2): 1, (-8, -4): 1, (-12, -6): 1}


def test_expand_t0_slice_of_n2():
    coeffs = expand(formula("P2_dN", N=3), SeriesWindow(0, 0, 0, 40))
    assert coeffs == {(0, 0): 1, (2, 0): 1, (4, 0): 1}


def test_expand_pzn_cell():
    coeffs = expand(formula("P_ZN", n=5, N=3), SeriesWindow(3, 3, 12, 12))
    assert coeffs == {(12, 3): 1}


def _plus(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("a,b", [(stable_series(2, 3), stable_series(3, 3)),
                                 (mod_N_series(2, 3), mod_N_series(3, 3))])
def test_sum_keeps_factors_and_expands_termwise(a, b):
    window = SeriesWindow(0, 12, -40, 60)
    ea, eb = expand(a, window), expand(b, window)
    for total, sign in ((a + b, 1), (a - b, -1)):
        assert total.den_factors == a.den_factors + b.den_factors
        assert expand(total, window) == _plus(ea, eb, sign)
    assert (ONE + a).den_factors == (a - ONE).den_factors == a.den_factors


def test_sum_without_common_region():
    # P[12] expands in q^4 t^2, P[1,2] in q^-4 t^-2: their sum has no region
    rf = projector_series("[12]", 3) + projector_series("[1,2]", 3)
    with pytest.raises(ExpansionError,
                       match=r"no common expansion region.*\(-4, -2\) \+ "
                             r"\(4, 2\)"):
        expand(rf, SeriesWindow(-6, 6, -30, 30))


def test_expand_rejects_mixed_orientation():
    # opposite factors admit no common expansion region
    rf = rf_factored(ONE, (1, (2, 2)), (1, (-2, -2)))
    with pytest.raises(ExpansionError, match=r"\(-2, -2\) \+ \(2, 2\)"):
        expand(rf, SeriesWindow(-4, 4, -8, 8))
    rf = rf_factored(ONE, (1, (1, -1)), (1, (-2, 2)), (1, (0, 1)))
    with pytest.raises(ExpansionError, match=r"2\*\(1, -1\) \+ \(-2, 2\)"):
        expand(rf, SeriesWindow(-4, 4, -8, 8))


def test_expand_steep_factors():
    # lam = (141, 2) weighs both q t^-70 and q^-1 t^71 by 1; q^a t^b with
    # a = i - j, b = 71 j - 70 i gives i = 71 a + b and j = b + 70 a
    rf = rf_factored(ONE, (1, (1, -70)), (1, (-1, 71)))
    assert expand(rf, SeriesWindow(0, 3, 0, 5)) \
        == {(q, t): 1 for q in range(6) for t in range(4)}
    assert expand(rf, SeriesWindow(-12, 12, -60, 60)) \
        == {(a, b): 1 for a in range(-60, 61) for b in range(-12, 13)
            if b + 70 * a >= 0 and 71 * a + b >= 0}


# ---------------------------------------------------------------------------
# exact division

@settings(max_examples=300, deadline=None)
@given(laurents_a, laurents_a)
def test_exact_divide_recovers_factor(p, d):
    if d.is_zero():
        return
    q = exact_divide(p * d, d)
    assert q is not None and q == p


def test_exact_divide_rejects_non_multiple():
    num = qta(4, 2) + qta(6, 2)  # q^4 t^2 (1 + q^2)
    den = ONE + qta(2) + qta(4)
    assert exact_divide(num, den) is None
    assert exact_divide(ONE + qta(2), ONE + qta(2) + qta(4)) is None


def test_exact_divide_leading_coefficient_two():
    two_q = one_plus(1) * 2  # 2 + 2q
    assert exact_divide(two_q * one_plus(0, 1), two_q) == one_plus(0, 1)
    assert exact_divide(one_plus(1), qta(coeff=2)) is None


def test_exact_divide_zero_denominator():
    for num in (ONE + qta(2, 1), LaurentPoly.zero()):
        with pytest.raises(ZeroDivisionError, match="zero denominator"):
            exact_divide(num, LaurentPoly.zero())


def _exact_divide_reference(num, den):
    """Division by rescanning the remainder for its least term: the
    quadratic loop that exact_divide replaced, kept as its oracle."""
    if num.is_zero():
        return LaurentPoly.zero()
    m0, c0 = den.min_term()
    lo = tuple(min(m[i] for m in num.terms)
               - max(m[i] for m in den.terms) for i in range(3))
    hi = tuple(max(m[i] for m in num.terms)
               - min(m[i] for m in den.terms) for i in range(3))
    order = lambda m: (m[1], m[0], m[2])
    rem = dict(num.terms)
    quo = {}
    while rem:
        m = min(rem, key=order)
        c = rem.pop(m)
        if c % c0:
            return None
        sigma = (m[0] - m0[0], m[1] - m0[1], m[2] - m0[2])
        if any(not lo[i] <= sigma[i] <= hi[i] for i in range(3)):
            return None
        coeff = c // c0
        quo[sigma] = coeff
        for mm, cc in den.terms.items():
            if mm == m0:
                continue
            key = (sigma[0] + mm[0], sigma[1] + mm[1], sigma[2] + mm[2])
            v = rem.get(key, 0) - coeff * cc
            if v:
                rem[key] = v
            elif key in rem:
                del rem[key]
    return LaurentPoly(quo)


def test_exact_divide_binomial_matches_reference():
    # two-term dens c0 x^m0 + c1 x^m1, divided along the lines of m1 - m0
    dens = [
        qta(coeff=2) - qta(2, 1, coeff=3),  # 2 - 3 q^2 t: non-unit c0, c1
        qta(0, 0, 1) - ONE,  # -1 + a: negative c0, pure-a m
        ONE - qta(-2, 1),  # m = q^-2 t: negative q part
        one_plus(0, 2),  # m = t^2
        one_minus(3),  # m = q^3: first nonzero coordinate q
        qta(5, -1, 2) * one_minus(1, 0, -1),  # m0 away from the origin
    ]
    quotients = [ONE, one_plus(1, 1, -1) * 3, qta(-3, 2, 1) - qta(4, -1),
                 one_minus(0, 0, 2) * qta(7, 3) + one_plus(-1, 1)]
    for den in dens:
        m0 = den.min_term()[0]
        m1, = (m for m in den.terms if m != m0)
        y = lambda j: qta(*(j * (b - a) for a, b in zip(m0, m1)))
        # 1 + y^40 leaves a run of zero quotient terms along its line
        cases = [(p * den, p) for p in quotients + [ONE + y(40)]]
        cases += [(num + qta(1, 1, 1), None) for num, _p in cases]
        cases += [
            (LaurentPoly.zero(), LaurentPoly.zero()),
            # x^m0 t lies on no line of den here: a line holding one term
            (den + qta(*m0) * qta(0, 1), None),
            # the line's last term leaves a nonzero residue
            (den * (ONE + y(1)) + qta(*m0) * y(2), None),
        ]
        for num, want in cases:
            assert exact_divide(num, den) == want
            assert _exact_divide_reference(num, den) == want
    # a mid-line step that does not divide: (2 + 2y - 6y^2) / (2 - 3y)
    # needs Q_1 = 5/2, and rounding it down to 2 would leave residue 0 at y^2
    den, y = qta(coeff=2) - qta(2, 1, coeff=3), qta(2, 1)
    num = qta(coeff=2) + y * 2 - y * y * 6
    assert exact_divide(num, den) is None
    assert _exact_divide_reference(num, den) is None
    # a monomial den runs the heap loop
    den = qta(2, 1, coeff=3)
    assert exact_divide(one_plus(4, 1) * den, den) == one_plus(4, 1)
    assert exact_divide(one_plus(4, 1) * den + ONE, den) is None


def _random_binomial(rng):
    """c0 x^m0 + c1 x^(m0 + step): c0 a unit or not, m0 off the origin, and
    a step whose first moving coordinate is q, t or a."""
    moves = rng.choice("qta")
    if moves == "q":
        t = rng.randint(0, 2)
        q = rng.choice([k for k in range(-3, 4) if k and (t or k > 0)])
    else:
        q, t = 0, rng.randint(1, 3) if moves == "t" else 0
    step = (q, t, rng.randint(-2, 2) if moves != "a" else rng.randint(1, 3))
    m0 = (0, 0, 0)
    while m0 == (0, 0, 0):
        m0 = tuple(rng.randint(-4, 4) for _ in range(3))
    c0 = rng.choice((1, -1, 2, -2, 3, -3))
    c1 = rng.choice([c for c in range(-3, 4) if c])
    m1 = tuple(a + b for a, b in zip(m0, step))
    return LaurentPoly({m0: c0, m1: c1})


def test_binomial_division_matches_reference_on_random_cases():
    # 3,000 exact divisions and 3,000 with one term changed; a monomial is
    # never a multiple of a binomial, so every changed one is inexact
    rng = random.Random(20141)
    for _ in range(3000):
        den = _random_binomial(rng)
        quo = LaurentPoly({
            tuple(rng.randint(-3, 3) for _ in "qta"): rng.randint(-3, 3)
            for _ in range(rng.randint(1, 6))})
        num = quo * den
        assert exact_divide(num, den) == quo
        assert _exact_divide_reference(num, den) == quo
        # often a line's last term or a step in the middle of a line
        if num.terms and rng.random() < 0.7:
            e = rng.choice(sorted(num.terms))
        else:
            e = tuple(rng.randint(-6, 6) for _ in range(3))
        num = num + qta(*e, coeff=rng.choice((1, -1, 2, -3)))
        assert _exact_divide_reference(num, den) is None
        assert exact_divide(num, den) is None


def _cross_multiplied(parts):
    """An assembly's sum as + builds it: over the product of every
    summand's denominator."""
    total = None
    for weight, rf in parts:
        total = weight * rf if total is None else total + weight * rf
    return total


def test_exact_divide_matches_reference():
    t3 = [m for m in range(1, 21) if m % 3]
    parts = [_torus3_parts(m, N, False)[0]
             for N in (2, 3, 4, 5, "homfly") for m in t3]
    parts += [_torus3_parts(m, 0, True)[0] for m in t3]
    parts += [_torus2_parts(m, N, False)
              for N in (2, 3, 4, 5, "homfly") for m in range(1, 42, 2)]
    rfs = [_cross_multiplied(p) for p in parts]
    assert max(len(rf.den.terms) for rf in rfs) == 81
    exact = [(rf.num, rf.den) for rf in rfs]
    perturbed = []
    for num, den in exact:
        # one added monomial makes the division inexact; adding it mid-way
        # lets the division run past it before the box check stops it
        terms = sorted(num.terms, key=lambda m: (m[1], m[0], m[2]))
        q, t, a = terms[len(terms) // 2]
        perturbed.append((num + qta(q + 1, t, a), den))
    results = []
    for num, den in exact + perturbed:
        quo = exact_divide(num, den)
        assert quo == _exact_divide_reference(num, den)
        results.append(quo)
    # all but the 35 unreduced HOMFLY sums, which are not polynomials
    assert sum(quo is not None for quo in results[:len(exact)]) == 154
    assert all(quo is None for quo in results[len(exact):])


# ---------------------------------------------------------------------------
# catalogue

def test_formula_parameter_validation():
    with pytest.raises(KeyError):
        formula("P_nonsense")
    with pytest.raises(ValueError):
        formula("P2_dN")
    with pytest.raises(ValueError):
        formula("P2_dN", N=3, n=2)


@pytest.mark.parametrize("build", [
    lambda: stable_series(2, "homfly"), lambda: stable_series(1, 1),
    lambda: stable_series_reduced(2, 0), lambda: formula("P2_dN", N=None),
    lambda: mod_N_series(3, 4), lambda: mod_N_series(0, 3),
    lambda: formula("P_ZN", n=2, N="homfly"),
    lambda: projector_series("[12]", 1)])
def test_catalogue_parameters_checked(build):
    with pytest.raises(ValueError, match="N >= 2|N prime"):
        build()


def test_mod_N_series_is_the_written_out_product():
    """P_ZN against its product written out over k < n and i <= (n-1)/N."""
    for n in range(1, 9):
        for N in (2, 3, 5, 7):
            num = ONE
            factors = []
            for k in range(n):
                num = num * one_plus(2 * N + 2 * k, 2 * k + 1)
                factors.append((1, (2 * k + 2, 2 * k)))
            for i in range((n - 1) // N + 1):
                num = num * one_minus(2 * N + 2 * i * N, 2 * i * N)
                factors.append((-1, (2 * N + 2 * i * N, 2 * i * N + 1)))
            want = rf_factored(num, *factors)
            got = mod_N_series(n, N)
            assert (got.num, got.den_factors) == (want.num, want.den_factors)


_S, _R = stable_series, stable_series_reduced


def _P(shape, variant, reduced=False):
    if variant == "dN":
        return lambda N: projector_series(shape, N, variant, reduced)
    return lambda: projector_series(shape, None, variant, reduced)


# every catalogue name, in list_formulas() order, and its direct builder
_CATALOGUE_REFERENCE = {
    "P1_dN": lambda N: _S(1, N), "P2_dN": lambda N: _S(2, N),
    "P2_red_dN": lambda N: _R(2, N), "P3_dN": lambda N: _S(3, N),
    "P3_red_dN": lambda N: _R(3, N), "P4_dN": lambda N: _S(4, N),
    "P4_red_dN": lambda N: _R(4, N), "P5_dN": lambda N: _S(5, N),
    "P5_red_dN": lambda N: _R(5, N), "P_ZN": mod_N_series,
    "P_antisym2_dN": _P("[1,2]", "dN"),
    "P_antisym2_homfly": _P("[1,2]", "homfly"),
    "P_antisym2_red_dN": _P("[1,2]", "dN", True),
    "P_antisym2_red_homfly": _P("[1,2]", "homfly", True),
    "P_antisym3_dN": _P("[1,2,3]", "dN"),
    "P_antisym3_homfly": _P("[1,2,3]", "homfly"),
    "P_antisym3_red_d0": _P("[1,2,3]", "d0", True),
    "P_antisym3_red_dN": _P("[1,2,3]", "dN", True),
    "P_antisym3_red_homfly": _P("[1,2,3]", "homfly", True),
    "P_hook12_3_dN": _P("[12,3]", "dN"),
    "P_hook12_3_homfly": _P("[12,3]", "homfly"),
    "P_hook12_3_red_d0": _P("[12,3]", "d0", True),
    "P_hook12_3_red_dN": _P("[12,3]", "dN", True),
    "P_hook12_3_red_homfly": _P("[12,3]", "homfly", True),
    "P_hook13_2_dN": _P("[13,2]", "dN"),
    "P_hook13_2_homfly": _P("[13,2]", "homfly"),
    "P_hook13_2_red_d0": _P("[13,2]", "d0", True),
    "P_hook13_2_red_dN": _P("[13,2]", "dN", True),
    "P_hook13_2_red_homfly": _P("[13,2]", "homfly", True),
    "P_sym1_dN": _P("[1]", "dN"), "P_sym1_homfly": _P("[1]", "homfly"),
    "P_sym1_red_dN": _P("[1]", "dN", True),
    "P_sym1_red_homfly": _P("[1]", "homfly", True),
    "P_sym2_dN": _P("[12]", "dN"), "P_sym2_homfly": _P("[12]", "homfly"),
    "P_sym2_red_dN": _P("[12]", "dN", True),
    "P_sym2_red_homfly": _P("[12]", "homfly", True),
    "P_sym3_dN": _P("[123]", "dN"), "P_sym3_homfly": _P("[123]", "homfly"),
    "P_sym3_red_d0": _P("[123]", "d0", True),
    "P_sym3_red_dN": _P("[123]", "dN", True),
    "P_sym3_red_homfly": _P("[123]", "homfly", True),
}


def _outcome(build, **params):
    try:
        rf = build(**params)
    except ValueError as exc:
        return "ValueError", str(exc)
    return rf.num, rf.den_factors


def test_catalogue_is_the_reference_table():
    assert list_formulas() == list(_CATALOGUE_REFERENCE)
    assert len(_CATALOGUE_REFERENCE) == 42
    raised = 0
    for name, build in _CATALOGUE_REFERENCE.items():
        if name == "P_ZN":
            grid = [{"n": n, "N": N} for n in range(1, 6) for N in (2, 3, 5)]
        elif name.endswith("_dN"):
            grid = [{"N": N} for N in range(2, 6)]
        else:
            grid = [{}]
        for params in grid:
            want = _outcome(build, **params)
            assert _outcome(formula, name=name, **params) == want, \
                (name, params)
            raised += want[0] == "ValueError"
    # the uncatalogued stable series: n = 4, 5 at N = 2, 4, 5, unreduced and
    # reduced, all named in their error
    assert raised == 12
    with pytest.raises(ValueError, match="no catalogued stable series "
                                         "for n=4, N=2"):
        formula("P4_dN", N=2)
    with pytest.raises(ValueError, match=r"P_ZN takes parameters "
                                         r"\['N', 'n'\], got \['N'\]"):
        formula("P_ZN", N=3)
    with pytest.raises(ValueError, match=r"P_sym2_homfly takes parameters "
                                         r"\[\], got \['N'\]"):
        formula("P_sym2_homfly", N=3)


def test_den_is_the_product_of_the_binomials():
    """den, built by the one binomial constructor, is the product of the
    binomials 1 - c x^m spelt out from qta."""
    def reference(rf):
        return product(ONE - qta(*m, coeff=c) for c, m in rf.den_factors)

    checked = 0
    for name in list_formulas():
        if name == "P_ZN":
            grid = [{"n": n, "N": N} for n in range(1, 6) for N in (2, 3, 5)]
        elif name.endswith("_dN"):
            grid = [{"N": N} for N in range(2, 6)]
        else:
            grid = [{}]
        for params in grid:
            try:
                rf = formula(name, **params)
            except ValueError:  # not catalogued at these parameters
                continue
            assert rf.den == reference(rf), (name, params)
            checked += 1
    assert checked == 113
    # m = (0, 0, 0) makes the constant 1 - c
    for c in (-1, 2, 3):
        rf = RationalFunction(one_plus(1), ((c, (0, 0, 0)), (1, (2, 1, 0))))
        assert rf.den == reference(rf) == one_minus(2, 1) * (1 - c)


def test_formula_calls_the_builders_of_the_module(monkeypatch):
    """formula looks its builder up in the series module at call time, so a
    wrapper set there (a tracer's span, a patch) sees every catalogue call."""
    import koszulknots.series as series
    calls = []

    def recorder(builder):
        def record(*args, **params):
            calls.append((builder, args, params))
            return builder
        return record

    for builder in ("projector_series", "stable_series",
                    "stable_series_reduced", "mod_N_series"):
        monkeypatch.setattr(series, builder, recorder(builder))
    assert formula("P3_dN", N=3) == "stable_series"
    assert formula("P4_red_dN", N=3) == "stable_series_reduced"
    assert formula("P_ZN", n=2, N=5) == "mod_N_series"
    assert formula("P_hook12_3_red_dN", N=3) == "projector_series"
    assert formula("P_sym2_homfly") == "projector_series"
    assert calls == [
        ("stable_series", (3,), {"N": 3}),
        ("stable_series_reduced", (4,), {"N": 3}),
        ("mod_N_series", (), {"n": 2, "N": 5}),
        ("projector_series", ("[12,3]",),
         {"variant": "dN", "reduced": True, "N": 3}),
        ("projector_series", ("[12]",),
         {"variant": "homfly", "reduced": False})]


def test_stable_denominators_are_the_model():
    """The stable series are over 1 - q^i t^j for the degree (i, j) of each
    even generator of the stable model; the reduced ones drop x_0's."""
    cases = [(n, N) for n in (1, 2, 3) for N in range(2, 8)]
    for n, N in cases + [(4, 3), (5, 3)]:
        want = tuple((1, tuple(d))
                     for d in stable_presentation(n, N).even_degrees)
        assert stable_series(n, N).den_factors == want
        assert stable_series_reduced(n, N).den_factors == want[1:]
        assert all(type(m) is tuple
                   for _c, m in stable_series(n, N).den_factors)


def test_series_window_rejects_inverted():
    for args in ((0, -1, 0, 10), (0, 2, 5, 4)):
        with pytest.raises(ValueError, match="empty window"):
            SeriesWindow(*args)
    assert SeriesWindow(1, 1, 3, 3).contains(3, 1)


def test_catalogue_is_complete():
    names = list_formulas()
    assert "P2_dN" in names and "P_ZN" in names
    for shape in ("sym1", "sym2", "antisym2", "sym3", "antisym3",
                  "hook12_3", "hook13_2"):
        assert f"P_{shape}_homfly" in names
        assert f"P_{shape}_dN" in names


def test_p2_transcription():
    # (1 - q^6 - q^8 t^2 + q^10 t^2 + q^10 t^3 - q^14 t^3)
    #   / ((1-q^2)(1-q^4 t^2)) at N = 3
    num = (ONE - qta(6) - qta(8, 2) + qta(10, 2) + qta(10, 3) - qta(14, 3))
    assert identity_check(formula("P2_dN", N=3),
                          rf_factored(num, (1, (2, 0)), (1, (4, 2))))


def test_pzn_n2_simplifies():
    rhs = rf_factored(one_plus(2) * one_plus(6, 3), (1, (4, 2)))
    assert identity_check(formula("P_ZN", n=2, N=2), rhs)


def test_reduced_special_case_n3_n2():
    # at N = 2 the three-strand reduced numerator degenerates
    rf = stable_series_reduced(3, 2)
    num = one_minus(8, 4) * one_plus(6, 3)
    assert identity_check(rf, rf_factored(num, (1, (4, 2)), (1, (6, 4))))


# ---------------------------------------------------------------------------
# series vs homology oracles (small windows; the acceptance suite scales up)

@pytest.mark.parametrize("n,N", [(2, 2), (2, 3)])
def test_stable_series_matches_homology(n, N):
    pres = stable_presentation(n, N)
    tmax, qmax = 10, 36
    table = homology_table(pres, QQ, Window(0, qmax, 0, tmax))
    coeffs = expand(stable_series(n, N), SeriesWindow(0, tmax, 0, qmax))
    model = {(d.q, d.t): g.free_rank for d, g in table.groups.items()
             if g.free_rank}
    assert model == {k: v for k, v in coeffs.items() if v}


def test_reduced_series_matches_homology():
    pres = reduced_presentation(3, 3)
    table = homology_table(pres, QQ, Window(0, 40, 0, 10))
    coeffs = expand(stable_series_reduced(3, 3), SeriesWindow(0, 10, 0, 40))
    model = {(d.q, d.t): g.free_rank for d, g in table.groups.items()
             if g.free_rank}
    assert model == {k: v for k, v in coeffs.items() if v}


def test_mod_n_series_matches_homology():
    pres = stable_presentation(2, 2)
    table = homology_table(pres, prime_field(2), Window(0, 24, 0, 8))
    coeffs = expand(mod_N_series(2, 2), SeriesWindow(0, 8, 0, 24))
    model = {(d.q, d.t): g.free_rank for d, g in table.groups.items()
             if g.free_rank}
    assert model == {k: v for k, v in coeffs.items() if v}


# ---------------------------------------------------------------------------
# assemblies

def test_torus2_unknot():
    for N in (2, 3, 4):
        asm = assemble_torus2(1, N)
        rhs = rf_factored(one_minus(2 * N), (1, (2, 0)))
        assert identity_check(asm.rational, rhs)
    asm = assemble_torus2(1, 2)
    assert asm.is_polynomial
    assert sum(asm.polynomial.terms.values()) == 2


def test_torus2_reduced_trefoil_dimension():
    asm = assemble_torus2(3, 2, reduced=True)
    assert asm.is_polynomial
    assert sum(asm.polynomial.terms.values()) == 3


def test_torus3_reduced_trefoil():
    asm = assemble_torus3(2, 3, reduced=True)
    assert asm.is_polynomial
    assert normalize_lowest(asm.polynomial, 4) \
        == qta(4) + qta(8, 2) + qta(12, 3)


def test_torus3_d0_trefoil():
    asm = assemble_torus3(2, 0, reduced=True)
    assert asm.is_polynomial and asm.nonnegative()


def test_torus3_reduced_matches_reduced_khovanov():
    # T(3,4) over SL(2), reduced: five-dimensional, thin
    asm = assemble_torus3(4, 2, reduced=True)
    assert asm.is_polynomial
    assert normalize_lowest(asm.polynomial) == (
        ONE + qta(4, 2) + qta(6, 3) + qta(6, 4) + qta(10, 5))


def test_assembly_argument_errors():
    with pytest.raises(ValueError):
        assemble_torus3(6, 2)
    with pytest.raises(ValueError):
        assemble_torus2(4, 2)
    with pytest.raises(ValueError):
        assemble_torus3(2, 0, reduced=False)


def test_assembly_matches_cross_multiplied_sum():
    t3 = [m for m in range(1, 41) if m % 3]
    variants = [(N, reduced) for N in (2, 3, 4, 5, "homfly")
                for reduced in (False, True)]
    cases = [(assemble_torus3(m, N, reduced),
              _torus3_parts(m, N, reduced)[0])
             for N, reduced in variants + [(0, True)] for m in t3]
    cases += [(assemble_torus2(m, N, reduced), _torus2_parts(m, N, reduced))
              for N, reduced in variants for m in range(1, 82, 2)]
    assert len(cases) == 707
    for asm, parts in cases:
        old = _cross_multiplied(parts)
        assert asm.polynomial == exact_divide(old.num, old.den)
        assert identity_check(asm.rational, old)
        factors = asm.rational.den_factors
        assert len(factors) <= 16
        assert all((m[1], m[0], m[2]) > (0, 0, 0) for _c, m in factors)
        assert product(ONE - qta(*m, coeff=c) for c, m in factors) \
            == asm.rational.den
        assert len(asm.rational.den.terms) <= 16


def test_assembly_polynomial_status_on_the_grid():
    # the grid of test_assembly_matches_cross_multiplied_sum; every assembly
    # is a polynomial except the unreduced HOMFLY ones, which are
    # infinite-dimensional, and reduced T(3, m) at N = 3, 4, 5 with m >= 4,
    # the reduced (3, m) gap of ROADMAP item 10
    t3 = [m for m in range(1, 41) if m % 3]
    variants = [(N, reduced) for N in (2, 3, 4, 5, "homfly")
                for reduced in (False, True)]
    cases = [(3, m, N, reduced)
             for N, reduced in variants + [(0, True)] for m in t3]
    cases += [(2, m, N, reduced)
              for N, reduced in variants for m in range(1, 82, 2)]
    assemble = {3: assemble_torus3, 2: assemble_torus2}
    not_polynomial = {(n, m, N, reduced) for n, m, N, reduced in cases
                      if not assemble[n](m, N, reduced).is_polynomial}
    homfly = {c for c in cases if c[2] == "homfly" and not c[3]}
    gap = {(3, m, N, True) for N in (3, 4, 5) for m in t3 if m >= 4}
    assert (len(cases), len(homfly), len(gap)) == (707, 68, 75)
    assert not_polynomial == homfly | gap


def test_assembly_expansion_matches_polynomial():
    window = SeriesWindow(-12, 12, -60, 60)
    asms = [assemble_torus3(m, N) for N in (2, 3, 4, 5)
            for m in range(1, 11) if m % 3]
    asms += [assemble_torus2(m, N) for N in (2, 3, 4, 5)
             for m in range(1, 12, 2)]
    assert len(asms) == 52
    for asm in asms:
        want = {(q, t): c
                for (q, t), c in asm.polynomial.coefficients_qt().items()
                if window.contains(q, t)}
        got = {k: v for k, v in expand(asm.rational, window).items() if v}
        assert got == want


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("m", [10, 20, 31, 40])
def test_torus3_assembly_has_the_stable_limit(m, N):
    """Stable-limit oracle: below t = 4 floor(m/3) the unreduced d_N
    assembly of T(3, m) agrees with the three-strand stable series, both
    shifted so their lowest term sits at (0, 0), for every q up to the
    assembly's largest q there."""
    tcut = 4 * (m // 3)
    asm = {(q, t): c for (q, t), c in normalize_lowest(
        assemble_torus3(m, N).polynomial).coefficients_qt().items()
        if t < tcut}
    window = SeriesWindow(0, tcut - 1, min(q for q, _t in asm),
                          max(q for q, _t in asm))
    stable = normalize_lowest(LaurentPoly({
        (q, t, 0): c for (q, t), c in expand(stable_series(3, N),
                                             window).items()}))
    assert len(asm) >= 16 and stable.coefficients_qt() == asm


def test_finish_sums_over_common_factor_list():
    # 1/(1-q^2)^2 + q^2/(1-q^-2): the second factor is -q^-2 (1-q^2) and
    # the common denominator is (1-q^2)^2, not (1-q^2)^2 (1-q^-2)
    parts = [(ONE, rf_factored(ONE, (1, (2, 0)), (1, (2, 0)))),
             (qta(2), rf_factored(ONE, (1, (-2, 0))))]
    asm = _finish(parts, None)
    assert asm.rational.den == one_minus(2) * one_minus(2)
    assert identity_check(asm.rational, _cross_multiplied(parts))
    assert asm.polynomial is None
    with pytest.raises(ValueError, match="must be \\+-1"):
        _finish([(ONE, rf_factored(ONE, (2, (2, 0))))], None)


def test_assemblies_divide_through_the_module_exact_divide(monkeypatch):
    """_finish divides by each lcm factor through series.exact_divide, so a
    wrapper set there (a tracer's span, a patch) sees every division."""
    import koszulknots.series as series
    divide, calls = series.exact_divide, []

    def record(num, den):
        calls.append(den)
        return divide(num, den)

    monkeypatch.setattr(series, "exact_divide", record)
    for assemble, m, N in ((assemble_torus3, 20, 3), (assemble_torus2, 41, 4)):
        calls.clear()
        asm = assemble(m, N)
        assert asm.is_polynomial
        assert len(calls) == len(asm.rational.den_factors) > 0
    monkeypatch.setattr(series, "exact_divide", lambda num, den: None)
    assert not assemble_torus3(20, 3).is_polynomial
    assert not assemble_torus2(41, 4).is_polynomial


def test_homfly_assembly_is_rational():
    asm = assemble_torus3(4, "homfly")
    assert isinstance(asm, Assembly)
    assert asm.rational.num is not None


def test_normalize_lowest():
    p = qta(-6, -2) + qta(-2, 0)
    assert normalize_lowest(p, 0, 0) == ONE + qta(4, 2)


# ---------------------------------------------------------------------------
# projector series identities (HOMFLY); the dN expansions are exercised in
# the acceptance suite against computed homology

def test_column_identities_homfly():
    pairs = [
        (("[12]", "[1,2]"), "[1]"),
        (("[123]", "[12,3]"), "[12]"),
        (("[1,2,3]", "[13,2]"), "[1,2]"),
    ]
    for (a, b), whole in pairs:
        lhs = projector_series(a, None, "homfly") \
            + projector_series(b, None, "homfly")
        assert identity_check(lhs, projector_series(whole, None, "homfly"))


def test_reduced_dN_column_identity_top_row():
    # P_[12]^red = P_[123]^red + P_[12,3]^red holds for the displayed
    # reduced series of the symmetric row
    for N in (2, 3, 4):
        lhs = projector_series("[123]", N, "dN", reduced=True) \
            + projector_series("[12,3]", N, "dN", reduced=True)
        rhs = projector_series("[12]", N, "dN", reduced=True)
        assert identity_check(lhs, rhs)


def test_projector_series_rejects_unreduced_d0():
    # d0 is defined on the reduced algebras only
    for shape in ("[123]", "[1,2,3]", "[12,3]", "[13,2]"):
        with pytest.raises(ValueError, match="reduced homology only"):
            projector_series(shape, None, "d0", reduced=False)


def test_projector_series_names_unknown_variant():
    for shape in ("[1]", "[12]", "[123]"):
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            projector_series(shape, 3, "bogus")
    with pytest.raises(ValueError, match="no d0 series for shape \\[1\\]"):
        projector_series("[1]", None, "d0", reduced=True)


@pytest.mark.parametrize("shape,cells", [
    ("[123]", 6), ("[1,2,3]", 11), ("[12,3]", 15), ("[13,2]", 21)])
def test_d0_series_matches_homology(shape, cells):
    # d0 sends one odd generator to a monomial f in the evens, a
    # nonzerodivisor: the homology is k[evens]/(f) times an exterior algebra
    pres = projector_presentation(shape, 0)
    table = homology_table(pres, QQ, Window(-40, 40, -10, 10))
    rf = projector_series(shape, None, "d0", True).substitute_a(t_per_a=-1)
    coeffs = expand(rf, SeriesWindow(-10, 10, -40, 40))
    model = {(d.q, d.t): g.free_rank for d, g in table.groups.items()
             if g.free_rank}
    assert model == {k: v for k, v in coeffs.items() if v}
    assert len(model) == cells


# ---------------------------------------------------------------------------
# Heegaard-Floer oracle: torus knots are L-space knots, so their knot Floer
# homology is the staircase of the Alexander polynomial (Ozsvath-Szabo, "On
# knot Floer homology and lens space surgeries", Topology 44 (2005))

def _alexander_torus3(m):
    """Coefficients, lowest degree first, of
    (t^{3m} - 1)(t - 1) / ((t^3 - 1)(t^m - 1)), by long division."""
    def binomial(n):  # t^n - 1
        return [-1] + [0] * (n - 1) + [1]

    def mul(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] += a * b
        return out

    num, den = mul(binomial(3 * m), binomial(1)), mul(binomial(3), binomial(m))
    quo = [0] * (len(num) - len(den) + 1)
    for i in reversed(range(len(quo))):
        quo[i] = num[i + len(den) - 1]  # den is monic
        for j, d in enumerate(den):
            num[i + j] -= quo[i] * d
    assert not any(num)
    return quo


def _staircase(alexander):
    """Sum of q^{2(n_k - n_min)} t^{M_k - M_min} over the exponents
    n_0 > n_1 > ... of the Alexander polynomial, with M_0 = 0 and
    M_k = M_{k-1} - 2(n_{k-1} - n_k) + 1 at odd k, M_{k-1} - 1 at even k."""
    ns = [n for n in reversed(range(len(alexander))) if alexander[n]]
    ms = [0]
    for k in range(1, len(ns)):
        step = 2 * (ns[k - 1] - ns[k]) - 1 if k % 2 else 1
        ms.append(ms[-1] - step)
    return LaurentPoly({(2 * (n - ns[-1]), M - min(ms), 0): 1
                        for n, M in zip(ns, ms)})


def test_alexander_torus3_trefoil():
    assert _alexander_torus3(2) == [1, -1, 1]


def test_torus3_d0_is_the_hf_staircase():
    ms = [m for m in range(1, 80) if m % 3]
    assert len(ms) == 53
    for m in ms:
        poly = assemble_torus3(m, 0, reduced=True).polynomial
        assert poly == _staircase(_alexander_torus3(m)), m


# ---------------------------------------------------------------------------
# Rosso-Jones oracle: at t = -1 an unreduced sl_N series is the quantum sl_N
# invariant of the knot, which for a coprime torus knot is a sum over hooks
# (Rosso and Jones, "On the invariants of torus knots derived from quantum
# groups", J. Knot Theory Ramifications 2 (1993)); Laurent polynomials in q
# are {exponent: coefficient} dicts here

def _qmul(f, g):
    out = {}
    for a, x in f.items():
        for b, y in g.items():
            out[a + b] = out.get(a + b, 0) + x * y
    return {e: c for e, c in out.items() if c}


def _qdiv(f, g):
    """f / g by long division, for a g with leading coefficient 1 that
    divides f."""
    f, quo, top = dict(f), {}, max(g)
    lowest = min(f, default=0) - min(g)
    while f:
        e, c = max(f) - top, f[max(f)]
        assert e >= lowest, "inexact division"
        quo[e] = c
        for k, v in g.items():
            f[k + e] = f.get(k + e, 0) - c * v
            if not f[k + e]:
                del f[k + e]
    return quo


def _qint(k):
    """The quantum integer [k] = (q^k - q^-k) / (q - q^-1), k >= 0."""
    return {1 - k + 2 * i: 1 for i in range(k)}


def _rosso_jones(n, m, N):
    """Unreduced quantum sl_N invariant of T(n, m), n and m coprime: the sum
    over the hooks (n - k, 1^k) of (-1)^k q^(2 m kappa / n) times the
    quantum dimension prod [N + c] / [hook] over the boxes, with contents
    c = -k .. n - k - 1 summing to kappa, so 2 m kappa / n = m (n - 1 - 2k).
    """
    total = {}
    for k in range(n):
        dim = den = {0: 1}
        for c in range(-k, n - k):
            dim = _qmul(dim, _qint(N + c))
        for h in (n, *range(1, n - k), *range(1, k + 1)):
            den = _qmul(den, _qint(h))
        for e, v in _qdiv(dim, den).items():
            e += m * (n - 1 - 2 * k)
            total[e] = total.get(e, 0) + (-1) ** k * v
    return {e: v for e, v in total.items() if v}


def test_rosso_jones_at_sl2():
    # the unknot T(2, 1) is [2] up to the framing monomial, and the trefoil
    # T(2, 3) is [2] q^6 V(q^-2) for the Jones polynomial V = t + t^3 - t^4
    # of the right-handed trefoil
    assert _rosso_jones(2, 1, 2) == _qmul(_qint(2), {2: 1})
    assert _rosso_jones(2, 3, 2) == _qmul(_qint(2), {4: 1, 0: 1, -2: -1})


@pytest.mark.parametrize("n,assemble,cases", [(2, assemble_torus2, 80),
                                              (3, assemble_torus3, 108)])
def test_unreduced_assembly_is_rosso_jones_at_t_minus_1(n, assemble, cases):
    """At t = -1 the unreduced T(n, m) assembly is the Rosso-Jones invariant
    mirrored, q -> q^-1, and times q^((n - 1) m + n (N - 1)): one sign and
    one shift for every N = 2..5 and m < 41 coprime to n."""
    done = 0
    for N in range(2, 6):
        for m in filter(lambda m: gcd(n, m) == 1, range(1, 41)):
            chi = {}
            for (q, t, a), c in assemble(m, N).polynomial.terms.items():
                assert not a
                chi[q] = chi.get(q, 0) + (-1) ** t * c
            shift = (n - 1) * m + n * (N - 1)
            want = {shift - e: v for e, v in _rosso_jones(n, m, N).items()}
            assert {e: c for e, c in chi.items() if c} == want, (n, m, N)
            done += 1
    assert done == cases


def test_reduced_assembly_is_rosso_jones_at_t_minus_1():
    """At t = -1 every reduced assembly that is a polynomial is the
    Rosso-Jones invariant over [N], mirrored, q -> q^-1, and times
    q^((n - 1)(m + N - 1)), with sign +1: T(2, m) for N = 2..5 and odd
    m < 41, T(3, m) at N = 2 for m < 41 coprime to 3 (the Jones
    polynomial), and T(3, m) at N = 3, 4, 5 for m = 1, 2, below the
    reduced (3, m) gap."""
    cases = [(2, m, N) for N in range(2, 6) for m in range(1, 41, 2)]
    cases += [(3, m, 2) for m in range(1, 41) if m % 3]
    cases += [(3, m, N) for N in (3, 4, 5) for m in (1, 2)]
    assemble = {2: assemble_torus2, 3: assemble_torus3}
    for n, m, N in cases:
        chi = {}
        for (q, t, a), c in assemble[n](m, N, True).polynomial.terms.items():
            assert not a
            chi[q] = chi.get(q, 0) + (-1) ** t * c
        shift = (n - 1) * (m + N - 1)
        reduced = _qdiv(_rosso_jones(n, m, N), _qint(N))
        want = {shift - e: v for e, v in reduced.items()}
        assert {e: c for e, c in chi.items() if c} == want, (n, m, N)
    assert len(cases) == 113
