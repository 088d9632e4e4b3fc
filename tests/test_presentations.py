"""Presentations: stable/reduced/projector algebras and their differentials."""

import pytest
from hypothesis import given, settings, strategies as st

from koszulknots.algebra import Degree, Monomial, SuperPolynomial, mono_degree
from koszulknots.homology import Window, window_bases
from koszulknots.presentations import (HOMFLY, PROJECTOR_SHAPES, Presentation,
                                       apply_d, mu, projector_presentation,
                                       reduced_presentation,
                                       stable_presentation)

T_DROP = Degree(0, -1, 0)


def all_presentations():
    out = []
    for n in range(1, 7):
        for N in range(2, 5):
            out.append(stable_presentation(n, N))
            if n >= 2:
                out.append(reduced_presentation(n, N))
    for shape in PROJECTOR_SHAPES:
        for N in range(2, 6):
            out.append(projector_presentation(shape, N))
        out.append(projector_presentation(shape, HOMFLY))
    for shape in ("[123]", "[1,2,3]", "[12,3]", "[13,2]"):
        out.append(projector_presentation(shape, 0))
    return out


def window_monomials(pres, tmax=25, qmax=40, qmin=-40, tmin=-10):
    bases = window_bases(pres, Window(qmin, qmax, tmin, tmax))
    for basis in bases.values():
        yield from basis.monomials


# ---------------------------------------------------------------------------
# d^2 = 0 and homogeneity, exhaustively within a window

@pytest.mark.parametrize("pres", all_presentations(), ids=lambda p: p.name)
def test_d_squared_zero_on_window(pres):
    count = 0
    for m in window_monomials(pres):
        p = SuperPolynomial.from_monomial(m)
        assert apply_d(pres, apply_d(pres, p)).is_zero()
        count += 1
        if count >= 400:
            break
    assert count > 0


@pytest.mark.parametrize("pres", all_presentations(), ids=lambda p: p.name)
def test_differential_is_homogeneous(pres):
    """d preserves q and drops t by exactly one on every generator."""
    assert pres.homogeneity_violations == []


@pytest.mark.parametrize("pres", all_presentations(), ids=lambda p: p.name)
def test_leibniz_rule_on_window(pres):
    """d(ab) = d(a) b + (-1)^{|a|} a d(b) on sampled basis monomial pairs."""
    sample = []
    for m in window_monomials(pres, tmax=8, qmax=24, qmin=-24, tmin=-6):
        sample.append(m)
        if len(sample) >= 12:
            break
    for a in sample:
        for b in sample:
            pa = SuperPolynomial.from_monomial(a)
            pb = SuperPolynomial.from_monomial(b)
            lhs = apply_d(pres, pa * pb)
            sign = -1 if a.parity else 1
            rhs = apply_d(pres, pa) * pb + (pa * apply_d(pres, pb)).scaled(
                sign)
            assert (lhs - rhs).is_zero()


# ---------------------------------------------------------------------------
# stable model specifics

def test_stable_generator_degrees():
    pres = stable_presentation(4, 3)
    assert pres.even_degrees == tuple(
        Degree(2 * k + 2, 2 * k) for k in range(4))
    assert pres.odd_degrees == tuple(
        Degree(6 + 2 * k, 2 * k + 1) for k in range(4))


def test_stable_differential_images():
    # d(xi_k) = [tau^k] x(tau)^N mod tau^n
    pres = stable_presentation(3, 2)
    img = {}
    for j, sym in enumerate(pres.odd_symbols):
        img[sym] = {m: c for m, c in pres.d_images[j].terms.items()}
    assert img["xi0"] == {Monomial((2, 0, 0)): 1}
    assert img["xi1"] == {Monomial((1, 1, 0)): 2}
    assert img["xi2"] == {Monomial((1, 0, 1)): 2, Monomial((0, 2, 0)): 1}


def test_reduced_deletes_unknot_pair():
    full = stable_presentation(4, 2)
    red = reduced_presentation(4, 2)
    assert red.n_even == full.n_even - 1
    assert red.n_odd == full.n_odd - 1
    assert red.even_symbols == full.even_symbols[1:]
    assert red.odd_symbols == full.odd_symbols[1:]
    # d vanishes below xi_N and relabels above it
    assert red.d_images[0].is_zero()  # xi_1, since N = 2
    # d(xi_2) = x_1^2 after relabeling
    assert {m: c for m, c in red.d_images[1].terms.items()} == {
        Monomial((2, 0, 0)): 1}


def test_mu_is_a_cycle():
    for (k, n, N) in [(1, 3, 2), (2, 4, 2), (2, 4, 3), (3, 5, 3)]:
        cycle = mu(k, n, N)
        pres = stable_presentation(n, N)
        assert not cycle.is_zero()
        assert apply_d(pres, cycle).is_zero()


def test_mu_degree():
    # mu_k is homogeneous of degree (2N + 2k + 2, 2k + 1) - (0, 1) + x-part;
    # check homogeneity directly
    pres = stable_presentation(4, 2)
    cycle = mu(2, 4, 2)
    degs = {mono_degree(m, pres) for m in cycle.terms}
    assert len(degs) == 1


# ---------------------------------------------------------------------------
# projector algebras

def test_projector_homfly_has_no_differential():
    for shape in PROJECTOR_SHAPES:
        pres = projector_presentation(shape, HOMFLY)
        assert all(img is None or img.is_zero() for img in pres.d_images)
        # a-grading kept symbolic on the odd generators
        assert all(d.a == 2 for d in pres.odd_degrees)


def test_projector_dN_regrades_a():
    for shape in PROJECTOR_SHAPES:
        pres = projector_presentation(shape, 3)
        assert all(d.a == 0 for d in pres.even_degrees + pres.odd_degrees)


def test_projector_shapes_rejects_unknown():
    with pytest.raises(ValueError):
        projector_presentation("[14]", 2)
    with pytest.raises(ValueError):
        projector_presentation("[12]", 1)


def test_d0_requires_supported_shape():
    with pytest.raises(ValueError):
        projector_presentation("[12]", 0)


def test_displayed_xi0_variant_flags_inhomogeneity():
    """The displayed d_N(xi_0) = x_0^{N-1} breaks homogeneity; the default
    corrected variant x_0^N does not."""
    good = projector_presentation("[13,2]", 3)
    assert good.homogeneity_violations == []
    bad = projector_presentation("[13,2]", 3, xi0_variant="displayed")
    assert bad.homogeneity_violations != []


def test_odd_image_is_refused():
    """d(e1) = x e0 has an odd factor: the presentation refuses it and
    names e1."""
    odd_image = SuperPolynomial(1, {Monomial((1,), (0,)): 1})
    with pytest.raises(ValueError, match="image of e1 is not purely even"):
        Presentation("odd-image", ("x",), (Degree(2, 0),), ("e0", "e1"),
                     (Degree(4, 1), Degree(6, 2)), [None, odd_image])


def test_hook_12_3_differential():
    # d(theta_1) = N x_0^{N-1} x_2-substituted form:
    # N x_0^{N-1} + C(N,2) x_0^{N-2} x_1^2 b_2
    pres = projector_presentation("[12,3]", 3)
    j = pres.odd_symbols.index("theta1")
    terms = {m: c for m, c in pres.d_images[j].terms.items()}
    assert terms == {Monomial((2, 0, 0)): 3, Monomial((1, 2, 1)): 3}
