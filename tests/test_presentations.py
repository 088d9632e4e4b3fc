"""Presentations: stable/reduced/projector algebras and their differentials."""

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from koszulknots.algebra import (Degree, Monomial, StructuralError,
                                 SuperPolynomial, mono_degree, mono_mul)
from koszulknots.homology import Window, window_bases
from koszulknots.presentations import (HOMFLY, PROJECTOR_SHAPES, Presentation,
                                       _PROJECTOR_GENS, apply_d, mu,
                                       projector_presentation,
                                       reduced_presentation,
                                       stable_presentation)
from koszulknots.series import (ExpansionError, SeriesWindow,
                                assemble_torus2, expand, projector_series,
                                qta, rf_factored)

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


@pytest.mark.parametrize("build", [stable_presentation, reduced_presentation])
@pytest.mark.parametrize("N", ["homfly", 2.0])
def test_non_integer_N_is_a_value_error(build, N):
    with pytest.raises(ValueError, match=f"need an integer N >= 2, got {N!r}"):
        build(2, N)


def _as_data(pres):
    return (pres.even_symbols, pres.even_degrees, pres.odd_symbols,
            pres.odd_degrees, pres.d_images)


def _reduced_by_filtering(n, N):
    """The reduced model as first built, kept as the reference: the stable
    images with every x_0 term dropped and the rest relabeled."""
    full = stable_presentation(n, N)
    images = []
    for img in full.d_images[1:]:
        terms = {}
        for m, c in img.terms.items():
            if m.even[0]:
                continue
            terms[Monomial(m.even[1:], tuple(i - 1 for i in m.odd))] = c
        images.append(SuperPolynomial(n - 1, terms))
    return (full.even_symbols[1:], full.even_degrees[1:],
            full.odd_symbols[1:], full.odd_degrees[1:], tuple(images))


@pytest.mark.parametrize("N", range(2, 9))
def test_reduced_images_are_the_power_series_at_x0_zero(N):
    for n in range(1, 10):
        assert (_as_data(reduced_presentation(n, N))
                == _reduced_by_filtering(n, N)), n


@pytest.mark.parametrize("N", range(2, 11))
def test_column_projector_images_are_the_written_out_lists(N):
    def x0(coeff, e, boxes):
        return SuperPolynomial.from_monomial(
            Monomial((e,) + (0,) * (boxes - 1)), coeff)

    want = {"[1,2]": (x0(1, N, 2), x0(N, N - 1, 2)),
            "[1,2,3]": (x0(1, N, 3), x0(N, N - 1, 3),
                        x0(comb(N, 2), N - 2, 3))}
    for shape, images in want.items():
        assert projector_presentation(shape, N).d_images == images


@pytest.mark.parametrize("N", range(2, 8))
def test_one_row_projectors_are_the_stable_model(N):
    for shape, n in (("[12]", 2), ("[123]", 3)):
        assert (_as_data(projector_presentation(shape, N))
                == _as_data(stable_presentation(n, N)))


def test_one_row_homfly_rows_are_the_written_out_tuples():
    """The generator rows that _PROJECTOR_GENS listed term by term."""
    want = {
        "[1]": (("x0",), (Degree(2, 0),), ("xi0",), (Degree(0, 1, 2),)),
        "[12]": (("x0", "x1"), (Degree(2, 0), Degree(4, 2)),
                 ("xi0", "xi1"), (Degree(0, 1, 2), Degree(2, 3, 2))),
        "[123]": (("x0", "x1", "x2"),
                  (Degree(2, 0), Degree(4, 2), Degree(6, 4)),
                  ("xi0", "xi1", "xi2"),
                  (Degree(0, 1, 2), Degree(2, 3, 2), Degree(4, 5, 2))),
    }
    for shape, row in want.items():
        assert _PROJECTOR_GENS[shape] == row
    for shape in ("[12]", "[123]"):
        pres = projector_presentation(shape, HOMFLY)
        assert (pres.even_symbols, pres.even_degrees, pres.odd_symbols,
                pres.odd_degrees) == want[shape]


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


@pytest.mark.parametrize("call,error,match", [
    (lambda: assemble_torus2(5, 0), ValueError, "no d0 decomposition"),
    (lambda: expand(rf_factored(qta(0, 0, 1), (1, (2, 0))),
                    SeriesWindow(0, 2, 0, 4)),
     ExpansionError, "a-grading eliminated"),
    (lambda: projector_series("[9]", 3), ValueError,
     "unknown tableau shape '\\[9\\]'"),
    (lambda: stable_presentation(0, 2), ValueError, "need n >= 1, got 0"),
    (lambda: projector_presentation("[13,2]", 3, "guessed"), ValueError,
     "unknown xi0 variant 'guessed'"),
    (lambda: mu(0, 3, 2), ValueError, "need 1 <= k <= n-1, got k=0, n=3"),
    (lambda: stable_presentation(2, 2).gen("nope"), KeyError, "nope"),
    (lambda: mono_mul(Monomial((1,)), Monomial((1, 0))), StructuralError,
     "different presentations"),
], ids=["torus2_d0", "expand_a_graded", "projector_series_shape",
        "stable_no_strands", "xi0_variant", "mu_k0", "gen_unknown",
        "mono_mul_across"])
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


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
