"""Algebra-with-differential constructors.

Covers the stable Koszul model on n strands, its reduced variant
(x_0 = 0), and the six Young-tableau projector algebras with their
d_N and d_0 differentials.  Differential images are integer
polynomials; homology reduces its matrices mod p, not the images.
"""

from __future__ import annotations

from math import comb

from .algebra import (Degree, Monomial, StructuralError, SuperPolynomial,
                      mono_degree)

PROJECTOR_SHAPES = ("[12]", "[1,2]", "[123]", "[1,2,3]", "[12,3]", "[13,2]")
HOMFLY = "homfly"


class Presentation:
    """Named generator list with degrees and odd-generator differential images.

    ``d_images[j]`` is the (purely even) image of the j-th odd generator,
    or None when the differential kills it.
    """

    def __init__(self, name, even_symbols, even_degrees, odd_symbols,
                 odd_degrees, d_images):
        self.name = name
        self.even_symbols = tuple(even_symbols)
        self.even_degrees = tuple(even_degrees)
        self.odd_symbols = tuple(odd_symbols)
        self.odd_degrees = tuple(odd_degrees)
        self.d_images = tuple(d_images)
        # each image as (c, even exponents) terms, compiled once for d_matrix
        self.image_terms = tuple([(c, m.even) for m, c in img.terms.items()]
                                 if img else [] for img in self.d_images)
        self.homogeneity_violations = []
        self._validate()

    @property
    def n_even(self):
        return len(self.even_symbols)

    @property
    def n_odd(self):
        return len(self.odd_symbols)

    def _validate(self):
        for j, img in enumerate(self.d_images):
            if img is None or img.is_zero():
                continue
            if any(m.odd for m in img.terms):
                raise ValueError(f"differential image of {self.odd_symbols[j]} "
                                 "is not purely even")
            want = self.odd_degrees[j] + Degree(0, -1, 0)
            for m in img.terms:
                got = mono_degree(m, self)
                if got != want:
                    self.homogeneity_violations.append(
                        (self.odd_symbols[j], want, got))

    def one(self):
        return SuperPolynomial.one(self.n_even)

    def gen(self, symbol) -> SuperPolynomial:
        """The generator with the given symbol as a polynomial."""
        if symbol in self.even_symbols:
            i = self.even_symbols.index(symbol)
            exp = [0] * self.n_even
            exp[i] = 1
            return SuperPolynomial.from_monomial(Monomial(tuple(exp)))
        if symbol in self.odd_symbols:
            j = self.odd_symbols.index(symbol)
            return SuperPolynomial.from_monomial(
                Monomial((0,) * self.n_even, (j,)))
        raise KeyError(symbol)


def apply_d(pres: Presentation, p: SuperPolynomial) -> SuperPolynomial:
    """Extend the differential to products as an odd derivation.

    Sign convention d(ab) = d(a)b + (-1)^|a| a d(b): the l-th odd factor
    (ascending index order) contributes with sign (-1)^l.
    """
    if p.n_even != pres.n_even:
        raise StructuralError("polynomial not over this presentation")
    out = SuperPolynomial.zero(pres.n_even)
    for m, c in p.terms.items():
        for l, j in enumerate(m.odd):
            img = pres.d_images[j]
            if img is None or img.is_zero():
                continue
            rest = Monomial(m.even, m.odd[:l] + m.odd[l + 1:])
            sign = -1 if l % 2 else 1
            out = out + img * SuperPolynomial.from_monomial(rest, sign * c)
    return out


def _power_series_xN(n: int, N: int):
    """Coefficients of x(tau)^N mod tau^n as even polynomials over Z."""
    one = SuperPolynomial.one(n)
    zero = SuperPolynomial.zero(n)
    xs = []
    for i in range(n):
        exp = [0] * n
        exp[i] = 1
        xs.append(SuperPolynomial.from_monomial(Monomial(tuple(exp))))
    coeffs = [one] + [zero] * (n - 1)
    for _ in range(N):
        nxt = [zero] * n
        for i in range(n):
            if coeffs[i].is_zero():
                continue
            for j in range(n - i):
                nxt[i + j] = nxt[i + j] + coeffs[i] * xs[j]
        coeffs = nxt
    return coeffs


def stable_presentation(n: int, N: int) -> Presentation:
    """The n-strand Koszul model for stable SL(N) homology, regraded a=q^N."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    even_syms = [f"x{k}" for k in range(n)]
    even_degs = [Degree(2 * k + 2, 2 * k) for k in range(n)]
    odd_syms = [f"xi{k}" for k in range(n)]
    odd_degs = [Degree(2 * N + 2 * k, 2 * k + 1) for k in range(n)]
    images = _power_series_xN(n, N)
    return Presentation(f"stable(n={n},N={N})", even_syms, even_degs,
                        odd_syms, odd_degs, images)


def reduced_presentation(n: int, N: int) -> Presentation:
    """Stable model with the unknot pair (x_0, xi_0) deleted.

    Differentials are evaluated at x_0 = 0, so d(xi_i) vanishes for i < N
    and for i >= N agrees with the (n-N)-strand differential relabeled by
    x_j -> x_{j+1}, xi_j -> xi_{j+N}.
    """
    full = stable_presentation(n, N)
    images = []
    for img in full.d_images[1:]:
        terms = {}
        for m, c in img.terms.items():
            if m.even[0]:
                continue
            terms[Monomial(m.even[1:], tuple(i - 1 for i in m.odd))] = c
        images.append(SuperPolynomial(n - 1, terms))
    return Presentation(f"reduced(n={n},N={N})",
                        full.even_symbols[1:], full.even_degrees[1:],
                        full.odd_symbols[1:], full.odd_degrees[1:], images)


_PROJECTOR_GENS = {
    # shape -> (even syms, even degs, odd syms, homfly odd degs); x0 and xi0
    # come first, and the reduced algebras drop them
    "[1]": (("x0",), (Degree(2, 0),), ("xi0",), (Degree(0, 1, 2),)),
    "[12]": (("x0", "x1"), (Degree(2, 0), Degree(4, 2)),
             ("xi0", "xi1"), (Degree(0, 1, 2), Degree(2, 3, 2))),
    "[1,2]": (("x0", "a1"), (Degree(2, 0), Degree(-4, -2)),
              ("xi0", "theta1"), (Degree(0, 1, 2), Degree(-2, 1, 2))),
    "[123]": (("x0", "x1", "x2"),
              (Degree(2, 0), Degree(4, 2), Degree(6, 4)),
              ("xi0", "xi1", "xi2"),
              (Degree(0, 1, 2), Degree(2, 3, 2), Degree(4, 5, 2))),
    "[1,2,3]": (("x0", "a1", "a2"),
                (Degree(2, 0), Degree(-4, -2), Degree(-6, -2)),
                ("xi0", "theta1", "theta2"),
                (Degree(0, 1, 2), Degree(-2, 1, 2), Degree(-4, 1, 2))),
    "[12,3]": (("x0", "x1", "b2"),
               (Degree(2, 0), Degree(4, 2), Degree(-6, -4)),
               ("xi0", "xi1", "theta1"),
               (Degree(0, 1, 2), Degree(2, 3, 2), Degree(-2, 1, 2))),
    "[13,2]": (("x0", "a1", "x2"),
               (Degree(2, 0), Degree(-4, -2), Degree(6, 2)),
               ("xi0", "theta1", "xi2"),
               (Degree(0, 1, 2), Degree(-2, 1, 2), Degree(2, 3, 2))),
}


def _projector_images(shape: str, N: int, xi0_variant: str):
    """d_N images per shape; index order follows _PROJECTOR_GENS."""
    def mono(coeff, **exps):
        syms = _PROJECTOR_GENS[shape][0]
        exp = tuple(exps.get(s, 0) for s in syms)
        return SuperPolynomial.from_monomial(Monomial(exp), coeff)

    if shape == "[12]":
        return [mono(1, x0=N), mono(N, x0=N - 1, x1=1)]
    if shape == "[1,2]":
        return [mono(1, x0=N), mono(N, x0=N - 1)]
    if shape == "[123]":
        return [mono(1, x0=N), mono(N, x0=N - 1, x1=1),
                mono(N, x0=N - 1, x2=1) + mono(comb(N, 2), x0=N - 2, x1=2)]
    if shape == "[1,2,3]":
        return [mono(1, x0=N), mono(N, x0=N - 1),
                mono(comb(N, 2), x0=N - 2)]
    if shape == "[12,3]":
        return [mono(1, x0=N), mono(N, x0=N - 1, x1=1),
                mono(N, x0=N - 1) + mono(comb(N, 2), x0=N - 2, x1=2, b2=1)]
    if shape == "[13,2]":
        xi0_img = mono(1, x0=N) if xi0_variant == "corrected" \
            else mono(1, x0=N - 1)
        return [xi0_img, mono(N, x0=N - 1),
                mono(comb(N, 2), x0=N - 2, x2=1)]
    raise AssertionError(shape)


_D0_DATA = {
    # three-box shapes -> the odd generator d_0 does not kill, and the
    # exponents of its image; the d_0 algebra is the reduced one
    "[123]": ("xi2", {"x1": 1}),
    "[1,2,3]": ("theta2", {"a1": 1}),
    "[12,3]": ("theta1", {"x1": 1, "b2": 1}),
    "[13,2]": ("xi2", {"a1": 1, "x2": 1}),
}


def projector_presentation(shape: str, N, xi0_variant: str = "corrected"
                           ) -> Presentation:
    """Projector algebra for a standard Young tableau with 2 or 3 boxes.

    N may be an integer >= 2 (regraded a = q^N, with differential d_N),
    the string "homfly" (free algebra, a-grading kept), or 0 (the reduced
    algebra with the Heegaard-Floer style d_0, regraded a = t^{-1};
    three-box shapes only).

    For shape "[13,2]" the xi0 image defaults to x_0^N ("corrected");
    xi0_variant="displayed" uses x_0^{N-1} instead, which is recorded as
    a q-inhomogeneous differential rather than silently accepted.
    """
    if shape not in PROJECTOR_SHAPES:
        raise ValueError(f"unsupported tableau shape {shape!r}")
    if xi0_variant not in ("corrected", "displayed"):
        raise ValueError(f"unknown xi0 variant {xi0_variant!r}")

    if N == 0:
        if shape not in _D0_DATA:
            raise ValueError(f"d_0 is only defined for three-box shapes, "
                             f"not {shape}")
        ev_s, ev_d, od_s, od_d = (g[1:] for g in _PROJECTOR_GENS[shape])
        target, img_exps = _D0_DATA[shape]
        exp = tuple(img_exps.get(s, 0) for s in ev_s)
        images = [None] * len(od_s)
        images[od_s.index(target)] = SuperPolynomial.from_monomial(
            Monomial(exp))
        # regraded a = t^{-1}, as d_N regrades a = q^N
        od_d = [Degree(d.q, d.t - d.a) for d in od_d]
        return Presentation(f"projector({shape},d0,reduced)", ev_s, ev_d,
                            od_s, od_d, images)

    ev_s, ev_d, od_s, homfly_od_d = _PROJECTOR_GENS[shape]
    if N == HOMFLY:
        images = [None] * len(od_s)
        return Presentation(f"projector({shape},homfly)", ev_s, ev_d,
                            od_s, homfly_od_d, images)
    if not isinstance(N, int) or N < 2:
        raise ValueError(f"need N >= 2, 0 or 'homfly', got {N!r}")
    od_d = [Degree(d.q + N * d.a, d.t) for d in homfly_od_d]
    images = _projector_images(shape, N, xi0_variant)
    name = f"projector({shape},d{N})"
    if xi0_variant != "corrected" and shape == "[13,2]":
        name += ",xi0=displayed"
    return Presentation(name, ev_s, ev_d, od_s, od_d, images)


def mu(k: int, n: int, N: int) -> SuperPolynomial:
    """The cycle mu_k = sum_{i+j=k} (N i - j) x_i xi_j in the stable model."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    terms = {}
    for i in range(k + 1):
        j = k - i
        c = N * i - j
        if c == 0:
            continue
        exp = [0] * n
        exp[i] = 1
        terms[Monomial(tuple(exp), (j,))] = c
    return SuperPolynomial(n, terms)
