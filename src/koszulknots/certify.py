"""Constructive certificates: torsion classes, displayed differentials,
the reduced factorization, and generator saturation.

Every check recomputes its witnesses from scratch through apply_d and the
homology machinery; nothing is taken on faith from cached data.
"""

from __future__ import annotations

from .algebra import Degree, Monomial, QQ, SuperPolynomial, T_STEP, ZZ, \
    _Record, _is_prime, mono_degree
from .homology import GradedBasis, IntegerMatrix, Window, d_matrix, \
    homology_at, homology_table, rank_exact, window_bases
from .presentations import Presentation, _mu_sum, apply_d, mu, \
    reduced_presentation, stable_presentation
from .series import SeriesWindow, expand, free_series


class CertificateReport(_Record):
    _fields = ("name", "claimed_degree", "checks")

    def __init__(self, name: str, claimed_degree: Degree | None = None,
                 checks: list = None):  # [(description, ok, witness)]
        self.name, self.claimed_degree = name, claimed_degree
        self.checks = [] if checks is None else checks

    def add(self, description: str, ok: bool, witness: str = ""):
        self.checks.append((description, bool(ok), witness))

    @property
    def verdict(self) -> bool:
        return all(ok for _d, ok, _w in self.checks)

    def text(self) -> str:
        lines = [f"certificate {self.name}: "
                 + ("PASS" if self.verdict else "FAIL")]
        if self.claimed_degree is not None:
            lines.append(f"  degree: {self.claimed_degree}")
        for desc, ok, witness in self.checks:
            lines.append(f"  [{'ok' if ok else 'FAIL'}] {desc}")
            if witness:
                lines.append(f"       witness: {witness}")
        return "\n".join(lines)


def t_class(p: int, N: int) -> SuperPolynomial:
    """t_p, the sum of mu_p over the p-strand generators.

    The sum runs over i + j = p with x_i and xi_j on p strands, so i goes
    from 1 to p - 1: t_p = sum_{i=1}^{p-1} (Ni - p + i) x_i xi_{p-i}.
    """
    return _mu_sum(p, p, N)


def torsion_certificate_tp(p: int, N: int,
                           check_homology: bool = True) -> CertificateReport:
    """Certify the p-torsion class t_p in the p-strand stable model.

    Checks: (a) d(t_p) vanishes mod p but not over Z, (b) the x_1 xi_{p-1}
    coefficient N-p+1 is a unit mod p, and optionally (c) the integral
    homology at the claimed bidegree carries a p-power invariant factor.
    """
    if not _is_prime(p) or p <= N + 1:
        raise ValueError(f"need a prime p > N+1, got p={p}, N={N}")
    pres = stable_presentation(p, N)
    tp = t_class(p, N)
    deg = Degree(2 * p + 2 * N + 2, 2 * p + 1)
    report = CertificateReport(f"tp:{p},{N}", deg)

    degrees = {mono_degree(m, pres) for m in tp.terms}
    report.add(f"t_{p} is homogeneous of bidegree {deg}",
               degrees == {deg}, tp.text(pres))

    image = apply_d(pres, tp)
    report.add(f"(a) d(t_{p}) = 0 mod {p}", image.mod(p).is_zero(),
               image.text(pres))
    report.add(f"(a') d(t_{p}) != 0 over Z", not image.is_zero())

    c = N - p + 1
    report.add(f"(b) coefficient {c} of x1*xi{p - 1} is a unit mod {p}",
               c % p != 0)

    if check_homology:
        group = homology_at(pres, deg, ZZ)
        has_p = any(d % p == 0 for d in group.torsion)
        report.add(f"(c) H_Z at {deg} has a {p}-power invariant factor",
                   has_p, str(group))
    return report


_NAMED_CLASSES = {
    # name -> (strands, N, bidegree, prime p with d(class) = 0 mod p, class,
    # displayed d(class) and its text, side check (gen, k, q) for
    # class = gen*mu_k mod q or None); terms are {(x idx, xi idx): coeff}
    "A": (5, 2, Degree(20, 12), 5,
          {((0,), (1, 4)): 4, ((1,), (0, 4)): -8, ((4,), (0, 1)): 8,
           ((0,), (2, 3)): -2, ((2,), (1, 2)): -2, ((3,), (0, 2)): -4,
           ((1,), (1, 3)): 1, ((2,), (0, 3)): 4},
          {((1, 1, 3), (0,)): 20, ((0, 1, 3), (1,)): -10},
          "10*x1*x3*(2*x1*xi0 - x0*xi1)", None),
    "B": (6, 3, Degree(24, 15), 7,
          {((1, 1), (5,)): 5, ((1, 5), (1,)): -5, ((1, 4), (2,)): -10,
           ((2, 4), (1,)): 16, ((1, 3), (3,)): -15, ((3, 3), (1,)): 15,
           ((2, 2), (3,)): 3, ((2, 3), (2,)): -3, ((1, 2), (4,)): -6},
          {((0, 1, 1, 2, 3), ()): -105},
          "-105*x0*x1^2*x2*x3", ("x2", 5, 5)),
}


def _named_poly(n: int, data) -> SuperPolynomial:
    """The polynomial on n strands of {(x indices, xi indices): c}."""
    terms = {}
    for (xs, xis), c in data.items():
        exp = [0] * n
        for i in xs:
            exp[i] += 1
        terms[Monomial(tuple(exp), xis)] = c
    return SuperPolynomial(n, terms)


def verify_named_class(name: str) -> CertificateReport:
    """Re-derive the displayed differential of class A or B, up to sign."""
    if name not in _NAMED_CLASSES:
        raise ValueError(f"unknown named class {name!r}")
    n, N, deg, p, cls, shown, shown_text, side = _NAMED_CLASSES[name]
    pres = stable_presentation(n, N)
    cls, shown = _named_poly(n, cls), _named_poly(n, shown)

    report = CertificateReport(name, deg)
    degrees = {mono_degree(m, pres) for m in cls.terms}
    report.add(f"{name} is homogeneous of bidegree {deg}",
               degrees == {deg}, cls.text(pres))

    image = apply_d(pres, cls)
    unit = next((u for u in (1, -1) if image == u * shown), None)
    report.add(f"d({name}) = {shown_text} up to global sign",
               unit is not None, f"d({name}) = {image.text(pres)}"
               + (f" (global unit {unit:+d})" if unit else ""))
    report.add(f"{name} is a cycle mod {p}",
               image.mod(p).is_zero())

    if side:
        gen, k, q = side
        diff = (cls - pres.gen(gen) * mu(k, n, N)).mod(q)
        report.add(f"{name} = {gen}*mu_{k} mod {q}", diff.is_zero(),
                   f"difference reduces to 0 mod {q}")
    return report


# ---------------------------------------------------------------------------
# reduced factorization


def _relabeled_stable(n: int, N: int) -> Presentation:
    """Stable (n,N) model with x_i placed as x_{i+1}, xi_i as xi_{i+N}."""
    big = stable_presentation(n + N, N)
    return Presentation(f"relabeled-stable(n={n},N={N})",
                        big.even_symbols[1:n + 1], big.even_degrees[1:n + 1],
                        big.odd_symbols[N:], big.odd_degrees[N:],
                        stable_presentation(n, N).d_images)


def reduced_factorization_check(n: int, N: int,
                                window: Window) -> CertificateReport:
    """Graded dimensions of the reduced model versus the product formula.

    The reduced (n, N) homology should match a free factor on
    xi_1..xi_{N-1}, x_{n-N+1}..x_{n-1} tensored with the relabeled
    stable (n-N, N) homology, all over Q.
    """
    if n <= N:
        raise ValueError(f"need n > N, got n={n}, N={N}")
    report = CertificateReport(f"reduced:{n},{N}")

    pres = reduced_presentation(n, N)
    lhs = homology_table(pres, QQ, window)
    # graded dimensions of Z[xi_1..xi_{N-1}, x_{n-N+1}..x_{n-1}]
    free = expand(free_series(pres.even_degrees[n - N:],
                              pres.odd_degrees[:N - 1]),
                  SeriesWindow(0, window.tmax, 0, window.qmax))
    rhs_table = homology_table(_relabeled_stable(n - N, N), QQ, window)

    rhs = {}
    for (q, t), c1 in free.items():
        for d2, g in rhs_table.groups.items():
            d = Degree(q, t) + d2
            if window.contains(d):
                rhs[d] = rhs.get(d, 0) + c1 * g.free_rank

    mismatches = []
    for deg in window.degrees():
        l = lhs.rank_at(deg)
        r = rhs.get(deg, 0)
        if l != r:
            mismatches.append((deg, l, r))
    report.add(
        f"reduced({n},{N}) = free factor x stable({n - N},{N}) on {window}",
        not mismatches,
        "; ".join(f"{d}: {l} vs {r}" for d, l, r in mismatches[:5])
        or "all graded dimensions agree")
    return report


# ---------------------------------------------------------------------------
# generator saturation


def generator_saturation_check(n: int, N: int,
                               window: Window) -> CertificateReport:
    """Do x_k and mu_k generate the rational homology inside the window?

    Experimental: compares, per bidegree, the rank of the span of cycles
    from the x/mu subalgebra inside homology with the full homology rank.
    """
    if n > 4 or N > 3:
        raise ValueError(f"desk scale is n <= 4, N <= 3; got n={n}, N={N}")
    pres = stable_presentation(n, N)
    report = CertificateReport(f"generators:{n},{N}")

    # products of x's and mu's with total degree in the window
    gens = [(pres.gen(f"x{k}"), pres.even_degrees[k]) for k in range(n)]
    mus = [(mu(k, n, N), pres.even_degrees[0] + pres.odd_degrees[k])
           for k in range(1, n)]
    products = {Degree(0, 0): [pres.one()]}
    frontier = [(pres.one(), Degree(0, 0), 0)]
    pool = gens + mus
    while frontier:
        poly, deg, start = frontier.pop()
        for idx in range(start, len(pool)):
            g, gd = pool[idx]
            nd = deg + gd
            if nd.t > window.tmax or nd.q > window.qmax:
                continue
            np_ = poly * g
            if np_.is_zero():
                continue
            products.setdefault(nd, []).append(np_)
            frontier.append((np_, nd, idx))

    bases = window_bases(pres, window)
    table = homology_table(pres, QQ, window)
    mismatches = []
    for deg in window.degrees():
        h_rank = table.rank_at(deg)
        if h_rank == 0:
            continue
        basis = bases[deg]
        above = deg + T_STEP
        m_in = d_matrix(pres, above, src=bases.get(above)
                        or GradedBasis(above, []), dst=basis)
        index = {pair: i for i, pair in enumerate(basis.exps)}
        cand = products.get(deg, [])
        # rank of [image | candidates] minus rank of image = span in homology
        cols = dict(m_in.entries)
        c0 = m_in.cols
        for j, poly in enumerate(cand):
            for mono, v in poly.terms.items():
                cols[(index[mono.even, mono.odd], c0 + j)] = v
        big = IntegerMatrix(len(basis.exps), c0 + len(cand), cols)
        span = rank_exact(big) - rank_exact(m_in)
        if span < h_rank:
            mismatches.append((deg, span, h_rank))
    report.add(
        f"x/mu subalgebra saturates H(stable({n},{N});Q) on {window} "
        "[EXPERIMENTAL]",
        not mismatches,
        "; ".join(f"{d}: span {s} < rank {h}" for d, s, h in mismatches[:5])
        or "all homology classes reached")
    return report
