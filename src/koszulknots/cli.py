"""Command-line front end.

Exit codes: 0 success/agreement, 1 divergence or failed certificate,
2 usage error: every refusal raises ValueError, and main prints it.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import CoefficientRing, read_int
from .homology import HomologyTable, Window, homology_table
from .interface import compare, parse_table
from .presentations import PROJECTOR_SHAPES, projector_presentation, \
    reduced_presentation, stable_presentation
from .series import COLUMN_IDENTITIES, SeriesWindow, assemble_torus2, \
    assemble_torus3, expand, formula, identity_check, list_formulas, \
    projector_series
from . import certify


def _int_arg(text: str) -> int:
    """read_int for argparse: the error names the value, not a function."""
    try:
        return read_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_N(tag: str):
    return "homfly" if tag == "homfly" else _int_arg(tag)


def _build_parser():
    top = argparse.ArgumentParser(
        prog="koszulknots",
        description="Stable torus-knot homology: exact tables, closed-form "
                    "series, certificates, and data comparison.")
    sub = top.add_subparsers(dest="command", required=True)

    h = sub.add_parser("homology", help="compute a homology table")
    h.add_argument("--n", type=_int_arg,
                   help="number of strands (stable model)")
    h.add_argument("--N", type=_parse_N, default=2,
                   help="SL(N) rank, 0 for d_0, or 'homfly'")
    h.add_argument("--coeff", default="Q",
                   help="Q, Z, F<p> or Fp:<p>")
    h.add_argument("--reduced", action="store_true")
    h.add_argument("--tableau", choices=PROJECTOR_SHAPES,
                   help="projector algebra instead of the stable model")
    h.add_argument("--tmax", type=_int_arg, required=True)
    h.add_argument("--tmin", type=_int_arg, default=0)
    h.add_argument("--qmax", type=_int_arg, required=True)
    h.add_argument("--qmin", type=_int_arg, default=0)
    h.add_argument("--out", help="write the table to a file")

    s = sub.add_parser("series", help="closed-form series and assemblies")
    s.add_argument("--formula", help="catalogue name; see --list")
    s.add_argument("--list", action="store_true",
                   help="list catalogue formula names")
    s.add_argument("--torus2", type=_int_arg, metavar="M",
                   help="assemble the (2, M) torus knot series")
    s.add_argument("--torus3", type=_int_arg, metavar="M",
                   help="assemble the (3, M) torus knot series")
    s.add_argument("--N", type=_parse_N, default=None)
    s.add_argument("--n", type=_int_arg, help="strand parameter (P_ZN)")
    s.add_argument("--reduced", action="store_true")
    s.add_argument("--expand", type=_int_arg, metavar="TMAX",
                   help="expand through homological degree TMAX")
    s.add_argument("--qmax", type=_int_arg, default=None)
    s.add_argument("--check-identities", action="store_true",
                   help="verify the projector sum identities")

    c = sub.add_parser("certify", help="run a certificate")
    c.add_argument("--name", required=True,
                   help="tp:<p>,<N> | A | B | reduced:<n>,<N> "
                        "| generators:<n>,<N>")
    c.add_argument("--tmax", type=_int_arg, default=10,
                   help="window height for windowed certificates")
    c.add_argument("--qmax", type=_int_arg, default=None)
    c.add_argument("--skip-homology", action="store_true",
                   help="skip the integral homology check in tp certificates")

    m = sub.add_parser("compare", help="model table vs external data")
    m.add_argument("--model", required=True, help="model table file")
    m.add_argument("--data", required=True, help="external table file")
    m.add_argument("--shift", default="auto",
                   help="'auto' or an explicit integer q-shift")
    m.add_argument("--torsion-primes",
                   help="comma-separated primes to restrict torsion checks")
    return top


def _cmd_homology(args) -> int:
    if args.tableau:
        if args.reduced:
            raise ValueError("projector algebras have no --reduced variant")
        pres = projector_presentation(args.tableau, args.N)
    else:
        if args.n is None:
            raise ValueError("--n is required without --tableau")
        pres = (reduced_presentation if args.reduced
                else stable_presentation)(args.n, args.N)
    window = Window(args.qmin, args.qmax, args.tmin, args.tmax)
    table = homology_table(pres, CoefficientRing.parse(args.coeff), window)
    text = table.serialize()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _print_expansion(rf, tmax, qmax):
    window = SeriesWindow(0, tmax, -4 * tmax - 64,
                          qmax if qmax is not None else 4 * tmax + 64)
    coeffs = expand(rf, window)
    for (q, t) in sorted(coeffs, key=lambda m: (m[1], m[0])):
        print(f"q={q}, t={t}, coeff={coeffs[(q, t)]}")


# each series mode and the other flags it reads
_SERIES_MODES = {"list": (), "check_identities": (),
                 "torus2": ("N", "reduced"), "torus3": ("N", "reduced"),
                 "formula": ("N", "n", "expand", "qmax")}


def _check_series_flags(args):
    """Raise ValueError (exit 2) naming a flag that the series mode given
    does not read; --qmax is read only with --expand."""
    given = [f for f, v in vars(args).items()
             if f != "command" and v is not None and v is not False]
    mode = next((f for f in given if f in _SERIES_MODES), None)
    for f in given if mode else ():
        if f != mode and f not in _SERIES_MODES[mode]:
            raise ValueError(f"--{f.replace('_', '-')} does not apply to "
                             f"series --{mode.replace('_', '-')}")
    if mode and args.qmax is not None and args.expand is None:
        raise ValueError("--qmax does not apply to series --formula "
                         "without --expand")


def _cmd_series(args) -> int:
    _check_series_flags(args)
    if args.list:
        for name in list_formulas():
            print(name)
        return 0
    if args.check_identities:
        ok = True
        for (a, b), whole in COLUMN_IDENTITIES:
            good = identity_check(projector_series(a, None, "homfly")
                                  + projector_series(b, None, "homfly"),
                                  projector_series(whole, None, "homfly"))
            ok = ok and good
            print(f"P{a} + P{b} = P{whole}: {'ok' if good else 'FAIL'}")
        return 0 if ok else 1
    if args.torus2 is not None or args.torus3 is not None:
        if args.N is None:
            raise ValueError("--N is required for assemblies")
        if args.torus2 is not None:
            asm = assemble_torus2(args.torus2, args.N, args.reduced)
        else:
            asm = assemble_torus3(args.torus3, args.N, args.reduced)
        if asm.shift_q is not None:
            print(f"# overall q-shift: {asm.shift_q}")
        if asm.is_polynomial:
            print(f"# polynomial: yes (nonnegative: {asm.nonnegative()})")
            print(asm.polynomial)
        else:
            print("# polynomial: no")
            if args.torus3 and args.reduced and args.N not in (0, "homfly"):
                print("# the reduced (3, m) assembly is not a Poincare series "
                      "here: its rebuilt summands hold only at t = -1")
            print(asm.rational)
        return 0
    if not args.formula:
        raise ValueError("one of --formula/--list/--torus2/--torus3/"
                         "--check-identities is required")
    params = {k: v for k in ("N", "n") if (v := getattr(args, k)) is not None}
    try:
        rf = formula(args.formula, **params)
    except KeyError as exc:  # str(KeyError) quotes its message
        raise ValueError(exc.args[0]) from None
    if args.expand is not None:
        _print_expansion(rf, args.expand, args.qmax)
    else:
        print(rf)
    return 0


def _int_pair(name: str, form: str) -> tuple:
    """The two integers after the colon of a certificate name."""
    try:
        a, b = map(read_int, name.partition(":")[2].split(","))
    except ValueError:
        raise ValueError(
            f"certificate {name!r} is not of the form {form}") from None
    return a, b


def _cmd_certify(args) -> int:
    name = args.name
    if name.startswith("tp:"):
        p, N = _int_pair(name, "tp:<p>,<N>")
        report = certify.torsion_certificate_tp(
            p, N, check_homology=not args.skip_homology)
    elif name in certify._NAMED_CLASSES:
        report = certify.verify_named_class(name)
    elif name.startswith(("reduced:", "generators:")):
        kind = name.partition(":")[0]
        n, N = _int_pair(name, f"{kind}:<n>,<N>")
        qmax = args.qmax if args.qmax is not None else 4 * args.tmax + 16
        check = (certify.reduced_factorization_check if kind == "reduced"
                 else certify.generator_saturation_check)
        report = check(n, N, Window(0, qmax, 0, args.tmax))
    else:
        raise ValueError(f"unknown certificate {name!r}")
    print(report.text())
    return 0 if report.verdict else 1


def _cmd_compare(args) -> int:
    with open(args.model) as fh:
        model = HomologyTable.parse(fh.read())
    with open(args.data) as fh:
        ext = parse_table(fh.read())
    primes = ({read_int(x) for x in args.torsion_primes.split(",")}
              if args.torsion_primes else None)
    report = compare(model, ext, args.shift, torsion_primes=primes)
    print(report.text())
    return 0 if report.agree else 1


_COMMANDS = {"homology": _cmd_homology, "series": _cmd_series,
             "certify": _cmd_certify, "compare": _cmd_compare}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
