"""Command-line interface: subcommands, output shape, exit codes."""

import os

import pytest

from koszulknots import cli
from koszulknots.cli import main
from koszulknots.series import Assembly, assemble_torus3

DATA = os.path.join(os.path.dirname(__file__), "data")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# homology

def test_homology_to_stdout(capsys):
    code, out, _err = run(capsys, "homology", "--n", "2", "--N", "2",
                          "--coeff", "Q", "--tmax", "4", "--qmax", "10")
    assert code == 0
    assert "coeff=Q" in out
    assert "q=0, t=0, rank=1" in out


def test_homology_to_file(tmp_path, capsys):
    path = tmp_path / "table.txt"
    code, out, _err = run(capsys, "homology", "--n", "2", "--N", "2",
                          "--coeff", "Z", "--tmax", "6", "--qmax", "14",
                          "--out", str(path))
    assert code == 0 and out == ""
    text = path.read_text()
    assert "coeff=Z" in text


def test_homology_coeff_tags_agree(capsys):
    args = ("homology", "--n", "3", "--N", "2", "--tmax", "6",
            "--qmax", "16", "--coeff")
    code, out_fp, _err = run(capsys, *args, "Fp:3")
    assert code == 0 and "coeff=F3" in out_fp
    assert run(capsys, *args, "F3") == (0, out_fp, "")
    code, _out, err = run(capsys, *args, "R")
    assert code == 2 and "unknown coefficient tag" in err


def test_homology_usage_errors(capsys):
    code, _out, err = run(capsys, "homology", "--tmax", "4", "--qmax", "8")
    assert code == 2 and "--n is required" in err
    code, _out, err = run(capsys, "homology", "--n", "2", "--N", "homfly",
                          "--tmax", "4", "--qmax", "8")
    assert code == 2 and "integer N" in err
    code, _out, err = run(capsys, "homology", "--tableau", "[12]",
                          "--reduced", "--N", "2", "--tmax", "2",
                          "--qmax", "4")
    assert code == 2
    code, out, err = run(capsys, "homology", "--n", "2", "--qmin", "10",
                         "--qmax", "0", "--tmax", "4")
    assert code == 2 and out == "" and "empty window" in err
    code, _out, err = run(capsys, "homology", "--n", "2", "--tmax", "4",
                          "--qmax", "8", "--bound", "6")
    assert code == 2 and "--bound" in err


@pytest.mark.parametrize("args,option", [
    (("homology", "--n", "2", "--N", "2", "--coeff", "Z", "--tmax", "0_2",
      "--qmax", "4"), "--tmax"),
    (("homology", "--n", "2", "--N", "2", "--coeff", "Z", "--tmax", "2",
      "--qmax", "+4"), "--qmax"),
    (("homology", "--n", "\u0662", "--tmax", "2", "--qmax", "4"), "--n"),
    (("series", "--formula", "P2_dN", "--N", "0_3"), "--N"),
    (("series", "--formula", "P2_dN", "--N", "3", "--expand", "+2"),
     "--expand"),
    (("series", "--torus2", "3_1", "--N", "2"), "--torus2"),
    (("certify", "--name", "A", "--tmax", "1_0"), "--tmax"),
])
def test_integer_options_are_read_strictly(capsys, args, option):
    """int() would read 0_2 as 2 and +4 as 4: every integer option goes
    through read_int, and a bad one exits 2 naming the option and the
    value, not the converter."""
    code, out, err = run(capsys, *args)
    assert code == 2 and out == "" and f"argument {option}:" in err
    bad = args[args.index(option) + 1]
    assert f"non-integer entry {bad!r}" in err
    assert "_parse_N" not in err and "read_int" not in err


# ---------------------------------------------------------------------------
# series

def test_series_list(capsys):
    code, out, _err = run(capsys, "series", "--list")
    assert code == 0
    assert "P2_dN" in out.split()
    assert "P_ZN" in out.split()


def test_series_formula_prints_rational(capsys):
    code, out, _err = run(capsys, "series", "--formula", "P2_dN", "--N", "2")
    assert code == 0 and out.strip()


def test_series_formula_expand(capsys):
    code, out, _err = run(capsys, "series", "--formula", "P2_dN",
                          "--N", "3", "--expand", "2", "--qmax", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert "q=0, t=0, coeff=1" in lines
    assert "q=4, t=2, coeff=1" in lines


@pytest.mark.parametrize("args,message", [
    (("--formula", "P2_dN", "--N", "homfly"), "N >= 2"),
    (("--formula", "P1_dN", "--N", "1"), "N >= 2"),
    (("--formula", "P_ZN", "--n", "3", "--N", "4"), "N prime"),
    (("--formula", "P_ZN", "--n", "0", "--N", "3"), "n >= 1"),
    (("--formula", "P2_dN", "--N", "3", "--expand", "-1"), "empty window"),
    (("--formula", "P2_dN", "--N", "3", "--expand", "2", "--qmax", "-100"),
     "empty window"),
    (("--torus3", "4", "--N", "3", "--expand", "3"),
     "--expand does not apply"),
    (("--formula", "P2_dN", "--N", "3", "--qmax", "10"),
     "--qmax does not apply"),
    (("--formula", "P2_dN", "--N", "3", "--reduced"),
     "--reduced does not apply"),
    (("--torus2", "3", "--N", "3", "--n", "4"), "--n does not apply"),
    (("--formula", "P2_dN", "--N", "3", "--list"), "--list does not apply"),
])
def test_series_bad_parameters_exit_2(capsys, args, message):
    code, out, err = run(capsys, "series", *args)
    assert code == 2 and out == "" and message in err


def test_series_unknown_formula(capsys):
    code, _out, err = run(capsys, "series", "--formula", "P_bogus")
    assert code == 2
    assert err == "error: unknown formula 'P_bogus'; see list_formulas()\n"


def test_series_check_identities(capsys):
    code, out, _err = run(capsys, "series", "--check-identities")
    assert code == 0
    assert out == ("P[12] + P[1,2] = P[1]: ok\n"
                   "P[123] + P[12,3] = P[12]: ok\n"
                   "P[1,2,3] + P[13,2] = P[1,2]: ok\n")


def test_series_torus3_reduced_trefoil(capsys):
    code, out, _err = run(capsys, "series", "--torus3", "2", "--N", "3",
                          "--reduced")
    assert code == 0
    assert "# polynomial: yes (nonnegative: True)" in out
    body = out.splitlines()[-1].replace(" ", "").replace("*", "")
    # q^4 (1 + q^4 t^2 + q^8 t^3), printed with the lowest term at 1
    assert body == "1+q^4t^2+q^8t^3"


def test_series_torus3_homfly_prints_reduced_rational(capsys):
    code, out, _err = run(capsys, "series", "--torus3", "4", "--N", "homfly")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# polynomial: no"
    # the sum over the common factor list, with its lowest term 1
    assert lines[1] == str(assemble_torus3(4, "homfly").rational)
    assert lines[1].startswith("(1 + t^1a^2 ")


def test_series_torus3_reduced_gap_is_noted(capsys, monkeypatch):
    note = "# the reduced (3, m) assembly is not a Poincare series"
    code, out, _err = run(capsys, "series", "--torus3", "4", "--N", "3",
                          "--reduced")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "# polynomial: no" and lines[2].startswith(note)
    assert lines[3] == str(assemble_torus3(4, 3, reduced=True).rational)
    # a polynomial reduced assembly (N = 2, and the trefoil at N = 3) and a
    # non-polynomial unreduced or HOMFLY one carry no note
    for argv in (("4", "--N", "2", "--reduced"),
                 ("2", "--N", "3", "--reduced"), ("4", "--N", "3"),
                 ("4", "--N", "homfly", "--reduced"), ("4", "--N", "homfly")):
        code, out, _err = run(capsys, "series", "--torus3", *argv)
        assert code == 0 and note not in out
    # the note follows is_polynomial, not the value of m
    asm = assemble_torus3(2, 3, reduced=True)
    monkeypatch.setattr(cli, "assemble_torus3", lambda *args: Assembly(
        asm.rational, asm.shift_q, None))
    code, out, _err = run(capsys, "series", "--torus3", "2", "--N", "3",
                          "--reduced")
    assert code == 0 and note in out


def test_series_assembly_requires_N(capsys):
    code, _out, err = run(capsys, "series", "--torus3", "2")
    assert code == 2 and "--N is required" in err


def test_series_requires_an_action(capsys):
    code, _out, err = run(capsys, "series")
    assert code == 2 and "required" in err


# ---------------------------------------------------------------------------
# certify

def test_certify_tp(capsys):
    code, out, _err = run(capsys, "certify", "--name", "tp:5,2")
    assert code == 0
    assert "certificate tp:5,2: PASS" in out.splitlines()


def test_certify_tp_skip_homology(capsys):
    code, out, _err = run(capsys, "certify", "--name", "tp:7,3",
                          "--skip-homology")
    assert code == 0


NAMED_CLASS_TEXTS = {
    "A": """certificate A: PASS
  degree: q^20 t^12
  [ok] A is homogeneous of bidegree q^20 t^12
       witness: 8*x4*xi0*xi1 - 4*x3*xi0*xi2 + 4*x2*xi0*xi3 - 2*x2*xi1*xi2 \
- 8*x1*xi0*xi4 + x1*xi1*xi3 + 4*x0*xi1*xi4 - 2*x0*xi2*xi3
  [ok] d(A) = 10*x1*x3*(2*x1*xi0 - x0*xi1) up to global sign
       witness: d(A) = 20*x1^2*x3*xi0 - 10*x0*x1*x3*xi1 (global unit +1)
  [ok] A is a cycle mod 5
""",
    "B": """certificate B: PASS
  degree: q^24 t^15
  [ok] B is homogeneous of bidegree q^24 t^15
       witness: 15*x3^2*xi1 + 16*x2*x4*xi1 - 3*x2*x3*xi2 + 3*x2^2*xi3 \
- 5*x1*x5*xi1 - 10*x1*x4*xi2 - 15*x1*x3*xi3 - 6*x1*x2*xi4 + 5*x1^2*xi5
  [ok] d(B) = -105*x0*x1^2*x2*x3 up to global sign
       witness: d(B) = -105*x0*x1^2*x2*x3 (global unit +1)
  [ok] B is a cycle mod 7
  [ok] B = x2*mu_5 mod 5
       witness: difference reduces to 0 mod 5
""",
}


def test_certify_named_classes(capsys):
    for name, text in NAMED_CLASS_TEXTS.items():
        code, out, _err = run(capsys, "certify", "--name", name)
        assert code == 0 and out == text


def test_certify_reduced_and_generators(capsys):
    code, _out, _err = run(capsys, "certify", "--name", "reduced:3,2",
                           "--tmax", "6")
    assert code == 0
    code, _out, _err = run(capsys, "certify", "--name", "generators:2,2",
                           "--tmax", "6")
    assert code == 0


def test_certify_unknown_name(capsys):
    code, _out, err = run(capsys, "certify", "--name", "bogus")
    assert code == 2 and "unknown certificate" in err


def test_certify_bad_parameters(capsys):
    # input errors reach main's one handler: "error:" and exit 2
    for name in ("tp:4,2", "tp:4,3", "tp:x"):
        code, _out, err = run(capsys, "certify", "--name", name)
        assert code == 2 and err.startswith("error:"), name
    # the integers are read strictly (int() would read 5_0 as 50), and a
    # name without exactly two of them names the form it expects
    for name, form in (("tp:5_0,3", "tp:<p>,<N>"), ("tp:5", "tp:<p>,<N>"),
                       ("tp:5,3,1", "tp:<p>,<N>"),
                       ("generators:+2,2", "generators:<n>,<N>"),
                       ("reduced:2", "reduced:<n>,<N>")):
        code, _out, err = run(capsys, "certify", "--name", name)
        assert code == 2 and err.startswith("error:") and form in err, name


# ---------------------------------------------------------------------------
# compare

def test_compare_agreement_and_divergence(tmp_path, capsys):
    model_path = tmp_path / "model.txt"
    code, _out, _err = run(capsys, "homology", "--n", "5", "--N", "3",
                           "--coeff", "F3", "--tmax", "8", "--qmax", "48",
                           "--out", str(model_path))
    assert code == 0

    # data agreeing with the model through its window
    data_path = tmp_path / "data.txt"
    data_path.write_text(
        "coeff=F3\n" + "".join(
            f"t={t}, dd={q - 2 * t}, rank={r}\n"
            for (q, t, r) in _cells_from(model_path.read_text())))
    code, out, _err = run(capsys, "compare", "--model", str(model_path),
                          "--data", str(data_path))
    assert code == 0 and "no divergence" in out

    # corrupt one cell: exit 1 and a divergence report
    lines = data_path.read_text().splitlines()
    lines[-1] = lines[-1].rsplit("rank=", 1)[0] + "rank=99"
    data_path.write_text("\n".join(lines) + "\n")
    code, out, _err = run(capsys, "compare", "--model", str(model_path),
                          "--data", str(data_path))
    assert code == 1 and "first divergence" in out


def test_compare_fixture_stable_range(tmp_path, capsys):
    """F3 model of the 5-strand stable limit vs the (5,9) fixture: the
    divergence appears exactly where the finite knot leaves the limit."""
    model_path = tmp_path / "model.txt"
    code, _out, _err = run(capsys, "homology", "--n", "5", "--N", "3",
                           "--coeff", "F3", "--tmax", "17", "--qmax", "60",
                           "--out", str(model_path))
    assert code == 0
    code, out, _err = run(capsys, "compare", "--model", str(model_path),
                          "--data", os.path.join(DATA, "table2_T59_F3.txt"))
    assert code == 1
    assert "agreement for t in [0, 15]" in out
    assert "first divergence at t=16" in out


@pytest.mark.parametrize("flag", [
    "--shift=0_0", "--shift=+1", "--torsion-primes=6",
    "--torsion-primes=4", "--torsion-primes=1", "--torsion-primes=0",
    "--torsion-primes=-7", "--torsion-primes=3,6", "--torsion-primes=3_0",
])
def test_compare_bad_flags(tmp_path, capsys, flag):
    """A malformed shift or prime, or a non-prime, exits 2: a non-prime
    would filter out the data's Z/7 and the model's Z/3 alike."""
    model_path, data_path = tmp_path / "model.txt", tmp_path / "data.txt"
    model_path.write_text("coeff=Z\nwindow=q:0..0,t:0..0\n"
                          "q=0, t=0, rank=1, tor=3\n")
    data_path.write_text("coeff=Z\nt=0, dd=0, rank=1, tor=7\n")
    args = ("compare", "--model", str(model_path), "--data", str(data_path))
    assert run(capsys, *args)[0] == 1
    assert run(capsys, *args, "--torsion-primes", "3")[0] == 1
    code, out, err = run(capsys, *args, flag)
    assert code == 2 and out == "" and err.startswith("error:")


def test_compare_missing_file(capsys):
    code, _out, err = run(capsys, "compare", "--model", "/nonexistent",
                          "--data", "/nonexistent")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("model", [
    "coeff=Q\nwindow=q:0..1,t:0..1\nq=1, t\n",
    "coeff=Q\nwindow=q:0..1\n",
    "coeff=Z\nwindow=q:0..1,t:0..1\nq=5, t=9, rank=1\n",  # off-window cell
])
def test_compare_malformed_model(tmp_path, capsys, model):
    """Each model's fault is on its last line."""
    model_path = tmp_path / "model.txt"
    model_path.write_text(model)
    code, _out, err = run(capsys, "compare", "--model", str(model_path),
                          "--data", os.path.join(DATA, "table2_T59_F3.txt"))
    assert code == 2 and f"error: line {model.count(chr(10))}:" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "homology", "--n", "2")[0] == 2  # missing --tmax


@pytest.mark.parametrize("argv,message", [
    (("homology", "--tableau", "[12]", "--reduced", "--N", "2", "--tmax", "2",
      "--qmax", "4"), "projector algebras have no --reduced variant"),
    (("homology", "--tmax", "4", "--qmax", "8"),
     "--n is required without --tableau"),
    (("series", "--torus3", "2"), "--N is required for assemblies"),
    (("series",), "one of --formula/--list/--torus2/--torus3/"
                  "--check-identities is required"),
    (("series", "--formula", "P_bogus"),
     "unknown formula 'P_bogus'; see list_formulas()"),
    (("certify", "--name", "bogus"), "unknown certificate 'bogus'"),
], ids=["reduced_tableau", "no_n", "assembly_no_N", "no_series_mode",
        "unknown_formula", "unknown_certificate"])
def test_refusals_exit_2_through_main(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def _cells_from(serialized):
    for line in serialized.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line or not line.startswith("q="):
            continue
        fields = dict(kv.split("=") for kv in
                      (c.strip() for c in line.split(",")) if "=" in kv)
        rank = int(fields["rank"])
        if rank:
            yield int(fields["q"]), int(fields["t"]), rank
