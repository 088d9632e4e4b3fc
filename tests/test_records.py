"""The package's records: repr, ==, hash and mutability, and the
validators that survive python -O; importing the package loads neither
dataclasses nor inspect."""

import os
import subprocess
import sys
import weakref

import pytest

from koszulknots.algebra import CoefficientRing, Degree, Monomial, ZZ
from koszulknots.certify import CertificateReport
from koszulknots.homology import (GradedBasis, HomologyGroup, HomologyTable,
                                  IntegerMatrix, Window)
from koszulknots.interface import DiffReport, ExternalTable
from koszulknots.series import (Assembly, ONE, RationalFunction,
                                SeriesWindow, qta)

NUM = ONE + qta(1, 2)
RF = RationalFunction(NUM, ((1, (2, 0, 0)),))

# (class, field values, exact repr, frozen)
RECORDS = (
    (CoefficientRing, ("Fp", 5), "CoefficientRing(kind='Fp', p=5)", True),
    (Monomial, ((1, 0), (0, 2)), "Monomial(even=(1, 0), odd=(0, 2))", True),
    (Window, (-1, 2, 0, 3), "Window(qmin=-1, qmax=2, tmin=0, tmax=3)", True),
    (GradedBasis, (Degree(1, 2), [3, 4], None),
     "GradedBasis(degree=Degree(q=1, t=2, a=0), keys=[3, 4], layout=None)",
     False),
    (IntegerMatrix, (2, 3, {(0, 1): 5}),
     "IntegerMatrix(rows=2, cols=3, entries={(0, 1): 5})", False),
    (HomologyGroup, (1, (2, 6)), "HomologyGroup(free_rank=1, torsion=(2, 6))",
     True),
    (HomologyTable, ("m", ZZ, Window(0, 1, 0, 1),
                     {Degree(0, 0): HomologyGroup(1)}),
     "HomologyTable(pres_name='m', ring=CoefficientRing(kind='Z', p=None), "
     "window=Window(qmin=0, qmax=1, tmin=0, tmax=1), "
     "groups={Degree(q=0, t=0, a=0): HomologyGroup(free_rank=1, torsion=())})",
     False),
    (RationalFunction, (NUM, ((1, (2, 0, 0)),)),
     f"RationalFunction(num={NUM!r}, den_factors=((1, (2, 0, 0)),))", True),
    (SeriesWindow, (0, 2, -1, 3),
     "SeriesWindow(tmin=0, tmax=2, qmin=-1, qmax=3)", True),
    (Assembly, (RF, 3, None),
     f"Assembly(rational={RF!r}, shift_q=3, polynomial=None)", False),
    (CertificateReport, ("x", Degree(1, 0), [("d", True, "")]),
     "CertificateReport(name='x', claimed_degree=Degree(q=1, t=0, a=0), "
     "checks=[('d', True, '')])", False),
    (ExternalTable, ((5, 9), ZZ, {(0, 0): (1, ())}),
     "ExternalTable(knot=(5, 9), ring=CoefficientRing(kind='Z', p=None), "
     "cells={(0, 0): (1, ())})", False),
    (DiffReport, (0, None, [], 3, (0, 2)),
     "DiffReport(shift=0, first_divergence=None, mismatches=[], "
     "compared_cells=3, agreeing_region=(0, 2))", False),
)
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls,values,text,frozen", RECORDS, ids=IDS)
def test_record_repr_and_equality(cls, values, text, frozen):
    a, b = cls(*values), cls(*values)
    assert repr(a) == text
    assert a == b and not a != b
    # == holds only between records of one class
    other = type("Other", (cls,), {})(*values)
    for stranger in (tuple(values), other):
        assert a != stranger and not a == stranger
        assert stranger != a and not stranger == a
    if frozen:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls,values,text,frozen", RECORDS, ids=IDS)
def test_record_fields_frozen_or_assignable(cls, values, text, frozen):
    record = cls(*values)
    field = text[len(cls.__name__) + 1:].split("=")[0]
    if frozen:
        for name in (field, "extra"):
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(record, name, values[0])
        assert getattr(record, field) is values[0]
    else:
        setattr(record, field, "changed")
        assert getattr(record, field) == "changed"
        assert record != cls(*values)


def test_record_field_rules():
    """A window of one kind never equals the other; defaults stay as they
    were; GradedBasis.moves and the matrix's weak references."""
    assert Window(0, 1, 2, 3) != SeriesWindow(0, 1, 2, 3)
    assert Window() == Window(0, 0, 0, 0)
    assert Monomial((1,)).odd == () and CoefficientRing("Q").p is None
    assert HomologyGroup(2).torsion == ()
    assert Window(qmax=2, tmax=1) == Window(0, 2, 0, 1)
    assert IntegerMatrix(1, 1).entries == {}
    assert ExternalTable().cells == {} and CertificateReport("x").checks == []
    # fresh containers per record, as a default factory gives
    assert IntegerMatrix(1, 1).entries is not IntegerMatrix(1, 1).entries
    basis = GradedBasis(Degree(0, 0), [1])
    assert basis.layout is None and basis.moves == {}
    moved = GradedBasis(Degree(0, 0), [1], None, {0: ((1, 2),)})
    assert moved == basis and "moves" not in repr(moved)
    mat = IntegerMatrix(1, 1)
    ref = weakref.ref(mat)
    assert ref() is mat


def _run(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_record_validators_survive_python_O():
    code = """
from koszulknots.algebra import CoefficientRing, Monomial
from koszulknots.homology import HomologyGroup, Window
from koszulknots.series import ONE, RationalFunction, SeriesWindow
cases = [(ValueError, Window, (1, 0)), (ValueError, Window, (0, 0, 1, 0)),
         (ValueError, SeriesWindow, (1, 0, 0, 0)),
         (ValueError, SeriesWindow, (0, 0, 1, 0)),
         (ValueError, HomologyGroup, (-1,)),
         (ValueError, HomologyGroup, (0, (2, 3))),
         (ValueError, CoefficientRing, ("R",)),
         (ValueError, CoefficientRing, ("Fp", 4)),
         (ValueError, CoefficientRing, ("Z", 3)),
         (ValueError, Monomial, ((1, -1),)),
         (ValueError, Monomial, ((), (2, 1))),
         (ZeroDivisionError, RationalFunction, (ONE, ((1, (0, 0, 0)),)))]
for exc, cls, args in cases:
    try:
        cls(*args)
    except exc:
        continue
    raise SystemExit(f"{cls.__name__}{args} was accepted")
"""
    done = _run("-O", "-c", code)
    assert done.returncode == 0, done.stdout + done.stderr


def test_import_loads_neither_dataclasses_nor_inspect():
    """The records are written out by hand: the package's import adds
    neither dataclasses nor inspect (which dataclasses pulls in) to
    sys.modules."""
    code = """
import sys
before = set(sys.modules)
import koszulknots
added = set(sys.modules) - before
print(sorted(added & {"dataclasses", "inspect"}))
"""
    done = _run("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
