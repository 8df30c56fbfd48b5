"""Result records are immutable named tuples and CurveModel is a slotted,
immutable class, so importing twistcheck generates no code."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from twistcheck.arith import QuadFieldData
from twistcheck.certify import Certificate, Condition, TableReport, TableRowResult
from twistcheck.cli_io import ExternalCurveRow
from twistcheck.curves import CurveModel, Family
from twistcheck.local_invariants import ConductorReport, LocalData
from twistcheck.lseries import LRatioResult
from twistcheck.tabledata import TableRow
from twistcheck.torsion_galois import GaloisImageVerdict, TorsionStructure

SRC = Path(__file__).resolve().parents[1] / "src"

RECORDS = (
    QuadFieldData,
    Condition,
    Certificate,
    TableRowResult,
    TableReport,
    LocalData,
    ConductorReport,
    LRatioResult,
    TableRow,
    TorsionStructure,
    GaloisImageVerdict,
    ExternalCurveRow,
)


def test_cold_start_generates_no_code():
    # a fresh interpreter, as a CLI call or a benchmark round starts one
    code = (
        "import sys\n"
        "import twistcheck, twistcheck.cli_io\n"
        "twistcheck.base_curve(15); twistcheck.base_curve(21)\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestCurveModel:
    def test_fields_cannot_be_set_or_deleted(self):
        E = CurveModel(1, 0, 1, -10, -10)
        for name in ("a1", "c4", "_hash", "extra"):
            with pytest.raises(AttributeError):
                setattr(E, name, 0)
            with pytest.raises(AttributeError):
                delattr(E, name)
        assert E.ainvs == (1, 0, 1, -10, -10) and E.c4 == 457

    def test_integral_fractions_give_the_int_model(self):
        E = CurveModel(1, 1, 1, -10, -10)
        F = CurveModel.from_ainvs((Fraction(1), Fraction(2, 2), Fraction(1), Fraction(-10), Fraction(-20, 2)))
        assert F == E and hash(F) == hash(E) and {E: 1}[F] == 1
        assert all(type(a) is int for a in F.ainvs)
        assert E != CurveModel(1, 1, 1, -10, -9) and E != E.ainvs

    def test_repr(self):
        assert repr(CurveModel(1, 0, 1, -10, -10)) == "CurveModel(a1=1, a2=0, a3=1, a4=-10, a6=-10)"

    def test_copy_and_pickle_rebuild_the_model(self):
        E = CurveModel(1, 0, 0, -4, -1)
        for F in (copy.copy(E), copy.deepcopy(E), pickle.loads(pickle.dumps(E))):
            assert F == E and F.discriminant == E.discriminant and hash(F) == hash(E)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_record_fields_cannot_be_set(record):
    values = tuple(range(len(record._fields)))
    r = record(*values)
    with pytest.raises(AttributeError):
        setattr(r, record._fields[0], -1)
    assert r == values and tuple(r) == values


def test_certificate_requires_extras():
    cond = Condition("d_squarefree_gt_1", "structural", 2, True)
    with pytest.raises(TypeError):
        Certificate(Family.X15, 2, 7, (cond,), "Applies", "n/a")
    assert Certificate(Family.X15, 2, 7, (cond,), "Applies", "n/a", {}).extras == {}
