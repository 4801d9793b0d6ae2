"""The record types are immutable tuples: their repr text, their read-only
fields and their constructor checks, and a start-up that loads neither
`dataclasses` nor `inspect`."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cycloclass.abelian import (
    AbelianFieldSpec,
    DirichletCharacter,
    characters,
    cyclic_subfield_spec,
    galois_orbits,
)
from cycloclass.arith import factorize
from cycloclass.bounds import BoundResult
from cycloclass.classnum import OrbitNorm, relative_class_number
from cycloclass.congruence import RankHypothesis, Verdict
from cycloclass.tables import (
    AuditEntry,
    AuditReport,
    ClassNumberRecord,
    DescentData,
    SubfieldClassNumber,
    _Context,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import sys, cycloclass.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


def _records():
    """(record, one of its fields, its repr when the records were frozen
    dataclasses) for each of the 15 record types."""
    verdict = Verdict("CONSISTENT", {"theorem": "corollary1", "p": 3})
    record = ClassNumberRecord("cyclotomic", modulus=23, h_minus=((3, 1),), source="Washington")
    entry = AuditEntry(1, "Q(zeta_23)", "h-", 3, 1, None, "corollary1", verdict)
    chi_5 = "DirichletCharacter(modulus=5, exponents=({}), order=4, is_odd=True)"
    record_repr = (
        "ClassNumberRecord(kind='cyclotomic', modulus=23, degree=None, conductor=None, "
        "abs_disc=None, h_minus=((3, 1),), h_plus=None, h=None, p_ranks=(), subfield_h=(), "
        "descents=(), source='Washington')"
    )
    verdict_repr = "Verdict(status='CONSISTENT', witness={'theorem': 'corollary1', 'p': 3})"
    entry_repr = (
        "AuditEntry(record_index=1, label='Q(zeta_23)', h_kind='h-', prime=3, exponent=1, "
        f"known_rank=None, theorem='corollary1', verdict={verdict_repr}, conjectural=False, "
        "probable_prime=False)"
    )
    return [
        (DirichletCharacter(5, (3,)), "order", chi_5.format("3,")),
        (
            galois_orbits(characters(5))[-1],
            "members",
            f"CharacterOrbit(members=({chi_5.format('1,')}, {chi_5.format('3,')}), "
            "order=4, conductor=5, is_odd=True)",
        ),
        (
            cyclic_subfield_spec(7, 3),
            "degree",
            "AbelianFieldSpec(modulus=7, rows=((2,),), degree=3, conductor=7, abs_discriminant=49)",
        ),
        (
            factorize(360),
            "cofactor",
            "PrimeFactorization(value=360, factors=((2, 3), (3, 2), (5, 1)), cofactor=1)",
        ),
        (
            BoundResult(5, 2, Fraction(3, 2), Fraction(1), 128, True),
            "H_fraction",
            "BoundResult(abs_disc=5, degree=2, H_fraction=Fraction(3, 2), "
            "lower_fraction=Fraction(1, 1), precision_bits=128, rounded_up=True, note=None)",
        ),
        (
            OrbitNorm(4, 2, (1,), Fraction(1, 5)),
            "norm",
            "OrbitNorm(order=4, size=2, rep_exponents=(1,), norm=Fraction(1, 5))",
        ),
        (
            relative_class_number(7),
            "value",
            "RelativeClassNumber(modulus=7, value=1, factorization=PrimeFactorization(value=1, "
            "factors=(), cofactor=1), orbit_norms=(OrbitNorm(order=6, size=2, rep_exponents=(1,), "
            "norm=Fraction(1, 7)), OrbitNorm(order=2, size=1, rep_exponents=(3,), "
            "norm=Fraction(1, 2))), q_factor=1, roots_of_unity=14, note='')",
        ),
        (
            SubfieldClassNumber(-23, h=((3, 1),)),
            "h",
            "SubfieldClassNumber(disc=-23, h=((3, 1),), h_divisors=None)",
        ),
        (DescentData(3, 49, 3), "n", "DescentData(n=3, abs_disc=49, degree=3)"),
        (record, "source", record_repr),
        (entry, "verdict", entry_repr),
        (
            _Context("h-", ((3, 1),), 22, None),
            "K",
            "_Context(h_kind='h-', factors=((3, 1),), N=22, K=None)",
        ),
        (
            AuditReport((record,), (entry,), "allow", ()),
            "entries",
            f"AuditReport(records=({record_repr},), entries=({entry_repr},), "
            "probable_prime_policy='allow', notes=())",
        ),
        (verdict, "status", verdict_repr),
        (RankHypothesis(3, 2), "r_p", "RankHypothesis(p=3, v_p=2, r_p=None)"),
    ]


def test_record_reprs_are_unchanged():
    records = _records()
    assert len({type(obj) for obj, _, _ in records}) == 15
    for obj, _, text in records:
        assert repr(obj) == text


def test_record_fields_are_read_only():
    for obj, name, _ in _records():
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


def test_records_survive_pickle_and_copy():
    for obj, _, text in _records():
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(twin) is type(obj) and twin == obj and repr(twin) == text


def test_checked_constructors_keep_their_messages():
    with pytest.raises(ValueError, match="unknown status 'MAYBE'"):
        Verdict("MAYBE", {})
    with pytest.raises(ValueError, match="p = 1 is not a prime"):
        RankHypothesis(1, 1)
    with pytest.raises(ValueError, match="v_p must be >= 1, got 0"):
        RankHypothesis(11, 0)
    with pytest.raises(ValueError, match=r"known rank r_p = 3 outside 1\.\.v_p = 2"):
        RankHypothesis(11, 2, r_p=3)
    with pytest.raises(ValueError, match="expected 2 exponents for modulus 8"):
        DirichletCharacter(8, (1,))
    with pytest.raises(ValueError, match="expected 2 exponents per generator"):
        AbelianFieldSpec(8, ((1,),))
