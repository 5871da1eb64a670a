"""The immutable value records: equality, hash, immutability, copies and construction.

Each record compares and hashes by its fields, as the tuple of them, through
the base class alone, and refuses assignment and deletion; pickle, copy and
deepcopy rebuild an equal record with the same attributes.
"""

import copy
import importlib
import pickle
import pkgutil

import pytest

import spinverlinde
from spinverlinde._value import Value
from spinverlinde.checks import CheckResult
from spinverlinde.dimensions import GradedDimension
from spinverlinde.f2 import F2Vector, SymplecticF2Space
from spinverlinde.fusion import CertifiedInteger
from spinverlinde.heisenberg import HeisenbergElement, MonomialMatrix
from spinverlinde.levels import (
    CorrespondenceTable,
    Lattice,
    LevelValue,
    TableColumn,
    correspondence_table,
)
from spinverlinde.spin import QuadraticRefinement

# per class: a function that builds fresh equal records, one record that differs, and the compared fields
RECORDS = {
    "F2Vector": (lambda: F2Vector(5, 4), F2Vector(6, 4), ("bits", "dim")),
    "SymplecticF2Space": (lambda: SymplecticF2Space(2), SymplecticF2Space(3), ("genus",)),
    "QuadraticRefinement": (
        lambda: QuadraticRefinement(SymplecticF2Space(2), 5),
        QuadraticRefinement(SymplecticF2Space(2), 6),
        ("space", "basis_values"),
    ),
    "HeisenbergElement": (
        lambda: HeisenbergElement(1, F2Vector(5, 4)),
        HeisenbergElement(3, F2Vector(5, 4)),
        ("central", "vector"),
    ),
    "MonomialMatrix": (
        lambda: MonomialMatrix((1, 0), (0, 3)),
        MonomialMatrix((1, 0), (0, 1)),
        ("images",),
    ),
    "CertifiedInteger": (
        lambda: CertifiedInteger(10, 10, 21, 128),
        CertifiedInteger(10, 10, 21, 256),
        ("value", "bound", "modulus", "precision_bits"),
    ),
    "GradedDimension": (lambda: GradedDimension(1, 0), GradedDimension(0, 1), ("even", "odd")),
    "LevelValue": (lambda: LevelValue(Lattice.BM, 8), LevelValue(Lattice.SO3, 8), ("lattice", "value")),
    "TableColumn": (
        lambda: TableColumn(0, 2, 1, "spin structure"),
        TableColumn(4, 0, 0, "Z/2-bundle"),
        ("bhmv_mod8", "su2_mod4", "so3_mod2", "structure"),
    ),
    "CorrespondenceTable": (
        correspondence_table,
        CorrespondenceTable(correspondence_table().columns, "another erratum"),
        ("columns", "erratum"),
    ),
    "CheckResult": (
        lambda: CheckResult("pairing", True, "16 vectors v"),
        CheckResult("pairing", False, "16 vectors v"),
        ("name", "passed", "details"),
    ),
}
CLASSES = sorted(RECORDS)


@pytest.mark.parametrize("cls", CLASSES)
def test_eq_and_hash_go_by_the_fields(cls):
    build, different, fields = RECORDS[cls]
    record, twin = build(), build()
    assert record is not twin and type(record).__name__ == cls and record._fields == fields
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(tuple(getattr(record, f) for f in fields))
    assert record != different and not record == different
    # another class never compares equal, not even the tuple of the fields
    assert record != tuple(getattr(record, f) for f in fields)
    assert record.__eq__(object()) is NotImplemented


def value_classes(cls=Value):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from value_classes(subclass)


def test_no_record_writes_its_own_eq_or_hash():
    for module in pkgutil.iter_modules(spinverlinde.__path__):
        importlib.import_module(f"spinverlinde.{module.name}")
    classes = [cls for cls in value_classes() if cls.__module__.startswith("spinverlinde.")]
    assert {cls.__name__ for cls in classes} >= set(RECORDS)
    assert [cls.__name__ for cls in classes if {"__eq__", "__hash__"} & set(vars(cls))] == []


@pytest.mark.parametrize("cls", CLASSES)
def test_assignment_and_deletion_raise(cls):
    record = RECORDS[cls][0]()
    before = dict(vars(record))
    for name in (*RECORDS[cls][2], "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert vars(record) == before


PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("clone", ["copy", "deepcopy", *(f"pickle{p}" for p in PROTOCOLS)])
def test_copies_round_trip(cls, clone):
    record = RECORDS[cls][0]()
    if clone.startswith("pickle"):
        twin = pickle.loads(pickle.dumps(record, int(clone[len("pickle"):])))
    else:
        twin = getattr(copy, clone)(record)
    assert type(twin) is type(record)
    assert twin == record and hash(twin) == hash(record)
    assert vars(twin) == vars(record)
    assert repr(twin) == repr(record)
    with pytest.raises(AttributeError):
        setattr(twin, RECORDS[cls][2][0], 0)


def test_a_subclass_keeps_its_parents_fields():
    class Tagged(F2Vector):
        pass

    class Labelled(F2Vector):
        label: str

    tagged = Tagged(5, 4)
    assert Tagged._fields == ("bits", "dim") and Labelled._fields == ("bits", "dim", "label")
    assert tagged == Tagged(5, 4) and tagged != Tagged(6, 4)
    assert hash(tagged) == hash((5, 4)) == hash(F2Vector(5, 4))
    # equal fields, another class: never equal, either way round
    assert tagged != F2Vector(5, 4) and F2Vector(5, 4) != tagged
    assert repr(tagged).endswith("Tagged(bits=5, dim=4)")


def test_keyword_and_default_construction():
    assert GradedDimension(even=1, odd=0) == GradedDimension(1, 0)
    assert GradedDimension(even=1, odd=0).total == 1
    result = CheckResult("arf counts g=1", True)
    assert (result.name, result.passed, result.details) == ("arf counts g=1", True, "")
    assert CheckResult(name="x", passed=False, details="d") == CheckResult("x", False, "d")
    assert SymplecticF2Space(genus=4) == SymplecticF2Space(4)
    assert F2Vector(bits=3, dim=2) == F2Vector(3, 2)


def test_repr_reads_as_the_constructor():
    assert repr(GradedDimension(1, 0)) == "GradedDimension(even=1, odd=0)"
    assert repr(SymplecticF2Space(2)) == "SymplecticF2Space(genus=2)"
    assert repr(CheckResult("x", True)) == "CheckResult(name='x', passed=True, details='')"
    assert repr(QuadraticRefinement(SymplecticF2Space(1), 2)) == (
        "QuadraticRefinement(space=SymplecticF2Space(genus=1), basis_values=2)"
    )
    # a monomial matrix stores the images of its basis points, and shows and
    # reads back its constructor's tuples
    matrix = MonomialMatrix((1, 0), (0, 3))
    assert repr(matrix) == "MonomialMatrix(columns=(1, 0), phases=(0, 3))"
    assert (matrix.columns, matrix.phases) == ((1, 0), (0, 3))
    assert vars(matrix) == {"images": (4, 3)}


def test_certified_integer_converts_to_its_value():
    assert int(CertifiedInteger(-7, 10, 21, 128)) == -7


VECTOR = F2Vector(1, 2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: F2Vector(1.0, 2), "bit masks are integers, got float 1.0"),
        (lambda: F2Vector(True, 2), "bit masks are integers, got bool True"),
        (lambda: F2Vector(1, 2.0), "dimensions are integers, got float 2.0"),
        (lambda: QuadraticRefinement(SymplecticF2Space(1), 1.0), "basis values are integers, got float 1.0"),
        (lambda: HeisenbergElement(1.0, VECTOR), "central parts are integers, got float 1.0"),
        (lambda: HeisenbergElement(False, VECTOR), "central parts are integers, got bool False"),
        (lambda: HeisenbergElement(0, 5), "vectors are F2Vectors, got int 5"),
        (lambda: SymplecticF2Space(True), "genera are integers, got bool True"),
        (lambda: CertifiedInteger(1.0, 2, 5, 128), "certified values are integers, got float 1.0"),
        # refused when built, not when its repr shifts a float column
        (lambda: MonomialMatrix((1.0, 0), (0, 1)), "columns and phases are integers, got float 1.0"),
        (lambda: MonomialMatrix((1, 0), (0, True)), "columns and phases are integers, got bool True"),
    ],
    ids=[
        "bits", "bits-bool", "dim", "basis_values", "central", "central-bool", "vector", "genus-bool", "certified",
        "monomial-column", "monomial-phase-bool",
    ],
)
def test_public_constructors_refuse_fields_of_another_type(build, message):
    # a float or bool field would compare equal to its integer twin and fail
    # only later, in +, pair, str or q(v), with an unrelated TypeError
    with pytest.raises(TypeError, match=f"^{message}$"):
        build()


def test_public_constructors_validate():
    with pytest.raises(ValueError, match="bit mask 16 out of range for dimension 4"):
        F2Vector(16, 4)
    with pytest.raises(ValueError, match=r"^certificate violated: 12 outside \[-10, 10\]$"):
        CertifiedInteger(12, 10, 21, 128)
    with pytest.raises(ValueError, match="BM levels are positive multiples of 8, got 12"):
        LevelValue(Lattice.BM, 12)
