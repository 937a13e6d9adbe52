"""Value semantics of the package's record types.

Every record is an immutable named tuple: fields cannot be assigned, keyword
and positional construction agree, and the repr reads ``Name(field=value, ...)``.
The two validating records keep validating, through ``_replace`` too.
"""

import pytest

from quiverdet import (BipartiteQuiver, Cell, ChainStats, ChuteMove, CornerReport,
                       CrossCheckError, FaceTable, HilbertSeries, MinorSpec, Monomial,
                       NormalizationReport, RoadMap, ShellingReport, ValidationError,
                       enumerate_facets, f_vector, interior_faces)
from quiverdet.cli import parse_preset
from quiverdet.definitions import CornerRecord, VdcReport, VdcSample
from quiverdet.quiver import Arrow, VertexData
from quiverdet.verify import CheckResult, VerificationReport

CELL, OTHER = Cell(1, 1, 1), Cell(2, 2, 1)
CHECK = CheckResult("facet-cardinality", True, "12 facets")
CORNER = CornerRecord(CELL, "NW", "horizontal", True)
SAMPLE = VdcSample(3, (CELL,), 2, (4, 4))

# one value per field, in field order
RECORDS = {
    ChainStats: (1, 2, 3, 4, 5, 6, 7, 8),
    FaceTable: ((1, 2, 1), ((0,), (1, 2), (3,)), (0, 0, 1), 2),
    ShellingReport: (False, (0, 1), "facet 2: bad"),
    VdcSample: (3, (CELL,), 2, (4, 4)),
    VdcReport: ((SAMPLE,),),
    RoadMap: ({"1": [[(1, 1), (1, 2)]]}, {"2": [[(2, 1)]]}),
    CornerRecord: (CELL, "SE", "vertical", False),
    CornerReport: ((CORNER,), 1, 0),
    MinorSpec: ("1", (1, 2), (1, 2), ((CELL, OTHER), (OTHER, CELL))),
    Monomial: (((CELL, 2), (OTHER, 1)),),
    ChuteMove: ("horizontal", "1", OTHER, CELL, (2, 2)),
    BipartiteQuiver: (("s",), ("t",), (("s", "t"),)),
    Arrow: (1, "s", "t", 2, 3, 0, 0, 0, 0),
    VertexData: ("t", "target", 2, 1, 2, 3, 1),
    NormalizationReport: ((("t", 3, 2),), ("x",), (("x", "t", 2, 1),)),
    HilbertSeries: ((1, 2, 1), 3),
    CheckResult: ("shelling", False, "facet 3"),
    VerificationReport: (parse_preset("det:1,1,1"), (CHECK,)),
}
UNHASHABLE = {RoadMap}  # holds dicts


def test_every_record_is_listed():
    assert len(RECORDS) == 18
    for cls, values in RECORDS.items():
        assert len(cls._fields) == len(values), cls.__name__


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned(cls):
    record = cls(*RECORDS[cls])
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_keyword_and_positional_construction_agree(cls):
    values = RECORDS[cls]
    positional = cls(*values)
    keyword = cls(**dict(zip(cls._fields, values)))
    assert positional == keyword and type(keyword) is cls
    if cls not in UNHASHABLE:
        assert hash(positional) == hash(keyword)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_names_every_field(cls):
    record = cls(*RECORDS[cls])
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, RECORDS[cls]))
    assert repr(record) == f"{cls.__name__}({fields})"


def test_quiver_still_validates():
    with pytest.raises(ValidationError, match="overlap"):
        BipartiteQuiver(("a",), ("a",), (("a", "a"),))
    with pytest.raises(ValidationError, match="not a target vertex"):
        BipartiteQuiver(("s",), ("t",), (("s", "u"),))
    with pytest.raises(ValidationError, match="not a source vertex"):
        BipartiteQuiver(("s",), ("t",), (("r", "t"),))
    with pytest.raises(ValidationError, match="duplicate"):
        BipartiteQuiver(("s", "s"), ("t",), (("s", "t"),))
    quiver = BipartiteQuiver(*RECORDS[BipartiteQuiver])
    with pytest.raises(ValidationError, match="not a target vertex"):
        quiver._replace(arrows=(("s", "u"),))
    assert quiver._replace(targets=("t", "u")).vertices == ("s", "t", "u")


def test_series_still_validates():
    with pytest.raises(CrossCheckError):
        HilbertSeries((1, -1), 2)
    series = HilbertSeries((1, 2, 1), 3)
    with pytest.raises(CrossCheckError):
        series._replace(numerator=(1, -2))
    assert series.multiplicity == 4 and series.palindromic


def test_interior_faces_returns_a_face_table(double_instance):
    table = f_vector(double_instance, store_faces=True)
    marked = interior_faces(double_instance, table, enumerate_facets(double_instance))
    assert type(marked) is FaceTable
    assert marked.counts_by_size == table.counts_by_size
    assert marked.interior_by_size == (0, 0, 0, 4, 15, 12)
    assert table.interior_by_size is None  # the input table is unchanged
