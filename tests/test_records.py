"""The record types: immutable, hashable, validated, with stable reprs."""
from __future__ import annotations

from fractions import Fraction

import pytest

from hamb.bounds import BoundReport, BoundValue, DominanceRecord
from hamb.errors import PolicyError
from hamb.estimator import EstimateReport, RowOrderPolicy, TrialOutcome
from hamb.graphs import ContractedMatrix, DiGraph, UndiGraph


def _value() -> BoundValue:
    return BoundValue(exact=Fraction(27, 8), log_upper=1.25, integer_cap=3)


_VALUE_REPR = "BoundValue(exact=Fraction(27, 8), log_upper=1.25, integer_cap=3)"

# (make a record, one of its fields, its repr)
RECORDS = {
    "ContractedMatrix": (lambda: ContractedMatrix(2, (3, 1)), "rows", "ContractedMatrix(n=2, rows=(3, 1))"),
    "DiGraph": (lambda: DiGraph(2, (2, 1)), "n", "DiGraph(n=2, rows=(2, 1))"),
    "UndiGraph": (lambda: UndiGraph(3, (2, 1, 0)), "rows", "UndiGraph(n=3, rows=(2, 1, 0))"),
    "RowOrderPolicy": (
        lambda: RowOrderPolicy.from_table([[2, 1], [1, 1]]),
        "kind",
        "RowOrderPolicy(kind='table', start=None, table=((2, 1), (1, 1)))",
    ),
    "BoundValue": (_value, "integer_cap", _VALUE_REPR),
    "BoundReport": (
        lambda: BoundReport(minc=_value(), bregman=_value(), symmetric=None, applicable_minimum="minc"),
        "symmetric",
        f"BoundReport(minc={_VALUE_REPR}, bregman={_VALUE_REPR}, symmetric=None, applicable_minimum='minc')",
    ),
    "DominanceRecord": (
        lambda: DominanceRecord(symmetric=_value(), minc=_value(), bregman=_value(),
                                new_le_minc=True, new_le_bregman=False),
        "new_le_minc",
        f"DominanceRecord(symmetric={_VALUE_REPR}, minc={_VALUE_REPR}, bregman={_VALUE_REPR}, "
        "new_le_minc=True, new_le_bregman=False)",
    ),
    "TrialOutcome": (
        lambda: TrialOutcome(value=2, witness=(1, 2, 3), p_factors=(2, 1, 1)),
        "value",
        "TrialOutcome(value=2, witness=(1, 2, 3), p_factors=(2, 1, 1))",
    ),
    "EstimateReport": (
        lambda: EstimateReport(trials=2, sum=4, mean=Fraction(2), sample_variance=Fraction(0),
                               standard_error=0.0, zero_fraction=0.0, seed=1, policy="ascending"),
        "mean",
        "EstimateReport(trials=2, sum=4, mean=Fraction(2, 1), sample_variance=Fraction(0, 1), "
        "standard_error=0.0, zero_fraction=0.0, seed=1, policy='ascending')",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecord:
    def test_fields_are_read_only(self, name):
        make, field, _ = RECORDS[name]
        record = make()
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, field) == before

    def test_hashable(self, name):
        make, _, _ = RECORDS[name]
        a, b = make(), make()
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_repr(self, name):
        make, _, text = RECORDS[name]
        assert repr(make()) == text


class TestGraphRecords:
    def test_equality_is_type_strict(self):
        d, m = DiGraph(2, (2, 1)), ContractedMatrix(2, (2, 1))
        assert d != m and m != d
        assert not d == m and not m == d
        assert d != (2, (2, 1)) and (2, (2, 1)) != d
        assert d == DiGraph(2, (2, 1)) and not d != DiGraph(2, (2, 1))
        u = UndiGraph(3, (6, 5, 3))  # the triangle, and below its doubled image
        assert u != DiGraph(3, u.rows) and DiGraph(3, u.rows) != u
        assert not u == DiGraph(3, u.rows) and not DiGraph(3, u.rows) == u

    def test_constructors_validate(self):
        with pytest.raises(ValueError, match="self-loop at vertex 1"):
            DiGraph(2, (0b01, 0b10))
        with pytest.raises(ValueError, match="undirected rows must be symmetric"):
            UndiGraph(3, (2, 0, 0))
        with pytest.raises(ValueError, match="bits outside"):
            ContractedMatrix(2, (0b100, 0))
        with pytest.raises(PolicyError, match="follow-path start"):
            RowOrderPolicy("follow-path", start=0)
