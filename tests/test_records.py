"""The record classes: each is a records.Record, built by position, keyword
and default, compared and hashed by its fields as a tuple, frozen, and keeps
what its cached properties compute."""

import importlib
import math
import pkgutil
from functools import cached_property

import numpy as np
import pytest

import corona_lab
from corona_lab.corona import GridSpec
from corona_lab.functions import FunctionSpec
from corona_lab.measures import SimpleDensity
from corona_lab.records import Record

ONE = FunctionSpec.polynomial((1,))

# record class -> a value for each field, in order
VALUES = {
    "BlaschkeProduct": ((0.5 + 0j, -0.25j), 0.5),
    "DiscSequence": ((0.5 + 0j, 0.25j, -0.75 + 0.125j),),
    "Sector": (0.5,),
    "RungRecord": (1, 0.5, 0.25, 0.125),
    "LadderConstruction": (0.5, (0.5, 0.7), (0.6,), (0,), (0.55 + 0j,), ((), (), ()), ()),
    "GridSpec": (8, 64, 256, 0.5),
    "DeltaReport": (0.25, 0.5j),
    "CoronaInstance": ((ONE,), GridSpec(8, 16, 32, 0.5)),
    "BezoutCertificate": ((ONE,), 0.0, (1.0,), True, "exact", 0.0),
    "CheckReport": (0.0, 1.0, 10, True),
    "ClusterReport": ((0, 1), (1 + 0j,), (2,), (0.0,)),
    "MobiusAut": (0.5 + 0.25j,),
    "OrthogonalArc": (-0.5, 0.5),
    "FunctionSpec": ("polynomial", ((1 + 0j, 0.5 + 0j),)),
    "CompositionTrace": ((0.1, 0.2), np.array([0.5j, 0.25]), np.ones((2, 2), complex)),
    "SchwarzRow": (0, 0.5 + 0j, 0j, 0.75, 0.75),
    "L2Report": (0.1, 0.0, np.array([0j, 1 + 0j]), 1.0, 0.0, 256),
    "SimpleDensity": (((-math.pi, math.pi, 1.0),),),
    "DensityFit": (SimpleDensity.uniform(-1.0, 1.0), (0.0,), 0.0),
    "QuartilePair": (-0.5, 0.5, "straddle"),
}


def _records() -> dict:
    for module in pkgutil.iter_modules(corona_lab.__path__):
        if not module.name.startswith("__"):        # __main__ runs the CLI
            importlib.import_module(f"corona_lab.{module.name}")
    return {cls.__name__: cls for cls in Record.__subclasses__()}


def test_the_table_holds_every_record_class():
    assert sorted(_records()) == sorted(VALUES)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_a_record_behaves_as_a_frozen_dataclass(name):
    cls, values = _records()[name], VALUES[name]
    fields = list(cls.__annotations__)
    record = cls(*values)
    stored = tuple(getattr(record, field) for field in fields)

    # by position, by keyword, and with the defaulted fields left out
    assert cls(**dict(zip(fields, values))) == record
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == record
    defaulted = [field for field in fields if field in vars(cls)]
    assert defaulted == fields[len(fields) - len(defaulted):]
    short = cls(*values[:len(fields) - len(defaulted)])
    assert [getattr(short, field) for field in defaulted] == [vars(cls)[f] for f in defaulted]
    # too many arguments, a required field missing, a field given twice, an unknown one
    for bad in ((*values, values[0]), values[:len(fields) - len(defaulted) - 1]):
        with pytest.raises(TypeError):
            cls(*bad)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, bogus=1)

    # equal by the field tuple, to a record of the same class only
    assert record != stored and record != object()
    assert repr(record) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, stored))})"
    try:
        expected = hash(stored)
    except TypeError:           # an array field: unhashable, as a dataclass's
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(getattr(record, field) for field in fields) == stored


def test_records_differ_by_any_field():
    cls = _records()["RungRecord"]
    record = cls(1, 0.5, 0.25, 0.125)
    for i in range(4):
        changed = [1, 0.5, 0.25, 0.125]
        changed[i] = 7
        assert cls(*changed) != record
    assert record.to_dict() == {"rung": 1, "eta": 0.5, "eps": 0.25, "min_modulus": 0.125}


@pytest.mark.parametrize("name", ["DiscSequence", "SimpleDensity"])
def test_cached_properties_are_computed_once(name):
    cls = _records()[name]
    record = cls(*VALUES[name])
    cached = [attr for attr, value in vars(cls).items() if isinstance(value, cached_property)]
    assert cached
    for attr in cached:
        first = getattr(record, attr)
        assert getattr(record, attr) is first
        assert vars(record)[attr] is first
    # a record keeps no cached value in its equality or hash
    assert record == cls(*VALUES[name])
