"""The record classes: construction, defaults, equality, repr, hashing and
frozen-ness, for every ``latprune.record.Record`` subclass."""

from array import array

import numpy as np
import pytest

from latprune.arch import ArchitectureSpec, BlockSpec, DimensionSpec
from latprune.importance import Assignment, ImportanceVector
from latprune.latency import LatencyModelParams, LatencyTable
from latprune.record import Record
from latprune.solver import PruningSolution

from conftest import conv_dim, make_arch, trunk_dim

# One value per field, in field order.
RECORDS = {
    DimensionSpec: dict(id="d", role="conv_out", option_count=2, group_size=4, max_elements=8),
    BlockSpec: dict(id=1, kind="cnn_chain", dims=("d",), removable=True, input_ref="t"),
    ArchitectureSpec: dict(name="net", blocks=(), dims={}),
    ImportanceVector: dict(values=array("d", [0.0, 1.0]), cutoffs=array("d", [0.0, 1.0])),
    Assignment: dict(omega={"d": 1}, kappa={1: 0}),
    LatencyTable: dict(block_id=1, part="mlp", axes=("e", "m"), data=np.ones((2, 2)), layer=None),
    LatencyModelParams: dict(unit_cost=1e-3, overhead=0.5, tile=8, spatial=2.0),
    PruningSolution: dict(status="optimal", assignment=None, importance=1.0, latency=2.0,
                          bound=1.0, node_count=3, wall_time=0.1, message="done"),
}
DEFAULTS = {
    BlockSpec: {"input_ref": None},
    Assignment: {"omega": {}, "kappa": {}},
    ImportanceVector: {"cutoffs": None},
    LatencyTable: {"layer": None},
    LatencyModelParams: {"unit_cost": 1e-6, "overhead": 0.01, "tile": 32, "spatial": 1.0},
    PruningSolution: {"message": ""},
}
CLASSES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def test_every_record_class_is_covered():
    assert set(Record.__subclasses__()) == set(RECORDS)


@CLASSES
def test_keyword_and_positional_construction(cls):
    fields = RECORDS[cls]
    by_name, by_position = cls(**fields), cls(*fields.values())
    for record in (by_name, by_position):
        assert [getattr(record, name) for name in fields] == list(fields.values())
    assert by_name == by_position
    half = len(fields) // 2
    mixed = cls(*list(fields.values())[:half], **dict(list(fields.items())[half:]))
    assert mixed == by_name


@CLASSES
def test_defaults(cls):
    defaults = DEFAULTS.get(cls, {})
    required = {name: value for name, value in RECORDS[cls].items() if name not in defaults}
    record = cls(**required)
    for name, value in defaults.items():
        assert getattr(record, name) == value
        if isinstance(value, dict):  # a fresh dict per record
            assert getattr(record, name) is not getattr(cls(**required), name)


def test_two_assignments_share_no_dict():
    first, second = Assignment(), Assignment()
    first.omega["d"] = 1
    first.kappa[1] = 0
    assert second.omega == {} and second.kappa == {}


@CLASSES
def test_bad_arguments_raise_type_error(cls):
    fields = RECORDS[cls]
    name = next(iter(fields))
    with pytest.raises(TypeError):
        cls(*fields.values(), "extra")
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=1)
    with pytest.raises(TypeError):
        cls(fields[name], **fields)
    if name not in DEFAULTS.get(cls, {}):
        with pytest.raises(TypeError, match=name):
            cls(**{k: v for k, v in fields.items() if k != name})


@CLASSES
def test_equality_reads_the_exact_type_and_the_fields(cls):
    fields = RECORDS[cls]
    record = cls(**fields)
    assert record == cls(**fields)
    twin = type("Twin", (Record,), {"__annotations__": dict(cls.__annotations__)})
    assert record != twin(**fields)
    assert twin(**fields) != record
    name = next(iter(fields))
    assert record != cls(**{**fields, name: "other"})


@CLASSES
def test_repr_lists_the_fields(cls):
    fields = RECORDS[cls]
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__qualname__}({shown})"


@CLASSES
def test_frozen_records_refuse_assignment_and_hash_by_fields(cls):
    fields = RECORDS[cls]
    record = cls(**fields)
    name = next(iter(fields))
    for change in (lambda: setattr(record, name, "changed"), lambda: delattr(record, name),
                   lambda: setattr(record, "new_attribute", 1)):
        with pytest.raises(AttributeError):
            change()
    assert getattr(record, name) == fields[name]
    try:
        key = hash(tuple(fields.values()))
    except TypeError:  # an array or dict field: unhashable, as the tuple is
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == key == hash(cls(**fields))


class TestNumpyFields:
    """A numpy array field compares by shape and elements, as records
    built in code may hold one in place of the readers' buffers."""

    def test_importance_vectors_compare_their_arrays(self):
        vector = ImportanceVector(values=np.arange(2.0))
        assert vector == ImportanceVector(values=np.arange(2.0))
        assert vector == ImportanceVector(values=array("d", [0.0, 1.0]))
        for other in (np.arange(3.0), np.array([0.0, 2.0]), np.arange(2.0).reshape(2, 1),
                      array("d", [0.0, 1.0, 2.0]), array("d", [0.0])):
            assert vector != ImportanceVector(values=other)
            assert ImportanceVector(values=other) != vector
        # A buffer field has a shape too: numpy's broadcasting does not decide.
        ones = ImportanceVector(values=array("d", [1.0, 1.0]))
        assert ImportanceVector(values=np.array([1.0])) != ones
        assert ones != ImportanceVector(values=np.array([1.0]))
        assert vector != ImportanceVector(values=np.arange(2.0), cutoffs=np.arange(2.0))

    def test_latency_tables_compare_their_arrays(self):
        def table(data):
            return LatencyTable(block_id=1, part="mlp", axes=("e", "m"), data=data)

        assert table(np.ones((2, 2))) == table(np.ones((2, 2)))
        buffer = memoryview(array("d", [1.0] * 4)).cast("B").cast("d", (2, 2))
        assert table(np.ones((2, 2))) == table(buffer)
        for other in (np.ones((2, 3)), np.ones(4), np.ones((1, 2)), np.eye(2)):
            assert table(np.ones((2, 2))) != table(other)
            assert table(other) != table(np.ones((2, 2)))

    def test_numpy_scalars_equal_the_floats_they_hold(self):
        params = LatencyModelParams(unit_cost=1e-3)
        assert params == LatencyModelParams(unit_cost=np.float64(1e-3))
        assert params != LatencyModelParams(unit_cost=np.float64(2e-3))


def test_architecture_equality_ignores_its_cached_parts():
    def arch():
        block = BlockSpec(id=1, kind="cnn_chain", dims=("c1",), removable=True, input_ref="t")
        return make_arch([trunk_dim("t"), conv_dim("c1", 2)], [block])

    cached, fresh = arch(), arch()
    parts = cached.parts(cached.blocks[0])
    assert "_parts" in vars(cached) and "_parts" not in vars(fresh)
    assert cached == fresh and fresh == cached
    assert cached.parts(cached.blocks[0]) is parts  # computed once

