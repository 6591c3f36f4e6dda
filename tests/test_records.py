"""The public result records: immutable, constructed by position or keyword,
compared and hashed by value, unpacked like tuples, with a
`Name(field=value, ...)` repr."""

import importlib

import pytest

# Record -> (its module, fields in order, defaults of the trailing fields).
RECORDS = {
    "EquivalenceWitness": (
        "equivalence", ("verdict", "violation"), {"violation": None}
    ),
    "NeighborhoodGraph": ("neighborhood", ("base", "n", "mode", "graph"), {}),
    "InclusionReport": (
        "neighborhood", ("n", "path_in_nb", "nb_in_walk", "counterexample"), {}
    ),
    "RemovalSet": ("partitions", ("edges",), {}),
    "ConstructionReport": (
        "partitions",
        ("partition", "method", "preconditions", "verified", "witness", "notes"),
        {"witness": None, "notes": ()},
    ),
    "CosineData": ("similarity", ("eta", "d_x", "d_y"), {}),
    "SimilarityReport": (
        "similarity",
        ("x", "y", "eta", "d_x", "d_y", "distance", "kappa", "lower_bound",
         "upper_bound", "fully_dissimilar", "curvature"),
        {"curvature": None},
    ),
    "CurvatureResult": ("transport", ("kappa", "w1", "distance", "coupling"), {}),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_behaves_as_a_value(name):
    module, fields, defaults = RECORDS[name]
    cls = getattr(importlib.import_module(f"equivcurv.{module}"), name)
    values = [f"{f}-value" for f in fields]  # distinct, hashable stand-ins
    record = cls(*values)
    assert record == cls(**dict(zip(fields, values)))
    assert [getattr(record, f) for f in fields] == values

    required = [v for f, v in zip(fields, values) if f not in defaults]
    assert fields[len(required):] == tuple(defaults)  # defaults trail
    with_defaults = cls(*required)
    assert {f: getattr(with_defaults, f) for f in defaults} == defaults
    if required:
        with pytest.raises(TypeError):
            cls(*required[:-1])

    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, "other")
    assert [getattr(record, f) for f in fields] == values

    twin, other = cls(*values), cls(*values[:-1], "other")
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert other != record
    assert record._replace(**{fields[-1]: "other"}) == other
    assert tuple(record) == tuple(values)
    assert len({record, twin, other}) == 2

    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(record) == f"{name}({shown})"
