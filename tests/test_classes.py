"""Equality and hashing of the value classes the program compares or keys
dicts by, the fixed slots of the others, and repr."""

import pickle

import pytest

from blowup_rigidity.fieldgeom import Config
from blowup_rigidity.lattice import CurveClass, DivisorClass
from blowup_rigidity.report import SweepCase

C0_FIELDS = dict(n=2, r=2, s=(2, 3), q=13, zeta=12, base=((1, 2), (3, 4, 5)))

# name -> make(v, lattice), different for v = 0 and v = 1
VALUES = {
    "DivisorClass": lambda v, lat: DivisorClass((1, 0), (0, v, -1), lat),
    "CurveClass": lambda v, lat: CurveClass((1, v), (0, 1), lat),
    "SweepCase": lambda v, lat: SweepCase(2, 3, (1, 2, 3), seed=v),
    "Config": lambda v, lat: Config(**C0_FIELDS, seed=v),
}

# check_same compares configs
COMPARED = ["Config"]


@pytest.mark.parametrize("name", COMPARED)
def test_value_class_equality_and_hash(name, lat0, lat1):
    make = VALUES[name]
    a, b, other = make(0, lat0), make(0, lat1), make(1, lat0)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other
    assert {a: "a", other: "other"}[b] == "a"


@pytest.mark.parametrize("name", sorted(set(VALUES) - {"Config"}))
def test_value_class_has_fixed_slots(name, lat0):
    # Config keeps a __dict__ for its cached properties
    with pytest.raises(AttributeError):
        VALUES[name](0, lat0).stray = 1


def test_divisor_support_is_derived_from_m(lat0):
    assert DivisorClass((0, 0), (0, 2, 0, -1), lat0).support == (1, 3)


@pytest.mark.parametrize("obj, text", [
    (SweepCase(2, 3, (1, 2, 3), seed=1),
     "SweepCase(n=2, r=3, s=(1, 2, 3), q=None, seed=1)"),
    (Config(**C0_FIELDS),
     "Config(n=2, r=2, s=(2, 3), q=13, zeta=12, base=((1, 2), (3, 4, 5)), seed=None)"),
])
def test_pickle_round_trip_and_repr(obj, text):
    assert repr(obj) == text
    back = pickle.loads(pickle.dumps(obj))
    assert repr(back) == text
    if isinstance(obj, Config):
        assert back == obj and hash(back) == hash(obj)
