"""The value classes: construction, equality, hash, immutability and repr.

Each class compares and hashes as the tuple of its fields, refuses
assignment after construction and prints as ``Name(field=value, ...)``; the
texts below are the ones the classes have always printed (an exit-2 message
of the CLI quotes a ``DimVector`` this way)."""

import copy
import pickle
from fractions import Fraction

import pytest

from canalg.checks import CheckResult
from canalg.forms import CanonicalType, DimVector
from canalg.oracle import LambdaChoice, MatrixRep
from canalg.tubes import RegularModuleClass, TubeIndec
from canalg.zeroset import ZeroSetReport, ZTriple

D = DimVector(1, 0, ((1,), (1,), (0,)))
DD = DimVector(1, 2, ((1,), (1,), (2,)))
X = RegularModuleClass((TubeIndec(3, 0, 1), TubeIndec(1, 1, 2)))
Z = ZTriple(D, DD, X, 2)
T223 = CanonicalType((2, 2, 3))
REP_DIM = DimVector(1, 1, ((1,), (1,), (1, 0)))
HALF = ((Fraction(1, 2),),)

# class, positional arguments, the same by keyword, the field tuple, repr text
CASES = {
    "CanonicalType": (CanonicalType, ([2, 2, 2],), {"m": [2, 2, 2]}, ((2, 2, 2),),
                      "CanonicalType(m=(2, 2, 2))"),
    "DimVector": (DimVector, (1, 0, [[1], [1], [0]]),
                  {"d0": 1, "dinf": 0, "arms": [[1], [1], [0]]}, (1, 0, ((1,), (1,), (0,))),
                  "DimVector(d0=1, dinf=0, arms=((1,), (1,), (0,)))"),
    "TubeIndec": (TubeIndec, (2, 1, 3), {"arm": 2, "socle": 1, "qlen": 3}, (2, 1, 3),
                  "TubeIndec(arm=2, socle=1, qlen=3)"),
    "RegularModuleClass": (
        RegularModuleClass, ([TubeIndec(3, 0, 1), TubeIndec(1, 1, 2)],),
        {"members": [TubeIndec(3, 0, 1), TubeIndec(1, 1, 2)]},
        ((TubeIndec(1, 1, 2), TubeIndec(3, 0, 1)),),
        "RegularModuleClass(members=(TubeIndec(arm=1, socle=1, qlen=2), "
        "TubeIndec(arm=3, socle=0, qlen=1)))"),
    "ZTriple": (ZTriple, (D, DD, X, 2), {"dprime": D, "ddouble": DD, "xclass": X, "q": 2},
                (D, DD, X, 2),
                "ZTriple(dprime=DimVector(d0=1, dinf=0, arms=((1,), (1,), (0,))), "
                "ddouble=DimVector(d0=1, dinf=2, arms=((1,), (1,), (2,))), "
                "xclass=RegularModuleClass(members=(TubeIndec(arm=1, socle=1, qlen=2), "
                "TubeIndec(arm=3, socle=0, qlen=1))), q=2)"),
    "ZeroSetReport": (
        ZeroSetReport, (4, False, None, 3, 21, "closed_form", None, Z),
        {"p": 4, "is_ci": False, "component_count": None, "threshold": 3, "target_dim": 21,
         "answered_by": "closed_form", "component_count_from": None, "witness": Z},
        (4, False, None, 3, 21, "closed_form", None, Z),
        "ZeroSetReport(p=4, is_ci=False, component_count=None, threshold=3, target_dim=21, "
        "answered_by='closed_form', component_count_from=None, witness=" + repr(Z) + ")"),
    "LambdaChoice": (LambdaChoice, ([1, Fraction(5, 2)],), {"lambdas": [1, Fraction(5, 2)]},
                     ((Fraction(1), Fraction(5, 2)),),
                     "LambdaChoice(lambdas=(Fraction(1, 1), Fraction(5, 2)))"),
    "MatrixRep": (
        MatrixRep, (T223, REP_DIM, {(1, 1): HALF}),
        {"t": T223, "dim": REP_DIM, "mats": {(1, 1): HALF}}, None,
        "MatrixRep(t=CanonicalType(m=(2, 2, 3)), "
        "dim=DimVector(d0=1, dinf=1, arms=((1,), (1,), (1, 0))), "
        "mats=mappingproxy({(1, 1): ((Fraction(1, 2),),), (1, 2): ((Fraction(0, 1),),), "
        "(2, 1): ((Fraction(0, 1),),), (2, 2): ((Fraction(0, 1),),), "
        "(3, 1): ((Fraction(0, 1),),), (3, 2): ((),), (3, 3): ()}))"),
    "CheckResult": (CheckResult, ("forms/x", False, "d=1"),
                    {"name": "forms/x", "ok": False, "details": "d=1"},
                    ("forms/x", False, "d=1"),
                    "CheckResult(name='forms/x', ok=False, details='d=1')"),
}
# MatrixRep compares its mats, a read-only mapping, and so hashes none of them;
# CheckResult compares but never hashed.
UNHASHABLE = {"MatrixRep", "CheckResult"}


def fields(value) -> tuple:
    """The field tuple, its names in the order of the keyword arguments above."""
    return tuple(getattr(value, name) for name in CASES[type(value).__name__][2])


@pytest.fixture(params=list(CASES))
def case(request):
    return request.param, *CASES[request.param]


def test_positional_and_keyword_construction_agree(case):
    name, cls, args, kwargs, want, _ = case
    a, b = cls(*args), cls(**kwargs)
    assert type(a) is type(b) is cls
    assert fields(a) == fields(b)
    if want is not None:
        assert fields(a) == want


# Per class and field, another value the class takes with the other fields
# unchanged (a MatrixRep's type fixes the shape of its vector, so it has none).
CHANGED = {
    "CanonicalType": {"m": [2, 2, 3]},
    "DimVector": {"d0": 2, "dinf": 1, "arms": [[1], [1], [1]]},
    "TubeIndec": {"arm": 1, "socle": 0, "qlen": 2},
    "RegularModuleClass": {"members": [TubeIndec(1, 1, 2)]},
    "ZTriple": {"dprime": DD, "ddouble": D, "xclass": RegularModuleClass(()), "q": 3},
    "ZeroSetReport": {"p": 5, "is_ci": True, "component_count": 1, "threshold": 4,
                      "target_dim": 20, "answered_by": "other",
                      "component_count_from": "closed_form", "witness": None},
    "LambdaChoice": {"lambdas": [2, Fraction(5, 2)]},
    "MatrixRep": {"dim": DimVector(1, 1, ((1,), (1,), (1, 1))), "mats": {}},
    "CheckResult": {"name": "forms/y", "ok": True, "details": ""},
}


def test_equality_is_field_tuple_equality(case):
    name, cls, args, kwargs, _, _ = case
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    assert a != fields(a)  # a value of another class never compares equal
    assert a.__eq__(fields(a)) is NotImplemented
    assert CHANGED[name].keys() <= kwargs.keys()
    for key, value in CHANGED[name].items():
        assert cls(**{**kwargs, key: value}) != a, key


def test_hash_is_the_hash_of_the_field_tuple(case):
    name, cls, args, _, _, _ = case
    value = cls(*args)
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert hash(value) == hash(fields(value))
        assert {value, cls(*args)} == {value}


def test_assignment_and_deletion_raise(case):
    name, cls, args, _, _, _ = case
    value = cls(*args)
    before = fields(value)
    for field in (*CASES[name][2], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert fields(value) == before


def test_repr_text(case):
    name, cls, args, _, _, text = case
    assert repr(cls(*args)) == text


def test_copy_and_pickle_rebuild_an_equal_value(case):
    name, cls, args, _, _, _ = case
    if name == "MatrixRep":  # a mappingproxy, its mats, does not pickle
        return
    value = cls(*args)
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_classes_without_cached_properties_hold_no_dict(case):
    name, cls, args, _, _, _ = case
    if name == "CanonicalType":  # its cached invariants live in __dict__
        return
    assert not hasattr(cls(*args), "__dict__")


def test_matrix_rep_caches_stay_out_of_equality():
    a = MatrixRep(T223, REP_DIM, {(1, 1): HALF})
    b = MatrixRep(T223, REP_DIM, {(1, 1): HALF})
    a.cleared(1, 1)
    assert a._cleared and not b._cleared
    assert a == b and repr(a) == repr(b)
    assert MatrixRep(T223, DimVector(0, 0, ((0,), (0,), (0, 0)))).mats[(1, 1)] == ()
