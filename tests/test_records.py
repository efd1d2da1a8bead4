"""The record contract: every value class behaves as a frozen record.

Each class is built positionally and by keyword, rejects a missing,
unknown or duplicate field with TypeError, compares and hashes by value
and only against its own class, keeps the repr and JSON text it always
had, refuses assignment and deletion, and survives pickling and copying
(a process pool pickles enclosures and polynomials inside its results).
"""

import copy
import json
import pickle

import pytest

from skewrec._record import Record
from skewrec.enclosure import Enclosure
from skewrec.errors import PolynomialError
from skewrec.measure import MeasureResult
from skewrec.poly import IntPoly
from skewrec.roots import RootDisk, _ExactDisk
from skewrec.search import (
    DecompositionSurvey,
    SearchReport,
    SearchSpace,
    SequenceRow,
    SequenceTable,
)
from skewrec.structure import NonreciprocalWitness, SquareSubstitution
from skewrec.symplectic import IntMatrix

ENC = Enclosure(1.25, 1.5, 53)
ENC_REPR = "Enclosure(lo=1.25, hi=1.5, bits=53)"
SPACE = SearchSpace("skew_reciprocal", 4, 2)
SPACE_REPR = "SearchSpace(kind='skew_reciprocal', degree=4, height=2)"
ROW = SequenceRow(1, 2, 1, ENC, ENC, ENC, ENC, None, None, None, None)
ROW_REPR = (f"SequenceRow(i=1, degree=2, height=1, mahler_reciprocal={ENC_REPR}, "
            f"mahler_skew={ENC_REPR}, house_reciprocal={ENC_REPR}, "
            f"house_skew={ENC_REPR}, r=None, s=None, q=None, breusch_check=None)")

# (class, fields in constructor order, one field changed, the repr text)
CASES = {
    "IntPoly": (IntPoly, {"coeffs": (1, -3, 1)}, {"coeffs": (1, 3, 1)},
                "IntPoly(coeffs=(1, -3, 1))"),
    "Enclosure": (Enclosure, {"lo": 1.0, "hi": 2.0, "bits": 53}, {"bits": 64},
                  "Enclosure(lo=1.0, hi=2.0, bits=53)"),
    "RootDisk": (RootDisk, {"center": 1 + 2j, "radius": 0.5}, {"radius": 0.25},
                 "RootDisk(center=(1+2j), radius=0.5)"),
    "_ExactDisk": (_ExactDisk,
                   {"re": 3, "im": -4, "r": 1, "lo": 4, "hi": 6, "grid": 70},
                   {"grid": 71},
                   "_ExactDisk(re=3, im=-4, r=1, lo=4, hi=6, grid=70)"),
    "MeasureResult": (MeasureResult,
                      {"mahler": ENC, "house": ENC, "is_kronecker": False,
                       "root_count_outside_unit_circle": 2,
                       "root_count_certified": True},
                      {"root_count_certified": False},
                      f"MeasureResult(mahler={ENC_REPR}, house={ENC_REPR}, "
                      "is_kronecker=False, root_count_outside_unit_circle=2, "
                      "root_count_certified=True)"),
    "SearchSpace": (SearchSpace,
                    {"kind": "skew_reciprocal", "degree": 4, "height": 2},
                    {"height": 1}, SPACE_REPR),
    "SearchReport": (SearchReport,
                     {"space": SPACE, "quantity": "mahler", "tol": 1e-10,
                      "enumerated": 25, "excluded_kronecker": 3, "minimum": ENC,
                      "witnesses": (IntPoly((1, 1, -1)),),
                      "witness_enclosures": (ENC,), "precision_escalations": 0,
                      "precision_exhausted": False},
                     {"minimum": None},
                     f"SearchReport(space={SPACE_REPR}, quantity='mahler', "
                     "tol=1e-10, enumerated=25, excluded_kronecker=3, "
                     f"minimum={ENC_REPR}, witnesses=(IntPoly(coeffs=(1, 1, -1)),), "
                     f"witness_enclosures=({ENC_REPR},), precision_escalations=0, "
                     "precision_exhausted=False)"),
    "SequenceRow": (SequenceRow,
                    {"i": 1, "degree": 2, "height": 1, "mahler_reciprocal": ENC,
                     "mahler_skew": ENC, "house_reciprocal": ENC,
                     "house_skew": ENC, "r": None, "s": None, "q": None,
                     "breusch_check": None},
                    {"breusch_check": True}, ROW_REPR),
    "SequenceTable": (SequenceTable, {"rows": (ROW,)}, {"rows": ()},
                      f"SequenceTable(rows=({ROW_REPR},))"),
    "DecompositionSurvey": (DecompositionSurvey,
                            {"space": SPACE, "enumerated": 25,
                             "excluded_kronecker": 3,
                             "square_substitution_count": 4, "witness_count": 5,
                             "min_witness_mahler": ENC, "witnesses_below_bound": 0},
                            {"witnesses_below_bound": 1},
                            f"DecompositionSurvey(space={SPACE_REPR}, enumerated=25, "
                            "excluded_kronecker=3, square_substitution_count=4, "
                            f"witness_count=5, min_witness_mahler={ENC_REPR}, "
                            "witnesses_below_bound=0)"),
    "SquareSubstitution": (SquareSubstitution, {"g": IntPoly((1, -3, 1))},
                           {"g": IntPoly((1, 3, 1))},
                           "SquareSubstitution(g=IntPoly(coeffs=(1, -3, 1)))"),
    "NonreciprocalWitness": (NonreciprocalWitness,
                             {"v": 1, "u": IntPoly((1, 1, -1))}, {"v": 2},
                             "NonreciprocalWitness(v=1, u=IntPoly(coeffs=(1, 1, -1)))"),
    "IntMatrix": (IntMatrix, {"rows": ((0, 1), (-1, 0))},
                  {"rows": ((0, -1), (1, 0))},
                  "IntMatrix(rows=((0, 1), (-1, 0)))"),
}


# json.dumps of each case's to_json(); IntPoly and _ExactDisk had no
# to_json of their own before the generic encoding
JSON_TEXT = {
    "IntPoly": '[1, -3, 1]',
    "Enclosure": '{"lo": "1.0", "hi": "2.0", "bits": 53}',
    "RootDisk": '{"re": "1.0", "im": "2.0", "radius": "0.5"}',
    "_ExactDisk": '{"re": 3, "im": -4, "r": 1, "lo": 4, "hi": 6, "grid": 70}',
    "MeasureResult": '{"mahler": {"lo": "1.25", "hi": "1.5", "bits": 53}, '
                     '"house": {"lo": "1.25", "hi": "1.5", "bits": 53}, '
                     '"is_kronecker": false, "root_count_outside_unit_circle": 2, '
                     '"root_count_certified": true}',
    "SearchSpace": '{"kind": "skew_reciprocal", "degree": 4, "height": 2}',
    "SearchReport": '{"space": {"kind": "skew_reciprocal", "degree": 4, "height": 2}, '
                    '"quantity": "mahler", "tol": "1e-10", "enumerated": 25, '
                    '"excluded_kronecker": 3, '
                    '"minimum": {"lo": "1.25", "hi": "1.5", "bits": 53}, '
                    '"witnesses": [[1, 1, -1]], '
                    '"witness_enclosures": [{"lo": "1.25", "hi": "1.5", "bits": 53}], '
                    '"precision_escalations": 0, "precision_exhausted": false}',
    "SequenceRow": '{"i": 1, "degree": 2, "height": 1, '
                   '"mahler_reciprocal": {"lo": "1.25", "hi": "1.5", "bits": 53}, '
                   '"mahler_skew": {"lo": "1.25", "hi": "1.5", "bits": 53}, '
                   '"house_reciprocal": {"lo": "1.25", "hi": "1.5", "bits": 53}, '
                   '"house_skew": {"lo": "1.25", "hi": "1.5", "bits": 53}, '
                   '"r": null, "s": null, "q": null, "breusch_check": null}',
    "SequenceTable": '{"rows": [{"i": 1, "degree": 2, "height": 1, '
                     '"mahler_reciprocal": {"lo": "1.25", "hi": "1.5", "bits": 53}, '
                     '"mahler_skew": {"lo": "1.25", "hi": "1.5", "bits": 53}, '
                     '"house_reciprocal": {"lo": "1.25", "hi": "1.5", "bits": 53}, '
                     '"house_skew": {"lo": "1.25", "hi": "1.5", "bits": 53}, '
                     '"r": null, "s": null, "q": null, "breusch_check": null}]}',
    "DecompositionSurvey": '{"space": {"kind": "skew_reciprocal", "degree": 4, '
                           '"height": 2}, "enumerated": 25, "excluded_kronecker": 3, '
                           '"square_substitution_count": 4, "witness_count": 5, '
                           '"min_witness_mahler": {"lo": "1.25", "hi": "1.5", '
                           '"bits": 53}, "witnesses_below_bound": 0, '
                           '"all_witnesses_above_bound": true}',
    "SquareSubstitution": '{"case": "square_substitution", "g": [1, -3, 1]}',
    "NonreciprocalWitness": '{"case": "nonreciprocal_witness", "v": 1, '
                            '"u": [1, 1, -1]}',
    "IntMatrix": '[[0, 1], [-1, 0]]',
}

# the cases built by Record.__init__ itself, every field required
GENERIC = {name: c for name, c in CASES.items() if c[0].__init__ is Record.__init__}


class Pair(Record):
    __slots__ = ("a", "b")


@pytest.fixture(params=CASES.values(), ids=CASES)
def case(request):
    return request.param


@pytest.fixture(params=GENERIC.values(), ids=GENERIC)
def generic_case(request):
    return request.param


def test_positional_and_keyword_construction_agree(case):
    cls, fields, _, _ = case
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    assert by_position == by_keyword


def test_unknown_duplicate_or_surplus_arguments_raise_type_error(case):
    cls, fields, _, _ = case
    values = tuple(fields.values())
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls(**fields, extra=0)
    with pytest.raises(TypeError):
        cls(*values, **{first: fields[first]})
    with pytest.raises(TypeError):
        cls(*values, 0)


def test_missing_or_too_few_arguments_raise_type_error(generic_case):
    cls, fields, _, _ = generic_case
    last = list(fields)[-1]
    with pytest.raises(TypeError, match=f"missing fields \\['{last}'\\]"):
        cls(**{name: v for name, v in fields.items() if name != last})
    with pytest.raises(TypeError, match=f"missing fields \\['{last}'\\]"):
        cls(*list(fields.values())[:-1])


@pytest.mark.parametrize("args, kwargs, message", [
    ((1,), {}, r"Pair\(\) missing fields \['b'\]"),
    ((), {"b": 2}, r"missing fields \['a'\]"),
    ((), {}, r"missing fields \['a', 'b'\]"),
    ((1, 2, 3), {}, r"Pair\(\) takes 2 fields, got 3"),
    ((1, 2), {"c": 3}, "unknown field 'c'"),
    ((1,), {"a": 1, "b": 2}, "duplicate field 'a'"),
])
def test_record_constructor_errors(args, kwargs, message):
    # a wrong positional arity raised ValueError here before
    with pytest.raises(TypeError, match=message):
        Pair(*args, **kwargs)


@pytest.mark.parametrize("name", CASES)
def test_json_text(name):
    cls, fields, _, _ = CASES[name]
    assert json.dumps(cls(**fields).to_json()) == JSON_TEXT[name]


def test_generic_json_encoding():
    # nested records and tuples are encoded, other values kept as stored
    inner = Pair(1.5, None)
    doc = Pair(inner, (inner, (True, "x"), IntPoly((0, 2)))).to_json()
    assert doc == {"a": {"a": 1.5, "b": None},
                   "b": [{"a": 1.5, "b": None}, [True, "x"], [0, 2]]}
    assert list(doc) == ["a", "b"] and type(doc["a"]["a"]) is float


def test_equality_and_hash_by_value(case):
    cls, fields, changed, _ = case
    a, b = cls(**fields), cls(**fields)
    other = cls(**{**fields, **changed})
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other


def test_never_equal_to_another_class_with_the_same_fields(case):
    cls, fields, _, _ = case
    twin = type(cls.__name__, (cls,), {"__slots__": ()})
    a = cls(**fields)
    assert a != twin(**fields) and twin(**fields) != a
    assert a != tuple(fields.values())
    assert a.__eq__(tuple(fields.values())) is NotImplemented


def test_repr_text(case):
    cls, fields, _, text = case
    assert repr(cls(**fields)) == text


def test_assignment_and_deletion_raise(case):
    cls, fields, _, _ = case
    a = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == cls(**fields)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(case, protocol):
    cls, fields, _, _ = case
    a = cls(**fields)
    b = pickle.loads(pickle.dumps(a, protocol))
    assert type(b) is cls and b == a and hash(b) == hash(a)


def test_copies_are_equal(case):
    cls, fields, _, _ = case
    a = cls(**fields)
    assert copy.copy(a) == a and copy.deepcopy(a) == a


def test_defaults():
    assert Enclosure(1.0, 1.0) == Enclosure(1.0, 1.0, 0)
    assert IntPoly() == IntPoly(())


def test_validation_errors():
    with pytest.raises(ValueError, match=r"empty enclosure \[2.0, 1.0\]"):
        Enclosure(2.0, 1.0)
    with pytest.raises(ValueError, match="empty enclosure"):
        Enclosure(float("nan"), 1.0)
    with pytest.raises(PolynomialError, match="unknown kind 'bogus'"):
        SearchSpace("bogus", 4, 1)
    with pytest.raises(PolynomialError, match="degree must be even"):
        SearchSpace("reciprocal", 3, 1)
    with pytest.raises(PolynomialError, match="degree must be <= 1024"):
        SearchSpace("reciprocal", 1026, 0)
    with pytest.raises(PolynomialError, match="height must be >= 0"):
        SearchSpace("reciprocal", 4, -1)
    with pytest.raises(PolynomialError, match="non-integer coefficient"):
        IntPoly((1, 0.5))
