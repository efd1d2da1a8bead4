"""Immutable value classes, written as plain classes.

The package's records (polynomials, enclosures, disks, reports) share
one small base, Record, instead of generated classes: generating them
loaded inspect, ast and dis at import and built each class's methods
with exec, a cost every command paid at start-up.

A record states its fields once, as __slots__.  Record builds it from
them, by position or keyword in field order, and encodes it as JSON
from them by one rule, so a class writes a constructor or a to_json
only for what the fields alone do not say.
"""

from __future__ import annotations


class Record:
    """An immutable value, built, compared, hashed, shown and pickled by its fields.

    A subclass names its fields, in constructor order, as __slots__.
    Record.__init__ takes every field, by position or by keyword, with no
    defaults; a missing, duplicate or unknown field, or too many
    positional arguments, raises TypeError.  A subclass with defaults or
    validation writes its own __init__, which passes the fields on to
    Record.__init__ or, where construction is hot, sets each one itself
    through object.__setattr__.  A record equals only a record of the
    same class with equal fields and hashes as the tuple of its fields;
    assigning or deleting any attribute raises AttributeError.
    Unpickling rebuilds a record through its constructor, since the
    default would assign its slots through the raising __setattr__.

    to_json maps each field name to its value, in field order: a nested
    record as its own to_json, a tuple as a list of encoded items, and
    any other value (None, bool, int, str) as it is stored.  A subclass
    whose JSON differs extends the result, or replaces it.
    """

    __slots__ = ()
    # the field names, a subclass's own slots after its bases' fields
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__dict__.get("__slots__", ()))

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, self.__class__.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields or key in values:
                problem = "duplicate" if key in values else "unknown"
                raise TypeError(f"{name}() got {problem} field {key!r}")
            values[key] = value
        if len(values) < len(fields):
            missing = [field for field in fields if field not in values]
            raise TypeError(f"{name}() missing fields {missing}")
        for field in fields:
            object.__setattr__(self, field, values[field])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def to_json(self):
        return {name: _encode(getattr(self, name)) for name in self._fields}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


def _encode(value):
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value
