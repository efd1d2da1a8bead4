"""Immutable value classes, written as plain classes.

The package's records (polynomials, enclosures, disks, reports) share
one small base, Record, instead of generated classes: generating them
loaded inspect, ast and dis at import and built each class's methods
with exec, a cost every command paid at start-up.
"""

from __future__ import annotations


class Record:
    """An immutable value, compared, hashed, shown and pickled by its fields.

    A subclass names its fields, in constructor order, as __slots__.  Its
    __init__ takes them with their defaults and validation and then
    passes them on to Record.__init__, or, where construction is hot,
    sets each one itself through object.__setattr__.  A record
    equals only a record of the same class with equal fields and hashes
    as the tuple of its fields; assigning or deleting any attribute
    raises AttributeError.  Unpickling rebuilds a record through its
    constructor, since the default would assign its slots through the
    raising __setattr__.
    """

    __slots__ = ()
    # the field names, a subclass's own slots after its bases' fields
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__dict__.get("__slots__", ()))

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

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
