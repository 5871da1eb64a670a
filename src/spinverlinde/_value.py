"""The base of the package's immutable value records, and its refusal rules."""

from __future__ import annotations

from operator import attrgetter

# bound once, so that a store or a trusted constructor in a hot loop
# skips the lookup of the attribute on ``object`` at every call
_new = object.__new__
_setattr = object.__setattr__


# The package's refusal rules, each raised here and nowhere else: TypeError for
# a value of another type, a bool included, and ValueError for an int out of
# range, its message prefixed by the text of a ``label`` (see ``_labelled``).


def _labelled(label: tuple | None, message: str) -> str:
    """``message`` after the text of ``label``, a format template and its values such as
    ("verlinde_dim(g={}, k={})", g, k), which callers build only on the path that raises."""
    return message if label is None else f"{label[0].format(*label[1:])}: {message}"


def _require_record(value, cls: type | tuple[type, ...], kind: str, noun: str | None = None) -> None:
    """The type rule: refuse a value that is not a ``cls``, or is a bool, with the TypeError ``<kind> are
    <noun>, got <type> <value>``, the noun by default the plural of the class name (``vectors are F2Vectors``)."""
    if value.__class__ is not cls and (not isinstance(value, cls) or isinstance(value, bool)):
        raise TypeError(f"{kind} are {noun or cls.__name__ + 's'}, got {type(value).__name__} {value!r}")


def _require_int(value, kind: str) -> None:
    """The type rule for an int: ``<kind> are integers, got ...``."""
    if value.__class__ is not int:
        _require_record(value, int, kind, "integers")


def _require_bit(value, name: str, label: tuple | None = None) -> None:
    """Refuse a value that is not the int 0 or 1: TypeError by ``_require_int``
    for another type, a bool included, then ValueError ``<name> must be 0 or 1``."""
    if value.__class__ is not int:
        _require_int(value, f"{name} values")
    if value not in (0, 1):
        raise ValueError(_labelled(label, f"{name} must be 0 or 1, got {value!r}"))


def _require_genus(g, label: tuple | None = None) -> None:
    """Refuse a genus that is not a positive int: TypeError, then ValueError."""
    _require_int(g, "genera")
    if g < 1:
        raise ValueError(_labelled(label, f"genus must be a positive integer, got {g}"))


class Value:
    """An immutable record, compared, hashed and shown by its fields.

    A subclass names its fields by annotating them in its class body, in
    order, after the fields of the record class it extends.  Its
    ``__init__`` validates the arguments and then stores them with
    ``_store``; the fields live in the instance ``__dict__``, so
    ``vars()``, ``pickle`` and ``copy`` see them.  Assigning or deleting an
    attribute raises AttributeError.  ``==`` holds between instances of one
    class with equal fields, ``hash`` is the hash of the tuple of fields, and
    ``repr`` reads ``Name(field=value, ...)``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = cls._fields + tuple(cls.__dict__.get("__annotations__", {}))
        # the tuple of fields; attrgetter reads them at C level, but of a single
        # name it returns the bare value, whose hash is not that of the tuple
        key = attrgetter(*fields)
        cls._key = staticmethod(key if len(fields) > 1 else lambda record: (key(record),))

    def _store(self, **fields) -> None:
        # object.__setattr__ (as _setattr), not a write to __dict__, which would
        # materialise a per-instance dict and drop CPython's inline attribute
        # values; the trusted constructors store the same way
        for name, value in fields.items():
            _setattr(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
