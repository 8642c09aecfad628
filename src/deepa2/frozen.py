"""Immutable value classes whose methods are written out, not generated.

Every CLI stage is a fresh process, and ``dataclasses`` builds each class's
methods with ``exec`` whenever its module is imported, after loading
``inspect``, ``ast`` and ``dis``.  A ``Frozen`` subclass instead names its
fields in ``_fields``, in order, and writes its own ``__init__``, which
stores each field in the instance ``__dict__``, so ``vars()`` lists the
fields in order.  The base supplies what a frozen dataclass would:

- ``repr`` as ``Name(field=value, ...)``;
- ``==`` by exact class and field values, so instances of two classes never
  compare equal;
- ``hash`` of the tuple of field values;
- assignment and deletion raise ``FrozenInstanceError``.

A class built tens of thousands of times per stage writes ``__eq__`` and
``__hash__`` out as well, with the same results.  ``replace`` is
``dataclasses.replace``.
"""

from __future__ import annotations

from deepa2.errors import FrozenInstanceError


class Frozen:
    """Base of the immutable value classes; see the module docstring."""

    __slots__ = ()

    #: The field names, in ``__init__`` order.
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def replace(obj: Frozen, **changes):
    """A new instance of ``obj``'s class with ``changes`` applied to its
    fields, built and checked by the class's ``__init__``."""
    values = {name: getattr(obj, name) for name in obj._fields}
    values.update(changes)
    return obj.__class__(**values)
