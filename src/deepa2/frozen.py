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
- ``hash`` of the field values;
- assignment and deletion raise ``FrozenInstanceError``.

``==`` and ``hash`` read the field values through one
``operator.attrgetter`` per class, built when the class is defined: the
tuple of values, or the value itself for a class of one field.  ``replace``
is ``dataclasses.replace``.
"""

from __future__ import annotations

from operator import attrgetter

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

    def __init_subclass__(cls, **kwargs):
        """Give a class with fields its ``_field_values`` getter."""
        super().__init_subclass__(**kwargs)
        if cls._fields:
            cls._field_values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._field_values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._field_values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def replace(obj: Frozen, **changes):
    """A new instance of ``obj``'s class with ``changes`` applied to its
    fields, built and checked by the class's ``__init__``."""
    values = {name: getattr(obj, name) for name in obj._fields}
    values.update(changes)
    return obj.__class__(**values)
