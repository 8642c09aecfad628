"""``Frozen`` gives every value class of the package its one ``==`` and
``hash``; only formula nodes and records write their own, for the reasons
their docstrings give."""

import pkgutil

import pytest

import deepa2
from deepa2.dimensions import DimensionId
from deepa2.formula.syntax import And, Atom, Const, Formula, Or, Var
from deepa2.frozen import Frozen
from deepa2.records import DeepA2Record


def _package_classes() -> list[type]:
    """Every subclass of ``Frozen`` that a module of the package defines."""
    for info in pkgutil.walk_packages(deepa2.__path__, "deepa2."):
        __import__(info.name)
    found, stack = [], [Frozen]
    while stack:
        for cls in stack.pop().__subclasses__():
            if cls.__module__.startswith("deepa2.") and cls not in found:
                found.append(cls)
                stack.append(cls)
    return found


CLASSES = _package_classes()


def _value(name: str, other: bool):
    """A value for the field ``name``, built afresh on every call."""
    letter = "G" if other else "F"
    if name == "texts":
        return {DimensionId.SOURCE: f"{letter} source"}
    if name == "pred":
        return letter
    if name == "var":
        return "y" if other else "x"
    if name == "term":
        return Const("b" if other else "a")
    return Atom(letter, Const("a"))


def _instance(cls: type, other_field: str | None = None):
    """An instance of cls whose fields hold fresh values; ``other_field``,
    if given, holds a different one."""
    values = {name: _value(name, name == other_field) for name in cls._fields}
    if issubclass(cls, Formula):
        return cls(**values)  # a node takes its hash in its constructor
    instance = object.__new__(cls)
    instance.__dict__.update(values)
    return instance


def test_the_walk_finds_the_value_classes():
    names = {cls.__qualname__ for cls in CLASSES}
    assert {"QuotedStatement", "InferenceStep", "SchemeVariant", "Term", "Var",
            "DeepA2Record", "MetricReport", "Atom", "And", "Exists"} <= names
    # The abstract node base is the only class without fields.
    assert [cls for cls in CLASSES if not cls._fields] == [Formula]


@pytest.mark.parametrize("cls", [cls for cls in CLASSES if cls._fields],
                         ids=lambda cls: cls.__qualname__)
def test_equal_fields_make_equal_instances(cls):
    first, second = _instance(cls), _instance(cls)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    for name in cls._fields:
        assert _instance(cls, other_field=name) != first, name


def test_instances_of_two_classes_never_compare_equal():
    assert Var("a") != Const("a")
    p, q = Atom("F", Const("a")), Atom("G", Const("a"))
    assert And(p, q) != Or(p, q)


def test_only_formula_nodes_and_records_write_their_own_comparison():
    assert [cls for cls in CLASSES if "__eq__" in vars(cls)] == [Formula]
    assert {cls for cls in CLASSES if "__hash__" in vars(cls)} == {Formula, DeepA2Record}
