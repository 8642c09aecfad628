"""Generative modes: one text-to-text task per (input dimensions -> output).

The training registry holds the 21 modes used for multi-task training,
each with its sampling weight for synthetic-corpus training data (w1) and,
where the mode needs no formalization data, for imported entailment-tree
training data (w2).  Two further modes re-derive a formalization from
enriched context; they appear only inside evaluation chains and are kept
out of the training registry (``EVAL_ONLY_MODES``).

``format_prompt`` renders a mode's inputs as the task-prefixed prompt that
both the backends and training export use; it lives here so that export
loads no backend.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping

from deepa2.dimensions import DimensionId as D
from deepa2.errors import MissingDimensionError
from deepa2.frozen import Frozen


class ModeSpec(Frozen):
    """A generative mode with training-sampling weights."""

    _fields = ("inputs", "output", "weight_aaac", "weight_eb")

    def __init__(
        self,
        inputs: tuple[D, ...],
        output: D,
        weight_aaac: float,
        weight_eb: float | None = None,
    ):
        if output in inputs:
            raise ValueError(f"output {output} among inputs")
        if not 0 < weight_aaac <= 1:
            raise ValueError("weight_aaac must lie in (0, 1]")
        if weight_eb is not None and not 0 < weight_eb <= 1:
            raise ValueError("weight_eb must lie in (0, 1]")
        self.__dict__.update(
            inputs=inputs, output=output, weight_aaac=weight_aaac, weight_eb=weight_eb
        )

    @cached_property
    def label(self) -> str:
        left = " ".join(d.letter for d in self.inputs)
        return f"{left} => {self.output.letter}"


def _m(inputs, output, w1, w2=None) -> ModeSpec:
    return ModeSpec(tuple(inputs), output, w1, w2)


#: The 21 training modes with their sampling weights.
TRAINING_MODES: tuple[ModeSpec, ...] = (
    _m([D.SOURCE], D.ARGDOWN, 1.0, 1.0),
    _m([D.SOURCE, D.REASONS], D.ARGDOWN, 1.0, 1.0),
    _m([D.SOURCE, D.CONJECTURES], D.ARGDOWN, 1.0, 1.0),
    _m([D.SOURCE, D.REASONS, D.CONJECTURES], D.ARGDOWN, 1.0, 1.0),
    _m([D.REASONS, D.CONJECTURES], D.ARGDOWN, 1.0, 1.0),
    _m([D.PREMISES, D.CONCLUSION], D.ARGDOWN, 1.0, 1.0),
    _m([D.ARGDOWN], D.PREMISES, 0.2, 0.2),
    _m([D.PREMISES_FORM, D.KEYS], D.PREMISES, 0.7),
    _m([D.SOURCE], D.REASONS, 1.0, 1.0),
    _m([D.SOURCE, D.CONJECTURES], D.REASONS, 1.0, 1.0),
    _m([D.SOURCE, D.ARGDOWN], D.REASONS, 1.0, 1.0),
    _m([D.SOURCE], D.CONJECTURES, 1.0, 1.0),
    _m([D.SOURCE, D.REASONS], D.CONJECTURES, 1.0, 1.0),
    _m([D.SOURCE, D.ARGDOWN], D.CONJECTURES, 1.0, 1.0),
    _m([D.ARGDOWN], D.CONCLUSION, 0.2, 0.2),
    _m([D.CONCLUSION_FORM, D.KEYS], D.CONCLUSION, 0.7),
    _m([D.PREMISES], D.PREMISES_FORM, 0.7),
    _m([D.CONCLUSION], D.CONCLUSION_FORM, 0.7),
    _m([D.PREMISES, D.PREMISES_FORM], D.KEYS, 0.7),
    _m([D.CONCLUSION, D.CONCLUSION_FORM], D.KEYS, 0.7),
    _m(
        [D.PREMISES, D.PREMISES_FORM, D.CONCLUSION, D.CONCLUSION_FORM],
        D.KEYS,
        0.7,
    ),
)

#: Evaluation-only modes: re-derive a formalization from enriched context.
EVAL_ONLY_MODES: tuple[ModeSpec, ...] = (
    _m([D.PREMISES, D.CONCLUSION, D.CONCLUSION_FORM], D.PREMISES_FORM, 0.7),
    _m([D.CONCLUSION, D.PREMISES, D.PREMISES_FORM], D.CONCLUSION_FORM, 0.7),
)


def mode_registry() -> list[ModeSpec]:
    """The training modes (21 entries, 14 of which carry an entailment-tree
    weight)."""
    return list(TRAINING_MODES)


_BY_LABEL = {m.label: m for m in TRAINING_MODES + EVAL_ONLY_MODES}


def mode(letters_in: str, letter_out: str) -> ModeSpec:
    """Look a mode up by dimension letters, e.g. ``mode("SA", "R")``, among
    the training and evaluation-only modes."""
    label = " ".join(letters_in) + f" => {letter_out}"
    try:
        return _BY_LABEL[label]
    except KeyError:
        raise KeyError(f"unknown mode label {label!r}") from None


#: The premises-to-formalization mode goes by the task prefix "formalize".
_FORMALIZE_MODE = mode("P", "F")


def format_prompt(mode_spec: ModeSpec, inputs: Mapping[D, str]) -> str:
    """Task-prefixed prompt: target keyword, then each input dimension as
    ``keyword: value`` in mode order; ``inputs`` may hold more dimensions
    than the mode reads."""
    prefix = "formalize" if mode_spec == _FORMALIZE_MODE else mode_spec.output.keyword
    parts = [f"{prefix}:"]
    for dim in mode_spec.inputs:
        if dim not in inputs:
            raise MissingDimensionError(
                f"prompt for {mode_spec.label} misses input dimension {dim.keyword}"
            )
        parts.append(f"{dim.keyword}: {inputs[dim]}")
    return " ".join(parts).rstrip()
