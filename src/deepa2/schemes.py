"""Inference-scheme catalog and scheme-instantiation checking.

Scheme variants carry formula patterns whose letters act as placeholders.
A step instantiates its declared scheme when its statements match the
variant's patterns under a consistent placeholder assignment.  Matching
prefers the formalization level (formulas attached to statement numbers);
without formulas it falls back to parsing the statement texts against the
sentence-template bank, a path that tolerates false negatives.  The bank
(``deepa2.nl_templates``) is imported on that path only, so scoring fully
formalized analyses does not load it.
"""

from __future__ import annotations

import functools
from itertools import permutations
from pathlib import Path

from deepa2.argdown import ArgdownArgument, InferenceStep
from deepa2.errors import CatalogError
from deepa2.formula import check_entailment, parse_formula
from deepa2.frozen import Frozen
from deepa2.formula.syntax import (
    Atom,
    Binary,
    Const,
    Formula,
    Not,
    Quantified,
    Var,
    substitute,
)

_MAX_PERMUTED_PREMISES = 4


class SchemeVariant(Frozen):
    _fields = ("scheme_name", "variant", "premises", "conclusion", "intricate")

    def __init__(
        self,
        scheme_name: str,
        variant: str | None,
        premises: tuple[Formula, ...],
        conclusion: Formula,
        intricate: bool = False,
    ):
        fields = self.__dict__
        fields["scheme_name"] = scheme_name
        fields["variant"] = variant
        fields["premises"] = premises
        fields["conclusion"] = conclusion
        fields["intricate"] = intricate

    @property
    def label(self) -> str:
        return self.scheme_name + (f" ({self.variant})" if self.variant else "")


class SchemeSpec(Frozen):
    _fields = ("name", "variants")

    def __init__(self, name: str, variants: tuple[SchemeVariant, ...]):
        self.__dict__.update(name=name, variants=variants)

    def variant_named(self, label: str | None) -> SchemeVariant | None:
        for v in self.variants:
            if v.variant == label:
                return v
        return None


class SchemeCatalog:
    """The scheme specs by name."""

    def __init__(self, schemes: dict[str, SchemeSpec]):
        self.schemes = schemes

    def get(self, name: str) -> SchemeSpec | None:
        return self.schemes.get(name)

    def all_variants(self) -> list[SchemeVariant]:
        return [v for spec in self.schemes.values() for v in spec.variants]

    @classmethod
    def from_variants(cls, variants: list[SchemeVariant]) -> "SchemeCatalog":
        for v in variants:
            if not v.premises:
                raise CatalogError(f"{v.label}: a scheme needs at least one premise")
            if not check_entailment(list(v.premises), v.conclusion):
                raise CatalogError(f"{v.label}: formal core is not deductively valid")
        grouped: dict[str, list[SchemeVariant]] = {}
        for v in variants:
            grouped.setdefault(v.scheme_name, []).append(v)
        schemes = {
            name: SchemeSpec(name, tuple(vs)) for name, vs in grouped.items()
        }
        return cls(schemes)

    @classmethod
    def from_text(cls, text: str) -> "SchemeCatalog":
        variants = []
        block: dict[str, list[str]] = {}

        def flush():
            if not block:
                return
            name = block.get("scheme", [None])[0]
            if not name:
                raise CatalogError("scheme block without a 'scheme:' line")
            variant = block.get("variant", [None])[0]
            premises = tuple(parse_formula(p) for p in block.get("premise", []))
            conclusions = block.get("conclusion", [])
            if len(conclusions) != 1:
                raise CatalogError(f"{name}: exactly one conclusion required")
            intricate = block.get("intricate", ["no"])[0].lower() in ("yes", "true")
            variants.append(
                SchemeVariant(name, variant, premises, parse_formula(conclusions[0]), intricate)
            )
            block.clear()

        for raw in text.splitlines():
            line = raw.strip()
            if line.startswith("#"):
                continue
            if not line:
                flush()
                continue
            key, sep, value = line.partition(":")
            if not sep:
                raise CatalogError(f"malformed catalog line: {line!r}")
            block.setdefault(key.strip(), []).append(value.strip())
        flush()
        return cls.from_variants(variants)


@functools.cache
def builtin_catalog() -> SchemeCatalog:
    """The packaged catalog; loaded and validity-checked once."""
    text = (Path(__file__).parent / "data" / "schemes.txt").read_text("utf-8")
    return SchemeCatalog.from_text(text)


# ---------------------------------------------------------------------------
# Pattern matching
# ---------------------------------------------------------------------------


class Binding:
    """Consistent placeholder assignment built up during matching: pattern
    letter to concrete letter, per letter kind."""

    def __init__(self):
        self.preds: dict[str, str] = {}
        self.consts: dict[str, str] = {}
        self.vars: dict[str, str] = {}


def match_pattern(pattern: Formula, concrete: Formula, binding: Binding) -> bool:
    """Structural match of a pattern against a concrete formula; extends
    the binding in place on success.  A letter binds to the first value it
    meets and fails on any other."""
    if type(pattern) is not type(concrete):
        return False
    if isinstance(pattern, Atom):
        if binding.preds.setdefault(pattern.pred, concrete.pred) != concrete.pred:
            return False
        pt, ct = pattern.term, concrete.term
        if isinstance(pt, Var) and isinstance(ct, Var):
            return binding.vars.setdefault(pt.name, ct.name) == ct.name
        if isinstance(pt, Const) and isinstance(ct, Const):
            return binding.consts.setdefault(pt.name, ct.name) == ct.name
        return False
    if isinstance(pattern, Not):
        return match_pattern(pattern.sub, concrete.sub, binding)
    if isinstance(pattern, Binary):
        return match_pattern(pattern.left, concrete.left, binding) and match_pattern(
            pattern.right, concrete.right, binding
        )
    if isinstance(pattern, Quantified):
        if binding.vars.setdefault(pattern.var, concrete.var) != concrete.var:
            return False
        return match_pattern(pattern.body, concrete.body, binding)
    return False


def instantiate_pattern(pattern: Formula, binding: Binding) -> Formula:
    """Substitute bound placeholders; unbound ones raise KeyError."""
    return substitute(
        pattern,
        binding.preds.__getitem__,
        binding.consts.__getitem__,
        lambda v: binding.vars.get(v, v),
    )


def patterns_unify(producer_conclusion: Formula, consumer_premise: Formula) -> bool:
    """True when one pattern is the other up to bijective letter renaming."""
    binding = Binding()
    if not match_pattern(consumer_premise, producer_conclusion, binding):
        return False
    return len(set(binding.preds.values())) == len(binding.preds) and len(
        set(binding.consts.values())
    ) == len(binding.consts)


# ---------------------------------------------------------------------------
# Step checking
# ---------------------------------------------------------------------------


def _candidate_variants(step: InferenceStep) -> list[SchemeVariant]:
    """The variants a step is matched against: the one its label names, and
    every variant of the scheme when no variant has that label.

    A step without a label names the scheme's unlabelled base variant, which
    every built-in scheme has, so it is matched against that one alone."""
    spec = builtin_catalog().get(step.scheme_name)
    if spec is None:
        return []
    exact = spec.variant_named(step.variant)
    if exact is not None:
        return [exact]
    return list(spec.variants)


def _match_formal(
    variant: SchemeVariant,
    premise_formulas: list[Formula],
    conclusion_formula: Formula | None,
) -> Formula | None:
    if len(premise_formulas) != len(variant.premises):
        return None
    if len(premise_formulas) > _MAX_PERMUTED_PREMISES:
        orders = [tuple(range(len(premise_formulas)))]
    else:
        orders = permutations(range(len(premise_formulas)))
    for order in orders:
        binding = Binding()
        ok = all(
            match_pattern(variant.premises[i], premise_formulas[order[i]], binding)
            for i in range(len(order))
        )
        if not ok:
            continue
        if conclusion_formula is not None:
            # Each order starts from a fresh binding, so a failed trial
            # leaves nothing behind.
            if match_pattern(variant.conclusion, conclusion_formula, binding):
                return conclusion_formula
            continue
        try:
            return instantiate_pattern(variant.conclusion, binding)
        except KeyError:
            continue
    return None


def _match_nl(variant: SchemeVariant, premise_texts: list[str], conclusion_text: str) -> bool:
    # The template bank loads only when a step falls back to its texts.
    from deepa2.nl_templates import recover_statement, shape_of

    if len(premise_texts) != len(variant.premises):
        return False
    pattern_shapes = [shape_of(p) for p in variant.premises] + [shape_of(variant.conclusion)]
    # Only a reading under its own pattern's shape can match a text.
    readings = [
        recover_statement(t, shape.key)
        for t, shape in zip(premise_texts + [conclusion_text], pattern_shapes)
    ]
    if any(not r for r in readings):
        return False

    def assign(idx: int, bound_preds: dict[str, str], bound_consts: dict[str, str]) -> bool:
        if idx == len(pattern_shapes):
            return True
        shape = pattern_shapes[idx]
        for phrases, names in readings[idx]:
            trial_p = dict(bound_preds)
            trial_c = dict(bound_consts)
            ok = True
            for pos, letter in enumerate(shape.pred_letters):
                phrase = phrases.get(f"P{pos + 1}")
                if phrase is None or trial_p.setdefault(letter, phrase) != phrase:
                    ok = False
                    break
            if ok:
                for pos, letter in enumerate(shape.const_letters):
                    name = names.get(f"c{pos + 1}", "").lower()
                    if not name or trial_c.setdefault(letter, name) != name:
                        ok = False
                        break
            if ok and assign(idx + 1, trial_p, trial_c):
                return True
        return False

    return assign(0, {}, {})


def check_scheme_instantiation(
    step: InferenceStep,
    arg: ArgdownArgument,
    forms: dict[int, Formula] | None = None,
) -> bool:
    """True iff the step's statements instantiate its declared scheme."""
    matched, _derived = match_step(step, arg, forms or {})
    return matched


def match_step(
    step: InferenceStep,
    arg: ArgdownArgument,
    formulas_by_number: dict[int, Formula],
) -> tuple[bool, Formula | None]:
    """Check one step; on a formal-level match also returns the instantiated
    conclusion formula so downstream steps can use it."""
    if step.scheme_name is None:
        return False, None
    candidates = _candidate_variants(step)
    if not candidates:
        return False, None

    premise_formulas = [formulas_by_number.get(n) for n in step.from_numbers]
    conclusion_formula = formulas_by_number.get(step.derives)
    if all(f is not None for f in premise_formulas):
        for variant in candidates:
            derived = _match_formal(variant, premise_formulas, conclusion_formula)
            if derived is not None:
                return True, derived
        return False, None

    statement_texts = dict(arg.statements)
    premise_texts = [statement_texts[n] for n in step.from_numbers]
    conclusion_text = statement_texts[step.derives]
    for variant in candidates:
        if _match_nl(variant, premise_texts, conclusion_text):
            return True, None
    return False, None


def sys_sch_ratio(
    arg: ArgdownArgument,
    forms: dict[int, Formula] | None = None,
) -> float | None:
    """Share of scheme-declaring steps that instantiate their scheme.

    Steps without a declared scheme are not checkable and fall out of the
    denominator; None when no step declares a scheme.
    """
    formulas = dict(forms or {})
    checkable = 0
    matched = 0
    for step in sorted(arg.inferences, key=lambda s: s.derives):
        if step.scheme_name is None:
            continue
        checkable += 1
        ok, derived = match_step(step, arg, formulas)
        if ok:
            matched += 1
            if derived is not None and step.derives not in formulas:
                formulas[step.derives] = derived
    if checkable == 0:
        return None
    return matched / checkable
