"""Synthetic corpus generation.

Records are built in three stages.  ``_try_sample_tree`` chains scheme
variants from the catalog into an argument tree: each step's conclusion
unifies with a premise slot of its successor, and remaining slots become
leaf premises.  ``verbalize_argument`` assigns lexicon phrases to predicate
letters and renders every statement through the template bank, yielding
the argument block and its premise/conclusion/formalization side products.
``compose_source`` then presents the argument as a story: it orders the
retained statements, drops the planned implicit ones, inserts provably
irrelevant distractor sentences, prefixes a limited number of indicator
words, and records the verbatim reason/conjecture quotes.

``_generate_record`` is the one build path and ``validate_record`` the one
check.  It runs, from the record's parts, only the three checks that can
reject an attempt: the scheme ratio, verbatim and mutually exclusive
quotes, and, when the source holds distractors, the premises' consistency.
The rest of a sound record holds by construction, as ``validate_record``
argues check by check; ``tests/test_validate_differential.py`` holds it to
the full validator on every attempt.  ``generate_corpus`` builds the records
one after another in the calling process; it retries a rejected attempt, a
sampling dead end included, and counts the rejections by check.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from functools import cache
from typing import Iterable

from deepa2.argdown import ArgdownArgument, InferenceStep
from deepa2.errors import ConfigError, GenerationError
from deepa2.formula import (
    And,
    Formula,
    Not,
    Or,
    check_satisfiable,
    render_formula,
)
from deepa2.formula.syntax import Binary, Quantified, parse_formula
from deepa2.frozen import Frozen, replace
from deepa2.lexicon import DomainLexicon, builtin_lexicon
from deepa2.memo import process_memo
from deepa2.nl_templates import render_statement, shape_of, templates_for
from deepa2.records import DeepA2Record, QuotedStatement, RecordMeta
from deepa2.schemes import (
    Binding,
    SchemeVariant,
    builtin_catalog,
    instantiate_pattern,
    match_pattern,
    patterns_unify,
    sys_sch_ratio,
)
from deepa2.textnorm import eval_exe_meq, tokenize

MAX_PREDICATE_LETTERS = 8
_LETTER_POOL = "FGHIJKLMNOPQRST"  # E left out, it marks existential prefixes
_CONST_POOL = "abcd"

_PREMISE_INDICATORS = ("Plus,", "Moreover,", "And", "In addition,", "Besides,")
_CONCLUSION_INDICATORS = ("Therefore,", "So,", "Consequently,", "Hence,")
_INDICATOR_BUDGET = 3

# First words of bank templates; these lose their capital after an
# indicator word, proper names never do.
_DECAPITALIZABLE = {
    "If", "Every", "Whoever", "No", "Nobody", "Everyone", "Everybody",
    "Each", "It", "Assuming", "Being",
}


def _bad_config(message: str) -> ConfigError:
    return ConfigError(f"bad generator config: {message}")


class GeneratorConfig(Frozen):
    """Knobs for one corpus flavor; distributions must be proper.

    Each field has its default's type, except that an int may stand for a
    float and a list for a tuple of weights, so a config file of the wrong
    shape is refused here rather than failing in the middle of a build."""

    _fields = (
        "lexicon_id", "step_weights", "p_intricate", "implicit_premise_weights",
        "p_implicit_intermediate", "p_final_explicit", "distractor_weights",
        "imprecise_rendition",
    )
    _WEIGHTS = ("step_weights", "implicit_premise_weights", "distractor_weights")
    _PROBABILITIES = ("p_intricate", "p_implicit_intermediate", "p_final_explicit")

    def __init__(
        self,
        lexicon_id: str = "places_people",
        step_weights: tuple[float, ...] = (0.40, 0.20, 0.15, 0.25),
        p_intricate: float = 0.45,
        implicit_premise_weights: tuple[float, ...] = (0.50, 0.25, 0.25),
        p_implicit_intermediate: float = 0.35,
        p_final_explicit: float = 0.70,
        distractor_weights: tuple[float, ...] = (0.40, 0.25, 0.35),
        imprecise_rendition: bool = False,
    ):
        self.__dict__.update(
            lexicon_id=lexicon_id,
            step_weights=step_weights,
            p_intricate=p_intricate,
            implicit_premise_weights=implicit_premise_weights,
            p_implicit_intermediate=p_implicit_intermediate,
            p_final_explicit=p_final_explicit,
            distractor_weights=distractor_weights,
            imprecise_rendition=imprecise_rendition,
        )
        if type(lexicon_id) is not str:
            raise _bad_config("lexicon_id must be a string")
        if type(imprecise_rendition) is not bool:
            raise _bad_config("imprecise_rendition must be true or false")
        for name in self._WEIGHTS:
            weights = getattr(self, name)
            if type(weights) not in (tuple, list) or any(
                type(w) not in (int, float) for w in weights
            ):
                raise _bad_config(f"{name} must be a list of numbers")
            # random.choices needs a positive, finite total; NaN fails both tests.
            if not weights or min(weights) < 0 or not 0 < sum(weights) <= sys.float_info.max:
                raise _bad_config(f"{name} must be a proper distribution")
            self.__dict__[name] = tuple(weights)
        for name in self._PROBABILITIES:
            p = getattr(self, name)
            if type(p) not in (int, float) or not 0 <= p <= 1:
                raise _bad_config(f"{name} must be a number in [0, 1]")

    def to_dict(self) -> dict:
        data = dict(vars(self))
        for name in self._WEIGHTS:
            data[name] = list(data[name])
        return data

    @classmethod
    def from_dict(cls, data) -> "GeneratorConfig":
        if type(data) is not dict:
            raise _bad_config(f"expected a JSON object, got {type(data).__name__}")
        try:
            return cls(**data)
        except TypeError as err:  # a field the config does not have
            raise _bad_config(str(err)) from None

    @classmethod
    def preset(cls, name: str) -> "GeneratorConfig":
        if name == "aaac01":
            return cls()
        if name == "aaac02":
            return cls(lexicon_id="sports_clubs", imprecise_rendition=True)
        raise ConfigError(f"unknown preset {name!r} (have: aaac01, aaac02)")


# ---------------------------------------------------------------------------
# Argument sampling
# ---------------------------------------------------------------------------


class TreeStatement:
    def __init__(self, number: int, formula: Formula, role: str, text: str = ""):
        self.number = number
        self.formula = formula
        self.role = role  # "premise" | "intermediate" | "final"
        self.text = text


class StepInstance:
    def __init__(self, variant: SchemeVariant, from_numbers: tuple[int, ...], derives: int):
        self.variant = variant
        self.from_numbers = from_numbers
        self.derives = derives


class ArgumentTree:
    def __init__(
        self,
        statements: list[TreeStatement],
        steps: list[StepInstance],
        letters: list[str],
        constants: list[str],
    ):
        self.statements = statements
        self.steps = steps
        self.letters = letters
        self.constants = constants

    def statement(self, number: int) -> TreeStatement:
        return self.statements[number - 1]

    @property
    def premises(self) -> list[TreeStatement]:
        return [s for s in self.statements if s.role == "premise"]

    @property
    def final(self) -> TreeStatement:
        return self.statements[-1]


class _DeadEnd(Exception):
    pass


#: The predicate letters and the constant letters of a pattern.
_Letters = tuple[tuple[str, ...], tuple[str, ...]]


def _pattern_letters(pattern: Formula) -> _Letters:
    shape = shape_of(pattern)
    return shape.pred_letters, shape.const_letters


def _is_plain(variant: SchemeVariant) -> bool:
    """Plain variants avoid negation and compositional consequents."""
    if variant.intricate:
        return False
    return not any(
        _contains_complexity(p) for p in variant.premises
    ) and not _contains_complexity(variant.conclusion)


class _Sampler:
    def __init__(self):
        self.variants = builtin_catalog().all_variants()
        self.plain_pool = [v for v in self.variants if _is_plain(v)]
        self.productive = {
            v.label
            for v in self.variants
            if any(
                patterns_unify(v.conclusion, w.premises[slot])
                for w in self.variants
                for slot in range(len(w.premises))
            )
        }
        #: variant label -> the letters of each of its patterns, premises
        #: first, then the conclusion
        self.letters = {
            v.label: tuple(_pattern_letters(p) for p in (*v.premises, v.conclusion))
            for v in self.variants
        }

    def pool(self, intricate_flavor: bool) -> list[SchemeVariant]:
        return self.variants if intricate_flavor else self.plain_pool


@cache
def _builtin_sampler() -> _Sampler:
    """Sampling pools over the packaged catalog; built once."""
    return _Sampler()


class _LetterAllocator:
    def __init__(self):
        self.letters: list[str] = []
        self.constants: list[str] = []

    def next_letter(self) -> str:
        if len(self.letters) >= len(_LETTER_POOL):
            raise _DeadEnd
        letter = _LETTER_POOL[len(self.letters)]
        self.letters.append(letter)
        return letter

    def next_constant(self) -> str:
        if len(self.constants) >= len(_CONST_POOL):
            raise _DeadEnd
        const = _CONST_POOL[len(self.constants)]
        self.constants.append(const)
        return const


def _instantiate_step(
    variant: SchemeVariant,
    binding: Binding,
    alloc: _LetterAllocator,
    letters: tuple[_Letters, ...],
) -> tuple[list[Formula], Formula]:
    """The variant's premises and conclusion under ``binding`` (the match
    of the consumed premise slot, if any), extended by fresh letters."""
    for preds, consts in letters:
        for letter in preds:
            if letter not in binding.preds:
                binding.preds[letter] = alloc.next_letter()
        for const in consts:
            if const not in binding.consts:
                binding.consts[const] = alloc.next_constant()
    premises = [instantiate_pattern(p, binding) for p in variant.premises]
    conclusion = instantiate_pattern(variant.conclusion, binding)
    return premises, conclusion


def _new_letters_needed(binding: Binding, letters: tuple[_Letters, ...]) -> int:
    """Predicate letters of a variant that the binding leaves free."""
    return len({p for preds, _ in letters for p in preds} - binding.preds.keys())


def _try_sample_tree(config: GeneratorConfig, rng: random.Random) -> ArgumentTree:
    sampler = _builtin_sampler()
    n_steps = rng.choices(range(1, len(config.step_weights) + 1),
                          weights=config.step_weights)[0]
    intricate_flavor = rng.random() < config.p_intricate
    pool = sampler.pool(intricate_flavor)

    alloc = _LetterAllocator()
    statements: list[TreeStatement] = []
    steps: list[StepInstance] = []

    def add_statement(formula: Formula, role: str) -> int:
        statements.append(TreeStatement(len(statements) + 1, formula, role))
        return statements[-1].number

    prev_number: int | None = None
    prev_formula: Formula | None = None
    for i in range(n_steps):
        last = i == n_steps - 1
        if i == 0:
            candidates = [
                (v, None, None)
                for v in pool
                if last or v.label in sampler.productive
            ]
        else:
            candidates = []
            for v in pool:
                if not last and v.label not in sampler.productive:
                    continue
                for slot in range(len(v.premises)):
                    binding = Binding()
                    if match_pattern(v.premises[slot], prev_formula, binding) and (
                        len(alloc.letters)
                        + _new_letters_needed(binding, sampler.letters[v.label])
                        <= MAX_PREDICATE_LETTERS
                    ):
                        candidates.append((v, slot, binding))
        if not candidates:
            raise _DeadEnd
        variant, slot, binding = rng.choice(candidates)
        premises, conclusion = _instantiate_step(
            variant,
            Binding() if binding is None else binding,
            alloc,
            sampler.letters[variant.label],
        )
        from_numbers: list[int] = []
        for idx, formula in enumerate(premises):
            if slot is not None and idx == slot:
                from_numbers.append(prev_number)
            else:
                from_numbers.append(add_statement(formula, "premise"))
        derives = add_statement(conclusion, "final" if last else "intermediate")
        steps.append(StepInstance(variant, tuple(from_numbers), derives))
        prev_number, prev_formula = derives, conclusion

    return ArgumentTree(statements, steps, list(alloc.letters), list(alloc.constants))


#: Template draws ``verbalize_argument`` makes for distinct statement texts.
_VERBALIZE_ATTEMPTS = 20


# ---------------------------------------------------------------------------
# Verbalization
# ---------------------------------------------------------------------------


class VerbalizedArgument:
    def __init__(
        self,
        tree: ArgumentTree,
        key_phrases: dict[str, str],
        const_names: dict[str, str],
        argdown: ArgdownArgument,
        premises: tuple[QuotedStatement, ...],
        conclusion: tuple[QuotedStatement, ...],
        premises_form: tuple[QuotedStatement, ...],
        conclusion_form: tuple[QuotedStatement, ...],
        keys: tuple[tuple[str, str], ...],
    ):
        self.tree = tree
        self.key_phrases = key_phrases
        self.const_names = const_names
        self.argdown = argdown
        self.premises = premises
        self.conclusion = conclusion
        self.premises_form = premises_form
        self.conclusion_form = conclusion_form
        self.keys = keys


def verbalize_argument(
    tree: ArgumentTree,
    lexicon: DomainLexicon,
    rng: random.Random,
) -> VerbalizedArgument:
    """Assign phrases and render every statement; the argument block and
    the premise/conclusion/formalization dimensions are side products."""
    phrases = rng.sample(lexicon.phrases(), len(tree.letters))
    key_phrases = dict(zip(tree.letters, phrases))
    names = rng.sample(lexicon.names, max(1, len(tree.constants)))
    const_names = dict(zip(tree.constants, names)) if tree.constants else {}

    for _ in range(_VERBALIZE_ATTEMPTS):
        for statement in tree.statements:
            template = rng.choice(templates_for(statement.formula))
            statement.text = render_statement(
                statement.formula, key_phrases, const_names, template
            )
        texts = [s.text for s in tree.statements]
        if len(set(texts)) == len(texts):
            break
    else:
        raise GenerationError("could not verbalize statements uniquely")

    argdown = ArgdownArgument(
        statements=tuple((s.number, s.text) for s in tree.statements),
        inferences=tuple(
            InferenceStep(
                step.from_numbers,
                step.derives,
                step.variant.scheme_name,
                step.variant.variant,
            )
            for step in tree.steps
        ),
    )
    premises = tuple(
        QuotedStatement(s.text, s.number) for s in tree.premises
    )
    conclusion = (QuotedStatement(tree.final.text, tree.final.number),)
    premises_form = tuple(
        QuotedStatement(render_formula(s.formula), s.number) for s in tree.premises
    )
    conclusion_form = (
        QuotedStatement(render_formula(tree.final.formula), tree.final.number),
    )
    keys = tuple((letter, key_phrases[letter]) for letter in tree.letters)
    return VerbalizedArgument(
        tree, key_phrases, const_names, argdown,
        premises, conclusion, premises_form, conclusion_form, keys,
    )


# ---------------------------------------------------------------------------
# Presentation planning and source composition
# ---------------------------------------------------------------------------


class PresentationPlan(Frozen):
    _fields = ("statement_order", "omitted", "final_explicit", "distractor_slots")

    def __init__(
        self,
        statement_order: tuple[int, ...],  # retained statements, source order
        omitted: frozenset[int],
        final_explicit: bool,
        distractor_slots: tuple[int, ...],
    ):
        self.__dict__.update(
            statement_order=statement_order,
            omitted=omitted,
            final_explicit=final_explicit,
            distractor_slots=distractor_slots,
        )


class Distractor(Frozen):
    _fields = ("text", "formula")

    def __init__(self, text: str, formula: Formula):
        self.__dict__.update(text=text, formula=formula)


def plan_presentation(
    tree: ArgumentTree, config: GeneratorConfig, rng: random.Random
) -> PresentationPlan:
    premise_numbers = [s.number for s in tree.premises]
    intermediates = [s.number for s in tree.statements if s.role == "intermediate"]
    final_number = tree.final.number

    max_implicit = len(premise_numbers) - 1
    weights = config.implicit_premise_weights
    n_implicit = rng.choices(range(len(weights)), weights=weights)[0]
    n_implicit = min(n_implicit, max_implicit)
    omitted = set(rng.sample(premise_numbers, n_implicit))
    for number in intermediates:
        if rng.random() < config.p_implicit_intermediate:
            omitted.add(number)
    final_explicit = rng.random() < config.p_final_explicit
    if not final_explicit:
        omitted.add(final_number)

    retained = [s.number for s in tree.statements if s.number not in omitted]
    rng.shuffle(retained)

    n_distractors = rng.choices(
        range(len(config.distractor_weights)), weights=config.distractor_weights
    )[0]
    slots = tuple(
        sorted(rng.randint(0, len(retained)) for _ in range(n_distractors))
    )
    return PresentationPlan(
        statement_order=tuple(retained),
        omitted=frozenset(omitted),
        final_explicit=final_explicit,
        distractor_slots=slots,
    )


_DISTRACTOR_SHAPES = (
    "F a",
    "not F a",
    "F a & G a",
    "(x): F x -> G x",
    "(x): F x -> not G x",
)


def _build_distractors(
    verbalized: VerbalizedArgument,
    lexicon: DomainLexicon,
    count: int,
    rng: random.Random,
) -> list[Distractor]:
    used_phrases = set(verbalized.key_phrases.values())
    fresh_pool = [p for p in lexicon.phrases() if p not in used_phrases]
    distractors = []
    letter_offset = len(verbalized.tree.letters)
    for _ in range(count):
        shape = parse_formula(rng.choice(_DISTRACTOR_SHAPES))
        preds, consts = _pattern_letters(shape)
        if len(fresh_pool) < len(preds) or letter_offset + len(preds) > len(_LETTER_POOL):
            break
        binding = Binding()
        phrase_map: dict[str, str] = {}
        for p in preds:
            phrase = rng.choice(fresh_pool)
            fresh_pool.remove(phrase)
            fresh_letter = _LETTER_POOL[letter_offset]
            letter_offset += 1
            binding.preds[p] = fresh_letter
            phrase_map[fresh_letter] = phrase
        name_map = {c: rng.choice(lexicon.names) for c in consts}
        binding.consts = {c: c for c in consts}
        formula = instantiate_pattern(shape, binding)
        template = rng.choice(templates_for(formula))
        text = render_statement(formula, phrase_map, name_map, template)
        distractors.append(Distractor(text, formula))
    return distractors


def _decapitalize(sentence: str) -> str:
    first_word = sentence.split(" ", 1)[0].rstrip(",")
    if first_word in _DECAPITALIZABLE:
        return sentence[0].lower() + sentence[1:]
    return sentence


def _mild_tweak(text: str, rng: random.Random) -> str:
    # One inserted token keeps the quote close to its counterpart statement.
    marker = "then they are "
    if marker in text and len(tokenize(text)) >= 8 and rng.random() < 0.25:
        return text.replace(marker, marker + "also ", 1)
    return text


def compose_source(
    verbalized: VerbalizedArgument,
    plan: PresentationPlan,
    lexicon: DomainLexicon,
    config: GeneratorConfig,
    rng: random.Random,
) -> tuple[str, tuple[QuotedStatement, ...], tuple[QuotedStatement, ...], RecordMeta, list[Distractor]]:
    """Render the story; returns (source, reasons, conjectures, meta,
    distractors)."""
    tree = verbalized.tree
    distractors = _build_distractors(verbalized, lexicon, len(plan.distractor_slots), rng)

    premise_numbers = {s.number for s in tree.premises}
    sentences: list[str] = []
    reasons: list[QuotedStatement] = []
    conjectures: list[QuotedStatement] = []
    indicators_left = _INDICATOR_BUDGET

    items: list[tuple[str, object]] = [
        ("statement", number) for number in plan.statement_order
    ]
    for d, slot in zip(reversed(distractors), reversed(plan.distractor_slots)):
        items.insert(min(slot, len(items)), ("distractor", d))

    distractor_count = len(distractors)

    for index, (kind, payload) in enumerate(items):
        if kind == "distractor":
            sentences.append(payload.text)
            continue
        number = payload
        statement = tree.statement(number)
        core = statement.text
        if config.imprecise_rendition and rng.random() < 0.5:
            loose = [
                t for t in templates_for(statement.formula, include_imprecise=True)
                if t.imprecise
            ]
            if loose:
                core = render_statement(
                    statement.formula,
                    verbalized.key_phrases,
                    verbalized.const_names,
                    rng.choice(loose),
                )
        else:
            core = _mild_tweak(core, rng)
        is_conclusion = number not in premise_numbers
        indicator = None
        if index > 0 and indicators_left > 0:
            if is_conclusion and rng.random() < 0.5:
                indicator = rng.choice(_CONCLUSION_INDICATORS)
            elif not is_conclusion and rng.random() < 0.3:
                indicator = rng.choice(_PREMISE_INDICATORS)
        if indicator:
            indicators_left -= 1
            core = _decapitalize(core)
            sentences.append(f"{indicator} {core}")
        else:
            sentences.append(core)
        quote = QuotedStatement(core, number)
        if number in premise_numbers:
            reasons.append(quote)
        else:
            conjectures.append(quote)

    source = " ".join(sentences)

    intermediates = [s.number for s in tree.statements if s.role == "intermediate"]
    n_implicit_concl = sum(1 for n in intermediates if n in plan.omitted)
    if not plan.final_explicit:
        n_implicit_concl += 1
    uses_complex = any(step.variant.intricate for step in tree.steps) or any(
        _contains_complexity(s.formula) for s in tree.statements
    )
    meta = RecordMeta(
        n_inference_steps=len(tree.steps),
        n_implicit_premises=sum(1 for n in plan.omitted if n in premise_numbers),
        n_implicit_conclusions=n_implicit_concl,
        final_conclusion_explicit=plan.final_explicit,
        n_distractors=distractor_count,
        uses_complex_schemes=uses_complex,
        domain_tag=lexicon.lexicon_id,
    )
    return source, tuple(reasons), tuple(conjectures), meta, distractors


def _contains_complexity(formula: Formula) -> bool:
    if isinstance(formula, (Not, Or, And)):
        return True
    if isinstance(formula, Quantified):
        return _contains_complexity(formula.body)
    if isinstance(formula, Binary):
        return _contains_complexity(formula.left) or _contains_complexity(formula.right)
    return False


# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------


#: Share of indices whose every attempt may be rejected before generation
#: gives up (at least one is always allowed).
_MAX_FAILURE_RATE = 0.01


#: ``validate_record`` problems that carry a detail after the check's name.
_DETAILED_CHECKS = ("scheme ratio",)


def _check_name(problems) -> str:
    """The name under which a rejected attempt is counted: the check of its
    first problem, without the problem's detail.  A sampling dead end or a
    failed verbalization is one problem string."""
    first = problems[0] if isinstance(problems, list) else str(problems)
    return next((c for c in _DETAILED_CHECKS if first.startswith(c + " ")), first)


def generate_corpus(
    config: GeneratorConfig,
    n: int,
    seed: int = 0,
    rejections: Counter | None = None,
) -> list[DeepA2Record]:
    """Generate n records, each internally validated; deterministic under
    (config, n, seed).  ``rejections``, when given, gains the rejected
    attempts by check name (see ``_check_name``).

    Records are built one index after another in the calling process.
    Index ``i`` draws only from its own generator, seeded with the lexicon,
    the seed and ``i``, and gets up to 120 attempts; an index whose every
    attempt is rejected is skipped and counts as a failure.
    """
    lexicon = builtin_lexicon(config.lexicon_id)
    if rejections is None:
        rejections = Counter()
    out: list[DeepA2Record] = []
    failures = 0
    index = 0
    while len(out) < n:
        rng = random.Random(f"{config.lexicon_id}:{seed}:{index}")
        record_id = f"{config.lexicon_id}-{seed}-{index:05d}"
        index += 1
        for _attempt in range(120):
            try:
                out.append(_generate_record(config, rng, lexicon, record_id)[0])
                break
            except _RecordRejected as rejection:
                problems = rejection.args[0] if rejection.args else None
                rejections[_check_name(problems)] += 1
        else:
            failures += 1
            if failures > max(1, int(_MAX_FAILURE_RATE * n)):
                raise GenerationError(
                    f"generation failure rate exceeded {_MAX_FAILURE_RATE:.0%}; "
                    f"last rejection: {problems}"
                )
    return out


class _RecordRejected(Exception):
    pass


def _generate_record(
    config: GeneratorConfig,
    rng: random.Random,
    lexicon: DomainLexicon,
    record_id: str,
) -> tuple[DeepA2Record, list[Distractor]]:
    """A validated record and the distractors its source holds."""
    try:
        tree = _try_sample_tree(config, rng)
        verbalized = verbalize_argument(tree, lexicon, rng)
    except (_DeadEnd, GenerationError) as err:
        raise _RecordRejected(str(err) or "sampling dead end") from None
    plan = plan_presentation(tree, config, rng)
    source, reasons, conjectures, meta, distractors = compose_source(
        verbalized, plan, lexicon, config, rng
    )
    meta = replace(meta, record_id=record_id)
    record = DeepA2Record.from_parts(
        source=source,
        reasons=reasons,
        conjectures=conjectures,
        argdown=verbalized.argdown,
        premises=verbalized.premises,
        conclusion=verbalized.conclusion,
        premises_form=verbalized.premises_form,
        conclusion_form=verbalized.conclusion_form,
        keys=verbalized.keys,
        meta=meta,
    )
    problems = validate_record(record, distractors)
    if problems:
        raise _RecordRejected(problems)
    return record, distractors


def validate_record(record: DeepA2Record, distractors: list[Distractor]) -> list[str]:
    """The first problem that rejects the attempt, as a one-item list; an
    empty list means the record is sound.

    The checks run in this order, from the record's parts: the scheme
    ratio, verbatim and mutually exclusive quotes and, when the source holds
    distractors, the premises' consistency.  No dimension text is parsed,
    only the formalization's formulas.  The checks that hold by construction
    are not run (see the comments below).
    ``tests/test_validate_differential.py`` holds this function to the full
    validator, ``tests/reference_validate.py``, on every attempt."""
    arg = record.argdown
    # The basic-flaw bits are all 1: ``verbalize_argument`` renders pairwise
    # distinct texts or rejects the attempt, and ``normalize_ws`` leaves a
    # rendered text as it is, so no premise or conclusion repeats another.
    # Every statement but the last is a leaf premise of its step or the
    # conclusion the next step consumes (for i > 0 every candidate of
    # ``_try_sample_tree`` fills a slot with it), so every statement is used.
    #
    # sys_val == 1 holds by construction: every catalog variant is proved
    # valid when the catalog loads, a step instantiates its variant by a
    # uniform letter substitution, which keeps it valid, and chaining valid
    # steps through their conclusions keeps the leaf premises entailing the
    # final conclusion.  The formalization renders those formulas, and
    # parse_formula inverts render_formula.
    forms = (*record.premises_form, *record.conclusion_form)
    sys_sch = sys_sch_ratio(arg, {q.ref: parse_formula(q.text) for q in forms if q.ref is not None})
    if sys_sch != 1.0:
        return [f"scheme ratio {sys_sch}"]
    if eval_exe_meq(record.source, record.reasons, record.conjectures) != 1:
        return ["quotes not mutually exclusive verbatim"]
    # The self-prediction scores are exactly 1: the record's reasons (and
    # conjectures) are scored against themselves, and identical lists match
    # greedily on the diagonal, as a text's token F1 with itself is 1.
    #
    # The text-exploitation prediction matches the metadata:
    # ``compose_source`` quotes each retained non-premise statement as a
    # conjecture, and it retains the final conclusion exactly when
    # ``plan.final_explicit`` holds, which ``meta.final_conclusion_explicit``
    # records.
    #
    # No reference dangles: every quote and formalization refers by the
    # number of a tree statement, and the argdown holds every tree statement.
    #
    # The keys name every letter of the formalization: they list every
    # letter the tree's allocator handed out, and every formula takes its
    # letters from that allocator.
    #
    # No quote drifts from its statement: without imprecise rendition a
    # quote is its statement's text, decapitalized after an indicator word
    # (token overlap ignores case) or with one word inserted into a text of
    # at least 8 words (``_mild_tweak``: 2 * 16/17 - 1 > 0.8 = the bound).
    #
    # Each text parses back to the part it came from: the parts are
    # rendered from the lexicon and the template bank, which hold no item
    # separator, escape, reference suffix or run of whitespace, and the
    # argument and formulas through the renderers their parsers invert.

    # Entailment with distractors follows from sys_val == 1 (entailment is
    # monotone); only their consistency with the premises is left to check.
    # Formula sets that share no predicate letter are satisfiable together
    # when each is on its own (the language has no identity: a model of each
    # extends to the product of the two domains).  ``_build_distractors``
    # gives every distractor letters of its own, past the tree's, and each
    # of ``_DISTRACTOR_SHAPES`` is satisfiable, so the premises and their
    # distractors are consistent exactly when the premises are.
    if distractors and not _satisfiable(tuple(q.text for q in record.premises_form)):
        return ["distractors made premises unsatisfiable"]
    return []


@process_memo
def _satisfiable(texts: tuple[str, ...]) -> bool:
    """``check_satisfiable`` of the formalized texts, for the whole
    process."""
    return check_satisfiable(list(map(parse_formula, texts)))


def subset_census(records: Iterable[DeepA2Record]) -> dict[str, int]:
    """Counts per homogeneous subset tag, plus untagged records."""
    from deepa2.records import ALL_SUBSETS, classify_subsets

    census = {tag: 0 for tag in ALL_SUBSETS}
    census["untagged"] = 0
    for record in records:
        tags = classify_subsets(record.meta)
        if not tags:
            census["untagged"] += 1
        for tag in tags:
            census[tag] += 1
    return census
