"""Parser, printer, and decision-procedure tests for the formula language."""

import pickle
import random
import time
import traceback

import pytest

from deepa2.errors import FormulaParseError, FrozenInstanceError, UnsupportedFragmentError
from deepa2.formula import (
    And,
    Atom,
    Const,
    Exists,
    ForAll,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    check_entailment,
    check_satisfiable,
    parse_formula,
    render_formula,
)

from .bruteforce import brute_force_entails, brute_force_satisfiable
from .helpers import random_closed_formula, random_formula_set


def fx(pred, var="x"):
    return Atom(pred, Var(var))


def fa(pred, const="a"):
    return Atom(pred, Const(const))


class TestParse:
    def test_universal_conditional_with_negation(self):
        assert parse_formula("(x): F x -> not I x") == ForAll(
            "x", Implies(fx("F"), Not(fx("I")))
        )

    def test_ground_atom(self):
        assert parse_formula("F a") == fa("F")

    def test_fused_tokens_accepted(self):
        assert parse_formula("(x): Fx -> (G x v H x)") == ForAll(
            "x", Implies(fx("F"), Or(fx("G"), fx("H")))
        )

    def test_existential_prefix(self):
        assert parse_formula("(Ex): F x & G x") == Exists("x", And(fx("F"), fx("G")))

    def test_precedence_not_over_and_over_or(self):
        got = parse_formula("(x): not F x & G x v H x")
        assert got == ForAll("x", Or(And(Not(fx("F")), fx("G")), fx("H")))

    def test_implication_right_associative(self):
        got = parse_formula("F a -> G a -> H a")
        assert got == Implies(fa("F"), Implies(fa("G"), fa("H")))

    def test_iff_binds_weakest(self):
        got = parse_formula("F a <-> G a -> H a")
        assert got == Iff(fa("F"), Implies(fa("G"), fa("H")))

    def test_quantifier_scopes_over_remaining_body(self):
        got = parse_formula("(x): F x -> G x")
        assert isinstance(got, ForAll)
        assert isinstance(got.body, Implies)

    def test_nested_quantifiers(self):
        got = parse_formula("(x): (Ey): F x -> G y")
        assert got == ForAll("x", Exists("y", Implies(fx("F"), fx("G", "y"))))

    def test_parenthesized_quantifier_as_operand(self):
        got = parse_formula("F a & ((x): G x -> H x)")
        assert got == And(fa("F"), ForAll("x", Implies(fx("G"), fx("H"))))

    def test_binary_predicate_rejected(self):
        with pytest.raises(FormulaParseError):
            parse_formula("R x y")
        with pytest.raises(FormulaParseError):
            parse_formula("(x): (Ey): R x y")

    def test_parenthesized_argument_list_rejected(self):
        with pytest.raises(FormulaParseError, match="unary"):
            parse_formula("F(a)")

    def test_unbound_variable_rejected(self):
        with pytest.raises(FormulaParseError, match="unbound"):
            parse_formula("F x")
        with pytest.raises(FormulaParseError, match="unbound"):
            parse_formula("(x): F x -> G y")

    def test_rebinding_rejected(self):
        with pytest.raises(FormulaParseError, match="already bound"):
            parse_formula("(x): (Ex): F x")

    def test_unknown_token_has_position(self):
        with pytest.raises(FormulaParseError) as err:
            parse_formula("F a @ G a")
        assert err.value.position == 4

    def test_reserved_v_not_a_constant(self):
        with pytest.raises(FormulaParseError):
            parse_formula("F v")

    def test_remembered_error_is_raised_as_a_fresh_copy(self):
        """A malformed text raises an equal, fresh error on every call."""
        with pytest.raises(FormulaParseError) as first:
            parse_formula("F a @ G a")
        depth = len(traceback.extract_tb(first.value.__traceback__))
        for _ in range(3):
            with pytest.raises(FormulaParseError) as again:
                parse_formula("F a @ G a")
            assert again.value is not first.value
            assert str(again.value) == str(first.value)
            assert again.value.position == first.value.position == 4
            assert len(traceback.extract_tb(again.value.__traceback__)) == depth


class TestRender:
    def test_universal_conditional(self):
        assert render_formula(ForAll("x", Implies(fx("F"), fx("G")))) == "(x): F x -> G x"

    def test_atom(self):
        assert render_formula(fa("F")) == "F a"

    def test_negated_atom(self):
        assert render_formula(Not(fa("F"))) == "not F a"

    def test_parenthesizes_by_precedence(self):
        f = ForAll("x", Implies(fx("F"), Or(fx("G"), fx("H"))))
        assert render_formula(f) == "(x): F x -> G x v H x"
        g = Not(And(fa("F"), fa("G")))
        assert render_formula(g) == "not (F a & G a)"

    def test_round_trip_fuzz(self):
        rng = random.Random(20240)
        for _ in range(2000):
            f = random_closed_formula(rng, max_depth=6)
            assert parse_formula(render_formula(f)) == f


class TestNodes:
    """What the shared ``Binary`` and ``Quantified`` bases must keep of the
    per-connective dataclasses: memo keys and pickles depend on it."""

    def test_connectives_with_equal_children_differ(self):
        p, q = fa("F"), fa("G")
        for nodes in (
            [cls(p, q) for cls in (And, Or, Implies, Iff)],
            [cls("x", fx("F")) for cls in (ForAll, Exists)],
        ):
            for i, a in enumerate(nodes):
                for b in nodes[i + 1:]:
                    assert a != b
                    assert len({a: 1, b: 2}) == 2
            assert nodes == [type(n)(*vars(n).values()) for n in nodes]
            assert nodes == [pickle.loads(pickle.dumps(n)) for n in nodes]

    def test_repr_names_the_subclass(self):
        assert repr(Iff(fa("F"), fa("G"))) == (
            "Iff(left=Atom(pred='F', term=Const(name='a')), "
            "right=Atom(pred='G', term=Const(name='a')))"
        )
        assert repr(Exists("x", fx("F"))).startswith("Exists(var='x', body=Atom(")

    def test_fields_are_frozen(self):
        for node, name in ((Or(fa("F"), fa("G")), "left"), (ForAll("x", fx("F")), "body"),
                           (Var("x"), "name")):
            with pytest.raises(FrozenInstanceError):
                setattr(node, name, fa("H"))

    def test_shape_numbers_letters_by_first_occurrence(self):
        from deepa2.nl_templates import shape_of

        gf = shape_of(parse_formula("(x): G x -> F x"))
        fg = shape_of(parse_formula("(x): F x -> G x"))
        assert gf.key == fg.key == "(x): P1 x -> P2 x"
        assert (gf.pred_letters, fg.pred_letters) == (("G", "F"), ("F", "G"))
        two = shape_of(parse_formula("F a & G b"))
        assert (two.key, two.const_letters) == ("P1 c1 & P2 c2", ("a", "b"))


class TestEntailment:
    def test_generalized_dilemma_instance(self):
        premises = [
            parse_formula("(x): Fx -> (G x v H x)"),
            parse_formula("(x): G x -> not I x"),
            parse_formula("(x): H x -> not I x"),
        ]
        conclusion = parse_formula("(x): F x -> not I x")
        assert check_entailment(premises, conclusion) is True

    def test_instantiation_detachment(self):
        premises = [parse_formula("F a"), parse_formula("(x): F x -> G x")]
        assert check_entailment(premises, parse_formula("G a")) is True

    def test_independent_predicate_not_entailed(self):
        assert check_entailment([parse_formula("F a")], parse_formula("G a")) is False

    def test_tautology_from_empty_premises(self):
        assert check_entailment([], parse_formula("(x): F x -> F x")) is True

    def test_contradiction_unsatisfiable(self):
        assert check_satisfiable([parse_formula("F a"), parse_formula("not F a")]) is False

    def test_conditional_satisfiable_with_empty_extension(self):
        assert check_satisfiable([parse_formula("(x): F x -> G x")]) is True

    def test_exhausted_consequent_unsatisfiable(self):
        formulas = [
            parse_formula("(x): Fx -> Gx"),
            parse_formula("(Ex): Fx"),
            parse_formula("(x): not G x"),
        ]
        assert brute_force_satisfiable(formulas) is False
        assert check_satisfiable(formulas) is False

    def test_open_formula_rejected(self):
        with pytest.raises(UnsupportedFragmentError):
            check_satisfiable([Atom("F", Var("x"))])

    def test_disjoint_components_are_bounded_separately(self):
        # 12 letters in two 6-letter components: each stays within the bound.
        chains = [
            ForAll("x", Implies(fx(letters[i]), fx(letters[i + 1])))
            for letters in ("FGHIJK", "LMNOPQ")
            for i in range(5)
        ]
        assert check_satisfiable(chains) is True
        assert check_entailment(chains + [fa("F")], fa("K")) is True
        assert check_entailment(chains + [fa("F")], fa("L")) is False

    def test_too_many_predicates_rejected(self):
        formulas = [
            ForAll("x", Implies(fx(chr(ord("A") + i)), fx(chr(ord("A") + i + 1))))
            for i in range(12)
        ]
        with pytest.raises(UnsupportedFragmentError):
            check_satisfiable(formulas)

    def test_agrees_with_brute_force_oracle(self):
        # The default signature, then two nested-heavy ones (quantifiers
        # inside quantifiers, with and without constants in their scope).
        inputs = [
            (7, 150, {}, 0),
            (31, 200, dict(constants=("a",), max_depth=5), 100),
            (37, 300, dict(predicates=("F", "G"), max_depth=6), 180),
        ]
        for seed, n_sets, signature, min_nested in inputs:
            rng = random.Random(seed)
            nested = 0
            for _ in range(n_sets):
                premises, conclusion = random_formula_set(rng, **signature)
                formulas = premises + [conclusion]
                nested += any(_quantifier_depth(f) > 1 for f in formulas)
                expected = brute_force_entails(premises, conclusion)
                assert check_entailment(premises, conclusion) == expected, (
                    [render_formula(p) for p in premises],
                    render_formula(conclusion),
                )
            assert nested >= min_nested

    def test_agrees_with_oracle_on_constant_heavy_sets(self):
        # Ground facts and mixed quantified/ground sets exercise the
        # constant-assignment search.
        rng = random.Random(29)
        const_heavy = 0
        for _ in range(300):
            premises, conclusion = random_formula_set(
                rng, predicates=("F", "G"), constants=("a", "b"), max_depth=3
            )
            formulas = premises + [conclusion]
            if sum(1 for f in formulas if "a" in render_formula(f)
                   or "b" in render_formula(f)) >= 2:
                const_heavy += 1
            expected = brute_force_entails(premises, conclusion)
            assert check_entailment(premises, conclusion) == expected
        assert const_heavy > 50

    def test_monotone_under_extra_premises(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(300):
            premises, conclusion = random_formula_set(rng, max_premises=2)
            if not check_entailment(premises, conclusion):
                continue
            extra = [random_closed_formula(rng) for _ in range(2)]
            assert check_entailment(premises + extra, conclusion) is True
            checked += 1
        assert checked > 10

    def test_self_entailment(self):
        rng = random.Random(13)
        for _ in range(200):
            f = random_closed_formula(rng)
            assert check_entailment([f], f) is True


def _quantifier_depth(f):
    if isinstance(f, (ForAll, Exists)):
        return 1 + _quantifier_depth(f.body)
    if isinstance(f, Atom):
        return 0
    if isinstance(f, Not):
        return _quantifier_depth(f.sub)
    return max(_quantifier_depth(f.left), _quantifier_depth(f.right))


def _nested_family(k, valid):
    """``(x): (Ey): P1 x -> P2 y & ... & Pk y`` and ``P1 a`` entail
    ``(Ex): P2 x & ... & Pk x``, but not with ``& P1 x`` added."""
    letters = "FGHIJKLMNO"[:k]
    first, rest = letters[0], letters[1:]
    premises = [
        f"(x): (Ey): {first} x -> " + " & ".join(f"{p} y" for p in rest),
        f"{first} a",
    ]
    conclusion = "(Ex): " + " & ".join(f"{p} x" for p in rest)
    if not valid:
        conclusion += f" & {first} x"
    return [parse_formula(p) for p in premises], parse_formula(conclusion)


# Three deep, ten predicates each, one component; the valid conclusion is
# derived in the comment, the invalid one fails in the model described.
_THREE_DEEP = [
    # Some z is H, I, J, K (F a, and some G); M or N there, M gives O.
    # Counter-model: a: F; b: G, L; c: H, I, J, K, N.
    (
        [
            "(x): (y): (Ez): F x & G y -> H z & I z & J z & K z",
            "F a",
            "(Ex): G x & L x",
            "(x): H x & I x -> M x v N x",
            "(x): M x -> O x",
        ],
        "(Ex): H x & I x & J x & K x & (N x v O x)",
        "(Ex): H x & I x & J x & K x & O x",
    ),
    # F a and H b give some y with G and I, hence J and K; J gives L or M,
    # M gives O.  Counter-model: a: F; b: H; c: G, I, J, K, M, N, O.
    (
        [
            "(x): (Ey): (z): F x -> G y & (H z -> I y)",
            "F a",
            "H b",
            "(x): G x & I x -> J x & K x",
            "(x): J x -> L x v M x",
            "(x): not M x v N x & O x",
        ],
        "(Ex): K x & (L x v O x)",
        "(Ex): K x & L x",
    ),
    # G a gives some z with H, I and not F; J or K there, both give O.
    # Counter-model: b: F; a: G; c: H, I, K, M, N, O.
    (
        [
            "(Ex): (y): (Ez): F x & (G y -> H z & I z & not F z)",
            "G a",
            "(x): H x & I x -> J x v K x",
            "(x): J x -> L x",
            "(x): K x -> M x & N x",
            "(x): L x v M x -> O x",
        ],
        "(Ex): O x & not F x",
        "(Ex): O x & L x",
    ),
]


class TestNestedQuantifiers:
    """Nested quantifiers over up to ten letters decide in bounded time, so
    a malformed formalization cannot stall eval."""

    def test_nested_families_up_to_ten_predicates(self):
        start = time.perf_counter()
        for k in range(3, 11):
            for valid in (True, False):
                premises, conclusion = _nested_family(k, valid)
                assert check_entailment(premises, conclusion) is valid, (k, valid)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("premises, valid, invalid", _THREE_DEEP)
    def test_three_deep_ten_predicates(self, premises, valid, invalid):
        premises = [parse_formula(p) for p in premises]
        start = time.perf_counter()
        assert check_entailment(premises, parse_formula(valid)) is True
        assert check_entailment(premises, parse_formula(invalid)) is False
        assert time.perf_counter() - start < 1.0


def _probe_set(rng, n, letters="FGHIJKLMNO"):
    """n premises ``((Ex): l1 x & l2 x & l3 x) v ((y): l4 y v l5 y)`` and the
    conclusion ``(Ex): l6 x``, each l a random literal over letters."""

    def lit(var):
        text = f"{letters[rng.randrange(len(letters))]} {var}"
        return f"not {text}" if rng.randrange(2) else text

    premises = [
        parse_formula(
            f"((Ex): {lit('x')} & {lit('x')} & {lit('x')}) v ((y): {lit('y')} v {lit('y')})"
        )
        for _ in range(n)
    ]
    return premises, parse_formula(f"(Ex): {lit('x')}")


class TestSearchBudget:
    """Long premise lists of disjunctions send the skeleton search into its
    heavy tail; the node budget bounds every check."""

    def test_probe_family_is_decided_or_refused_in_bounded_time(self):
        # Unbounded, the worst of these 45 sets takes 36 865 nodes (3.6 s on
        # a 2-CPU machine); the budget refuses it after 10 000 (about 1 s).
        rng = random.Random(2)
        refused = 0
        for n in (24, 40, 48):
            for _ in range(15):
                premises, conclusion = _probe_set(rng, n)
                start = time.perf_counter()
                try:
                    check_entailment(premises, conclusion)
                except UnsupportedFragmentError as err:
                    assert "search exceeds" in str(err)
                    refused += 1
                assert time.perf_counter() - start < 3.0, n
        assert refused == 1

    def test_probe_family_agrees_with_brute_force_oracle(self):
        # Three letters keep the oracle's model enumeration small.
        rng = random.Random(3)
        verdicts = set()
        for n in range(2, 13, 2):
            for _ in range(10):
                premises, conclusion = _probe_set(rng, n, "FGH")
                expected = brute_force_entails(premises, conclusion)
                assert check_entailment(premises, conclusion) == expected
                verdicts.add(expected)
        assert verdicts == {True, False}

    def test_sys_val_scores_a_refused_check_zero_once(self, monkeypatch):
        from deepa2 import metrics
        from deepa2.formula import decide
        from deepa2.records import QuotedStatement

        # A one-node budget refuses any check that has to branch.
        monkeypatch.setattr(decide, "MAX_SEARCH_NODES", 1)
        decided = []

        def counting(*args):
            decided.append(args)
            return check_entailment(*args)

        monkeypatch.setattr(metrics, "check_entailment", counting)
        premises, conclusion = _probe_set(random.Random(2), 24)
        premises_form = [QuotedStatement(render_formula(p), i)
                         for i, p in enumerate(premises, 1)]
        conclusion_form = [QuotedStatement(render_formula(conclusion), 25)]
        for _ in range(2):
            diagnostics = []
            assert metrics.eval_sys_val(premises_form, conclusion_form, diagnostics) == 0
            assert diagnostics == ["sys_val: satisfiability search exceeds 1 nodes"]
        assert len(decided) == 1


def test_render_formula_is_parse_inverse_on_paper_style_strings():
    for text in [
        "(x): F x -> not I x",
        "(x): F x -> G x v H x",
        "F a",
        "not F a",
        "(x): H x -> F x",
        "(Ex): F x & not G x",
    ]:
        assert render_formula(parse_formula(text)) == text
