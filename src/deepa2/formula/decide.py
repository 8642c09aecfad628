"""Validity and satisfiability decisions for the monadic fragment.

Without equality, a structure is fixed up to elementary equivalence by the
set S of predicate profiles (subsets of the k predicate letters) that some
element has, plus the profile of each constant.  Every quantifier can
therefore be eliminated (Behmann): a closed ``(Ex): b`` whose body mentions
only ``x`` is true iff S meets the witness set W of profiles satisfying b.

Witness-set elimination works innermost quantifier first.  The body of
``(Ex): b`` is split (Shannon expansion) on each leaf that does not mention
x -- atoms of outer variables, ground atoms, blocks already built -- until
only atoms of x are left; its witness set W is then a bitmask over the 2^k
profiles, computed from per-predicate masks.  The quantifier becomes a block
"S meets W": false for empty W, true for all profiles (domains are
non-empty).  ``(x): b`` is ``not (Ex): not b``.  What is left of a formula
set is a Boolean skeleton over blocks and ground atoms; it is satisfiable
iff some assignment to those leaves makes it true and is realizable: with S
all profiles outside every false block, S is non-empty, meets every true
block, and holds a profile matching each constant's ground literals.
``check_entailment`` reduces to unsatisfiability of premises plus negated
conclusion.

The skeleton search branches on one leaf at a time and learns nothing from
a failed branch, so a long premise list of disjunctions can take
exponentially many nodes.  A check that would visit more than
``MAX_SEARCH_NODES`` of them raises ``UnsupportedFragmentError`` instead:
a count, not a clock, so every verdict is reproducible.
"""

from __future__ import annotations

from itertools import count

from deepa2.errors import UnsupportedFragmentError
from deepa2.frozen import Frozen
from deepa2.formula.syntax import (
    And,
    Atom,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    free_variables,
    predicates_of,
    render_formula,
)

# Witness sets are masks with one bit per profile, 2^k bits for k letters:
# 10 letters bound every mask to 1024 bits (128 bytes), so each &, | and ^
# on them stays cheap.  Arguments in practice use <= 8 predicate letters,
# anything beyond is malformed model output.
MAX_PREDICATES = 10

# Search nodes (``_Eliminator.satisfiable`` calls) one check may visit, over
# all its components.  No check of a generated record needs more than 12,
# and none in the differential tests against brute force more than 57.
MAX_SEARCH_NODES = 10_000


class _Block(Frozen):
    """The eliminated quantifier "some realized profile is in witnesses"."""

    _fields = ("witnesses",)

    def __init__(self, witnesses: int):
        self.__dict__["witnesses"] = witnesses

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.witnesses == other.witnesses
        return NotImplemented

    def __hash__(self):
        return hash((self.witnesses,))


# A skeleton is True, False, or a formula over And/Or/Not/Iff whose leaves
# are atoms and blocks and which holds no Boolean constant.


def _not(a):
    if isinstance(a, bool):
        return not a
    return a.sub if isinstance(a, Not) else Not(a)


def _and(a, b):
    if a is False or b is False:
        return False
    if a is True:
        return b
    return a if b is True else And(a, b)


def _or(a, b):
    if a is True or b is True:
        return True
    if a is False:
        return b
    return a if b is False else Or(a, b)


def _iff(a, b):
    if isinstance(a, bool):
        return b if a else _not(b)
    if isinstance(b, bool):
        return a if b else _not(a)
    return Iff(a, b)


_COMBINE = {And: _and, Or: _or, Iff: _iff}


def _assign(s, values: dict):
    """The skeleton s with each leaf in values replaced by its value."""
    if isinstance(s, (Atom, _Block)):
        return values.get(s, s)
    if isinstance(s, Not):
        return _not(_assign(s.sub, values))
    return _COMBINE[type(s)](_assign(s.left, values), _assign(s.right, values))


def _leaves(s):
    """The atoms and blocks of skeleton s, left to right."""
    stack = [s]
    while stack:
        node = stack.pop()
        if isinstance(node, (Atom, _Block)):
            yield node
        elif isinstance(node, Not):
            stack.append(node.sub)
        else:
            stack += (node.right, node.left)


def _forced(s):
    """(leaf, value) for each leaf or negated leaf conjoined at the top of s."""
    stack = [s]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack += (node.right, node.left)
        elif isinstance(node, (Atom, _Block)):
            yield node, True
        elif isinstance(node, Not) and isinstance(node.sub, (Atom, _Block)):
            yield node.sub, False


class _Eliminator:
    """Quantifier elimination and skeleton search over one component's
    predicate letters."""

    def __init__(self, predicates: list[str], nodes: count):
        # nodes: numbers the search nodes of the whole check
        self.nodes = nodes
        n = 1 << len(predicates)
        self.full = (1 << n) - 1
        # masks[p]: the profiles that have predicate p, i.e. bit i of the
        # profile set; built by doubling a run of 2^i ones after 2^i zeros.
        self.masks = {}
        for i, p in enumerate(predicates):
            width = 1 << (i + 1)
            mask = ((1 << (1 << i)) - 1) << (1 << i)
            while width < n:
                mask |= mask << width
                width <<= 1
            self.masks[p] = mask

    def reduce(self, f: Formula):
        """The skeleton of f: every quantifier replaced by a block."""
        if isinstance(f, Atom):
            return f
        if isinstance(f, Not):
            return _not(self.reduce(f.sub))
        if isinstance(f, Exists):
            return self._exists(f.var, self.reduce(f.body))
        if isinstance(f, ForAll):
            return _not(self._exists(f.var, _not(self.reduce(f.body))))
        left, right = self.reduce(f.left), self.reduce(f.right)
        if isinstance(f, Implies):
            return _or(_not(left), right)
        return _COMBINE[type(f)](left, right)

    def _exists(self, var: str, body):
        if isinstance(body, bool):
            return body  # domains are non-empty
        bound = Var(var)
        leaf = next((a for a in _leaves(body) if isinstance(a, _Block) or a.term != bound), None)
        if leaf is None:
            witnesses = self._witnesses(body)
            if witnesses == 0 or witnesses == self.full:
                return witnesses != 0
            return _Block(witnesses)
        then = self._exists(var, _assign(body, {leaf: True}))
        other = self._exists(var, _assign(body, {leaf: False}))
        if then == other:
            return then
        return _or(_and(leaf, then), _and(_not(leaf), other))

    def _witnesses(self, s) -> int:
        """The profiles satisfying s, whose leaves are atoms of one variable."""
        if isinstance(s, Atom):
            return self.masks[s.pred]
        if isinstance(s, Not):
            return self.full ^ self._witnesses(s.sub)
        left, right = self._witnesses(s.left), self._witnesses(s.right)
        if isinstance(s, And):
            return left & right
        if isinstance(s, Or):
            return left | right
        return self.full ^ left ^ right

    def satisfiable(self, skeleton, excluded: int, needs: dict) -> bool:
        """Whether some realizable assignment to the skeleton's leaves makes
        it true.  excluded: the union of the false blocks' witness sets;
        needs: what the realized profiles must meet so far -- each true
        block's witness set, and per constant the profiles that match its
        ground literals."""
        if next(self.nodes) > MAX_SEARCH_NODES:
            raise UnsupportedFragmentError(
                f"satisfiability search exceeds {MAX_SEARCH_NODES} nodes"
            )
        realized = self.full & ~excluded
        if skeleton is False or not realized or not all(realized & w for w in needs.values()):
            return False
        if skeleton is True:
            return True
        # Leaves conjoined at the top have one possible value; else branch.
        forced = {}
        for leaf, value in _forced(skeleton):
            if forced.setdefault(leaf, value) != value:
                return False
        choices = [forced]
        if not forced:
            first = next(_leaves(skeleton))
            choices = [{first: True}, {first: False}]
        for values in choices:
            branch_excluded, branch_needs = excluded, dict(needs)
            for leaf, value in values.items():
                if isinstance(leaf, _Block) and not value:
                    branch_excluded |= leaf.witnesses
                elif isinstance(leaf, _Block):
                    branch_needs[leaf] = leaf.witnesses
                else:
                    mask = self.masks[leaf.pred] if value else self.full ^ self.masks[leaf.pred]
                    name = leaf.term.name
                    branch_needs[name] = branch_needs.get(name, self.full) & mask
            if self.satisfiable(_assign(skeleton, values), branch_excluded, branch_needs):
                return True
        return False


def _check_fragment(formulas: list[Formula]) -> None:
    for f in formulas:
        open_vars = free_variables(f)
        if open_vars:
            raise UnsupportedFragmentError(
                f"open formula (free variables {sorted(open_vars)}): {render_formula(f)}"
            )


def _predicate_components(formulas: list[Formula]) -> list[tuple[list[Formula], set[str]]]:
    """Group formulas whose predicate sets overlap (transitively); each
    group comes with its predicate letters.

    Without equality, a conjunction over disjoint predicate vocabularies is
    satisfiable iff each group is (shared constants do not couple groups:
    a product model combines per-group witnesses)."""
    preds = [predicates_of(f) for f in formulas]
    parent = list(range(len(formulas)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[str, int] = {}
    for i, pset in enumerate(preds):
        for p in pset:
            if p in owner:
                parent[find(i)] = find(owner[p])
            else:
                owner[p] = i
    groups: dict[int, tuple[list[Formula], set[str]]] = {}
    for i, f in enumerate(formulas):
        group, letters = groups.setdefault(find(i), ([], set()))
        group.append(f)
        letters |= preds[i]
    return list(groups.values())


def check_satisfiable(formulas: list[Formula]) -> bool:
    """True iff some structure satisfies all formulas.  Formulas must be
    closed and monadic (the AST only admits unary atoms; open formulas
    raise UnsupportedFragmentError, as does a search past
    ``MAX_SEARCH_NODES``)."""
    if not formulas:
        return True
    _check_fragment(formulas)
    nodes = count(1)
    return all(_component_satisfiable(*c, nodes) for c in _predicate_components(formulas))


def _component_satisfiable(formulas: list[Formula], letters: set[str], nodes: count) -> bool:
    predicates = sorted(letters)
    if len(predicates) > MAX_PREDICATES:
        raise UnsupportedFragmentError(
            f"{len(predicates)} distinct predicates exceed the supported bound of {MAX_PREDICATES}"
        )
    eliminator = _Eliminator(predicates, nodes)
    skeleton = True
    for f in formulas:
        skeleton = _and(skeleton, eliminator.reduce(f))
    return eliminator.satisfiable(skeleton, 0, {})


def check_entailment(premises: list[Formula], conclusion: Formula) -> bool:
    """True iff the premises deductively entail the conclusion, i.e. iff
    premises plus the negated conclusion are unsatisfiable."""
    return not check_satisfiable(list(premises) + [Not(conclusion)])
