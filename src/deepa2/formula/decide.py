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

The skeleton is not built from formula nodes but from plain tuples, tagged
with the connective they stand for: ``("not", s)``, ``("&", a, b)``,
``("v", a, b)`` and ``("<->", a, b)``, over the parsed atoms and blocks
``("block", W)``.  Building a tuple takes no hash, and a search node
rebuilds the skeleton with its leaves' values substituted.  A formula set is
conjoined as a balanced tree, so the skeleton stays shallow however many
formulas the set holds.

Both halves can take exponentially many steps.  Elimination splits a body
on each outer leaf in turn, in every branch of the split before, so k outer
leaves take up to 2^k splits.  The search branches on one leaf at a time and
learns nothing from a failed branch, so a long premise list of disjunctions
can take exponentially many nodes.  Splits and search nodes count on one
budget per check; a check that would take more than ``MAX_SEARCH_NODES``
raises ``UnsupportedFragmentError`` instead: a count, not a clock, so every
verdict is reproducible.  Both halves also recurse, once per nested split
and once per search node on the current branch, and a check that would go
deeper than ``MAX_SEARCH_DEPTH`` levels is refused the same way.
"""

from __future__ import annotations

from itertools import count

from deepa2.errors import UnsupportedFragmentError
from deepa2.formula.syntax import (
    Atom,
    Exists,
    ForAll,
    Formula,
    Implies,
    Not,
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

# Nodes one check may visit over all its components: search nodes
# (``_Eliminator.satisfiable`` calls) and elimination splits.  No check made
# while generating 1 800 records needs more than 7, and none in the tests'
# differential checks against brute force and nested families more than 87.
MAX_SEARCH_NODES = 10_000

# Levels one check may recurse: search nodes on one branch of the search, or
# nested Shannon splits of one quantifier.  Each level is a Python frame, and
# n nested splits build a skeleton about 2n deep, which every later step
# walks recursively.  At this bound the deepest check found (a quantifier
# over 100 blocks, nested in a formula) leaves about 750 of the default 1 000
# frames to its caller; at 400 it left 160.  A search goes about one level
# deeper per disjunctive premise, so no argument of a realistic size comes
# near it.
MAX_SEARCH_DEPTH = 100


# A skeleton is True, False, or a tuple tree (see the module docstring) that
# holds no Boolean constant.


def _is_leaf(s) -> bool:
    return s.__class__ is not tuple or s[0] == "block"


def _not(a):
    if isinstance(a, bool):
        return not a
    return a[1] if a.__class__ is tuple and a[0] == "not" else ("not", a)


def _and(a, b):
    if a is False or b is False:
        return False
    if a is True:
        return b
    return a if b is True else ("&", a, b)


def _or(a, b):
    if a is True or b is True:
        return True
    if a is False:
        return b
    return a if b is False else ("v", a, b)


def _iff(a, b):
    if isinstance(a, bool):
        return b if a else _not(b)
    if isinstance(b, bool):
        return a if b else _not(a)
    return ("<->", a, b)


_COMBINE = {"&": _and, "v": _or, "<->": _iff}


def _assign(s, values: dict):
    """The skeleton s with each leaf in values replaced by its value."""
    if _is_leaf(s):
        return values.get(s, s)
    if s[0] == "not":
        return _not(_assign(s[1], values))
    return _COMBINE[s[0]](_assign(s[1], values), _assign(s[2], values))


def _leaves(s):
    """The atoms and blocks of skeleton s, left to right."""
    stack = [s]
    while stack:
        node = stack.pop()
        if _is_leaf(node):
            yield node
        else:
            stack += node[:0:-1]  # its operands, right to left


def _forced(s):
    """(leaf, value) for each leaf or negated leaf conjoined at the top of s."""
    stack = [s]
    while stack:
        node = stack.pop()
        if _is_leaf(node):
            yield node, True
        elif node[0] == "&":
            stack += (node[2], node[1])
        elif node[0] == "not" and _is_leaf(node[1]):
            yield node[1], False


class _Eliminator:
    """Quantifier elimination and skeleton search over one component's
    predicate letters."""

    def __init__(self, predicates: list[str], nodes: count):
        # nodes: numbers the nodes of the whole check
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
        return _COMBINE[f.symbol](left, right)

    def _exists(self, var: str, body, depth: int = 1):
        if isinstance(body, bool):
            return body  # domains are non-empty
        bound = Var(var)
        leaf = next((a for a in _leaves(body) if a.__class__ is tuple or a.term != bound), None)
        if leaf is None:
            witnesses = self._witnesses(body)
            if witnesses == 0 or witnesses == self.full:
                return witnesses != 0
            return ("block", witnesses)
        self._count("quantifier elimination", depth)
        then = self._exists(var, _assign(body, {leaf: True}), depth + 1)
        other = self._exists(var, _assign(body, {leaf: False}), depth + 1)
        if then == other:
            return then
        return _or(_and(leaf, then), _and(_not(leaf), other))

    def _count(self, what: str, depth: int) -> None:
        """Count one node of the check, at recursion level depth; past either
        bound, refuse the check."""
        if next(self.nodes) > MAX_SEARCH_NODES:
            raise UnsupportedFragmentError(f"{what} exceeds {MAX_SEARCH_NODES} nodes")
        if depth > MAX_SEARCH_DEPTH:
            raise UnsupportedFragmentError(f"{what} exceeds {MAX_SEARCH_DEPTH} levels")

    def _witnesses(self, s) -> int:
        """The profiles satisfying s, whose leaves are atoms of one variable."""
        if s.__class__ is not tuple:
            return self.masks[s.pred]
        if s[0] == "not":
            return self.full ^ self._witnesses(s[1])
        left, right = self._witnesses(s[1]), self._witnesses(s[2])
        if s[0] == "&":
            return left & right
        if s[0] == "v":
            return left | right
        return self.full ^ left ^ right

    def satisfiable(self, skeleton, excluded: int, needs: dict, depth: int = 1) -> bool:
        """Whether some realizable assignment to the skeleton's leaves makes
        it true.  excluded: the union of the false blocks' witness sets;
        needs: what the realized profiles must meet so far -- each true
        block's witness set, and per constant the profiles that match its
        ground literals."""
        self._count("satisfiability search", depth)
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
                if leaf.__class__ is tuple and not value:
                    branch_excluded |= leaf[1]
                elif leaf.__class__ is tuple:
                    branch_needs[leaf] = leaf[1]
                else:
                    mask = self.masks[leaf.pred] if value else self.full ^ self.masks[leaf.pred]
                    name = leaf.term.name
                    branch_needs[name] = branch_needs.get(name, self.full) & mask
            if self.satisfiable(
                _assign(skeleton, values), branch_excluded, branch_needs, depth + 1
            ):
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
    skeleton = _conjoin([eliminator.reduce(f) for f in formulas])
    return eliminator.satisfiable(skeleton, 0, {})


def _conjoin(skeletons: list):
    """The conjunction of skeletons as a balanced tree with its leaves in
    order, so its depth grows with the logarithm of their number."""
    if len(skeletons) == 1:
        return skeletons[0]
    middle = len(skeletons) // 2
    return _and(_conjoin(skeletons[:middle]), _conjoin(skeletons[middle:]))


def check_entailment(premises: list[Formula], conclusion: Formula) -> bool:
    """True iff the premises deductively entail the conclusion, i.e. iff
    premises plus the negated conclusion are unsatisfiable."""
    return not check_satisfiable(list(premises) + [Not(conclusion)])
