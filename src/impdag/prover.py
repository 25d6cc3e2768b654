"""Tree proof search for purely implicational minimal logic.

``prove`` runs a terminating, contraction-free, goal-directed sequent
search (in the style of Dyckhoff's LJT restricted to implication) and
translates successful derivations into tree-like natural deductions.
Every output is re-checked against the structural checker and the
assignment semantics before being returned.

``oracle_valid`` decides the same validity question with a separate
implementation: different context representation, different traversal
order, no translation step.  In the purely implicational fragment
minimal and intuitionistic validity coincide, since no rule ever
mentions falsum.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Iterator

from .assignment import prov
from .checker import check_local_correctness
from .deduction import Deduction, Overflow, Rule, is_tree_like, lay_out
from .formula import Atom, Formula, Implication, formula_key, weight

__all__ = [
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_MAX_NODES",
    "DEFAULT_ORACLE_WEIGHT",
    "OracleBoundError",
    "ResourceLimitError",
    "family",
    "oracle_valid",
    "prove",
]

DEFAULT_MAX_DEPTH = 400
DEFAULT_MAX_NODES = 500_000
DEFAULT_ORACLE_WEIGHT = 80

# Antecedent copies in each benchmark clause; four makes tree proofs
# overtake the compressed dag by n=3 while keeping level() affordable.
_FAMILY_COPIES = 4


class ResourceLimitError(RuntimeError):
    """Search or translation exceeded its budget."""

    def __init__(self, limit: str, value: int) -> None:
        super().__init__(f"{limit} budget of {value} exceeded")
        self.limit = limit
        self.value = value


class OracleBoundError(ValueError):
    """The oracle refuses formulas above its configured weight."""


Context = tuple[Formula, ...]


@dataclass(frozen=True)
class _Step:
    """One sequent-derivation node.

    kind is axiom (goal among hypotheses), intro (goal implication moved
    left), chain (principal p -> B with atomic p already present), or
    split (principal (C -> D) -> B, two premises).
    """

    kind: str
    goal: Formula
    principal: Formula | None = None
    premises: tuple["_Step", ...] = ()


def _insert(context: Context, f: Formula) -> Context:
    if f in context:
        return context
    out = list(context)
    insort(out, f, key=formula_key)
    return tuple(out)


def _remove(context: Context, f: Formula) -> Context:
    out = list(context)
    out.remove(f)
    return tuple(out)


def _search(
    context: Context, goal: Formula, depth: int, budget: dict, memo: dict
) -> _Step | None:
    """Derivation of the sequent, or None; ``memo`` holds the sequents this
    search has already settled, whatever depth they were reached at."""
    if depth <= 0:
        raise ResourceLimitError("depth", budget["max_depth"])
    key = (context, goal)
    if key in memo:
        return memo[key]
    budget["nodes"] -= 1
    if budget["nodes"] < 0:
        raise ResourceLimitError("nodes", budget["max_nodes"])

    result: _Step | None = None
    if goal in context:
        result = _Step("axiom", goal)
    elif isinstance(goal, Implication):
        premise = _search(
            _insert(context, goal.antecedent), goal.consequent, depth - 1, budget, memo
        )
        if premise is not None:
            result = _Step("intro", goal, premises=(premise,))
    else:
        chain = next(
            (
                h
                for h in context
                if isinstance(h, Implication)
                and isinstance(h.antecedent, Atom)
                and h.antecedent in context
            ),
            None,
        )
        if chain is not None:
            reduced = _insert(_remove(context, chain), chain.consequent)
            premise = _search(reduced, goal, depth - 1, budget, memo)
            if premise is not None:
                result = _Step("chain", goal, principal=chain, premises=(premise,))
        else:
            for h in context:
                if not (isinstance(h, Implication) and isinstance(h.antecedent, Implication)):
                    continue
                rest = _remove(context, h)
                flattened = Implication(h.antecedent.consequent, h.consequent)
                minor = _search(_insert(rest, flattened), h.antecedent, depth - 1, budget, memo)
                if minor is None:
                    continue
                major = _search(_insert(rest, h.consequent), goal, depth - 1, budget, memo)
                if major is not None:
                    result = _Step("split", goal, principal=h, premises=(minor, major))
                    break
    memo[key] = result
    return result


@dataclass(frozen=True)
class _Tree:
    formula: Formula
    rule: Rule
    children: tuple["_Tree", ...] = ()


def _leaf(f: Formula) -> _Tree:
    return _Tree(f, Rule.LEAF)


def _replace(tree: _Tree, hypothesis: Formula, proof: _Tree) -> _Tree:
    """Substitute a proof for every open leaf carrying hypothesis."""
    if tree.rule is Rule.LEAF:
        return proof if tree.formula == hypothesis else tree
    children = tuple(_replace(c, hypothesis, proof) for c in tree.children)
    if children == tree.children:
        return tree
    return _Tree(tree.formula, tree.rule, children)


def _translate(step: _Step) -> _Tree:
    if step.kind == "axiom":
        return _leaf(step.goal)
    if step.kind == "intro":
        return _Tree(step.goal, Rule.I, (_translate(step.premises[0]),))
    if step.kind == "chain":
        assert step.principal is not None
        p, b = step.principal.antecedent, step.principal.consequent
        bridge = _Tree(b, Rule.E, (_leaf(p), _leaf(step.principal)))
        return _replace(_translate(step.premises[0]), b, bridge)
    assert step.kind == "split" and step.principal is not None
    head = step.principal.antecedent
    assert isinstance(head, Implication)
    b = step.principal.consequent
    flattened = Implication(head.consequent, b)
    # proof of D -> B from the principal (C -> D) -> B alone
    discharge = _Tree(
        flattened,
        Rule.I,
        (
            _Tree(
                b,
                Rule.E,
                (
                    _Tree(head, Rule.I, (_leaf(head.consequent),)),
                    _leaf(step.principal),
                ),
            ),
        ),
    )
    minor = _replace(_translate(step.premises[0]), flattened, discharge)
    bridge = _Tree(b, Rule.E, (minor, _leaf(step.principal)))
    return _replace(_translate(step.premises[1]), b, bridge)


def _expand(item: tuple[_Tree, int]):
    tree, height = item
    return tree.formula, tree.rule, height, ((c, height + 1) for c in tree.children)


def prove(
    f: Formula,
    *,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> Deduction | None:
    """Search for a tree-like deduction of ``f``; None when invalid.

    The result is deterministic for a given formula and budget, since
    each call searches with a memo of its own, and is certified before
    being returned: tree shape, local correctness, root formula,
    and the assignment criterion are all re-checked.
    """
    budget = {"nodes": max_nodes, "max_nodes": max_nodes, "max_depth": max_depth}
    step = _search((), f, max_depth, budget, {})
    if step is None:
        return None
    d = lay_out((_translate(step), 0), _expand, max_nodes)
    if isinstance(d, Overflow):
        raise ResourceLimitError("nodes", max_nodes)
    root = d.node(d.root)
    if not (
        is_tree_like(d)
        and root.formula == f
        and check_local_correctness(d).ok
        and prov(d)
    ):
        raise RuntimeError("internal error: produced deduction failed certification")
    return d


def oracle_valid(f: Formula, bound: int = DEFAULT_ORACLE_WEIGHT) -> bool:
    """Decide validity by an independent exhaustive sequent search."""
    if weight(f) > bound:
        raise OracleBoundError(f"formula weight {weight(f)} exceeds bound {bound}")

    memo: dict[tuple[frozenset[Formula], Formula], bool] = {}

    def holds(hyps: frozenset[Formula], goal: Formula) -> bool:
        while isinstance(goal, Implication):
            if goal in hyps:
                return True
            hyps = hyps | {goal.antecedent}
            goal = goal.consequent
        changed = True
        while changed:
            if goal in hyps:
                return True
            changed = False
            for h in hyps:
                if (
                    isinstance(h, Implication)
                    and isinstance(h.antecedent, Atom)
                    and h.antecedent in hyps
                ):
                    hyps = (hyps - {h}) | {h.consequent}
                    changed = True
                    break
        key = (hyps, goal)
        if key in memo:
            return memo[key]
        answer = False
        for h in sorted(hyps, key=formula_key, reverse=True):
            if not (isinstance(h, Implication) and isinstance(h.antecedent, Implication)):
                continue
            rest = hyps - {h}
            nested = Implication(h.antecedent.consequent, h.consequent)
            if holds(rest | {nested}, h.antecedent) and holds(rest | {h.consequent}, goal):
                answer = True
                break
        memo[key] = answer
        return answer

    return holds(frozenset(), f)


def family(n: int) -> Formula:
    """Benchmark formula number ``n``.

    Over atoms p1 .. p(n+1), clause i is pi -> (pi -> (pi -> (pi ->
    p(i+1)))), and the formula reads clause 1 -> (... -> (clause n ->
    (p1 -> p(n+1)))).  Deriving each p(i+1) spends the clause four
    times on the same premise, so tree proofs repeat whole subproofs
    and level after level of a compressed proof collapses to one node
    per formula.  The definition is fixed; weights grow linearly
    (10n + 3).
    """
    if n < 1:
        raise ValueError("family is defined for n >= 1")
    atoms = [Atom(f"p{i}") for i in range(1, n + 2)]
    body: Formula = Implication(atoms[0], atoms[n])
    for i in reversed(range(n)):
        clause: Formula = atoms[i + 1]
        for _ in range(_FAMILY_COPIES):
            clause = Implication(atoms[i], clause)
        body = Implication(clause, body)
    return body
