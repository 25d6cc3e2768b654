"""``prove``, whose search returns shared proofs, against the search and
translation it replaced: a search that returns derivation steps, and a
translation that rebuilds the proof of a step at every occurrence."""

from __future__ import annotations

import sys
from bisect import insort
from dataclasses import dataclass

import pytest

from impdag.deduction import Overflow, Rule, lay_out, to_dict
from impdag.formula import Atom, Formula, Implication, formula_key, parse_infix
from impdag.gen import enumerate_formulas
import impdag.prover as prover
from impdag.prover import DEFAULT_MAX_DEPTH, DEFAULT_MAX_NODES, ResourceLimitError, family, prove

from test_acceptance import CORPUS

S_COMBINATOR = "(a -> b -> g) -> (a -> b) -> a -> g"
PEIRCE = "((a -> b) -> a) -> a"
# Proofs in which one substitution meets two different subproofs of the
# same formula, so a rewrite keyed by formula instead of by subtree fails.
SAME_FORMULA_SUBPROOFS = [
    "((((a -> a) -> b -> a) -> b -> a) -> b) -> b",
    "((a -> a -> b) -> a) -> (a -> (b -> a) -> b) -> a",
    "(c -> c -> b) -> ((b -> b) -> (c -> b) -> c) -> b",
]
# Proofs that substitute the same hypothesis at two nested levels, so the
# inner substitution must shadow the outer one.
NESTED_SAME_HYPOTHESIS = [
    "((((a -> a) -> a) -> a) -> a) -> a",
    "((c -> b) -> d -> a) -> (a -> c) -> (b -> b) -> d -> (d -> b) -> c",
]


@dataclass(frozen=True)
class _Step:
    kind: str
    goal: Formula
    principal: Formula | None = None
    premises: tuple["_Step", ...] = ()


def _insert(context, f):
    if f in context:
        return context
    out = list(context)
    insort(out, f, key=formula_key)
    return tuple(out)


def _remove(context, f):
    out = list(context)
    out.remove(f)
    return tuple(out)


def _search(context, goal, depth, budget, memo):
    if depth <= 0:
        raise ResourceLimitError("depth", budget["max_depth"])
    key = (context, goal)
    if key in memo:
        return memo[key]
    budget["nodes"] -= 1
    if budget["nodes"] < 0:
        raise ResourceLimitError("nodes", budget["max_nodes"])

    result = None
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


def _leaf(f):
    return _Tree(f, Rule.LEAF)


def _replace(tree, hypothesis, proof):
    if tree.rule is Rule.LEAF:
        return proof if tree.formula == hypothesis else tree
    children = tuple(_replace(c, hypothesis, proof) for c in tree.children)
    if children == tree.children:
        return tree
    return _Tree(tree.formula, tree.rule, children)


def _translate(step):
    if step.kind == "axiom":
        return _leaf(step.goal)
    if step.kind == "intro":
        return _Tree(step.goal, Rule.I, (_translate(step.premises[0]),))
    if step.kind == "chain":
        p, b = step.principal.antecedent, step.principal.consequent
        bridge = _Tree(b, Rule.E, (_leaf(p), _leaf(step.principal)))
        return _replace(_translate(step.premises[0]), b, bridge)
    head = step.principal.antecedent
    b = step.principal.consequent
    flattened = Implication(head.consequent, b)
    discharge = _Tree(
        flattened,
        Rule.I,
        (
            _Tree(
                b,
                Rule.E,
                (_Tree(head, Rule.I, (_leaf(head.consequent),)), _leaf(step.principal)),
            ),
        ),
    )
    minor = _replace(_translate(step.premises[0]), flattened, discharge)
    bridge = _Tree(b, Rule.E, (minor, _leaf(step.principal)))
    return _replace(_translate(step.premises[1]), b, bridge)


def _expand(item, depth):
    tree, height = item
    return tree.formula, tree.rule, height, ((c, height + 1) for c in tree.children)


def reference_search(f, max_depth, max_nodes):
    """The derivation of ``f`` (or None) and the search nodes it spent."""
    budget = {"nodes": max_nodes, "max_nodes": max_nodes, "max_depth": max_depth}
    step = _search((), f, max_depth, budget, {})
    return step, max_nodes - budget["nodes"]


def reference_prove(f, max_depth=DEFAULT_MAX_DEPTH, max_nodes=DEFAULT_MAX_NODES):
    step, _ = reference_search(f, max_depth, max_nodes)
    if step is None:
        return None
    # _replace compares rebuilt children with the old ones by value, which
    # recurses down to the replaced leaf: deeper than the test runner leaves
    # room for on the longest chain
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2000)
    try:
        tree = _translate(step)
    finally:
        sys.setrecursionlimit(limit)
    d = lay_out((tree, 0), _expand, max_nodes)
    if isinstance(d, Overflow):
        raise ResourceLimitError("nodes", max_nodes)
    return d


def outcome(prover, f, **budgets):
    """The proof as a dict, None, or the limit and text of the error."""
    try:
        d = prover(f, **budgets)
    except ResourceLimitError as exc:
        return ("limit", exc.limit, str(exc))
    return None if d is None else to_dict(d)


def chain(k):
    """p1 -> (p1 -> p2) -> ... -> (pk -> p(k+1)) -> p(k+1)."""
    atoms = [Atom(f"p{i}") for i in range(1, k + 2)]
    f = atoms[k]
    for i in reversed(range(k)):
        f = Implication(Implication(atoms[i], atoms[i + 1]), f)
    return Implication(atoms[0], f)


def formulas():
    texts = CORPUS + [PEIRCE] + SAME_FORMULA_SUBPROOFS + NESTED_SAME_HYPOTHESIS
    out = [parse_infix(t) for t in texts]
    out += [family(n) for n in range(1, 8)]
    out += enumerate_formulas(9, ("a", "b")) + enumerate_formulas(7, ("a", "b", "c"))
    out += [chain(k) for k in (190, 199, 250)]
    return list(dict.fromkeys(out))


def test_prove_matches_the_step_translation():
    seen = {"proof": 0, "invalid": 0, "limit": 0}
    for f in formulas():
        want = outcome(reference_prove, f)
        assert outcome(prove, f) == want, f
        seen["proof" if isinstance(want, dict) else "invalid" if want is None else "limit"] += 1
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("text", [S_COMBINATOR, "family(3)"])
def test_node_budget_boundary_matches(text, monkeypatch):
    f = family(3) if text == "family(3)" else parse_infix(text)
    _, searched = reference_search(f, DEFAULT_MAX_DEPTH, DEFAULT_MAX_NODES)
    least = max(searched, len(reference_prove(f).nodes))
    for max_nodes, fits in ((least - 1, False), (least, True)):
        want = outcome(reference_prove, f, max_nodes=max_nodes)
        monkeypatch.setattr(prover, "DEFAULT_MAX_NODES", max_nodes)
        assert outcome(prove, f) == want
        assert isinstance(want, dict) == fits
