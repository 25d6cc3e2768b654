"""Formula-set assignment over deductions and the provability checks built
on it.

Every node x gets a term A(x): a leaf contributes the singleton of its own
formula, a repetition passes its child's term through, an introduction of
a -> b subtracts a from the child's term, an elimination unions its premise
terms, and a separation combines its branch terms disjunctively. For
separation-free deductions the terms evaluate to plain formula sets and

    the deduction proves its root formula  iff  A(root) = ∅.

A deduction with separation nodes instead needs a branch commitment. The
commitment is per edge: each parent arriving at a separation node picks one
branch, so a shared separation node may serve different branches to
different parents (the tree-unfolded picture resolves each occurrence on
its own). ``search_choice`` looks for a commitment making the root value
empty by exhaustive backtracking, which is exponential in the number of
separation edges in the worst case; no attempt is made to do better.

``prov1`` is an independent reachability formulation used to cross-check
``prov``: a leaf stands discharged exactly when every downward path to it
crosses an introduction edge discharging its formula, so pruning those
edges and testing reachability decides the same property without building
any formula sets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import IO, Union as TypingUnion

from .deduction import Deduction, FormatError, Node, Rule, read_json, write_json
from .formula import Formula, Implication, formula_key, is_implication

__all__ = [
    "SepValue",
    "Value",
    "Choice",
    "ChoiceError",
    "SeparationPresentError",
    "evaluate_symbolic",
    "evaluate",
    "prov",
    "prov1",
    "search_choice",
    "union_values",
    "minus_value",
    "load_choice",
    "save_choice",
]


class SeparationPresentError(ValueError):
    """Raised by the deterministic checks when the dag has separation
    nodes; those need `search_choice`."""


class ChoiceError(ValueError):
    """A branch commitment is missing or out of range for some edge."""


Choice = dict[tuple[int, int], int]


SetValue = frozenset  # of Formula


@dataclass(frozen=True)
class SepValue:
    """A separation combination whose branches are themselves values."""

    node: int
    branches: tuple["Value", ...]


Value = TypingUnion[SetValue, SepValue]


def union_values(v: Value, w: Value) -> Value:
    """Set union, distributed through separation combinations; when both
    sides are combinations the left one is pushed outward first."""
    if isinstance(v, SepValue):
        return SepValue(v.node, tuple(union_values(b, w) for b in v.branches))
    if isinstance(w, SepValue):
        return SepValue(w.node, tuple(union_values(v, b) for b in w.branches))
    return v | w


def minus_value(v: Value, removed: Formula) -> Value:
    if isinstance(v, SepValue):
        return SepValue(v.node, tuple(minus_value(b, removed) for b in v.branches))
    return v - {removed}


def evaluate_symbolic(d: Deduction) -> dict[int, Value]:
    """Value of every node with separation combinations kept symbolic.

    Unions and subtractions distribute through the combinations, so each
    value is either a plain formula set or a combination of such values.
    """
    vals: dict[int, Value] = {}
    for n in _by_descending_height(d):
        if n.rule is Rule.LEAF:
            vals[n.id] = frozenset((n.formula,))
        elif n.rule is Rule.R:
            vals[n.id] = vals[n.children[0]]
        elif n.rule is Rule.I:
            vals[n.id] = minus_value(vals[n.children[0]], _discharged(n))
        elif n.rule is Rule.E:
            minor, major = _premises(d, n)
            vals[n.id] = union_values(vals[minor], vals[major])
        else:
            vals[n.id] = SepValue(n.id, tuple(vals[c] for c in n.children))
    return vals


def evaluate(d: Deduction, choice: Choice) -> dict[int, SetValue]:
    """Concrete per-node formula sets under a branch commitment.

    Separation nodes carry no value of their own; each parent reads the
    branch the commitment picks for its edge, so the result maps every
    non-separation node to a set. The commitment must cover every edge
    into a separation node; entries for other keys are ignored.
    """
    vals: dict[int, SetValue] = {}

    def resolve(parent: Node, child_id: int) -> SetValue:
        child = d.node(child_id)
        if child.rule is not Rule.S:
            return vals[child_id]
        key = (parent.id, child_id)
        if key not in choice:
            raise ChoiceError(f"no branch chosen for edge {key}")
        index = choice[key]
        if not 1 <= index <= len(child.children):
            raise ChoiceError(
                f"edge {key}: branch {index} out of range 1..{len(child.children)}"
            )
        branch = d.node(child.children[index - 1])
        if branch.rule is Rule.S:
            raise ValueError(f"separation node {branch.id} directly under {child_id}")
        return vals[branch.id]

    for n in _by_descending_height(d):
        if n.rule is Rule.S:
            continue
        if n.rule is Rule.LEAF:
            vals[n.id] = frozenset((n.formula,))
        elif n.rule is Rule.R:
            vals[n.id] = resolve(n, n.children[0])
        elif n.rule is Rule.I:
            vals[n.id] = resolve(n, n.children[0]) - {_discharged(n)}
        else:
            minor, major = _premises(d, n)
            vals[n.id] = resolve(n, minor) | resolve(n, major)
    return vals


def prov(d: Deduction) -> bool:
    """Deterministic provability for separation-free dags: empty root value."""
    _reject_separation(d)
    return evaluate(d, {})[d.root] == frozenset()


def prov1(d: Deduction) -> bool:
    """Provability by reachability, separation-free dags only.

    For each leaf formula, remove every introduction edge discharging that
    formula; the dag proves its root exactly when no leaf of that formula
    stays reachable from the root, for every leaf formula in turn. Leaves
    sharing a formula share one pruned subgraph, so the work is one
    traversal per distinct leaf formula.
    """
    _reject_separation(d)
    leaf_formulas = {n.formula for n in d.nodes.values() if n.rule is Rule.LEAF}
    for phi in sorted(leaf_formulas, key=formula_key):
        reached = _reach_without_discharge(d, phi)
        for x in reached:
            n = d.node(x)
            if n.rule is Rule.LEAF and n.formula == phi:
                return False
    return True


def _reach_without_discharge(d: Deduction, phi: Formula) -> set[int]:
    seen = {d.root}
    queue = deque((d.root,))
    while queue:
        n = d.node(queue.popleft())
        for c in n.children:
            if n.rule is Rule.I and is_implication(n.formula, phi, d.node(c).formula):
                continue
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return seen


def search_choice(d: Deduction) -> Choice | None:
    """Least branch commitment emptying the root value, if any.

    Edges into separation nodes are ordered by breadth-first discovery
    from the root; branch indices are tried ascending, so the first hit is
    the lexicographically least certificate in that edge order. A dag
    rooted at a separation node has no edge selecting its branches and
    never evaluates to a set, so the answer there is always none.
    """
    if d.node(d.root).rule is Rule.S:
        return None
    edges = _separation_edges(d)
    if not edges:
        return {} if evaluate(d, {})[d.root] == frozenset() else None
    arities = [len(d.node(s).children) for _, s in edges]
    indices = [1] * len(edges)
    while True:
        choice = dict(zip(edges, indices))
        if evaluate(d, choice)[d.root] == frozenset():
            return choice
        pos = len(indices) - 1
        while pos >= 0 and indices[pos] == arities[pos]:
            indices[pos] = 1
            pos -= 1
        if pos < 0:
            return None
        indices[pos] += 1


def _separation_edges(d: Deduction) -> list[tuple[int, int]]:
    edges: list[tuple[int, int]] = []
    seen = {d.root}
    queue = deque((d.root,))
    while queue:
        n = d.node(queue.popleft())
        for c in n.children:
            if d.node(c).rule is Rule.S and (n.id, c) not in edges:
                edges.append((n.id, c))
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return edges


def _by_descending_height(d: Deduction):
    return sorted(d.nodes.values(), key=lambda n: (-n.height, n.id))


def _discharged(n: Node) -> Formula:
    if not isinstance(n.formula, Implication):
        raise ValueError(f"introduction node {n.id} concludes a non-implication")
    return n.formula.antecedent


def _premises(d: Deduction, n: Node) -> tuple[int, int]:
    """Premise ids of an elimination as (minor, major)."""
    y, z = n.children
    if is_implication(d.node(z).formula, d.node(y).formula, n.formula):
        return y, z
    if is_implication(d.node(y).formula, d.node(z).formula, n.formula):
        return z, y
    raise ValueError(f"elimination node {n.id} has no major premise")


def _reject_separation(d: Deduction) -> None:
    for n in d.nodes.values():
        if n.rule is Rule.S:
            raise SeparationPresentError(
                f"node {n.id} is a separation node; use search_choice"
            )


def load_choice(source: str | IO[str]) -> Choice:
    """Read a branch commitment: a JSON list of objects with integer
    fields parent, sep, index."""
    obj = read_json(source)
    if not isinstance(obj, list):
        raise FormatError("choice document must be a list")
    choice: Choice = {}
    for i, entry in enumerate(obj):
        if not isinstance(entry, dict) or set(entry) != {"parent", "sep", "index"}:
            raise FormatError(f"entry {i}: expected keys parent, sep, index")
        values = [entry["parent"], entry["sep"], entry["index"]]
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
            raise FormatError(f"entry {i}: fields must be integers")
        parent, sep, index = values
        if index < 1:
            raise FormatError(f"entry {i}: index must be at least 1")
        if (parent, sep) in choice:
            raise FormatError(f"entry {i}: duplicate edge ({parent}, {sep})")
        choice[(parent, sep)] = index
    return choice


def save_choice(choice: Choice, target: str | IO[str]) -> None:
    entries = [
        {"parent": parent, "sep": sep, "index": index}
        for (parent, sep), index in sorted(choice.items())
    ]
    write_json(entries, target)
