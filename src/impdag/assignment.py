"""Formula-set assignment over deductions and the provability checks built
on it.

Every node x gets a value A(x), a set of leaf formulas: a leaf contributes
the singleton of its own formula, a repetition passes its child's value
through, an introduction of a -> b subtracts a from its premise's value
when the premise concludes b (and nothing otherwise), and an elimination
unions its premise values. For separation-free deductions

    the deduction proves its root formula  iff  A(root) = ∅.

A separation node reads its premises disjunctively, so it has no value of
its own: values are taken per branch commitment. The commitment is per
edge: each parent arriving at a separation node picks one branch and reads
that branch's value, so a shared separation node may serve different
branches to different parents (the tree-unfolded picture resolves each
occurrence on its own). ``search_choice`` looks for a commitment making
the root value empty by depth-first backtracking over the edges (Davis,
Logemann and Loveland, 1962), their parents in the breadth-first numbering
that ``canonical`` gives. It abandons a partial commitment as soon as the
root value is non-empty with every undecided edge read as ∅: deciding an
edge only adds paths to leaves, so that value is contained in the value of
every completion, and no certificate is cut off. The search stays
exponential in the number of separation edges in the worst case; deciding
whether a certificate exists is PSPACE-hard in general (Statman, 1979).

``evaluate``, ``prov`` and the search share one evaluation core: the dag is
compiled once per call into steps over bit sets of leaf formulas, with the
node order, premises and discharged formulas worked out, and per commitment
only the nodes above a separation edge are evaluated again.

``prov1`` is an independent reachability formulation used to cross-check
``prov``: a leaf stands discharged exactly when every downward path to it
crosses an introduction edge discharging its formula, so pruning those
edges and testing reachability decides the same property without building
any formula sets.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import IO

from .deduction import Deduction, FormatError, Rule, _require_local_correctness
from .deduction import canonical_map, read_json, write_json
from .formula import Formula, formula_key

__all__ = [
    "Choice",
    "ChoiceError",
    "SeparationPresentError",
    "evaluate",
    "prov",
    "prov1",
    "search_choice",
    "load_choice",
    "save_choice",
]


class SeparationPresentError(ValueError):
    """Raised by the deterministic checks when the dag has separation
    nodes; those need `search_choice`."""


class ChoiceError(ValueError):
    """A branch commitment is missing or out of range for some edge."""


Choice = dict[tuple[int, int], int]


def evaluate(d: Deduction, choice: Choice) -> dict[int, frozenset[Formula]]:
    """Concrete per-node formula sets under a branch commitment.

    Separation nodes carry no value of their own; each parent reads the
    branch the commitment picks for its edge, so the result maps every
    non-separation node to a set. The commitment must cover every edge
    into a separation node; entries for other keys are ignored.
    """
    _require_local_correctness(d)
    program = _Program(d)
    picks = [
        branches[_committed_branch(choice, key, len(branches)) - 1]
        for key, branches in zip(program.edges, program.branches)
    ]
    sets: dict[int, frozenset[Formula]] = {}
    vals = {}
    for x, bits in zip(program.ids, program.run(picks)[1:]):
        if bits not in sets:
            sets[bits] = frozenset(f for k, f in enumerate(program.formulas) if bits >> k & 1)
        vals[x] = sets[bits]
    return vals


def _committed_branch(choice: Choice, key: tuple[int, int], count: int) -> int:
    """The branch index that ``choice`` commits edge ``key`` to, one of the
    ``count`` branches of its separation node; raises ChoiceError otherwise."""
    if key not in choice:
        raise ChoiceError(f"no branch chosen for edge {key}")
    index = choice[key]
    if not 1 <= index <= count:
        raise ChoiceError(f"edge {key}: branch {index} out of range 1..{count}")
    return index


def prov(d: Deduction) -> bool:
    """Deterministic provability for separation-free dags: empty root value."""
    _require_local_correctness(d)
    _reject_separation(d)
    return not _Program(d).base[-1]


def prov1(d: Deduction) -> bool:
    """Provability by reachability, separation-free dags only.

    For each leaf formula, remove every introduction edge discharging that
    formula; the dag proves its root exactly when no leaf of that formula
    stays reachable from the root, for every leaf formula in turn. Leaves
    sharing a formula share one pruned subgraph, so the work is one
    traversal per distinct leaf formula.
    """
    _require_local_correctness(d)
    _reject_separation(d)
    LEAF = Rule.LEAF
    leaf_formulas = {n.formula for n in d.nodes.values() if n.rule is LEAF}
    for phi in sorted(leaf_formulas, key=formula_key):
        for x in _reach_without_discharge(d, phi):
            n = d.node(x)
            if n.rule is LEAF and n.formula == phi:
                return False
    return True


def _reach_without_discharge(d: Deduction, phi: Formula) -> set[int]:
    seen, queue, I = {d.root}, deque((d.root,)), Rule.I  # noqa: E741
    while queue:
        n = d.node(queue.popleft())
        if n.rule is I and n.formula.antecedent is phi:
            continue
        for c in n.children:
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return seen


def search_choice(d: Deduction) -> Choice | None:
    """Least branch commitment emptying the root value, if any.

    Edges into separation nodes are ordered by the breadth-first numbering
    of their parents (``canonical_map``), children in stored order, and
    decided in that order, branch indices ascending, so the first hit is
    the lexicographically least certificate in that edge order. A partial
    commitment is abandoned as soon as the root value is non-empty with
    the undecided edges read as ∅; that value is a lower bound for every
    completion, so the answer is the one trying every commitment in order
    would give. A dag rooted at a separation node has no edge selecting
    its branches and never evaluates to a set, so the answer there is
    always none. A locally incorrect ``d`` raises LocalCorrectnessError
    before any commitment is tried, whatever the commitments would be.
    """
    _require_local_correctness(d)
    if d.node(d.root).rule is Rule.S:
        return None
    program = _Program(d)
    edges = program.edges
    rank = canonical_map(d)  # parents breadth first, then children in stored order
    keys = sorted((rank[p], d.nodes[p].children.index(s), e) for e, (p, s) in enumerate(edges))
    order = [e for _, _, e in keys]
    picks = [0] * len(edges)
    tried = [0] * len(order)  # per depth, the 1-based branch picked last
    if program.base[-1]:
        return None
    depth = 0
    while depth < len(order):
        e = order[depth]
        branches = program.branches[e]
        if tried[depth] == len(branches):
            tried[depth] = picks[e] = 0
            depth -= 1
            if depth < 0:
                return None
            continue
        picks[e] = branches[tried[depth]]
        tried[depth] += 1
        if not program.run(picks)[-1]:
            depth += 1
    return {edges[e]: index for e, index in zip(order, tried)}


class _Program:
    """The concrete evaluation of a dag, worked out once per call.

    Values are bit sets: bit k stands for ``formulas[k]``. Slot 0 always
    holds ∅, and slot i holds the value of node ``ids[i - 1]``. The ids are
    the non-separation nodes in descending height order, so children come
    before their parents, and the root comes last unless it is a separation
    node. ``base`` holds the slot values with every separation edge read as
    ∅. Edge e is the (parent, separation node) pair ``edges[e]``; the edges
    are listed in the order evaluation reads them, and ``branches[e]``
    holds the slots of the branches the edge can pick. The nodes whose
    value depends on some edge are recomputed per commitment, in order, by
    the steps ``(slot, drop, reads, edge_reads)``: the value is
    ``(reads | edge_reads) & ~drop``, where ``reads`` are the slots of the
    children that are not separation nodes and ``edge_reads`` the node's
    edges into separation nodes. A leaf depends on no edge.
    """

    __slots__ = ("ids", "base", "formulas", "edges", "branches", "steps")

    def __init__(self, d: Deduction) -> None:
        """Compile ``d``, which the caller has found locally correct."""
        nodes = d.nodes
        slot: dict[int, int] = {}
        bits: dict[Formula, int] = {}
        varies = [False]  # per slot: does the value depend on some edge?
        self.ids: list[int] = []
        self.base: list[int] = [0]
        self.formulas: list[Formula] = []
        self.edges: list[tuple[int, int]] = []
        self.branches: list[tuple[int, ...]] = []
        self.steps: list[tuple[int, int, tuple[int, ...], tuple[int, ...]]] = []
        ids, vals, formulas, edges = self.ids, self.base, self.formulas, self.edges
        order = sorted(nodes.values(), key=attrgetter("id"))
        order.sort(key=attrgetter("height"), reverse=True)  # stable: ids stay ascending
        LEAF, I, S = Rule.LEAF, Rule.I, Rule.S  # noqa: E741
        for n in order:
            rule = n.rule
            if rule is S:
                continue
            ids.append(n.id)
            slot[n.id] = len(ids)
            if rule is LEAF:
                value = bits.get(n.formula)
                if value is None:
                    value = bits[n.formula] = 1 << len(formulas)
                    formulas.append(n.formula)
                vals.append(value)
                varies.append(False)
                continue
            value = drop = 0
            changes = False
            reads, edge_reads = [], []
            for c in n.children:
                child = nodes[c]
                if child.rule is not S:
                    r = slot[c]
                    reads.append(r)
                    value |= vals[r]
                    changes = changes or varies[r]
                    continue
                edge_reads.append(len(edges))
                edges.append((n.id, c))
                self.branches.append(tuple(slot[b] for b in child.children))
                changes = True
            if rule is I:
                # Leaves below come first, so an antecedent without a bit yet
                # is no leaf formula of the child's value.
                drop = bits.get(n.formula.antecedent, 0)
            vals.append(value & ~drop)
            varies.append(changes)
            if changes:
                self.steps.append((len(ids), drop, tuple(reads), tuple(edge_reads)))

    def run(self, picks: list[int]) -> list[int]:
        """Slot values when edge e reads slot ``picks[e]``; slot 0 reads ∅."""
        vals = self.base.copy()
        for slot, drop, reads, edge_reads in self.steps:
            value = 0
            for r in reads:
                value |= vals[r]
            for e in edge_reads:
                value |= vals[picks[e]]
            vals[slot] = value & ~drop
        return vals


def _reject_separation(d: Deduction) -> None:
    """Raise SeparationPresentError naming the least separation node id, if any."""
    S = Rule.S
    separations = [n.id for n in d.nodes.values() if n.rule is S]
    if separations:
        raise SeparationPresentError(
            f"node {min(separations)} is a separation node; use search_choice"
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
