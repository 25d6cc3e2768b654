"""Leveled deduction dags.

A deduction is a rooted dag whose nodes carry a formula, a rule name and a
height. Edges run from a conclusion to its premises: the root sits at
height 0 and every child is exactly one level above its parent. Rule names:

* ``LEAF``  an assumption, no children;
* ``R``     repetition, one child with the same formula;
* ``I``     implication introduction, one child, the node formula adds an
            antecedent to the child formula (that antecedent is discharged);
* ``E``     implication elimination, two children, minor premise first and
            major premise second, major = minor -> conclusion;
* ``S``     separation, two or more children that all repeat the node
            formula and are read disjunctively.

A thread is a maximal root-to-leaf chain. A thread is closed when some I
node on it discharges the formula of the thread's leaf; the dag proves its
root formula when every thread is closed.

Trees are numbered 1..n breadth first by ``lay_out`` as they are grown;
an existing dag is renumbered the same way by ``canonical``.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import IO, Callable, Iterable, Mapping

from .formula import Formula, FormulaSyntaxError, is_implication, parse_infix, to_infix

__all__ = [
    "Rule",
    "Node",
    "Deduction",
    "Overflow",
    "StructureError",
    "FormatError",
    "Thread",
    "build",
    "threads",
    "is_closed",
    "proves_by_threads",
    "is_tree_like",
    "lay_out",
    "canonical",
    "canonical_map",
    "renumber",
    "to_dict",
    "from_dict",
    "load_deduction",
    "save_deduction",
    "read_text",
    "read_json",
    "write_text",
    "write_json",
    "DEFAULT_THREAD_CAP",
]

DEFAULT_THREAD_CAP = 100_000

Thread = tuple[int, ...]


class Rule(Enum):
    LEAF = "LEAF"
    R = "R"
    I = "I"  # noqa: E741
    E = "E"
    S = "S"

    # Members are singletons, so identity hashing is exact, and it runs no
    # Python code per lookup as Enum.__hash__ does.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Node:
    id: int
    formula: Formula
    rule: Rule
    height: int
    children: tuple[int, ...] = ()


@dataclass(frozen=True)
class Overflow:
    """First-class result for enumerations that exceeded their cap."""

    cap: int


class StructureError(ValueError):
    """A node set that does not form a leveled rooted dag.

    ``violations`` holds (node id or None, message) pairs, one per broken
    invariant.
    """

    def __init__(self, violations: list[tuple[int | None, str]]) -> None:
        self.violations = violations
        text = "; ".join(
            f"node {nid}: {msg}" if nid is not None else msg for nid, msg in violations
        )
        super().__init__(text)


class FormatError(ValueError):
    """An artifact file that is not UTF-8, not JSON, or not in its format."""


@dataclass(frozen=True)
class Deduction:
    nodes: dict[int, Node]
    root: int

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    @cached_property
    def parents(self) -> dict[int, tuple[int, ...]]:
        """Parent ids per node, in ascending parent id order."""
        acc: dict[int, list[int]] = {i: [] for i in self.nodes}
        for n in self.nodes.values():
            for c in n.children:
                acc[c].append(n.id)
        return {i: tuple(sorted(ps)) for i, ps in acc.items()}

    def height(self) -> int:
        return max(n.height for n in self.nodes.values())


def build(nodes: Iterable[Node] | Mapping[int, Node], root: int) -> Deduction:
    """Validate a node set and return the deduction.

    Checks ids, rule arities, leveling, the root and reachability; E children
    are normalized to minor-first, major-second order when the formulas
    determine an orientation. Raises StructureError listing every violated
    invariant by node id.
    """
    if isinstance(nodes, Mapping):
        node_map = dict(nodes)
        bad: list[tuple[int | None, str]] = [
            (k, "key does not match node id") for k, n in node_map.items() if k != n.id
        ]
    else:
        node_map = {}
        bad = []
        for n in nodes:
            if n.id in node_map:
                bad.append((n.id, "duplicate node id"))
            node_map[n.id] = n
    if bad:
        raise StructureError(bad)

    violations: list[tuple[int | None, str]] = []
    for n in node_map.values():
        for c in n.children:
            if c not in node_map:
                violations.append((n.id, f"child {c} does not exist"))
    if violations:
        raise StructureError(violations)

    arity = {Rule.LEAF: 0, Rule.R: 1, Rule.I: 1, Rule.E: 2}
    normalized: dict[int, Node] = {}
    for n in node_map.values():
        k = len(n.children)
        if n.rule is Rule.S:
            if k < 2:
                violations.append((n.id, f"S rule needs at least 2 children, got {k}"))
        elif k != arity[n.rule]:
            violations.append(
                (n.id, f"{n.rule.value} rule needs {arity[n.rule]} children, got {k}")
            )
        if n.rule is Rule.E and k == 2:
            if n.children[0] == n.children[1]:
                violations.append((n.id, "E rule needs two distinct children"))
            else:
                y, z = (node_map[c] for c in n.children)
                # store minor premise first when exactly the swapped order types
                if not is_implication(z.formula, y.formula, n.formula) and is_implication(
                    y.formula, z.formula, n.formula
                ):
                    n = Node(n.id, n.formula, n.rule, n.height, (z.id, y.id))
        for c in n.children:
            ch = node_map[c]
            if ch.height != n.height + 1:
                violations.append(
                    (n.id, f"child {c} height {ch.height} is not parent height + 1")
                )
        normalized[n.id] = n

    if root not in node_map:
        violations.append((None, f"root {root} does not exist"))
    else:
        if node_map[root].height != 0:
            violations.append((root, "root height is not 0"))
        parented = {c for n in node_map.values() for c in n.children}
        if root in parented:
            violations.append((root, "root has a parent"))
        seen = {root}
        queue = [root]
        while queue:
            x = queue.pop()
            for c in normalized[x].children if x in normalized else ():
                if c not in seen:
                    seen.add(c)
                    queue.append(c)
        for i in sorted(node_map):
            if i not in seen:
                violations.append((i, "unreachable from root"))

    if violations:
        raise StructureError(violations)
    return Deduction(normalized, root)


def threads(d: Deduction, cap: int = DEFAULT_THREAD_CAP) -> list[Thread] | Overflow:
    """All maximal root-to-leaf chains, depth first with children in stored
    order. Returns Overflow instead of a list when more than ``cap`` threads
    exist."""
    out: list[Thread] = []
    stack: list[tuple[int, Thread]] = [(d.root, (d.root,))]
    while stack:
        node_id, path = stack.pop()
        n = d.node(node_id)
        if not n.children:
            if len(out) >= cap:
                return Overflow(cap)
            out.append(path)
            continue
        for c in reversed(n.children):
            stack.append((c, path + (c,)))
    return out


def is_closed(d: Deduction, thread: Thread) -> bool:
    """True when some I node on the thread discharges the leaf formula."""
    leaf_formula = d.node(thread[-1]).formula
    for node_id in thread[:-1]:
        n = d.node(node_id)
        if n.rule is Rule.I:
            child = d.node(n.children[0])
            if is_implication(n.formula, leaf_formula, child.formula):
                return True
    return False


def proves_by_threads(d: Deduction, cap: int = DEFAULT_THREAD_CAP) -> bool | Overflow:
    ts = threads(d, cap)
    if isinstance(ts, Overflow):
        return ts
    return all(is_closed(d, t) for t in ts)


def is_tree_like(d: Deduction) -> bool:
    """True when every node except the root has exactly one parent."""
    return all(len(ps) == 1 for i, ps in d.parents.items() if i != d.root)


def lay_out(root: object, expand: Callable, cap: int | None = None) -> Deduction | Overflow:
    """The tree grown from ``root``, with ids 1..n breadth first and
    children in stored order. ``expand(item)`` gives the item's formula,
    rule, height and child items; every child item becomes a node of its
    own. Returns Overflow(cap) when the tree would exceed ``cap`` nodes."""
    items = [root]
    nodes: list[Node] = []
    for node_id, item in enumerate(items, 1):  # items grows as the walk goes
        formula, rule, height, children = expand(item)
        first = len(items) + 1
        items.extend(children)
        if cap is not None and len(items) > cap:
            return Overflow(cap)
        nodes.append(Node(node_id, formula, rule, height, tuple(range(first, len(items) + 1))))
    return build(nodes, 1)


def canonical_map(d: Deduction) -> dict[int, int]:
    """Old id -> new id for the 1..n breadth-first renumbering."""
    mapping = {d.root: 1}
    queue = deque((d.root,))
    while queue:
        for c in d.node(queue.popleft()).children:
            if c not in mapping:
                mapping[c] = len(mapping) + 1
                queue.append(c)
    return mapping


def renumber(d: Deduction, mapping: Mapping[int, int]) -> Deduction:
    """The same deduction under new node ids; ``mapping`` must be a
    bijection on the ids of ``d``, such as ``canonical_map(d)``."""
    nodes = {
        mapping[n.id]: Node(
            mapping[n.id], n.formula, n.rule, n.height, tuple(mapping[c] for c in n.children)
        )
        for n in d.nodes.values()
    }
    return Deduction(nodes, mapping[d.root])


def canonical(d: Deduction) -> Deduction:
    """Renumber node ids 1..n in breadth-first order from the root."""
    return renumber(d, canonical_map(d))


def to_dict(d: Deduction) -> dict:
    return {
        "root": d.root,
        "nodes": [
            {
                "id": n.id,
                "formula": to_infix(n.formula),
                "rule": n.rule.value,
                "height": n.height,
                "children": list(n.children),
            }
            for n in sorted(d.nodes.values(), key=lambda n: n.id)
        ],
    }


def from_dict(obj: object) -> Deduction:
    """Build a deduction from the document form; node order in the document
    is irrelevant, children order is significant."""
    if not isinstance(obj, dict):
        raise FormatError("document must be an object")
    if "root" not in obj or "nodes" not in obj:
        raise FormatError("document needs 'root' and 'nodes'")
    if not isinstance(obj["root"], int) or isinstance(obj["root"], bool):
        raise FormatError("'root' must be a node id")
    if not isinstance(obj["nodes"], list):
        raise FormatError("'nodes' must be a list")
    nodes = []
    parsed: dict[str, Formula] = {}  # each distinct formula text is parsed once
    for entry in obj["nodes"]:
        if not isinstance(entry, dict):
            raise FormatError("each node must be an object")
        missing = {"id", "formula", "rule", "height", "children"} - entry.keys()
        if missing:
            raise FormatError(f"node entry missing {sorted(missing)}")
        if not isinstance(entry["id"], int) or isinstance(entry["id"], bool):
            raise FormatError("node id must be an integer")
        text = entry["formula"]
        formula = parsed.get(text) if isinstance(text, str) else None
        if formula is None:
            try:
                formula = parsed[text] = parse_infix(text)
            except (FormulaSyntaxError, TypeError) as exc:
                raise FormatError(f"node {entry['id']}: bad formula: {exc}") from exc
        try:
            rule = Rule(entry["rule"])
        except ValueError as exc:
            raise FormatError(f"node {entry['id']}: unknown rule {entry['rule']!r}") from exc
        if not isinstance(entry["height"], int) or isinstance(entry["height"], bool):
            raise FormatError(f"node {entry['id']}: height must be an integer")
        if not isinstance(entry["children"], list) or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in entry["children"]
        ):
            raise FormatError(f"node {entry['id']}: children must be a list of ids")
        nodes.append(
            Node(entry["id"], formula, rule, entry["height"], tuple(entry["children"]))
        )
    return build(nodes, obj["root"])


def load_deduction(source: str | IO[str]) -> Deduction:
    return from_dict(read_json(source))


def save_deduction(d: Deduction, target: str | IO[str]) -> None:
    write_json(to_dict(d), target)


# Every artifact file (deduction, tuple table, choice, threads) is read and
# written by the four functions below: a path is opened as UTF-8, anything
# else is taken to be an open text stream.


def read_text(source: str | IO[str]) -> str:
    """The whole text of ``source``; bytes that are not UTF-8 raise
    FormatError."""
    try:
        if isinstance(source, str):
            with open(source, encoding="utf-8") as fh:
                return fh.read()
        return source.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc}") from exc


def read_json(source: str | IO[str]) -> object:
    """The JSON document in ``source``; text that does not decode raises
    FormatError."""
    text = read_text(source)
    # ValueError also covers integers longer than int() accepts, and
    # RecursionError arrays nested too deep for the decoder.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc


def write_text(text: str, target: str | IO[str]) -> None:
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        target.write(text)


def write_json(doc: object, target: str | IO[str]) -> None:
    """Write ``doc`` as JSON indented by two spaces, with a final newline."""
    write_text(json.dumps(doc, indent=2) + "\n", target)
