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

Local correctness is the node-local definition below, each clause named
by a short id. ``build`` checks it in its one pass over the nodes: it
enforces clauses 1a to 1c, raising StructureError, and keeps the report of
the rule clauses on the deduction it returns, which
``check_local_correctness`` reads without another walk:

* ``1a``  edge endpoints (leaves have no children, the root no parent);
* ``1b``  root height is 0;
* ``1c``  children sit exactly one level above their parent;
* ``2a``  repetition repeats its child formula;
* ``2b``  introduction prepends an antecedent to its child formula;
* ``2c``  one elimination premise is the other premise arrow the conclusion;
* ``2d``  separation children repeat the node formula and are not
          themselves separations;
* ``3``   the root is not a leaf.

Every decider, ``compress`` and ``encode`` first read that report and
raise LocalCorrectnessError on a violation.

A deduction file holds the JSON document of ``to_dict``. ``save_deduction``
writes its text directly, with one ``json.dumps`` per distinct formula;
``from_dict`` checks each entry, and all child ids in one scan, before ``build``.
"""

from __future__ import annotations

import json
from collections import deque
from enum import Enum
from operator import itemgetter
from typing import IO, Callable, Iterable, Mapping, NamedTuple

from .formula import Formula, FormulaSyntaxError, Implication, is_implication, parse_infix, to_infix

__all__ = [
    "Rule",
    "Node",
    "Deduction",
    "Overflow",
    "StructureError",
    "FormatError",
    "Thread",
    "LocalCorrectnessError",
    "build",
    "check_local_correctness",
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
# The defaults of ``transform`` and ``prover``, kept here so that the command
# line parser can show them without importing either module.
DEFAULT_NODE_CAP = 100_000
DEFAULT_ORACLE_WEIGHT = 80

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


class Node:
    """A deduction node, compared and hashed by value; never changed once built."""

    __slots__ = ("id", "formula", "rule", "height", "children")

    def __init__(
        self, id: int, formula: Formula, rule: Rule, height: int, children: tuple[int, ...] = ()
    ) -> None:
        self.id, self.formula, self.rule = id, formula, rule
        self.height, self.children = height, children

    def _fields(self) -> tuple:
        return (self.id, self.formula, self.rule, self.height, self.children)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        id, formula, rule, height, children = self._fields()
        return f"Node({id=}, {formula=}, {rule=}, {height=}, {children=})"


class Record:
    """Base of the immutable records that stand in for frozen dataclasses.
    The fields are the ``__slots__`` in constructor order, less those named
    with a leading underscore, which hold caches; equality, hashing,
    ``repr``, copying and pickling go by the fields alone."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = tuple(s for s in cls.__slots__ if not s.startswith("_"))

    def __init__(self, *args, **kwargs) -> None:
        names = self.__match_args__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Overflow(Record):
    """First-class result for enumerations that exceeded their cap."""

    __slots__ = ("cap",)
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


class Violation(NamedTuple):
    condition: int | str
    node: int | None
    message: str


class LCReport(NamedTuple):
    ok: bool
    violations: tuple[Violation, ...]


class LocalCorrectnessError(ValueError):
    """A decider was given a deduction that is not locally correct; the text
    names the first violation, ``report`` holds them all."""

    def __init__(self, report: LCReport) -> None:
        super().__init__("not locally correct: condition %s at node %s: %s" % report.violations[0])
        self.report = report


class Deduction(Record):
    """A node map and its root id; unhashable, as the map is a dict.

    ``build`` puts the ``check_local_correctness`` report in a private slot,
    and ``parents`` is kept in another once computed. Equality, ``repr``,
    copies and pickles ignore both. The node map must not change once
    either is read.
    """

    __slots__ = ("nodes", "root", "_parents", "_report")
    nodes: dict[int, Node]
    root: int

    def _memo(self, slot: str, compute: Callable[[Deduction], object]):
        """The value kept in ``slot``, set to ``compute(self)`` on first use."""
        value = getattr(self, slot, None)
        if value is None:
            value = compute(self)
            object.__setattr__(self, slot, value)
        return value

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    @property
    def parents(self) -> dict[int, tuple[int, ...]]:
        """Parent ids per node, in ascending parent id order; computed once."""
        return self._memo("_parents", _parent_map)

    def height(self) -> int:
        return max(n.height for n in self.nodes.values())


def _parent_map(d: Deduction) -> dict[int, tuple[int, ...]]:
    acc: dict[int, list[int]] = {i: [] for i in d.nodes}
    for n in d.nodes.values():
        for c in n.children:
            acc[c].append(n.id)
    return {i: tuple(sorted(ps)) for i, ps in acc.items()}


def build(nodes: Iterable[Node], root: int) -> Deduction:
    """Validate a node set and return the deduction, with its
    local-correctness report in its ``_report`` slot.

    Checks ids, rule arities with distinct E and S children, leveling, the
    root and reachability, and raises StructureError listing every violated
    invariant by node id; the rule clauses 2a to 2d and 3 are reported. E children are
    normalized to minor-first, major-second order when the formulas
    determine an orientation.
    """
    node_map: dict[int, Node] = {}
    bad: list[tuple[int | None, str]] = []
    for n in nodes:
        if n.id in node_map:
            bad.append((n.id, "duplicate node id"))
        node_map[n.id] = n
    if bad:
        raise StructureError(bad)

    # One pass over the nodes; children that do not exist are reported on
    # their own, before the other violations.
    arity = {Rule.LEAF: 0, Rule.R: 1, Rule.I: 1, Rule.E: 2}
    missing: list[tuple[int | None, str]] = []
    violations: list[tuple[int | None, str]] = []
    report: list[Violation] = []

    def flag(condition: str, node: int, message: str) -> None:
        report.append(Violation(condition, node, message))

    root_parented = False
    R, I, E, S = Rule.R, Rule.I, Rule.E, Rule.S  # noqa: E741
    for n in node_map.values():
        rule, formula, k = n.rule, n.formula, len(n.children)
        if rule is S:
            if k < 2:
                violations.append((n.id, f"S rule needs at least 2 children, got {k}"))
            elif len(set(n.children)) < k:
                violations.append((n.id, "S rule needs distinct children"))
        elif k != arity[rule]:
            violations.append((n.id, f"{rule.value} rule needs {arity[rule]} children, got {k}"))
        if rule is E and k == 2:
            y, z = map(node_map.get, n.children)
            if n.children[0] == n.children[1]:
                violations.append((n.id, "E rule needs two distinct children"))
            # store minor premise first when exactly the swapped order types;
            # replacing the value of a key leaves the iteration intact
            elif y and z and not is_implication(z.formula, y.formula, formula):
                if is_implication(y.formula, z.formula, formula):
                    n = node_map[n.id] = Node(n.id, formula, rule, n.height, (z.id, y.id))
                else:
                    flag("2c", n.id, "no premise is the other premise arrow the conclusion")
        up = n.height + 1
        for c in n.children:
            ch = node_map.get(c)
            if ch is None:
                missing.append((n.id, f"child {c} does not exist"))
                continue
            if ch.height != up:
                violations.append((n.id, f"child {c} height {ch.height} is not parent height + 1"))
            if rule is R:
                if ch.formula is not formula:
                    flag("2a", n.id, "repetition child formula differs")
            elif rule is I:
                if not (isinstance(formula, Implication) and formula.consequent is ch.formula):
                    flag("2b", n.id, "conclusion does not introduce onto the child formula")
            elif rule is S:
                if ch.formula is not formula:
                    flag("2d", n.id, f"separation child {c} changes the formula")
                if ch.rule is S:
                    flag("2d", n.id, f"separation child {c} is itself a separation")
        root_parented = root_parented or root in n.children
    if missing:
        raise StructureError(missing)

    if root not in node_map:
        violations.append((None, f"root {root} does not exist"))
    else:
        if node_map[root].height != 0:
            violations.append((root, "root height is not 0"))
        if root_parented:
            violations.append((root, "root has a parent"))
        seen = {root}
        queue = [root]
        while queue:
            for c in node_map[queue.pop()].children:
                if c not in seen:
                    seen.add(c)
                    queue.append(c)
        if len(seen) < len(node_map):
            violations += ((i, "unreachable from root") for i in sorted(node_map.keys() - seen))

    if violations:
        raise StructureError(violations)
    if node_map[root].rule is Rule.LEAF:
        flag("3", root, "root is a leaf")
    # Node order is free: the stable sort orders the report by clause, then
    # node, and each node's own violations keep theirs.
    report.sort(key=lambda v: (v.condition, v.node))
    d = Deduction(node_map, root)
    object.__setattr__(d, "_report", LCReport(not report, tuple(report)))
    return d


def check_local_correctness(d: Deduction) -> LCReport:
    """The local-correctness report that ``build`` keeps on every deduction
    it returns. A deduction that ``build`` did not return, such as a
    hand-assembled node map or a copy, is run through ``build`` once for it,
    so a node map that ``build`` rejects raises its StructureError here."""
    return d._memo("_report", lambda d: build(d.nodes.values(), d.root)._report)


def _require_local_correctness(d: Deduction) -> None:
    """Raise LocalCorrectnessError unless ``d`` is locally correct; every decider calls it first."""
    report = check_local_correctness(d)
    if not report.ok:
        raise LocalCorrectnessError(report)


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
    """True when some I node on the thread discharges the leaf formula; ``d`` is locally correct."""
    leaf_formula = d.node(thread[-1]).formula
    for node_id in thread[:-1]:
        n = d.node(node_id)
        if n.rule is Rule.I and n.formula.antecedent is leaf_formula:
            return True
    return False


def proves_by_threads(d: Deduction, cap: int = DEFAULT_THREAD_CAP) -> bool | Overflow:
    """Whether every thread is closed; LocalCorrectnessError unless ``d`` is locally correct."""
    _require_local_correctness(d)
    ts = threads(d, cap)
    if isinstance(ts, Overflow):
        return ts
    return all(is_closed(d, t) for t in ts)


def is_tree_like(d: Deduction) -> bool:
    """True when every node except the root has exactly one parent."""
    # Read off one flat list of child ids: the parent map sorts per node.
    kids = [c for n in d.nodes.values() for c in n.children]
    others = d.nodes.keys() - {d.root}
    return len(kids) - kids.count(d.root) == len(others) and set(kids) - {d.root} == others


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


_RULES = {r.value: r for r in Rule}
_FIELDS = {"id", "formula", "rule", "height", "children"}
_ENTRY = itemgetter("id", "formula", "rule", "height", "children")


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
    nodes: list[Node] = []
    parsed: dict[str, Formula] = {}  # each distinct formula text is parsed once
    try:
        for entry in obj["nodes"]:
            if type(entry) is not dict:
                raise FormatError("each node must be an object")
            try:
                nid, text, rule, height, kids = _ENTRY(entry)
            except KeyError:
                raise FormatError(f"node entry missing {sorted(_FIELDS - entry.keys())}") from None
            if type(nid) is not int:
                raise FormatError("node id must be an integer")
            if type(text) is not str:
                raise FormatError(f"node {nid}: formula must be a string")
            formula = parsed.get(text)
            if formula is None:
                try:
                    formula = parsed[text] = parse_infix(text)
                except FormulaSyntaxError as exc:
                    raise FormatError(f"node {nid}: bad formula: {exc}") from exc
            if type(rule) is not str or rule not in _RULES:
                raise FormatError(f"node {nid}: unknown rule {rule!r}")
            if type(height) is not int:
                raise FormatError(f"node {nid}: height must be an integer")
            if type(kids) is not list:
                raise FormatError(f"node {nid}: children must be a list of ids")
            nodes.append(Node(nid, formula, _RULES[rule], height, tuple(kids)))
    finally:  # one flat scan of the child ids read, before a later entry's error
        if not {type(c) for n in nodes for c in n.children} <= {int}:
            bad = next(n for n in nodes if any(type(c) is not int for c in n.children))
            raise FormatError(f"node {bad.id}: children must be a list of ids") from None
    return build(nodes, obj["root"])


def load_deduction(source: str | IO[str]) -> Deduction:
    return from_dict(read_json(source))


def save_deduction(d: Deduction, target: str | IO[str]) -> None:
    """Write the text of ``write_json(to_dict(d), target)`` without building the document."""
    quoted: dict[Formula, str] = {}  # one JSON string per distinct formula
    entries = []
    for i in sorted(d.nodes):
        n = d.nodes[i]
        text = quoted.get(n.formula)
        if text is None:
            text = quoted[n.formula] = json.dumps(to_infix(n.formula))
        kids = ",\n        ".join(map(str, n.children))
        kids = f"[\n        {kids}\n      ]" if kids else "[]"
        entries.append(
            f'    {{\n      "id": {n.id},\n      "formula": {text},\n'
            f'      "rule": "{n.rule.value}",\n      "height": {n.height},\n'
            f'      "children": {kids}\n    }}'
        )
    body = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
    write_text(f'{{\n  "root": {d.root},\n  "nodes": {body}\n}}\n', target)


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
