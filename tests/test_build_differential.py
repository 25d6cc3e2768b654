"""``build`` against the version it replaced, which walked the node map
four times: child existence, then arity, E orientation and leveling, then
the set of ids with a parent, then reachability from the root.

Inputs: the node lists of the local-correctness differential test (faulty
fixtures, damaged encodings, mutated dags), each also in shuffled order
and with a root that is not the stored one. Compared: the deduction built,
or the exception type and its violations in order.
"""

import random
from collections import Counter

from impdag.checker import encode
from impdag.deduction import Deduction, Node, Rule, StructureError, build
from impdag.formula import is_implication

from conftest import corrupt_encoding, mk
from test_local_correctness_differential import FAULTY, described, mutated, raw, valid_dags

# ---------- the old build, verbatim but for the distinct S children rule


def reference_build(nodes, root):
    node_map = {}
    bad = []
    for n in nodes:
        if n.id in node_map:
            bad.append((n.id, "duplicate node id"))
        node_map[n.id] = n
    if bad:
        raise StructureError(bad)

    violations = []
    for n in node_map.values():
        for c in n.children:
            if c not in node_map:
                violations.append((n.id, f"child {c} does not exist"))
    if violations:
        raise StructureError(violations)

    arity = {Rule.LEAF: 0, Rule.R: 1, Rule.I: 1, Rule.E: 2}
    normalized = {}
    for n in node_map.values():
        k = len(n.children)
        if n.rule is Rule.S:
            if k < 2:
                violations.append((n.id, f"S rule needs at least 2 children, got {k}"))
            elif len(set(n.children)) < k:
                violations.append((n.id, "S rule needs distinct children"))
        elif k != arity[n.rule]:
            violations.append(
                (n.id, f"{n.rule.value} rule needs {arity[n.rule]} children, got {k}")
            )
        if n.rule is Rule.E and k == 2:
            if n.children[0] == n.children[1]:
                violations.append((n.id, "E rule needs two distinct children"))
            else:
                y, z = (node_map[c] for c in n.children)
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


# ------------------------------------------------------------------- tests


def outcome(make, nodes, root):
    try:
        return make(nodes, root)
    except StructureError as exc:
        return ("raised", exc.violations, str(exc))


def node_lists():
    """The (node list, root) inputs: each dag's nodes as stored, shuffled
    under a random root, and shuffled with one node repeated."""
    rng = random.Random(6)
    dags = [*FAULTY, *ELIMINATIONS]
    for d in valid_dags(random.Random(7)):
        dags += [d, mutated(d, rng), mutated(d, rng)]
        if not any(n.rule is Rule.S for n in d.nodes.values()):
            condition = rng.randint(1, 8)
            try:
                dags.append(described(corrupt_encoding(rng, encode(d), condition)))
            except ValueError:
                pass  # no row the strategy applies to
    dags += COUNTED
    for d in dags:
        nodes = list(d.nodes.values())
        shuffled = rng.sample(nodes, len(nodes))
        yield nodes, d.root
        yield shuffled, rng.choice(nodes).id
        yield shuffled + [rng.choice(nodes)], d.root


def test_build_matches_the_four_walk_version():
    kinds = Counter()
    for order, root in node_lists():
        want = outcome(reference_build, order, root)
        assert outcome(build, order, root) == want
        if isinstance(want, tuple):
            kinds.update(k for _, msg in want[1] for k in KINDS if k in msg)
        else:
            kinds["built"] += 1
    assert kinds.keys() == {"built", *KINDS}, kinds
    # node lists given as generators, without and with a duplicate id
    for d in COUNTED:
        for nodes in ([*d.nodes.values()], [*d.nodes.values(), d.nodes[d.root]]):
            want = outcome(reference_build, (n for n in nodes), d.root)
            assert outcome(build, (n for n in nodes), d.root) == want


# Maps that reachability by counting child ids must leave to the search.
COUNTED = [
    # a two-node cycle off the root, each node with a parent, one height wrong
    raw([
        mk(1, "a", "R", 0, (2,)), mk(2, "a", "LEAF", 1),
        mk(3, "b", "R", 5, (4,)), mk(4, "b", "R", 6, (3,)),
    ], 1),
    # an unreachable chain with no parent and correct heights
    raw([
        mk(1, "a", "R", 0, (2,)), mk(2, "a", "LEAF", 1),
        mk(3, "b", "R", 0, (4,)), mk(4, "b", "LEAF", 1),
    ], 1),
    # the root listed as a child, from a node one level above it
    raw([mk(1, "a", "R", 0, (2,)), mk(2, "a", "LEAF", 1), mk(3, "a", "R", -1, (1,))], 1),
]


# E nodes that build rejects, stores as given, and turns round.
ELIMINATIONS = [
    raw([mk(1, "b", "E", 0, (2, 2)), mk(2, "a", "LEAF", 1)], 1),
    raw([mk(1, "b", "E", 0, (2, 3)), mk(2, "a", "LEAF", 1), mk(3, "a -> b", "LEAF", 1)], 1),
    raw([mk(1, "b", "E", 0, (3, 2)), mk(2, "a", "LEAF", 1), mk(3, "a -> b", "LEAF", 1)], 1),
]
KINDS = (
    "duplicate node id",
    "does not exist",
    "children, got",
    "two distinct children",
    "S rule needs distinct children",
    "parent height + 1",
    "root height is not 0",
    "root has a parent",
    "unreachable from root",
)
