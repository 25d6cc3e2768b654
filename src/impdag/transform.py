"""Structure-changing maps between tree-shaped and dag-shaped deductions.

``unfold`` copies every shared node once per path, turning a dag into the
equivalent tree at a possibly exponential size (capped). ``compress`` goes
the other way for leveled trees: nodes of one level with equal formulas
merge into a single representative, and where the merged originals were
concluded by different premise groups the representative becomes a
separation node over one dispatch child per group. ``s_eliminate`` removes
separation nodes again once a branch commitment is fixed, keeping only
what the root still reaches.

Compression maps original level h to two output layers: the merge layer
2h holds one representative per distinct formula, the dispatch layer 2h+1
holds the rule-carrying children (a single repetition dispatcher when the
premise groups do not diverge, so the output stays uniformly leveled).
Leaves sit on the last merge layer and get no dispatcher. The thread
image hands each original thread to its representative/dispatcher
rendering, which is exactly the thread-set input the cleansing machinery
expects.
"""

from __future__ import annotations

from collections import deque

from .assignment import Choice, ChoiceError
from .checker import check_local_correctness
from .deduction import (
    Deduction,
    Node,
    Overflow,
    Rule,
    Thread,
    build,
    canonical_map,
    is_tree_like,
    lay_out,
    renumber,
)
from .formula import Formula, formula_key

__all__ = [
    "DEFAULT_NODE_CAP",
    "unfold",
    "level",
    "compress",
    "s_eliminate",
]

DEFAULT_NODE_CAP = 100_000


def unfold(d: Deduction, cap: int = DEFAULT_NODE_CAP) -> Deduction | Overflow:
    """Duplicate shared subdags so every node has one parent.

    The result is tree-like with breadth-first ids and the same root
    formula; thread structure is preserved path for path. Node count can
    blow up exponentially, so construction stops with Overflow once it
    would exceed `cap`.
    """

    def expand(old_id: int):
        old = d.node(old_id)
        return old.formula, old.rule, old.height, old.children

    return lay_out(d.root, expand, cap)


def level(t: Deduction) -> Deduction:
    """Pad short branches with repetition chains above their leaves so all
    leaves share the maximal height. Already-leveled trees come back
    untouched."""
    if not is_tree_like(t):
        raise ValueError("level() expects a tree-like deduction")
    bottom = max(n.height for n in t.nodes.values())
    if all(n.height == bottom for n in t.nodes.values() if n.rule is Rule.LEAF):
        return t

    def expand(item: tuple[int, int]):
        node_id, height = item
        n = t.node(node_id)
        if n.rule is Rule.LEAF and height < bottom:
            return n.formula, Rule.R, height, ((node_id, height + 1),)
        return n.formula, n.rule, height, ((c, height + 1) for c in n.children)

    return lay_out((t.root, 0), expand)


def compress(t: Deduction) -> tuple[Deduction, tuple[Thread, ...]]:
    """Merge equal-formula nodes per level of a leveled tree.

    Returns the compressed dag and the image of the tree's thread set
    under the merge: each original thread becomes the alternating
    representative/dispatcher path it is carried to. Representatives on
    one merge layer have pairwise distinct formulas; a representative
    whose originals disagree on how they were concluded is a separation
    node over one dispatcher per premise group.
    """
    if not is_tree_like(t):
        raise ValueError("compress() expects a tree-like deduction")
    report = check_local_correctness(t)
    if not report.ok:
        first = report.violations[0]
        raise ValueError(
            f"compress() expects local correctness: condition {first.condition}"
            f" at node {first.node}"
        )
    bottom = max(n.height for n in t.nodes.values())
    for n in t.nodes.values():
        if n.rule is Rule.LEAF and n.height != bottom:
            raise ValueError(f"compress() expects a leveled tree: leaf {n.id} is short")

    # Per level, the nodes of each formula in id order.
    by_level: dict[int, dict[Formula, list[Node]]] = {}
    for i in sorted(t.nodes):
        n = t.nodes[i]
        by_level.setdefault(n.height, {}).setdefault(n.formula, []).append(n)

    nodes: list[Node] = []
    next_id = 1

    def fresh() -> int:
        nonlocal next_id
        value = next_id
        next_id += 1
        return value

    rep_of: dict[int, int] = {}  # original node -> merge-layer id
    disp_of: dict[int, int] = {}  # original non-leaf node -> dispatch-layer id
    for h in range(bottom, -1, -1):
        layer = by_level[h]
        for formula in sorted(layer, key=formula_key):
            members = layer[formula]
            if h == bottom:
                rep = fresh()
                nodes.append(Node(rep, formula, Rule.LEAF, 2 * h, ()))
                for m in members:
                    rep_of[m.id] = rep
                continue
            groups: dict[tuple, list[Node]] = {}
            for m in members:
                key: tuple = (m.rule.value, tuple(rep_of[c] for c in m.children))
                if m.rule is Rule.I:
                    key += (formula_key(m.formula.antecedent),)
                groups.setdefault(key, []).append(m)
            rep = fresh()
            dispatchers = []
            for key in sorted(groups):
                disp = fresh()
                head = groups[key][0]
                dispatchers.append(
                    Node(
                        disp,
                        formula,
                        head.rule,
                        2 * h + 1,
                        tuple(rep_of[c] for c in head.children),
                    )
                )
                for m in groups[key]:
                    rep_of[m.id] = rep
                    disp_of[m.id] = disp
            rep_rule = Rule.S if len(dispatchers) > 1 else Rule.R
            nodes.append(Node(rep, formula, rep_rule, 2 * h, tuple(n.id for n in dispatchers)))
            nodes.extend(dispatchers)

    out = build(nodes, rep_of[t.root])
    mapping = canonical_map(out)
    out = renumber(out, mapping)

    # Depth first in stored child order, as threads() lists them. path is the
    # image of the thread so far; a node at height h keeps its first 2h entries.
    images: dict[Thread, None] = {}
    path: list[int] = []
    stack = [t.root]
    while stack:
        n = t.node(stack.pop())
        del path[2 * n.height :]
        path.append(mapping[rep_of[n.id]])
        if n.children:
            path.append(mapping[disp_of[n.id]])
            stack.extend(reversed(n.children))
        else:
            images[tuple(path)] = None
    return out, tuple(images)


def s_eliminate(d: Deduction, choice: Choice) -> Deduction:
    """Commit each separation edge to its chosen branch and drop the rest.

    Every separation node turns into one repetition node per distinct
    branch index its parents chose (the node keeps its id when all parents
    agree), parents are rewired to their copy, and nodes the root no
    longer reaches are removed. Ids of surviving nodes are kept.

    Parents that disagree add one node per extra branch index, so the
    result can exceed the input in size when commitments diverge; with
    agreeing parents it never grows.
    """
    root = d.node(d.root)
    if root.rule is Rule.S:
        raise ValueError("root is a separation node; no edge commits its branch")

    replacement: dict[tuple[int, int], int] = {}  # (parent, sep) -> copy id
    copies: list[Node] = []
    next_id = max(d.nodes) + 1
    for s in sorted(d.nodes.values(), key=lambda n: n.id):
        if s.rule is not Rule.S:
            continue
        used: dict[int, list[int]] = {}
        for p in d.parents[s.id]:
            key = (p, s.id)
            if key not in choice:
                raise ChoiceError(f"no branch chosen for edge {key}")
            index = choice[key]
            if not 1 <= index <= len(s.children):
                raise ChoiceError(
                    f"edge {key}: branch {index} out of range 1..{len(s.children)}"
                )
            used.setdefault(index, []).append(p)
        copy_ids: dict[int, int] = {}
        for index in sorted(used):
            if len(used) == 1:
                copy_ids[index] = s.id
            else:
                copy_ids[index] = next_id
                next_id += 1
            copies.append(
                Node(copy_ids[index], s.formula, Rule.R, s.height, (s.children[index - 1],))
            )
        for index, parents in used.items():
            for p in parents:
                replacement[(p, s.id)] = copy_ids[index]

    rewired: dict[int, Node] = {n.id: n for n in copies}
    for n in d.nodes.values():
        if n.rule is Rule.S:
            continue
        children = tuple(replacement.get((n.id, c), c) for c in n.children)
        rewired[n.id] = Node(n.id, n.formula, n.rule, n.height, children)

    keep = set()
    queue = deque((d.root,))
    while queue:
        x = queue.popleft()
        if x in keep:
            continue
        keep.add(x)
        queue.extend(rewired[x].children)
    return build([rewired[x] for x in sorted(keep)], d.root)
