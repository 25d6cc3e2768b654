"""Structure-changing maps between tree-shaped and dag-shaped deductions.

``unfold`` copies every shared node once per path, turning a dag into the
equivalent tree at a possibly exponential size (capped). ``compress`` goes
the other way for trees, padding short branches as ``level`` does but
without building the padded tree: nodes of one level with equal formulas
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
    """Merge equal-formula nodes per level of a tree.

    Short branches are padded as ``level`` pads them, so ``compress(t)``
    equals ``compress(level(t))``, but the padded tree is never built:
    equal subtrees form one class, worked once per level it is met on.

    Returns the compressed dag and the image of the padded tree's thread
    set under the merge: each original thread becomes the alternating
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

    # Hash-cons the tree bottom up: class id -> (formula, rule, child classes).
    class_of: dict[int, int] = {}
    interned: dict[tuple, int] = {}
    for n in sorted(t.nodes.values(), key=lambda n: -n.height):
        key = (n.formula, n.rule, tuple(class_of[c] for c in n.children))
        class_of[n.id] = interned.setdefault(key, len(interned))
    shapes = list(interned)
    bottom = t.height()

    def expand(c: int, h: int) -> tuple[Rule, tuple[int, ...]]:
        """Rule and child classes of class ``c`` met at height ``h``."""
        _, rule, children = shapes[c]
        if rule is Rule.LEAF and h < bottom:
            return Rule.R, (c,)
        return rule, children

    # The classes met on each level, top down, with their rule and child
    # classes there.
    levels = [{class_of[t.root]: expand(class_of[t.root], 0)}]
    for h in range(bottom):
        below = (k for _, children in levels[h].values() for k in children)
        levels.append({k: expand(k, h + 1) for k in below})

    nodes: list[Node] = []
    rep: dict[tuple[int, int], int] = {}  # (height, class) -> merge-layer id
    disp: dict[tuple[int, int], int] = {}  # (height, class) -> dispatch-layer id
    for h in range(bottom, -1, -1):
        layer: dict[Formula, dict[tuple, tuple[Rule, list[int]]]] = {}
        for c, (rule, children) in levels[h].items():
            # An I step's discharged antecedent is fixed by the formula.
            key = (rule.value, tuple(rep[h + 1, k] for k in children))
            layer.setdefault(shapes[c][0], {}).setdefault(key, (rule, []))[1].append(c)
        for formula in sorted(layer, key=formula_key):
            first = len(nodes) + 1
            groups = layer[formula]
            dispatchers = []
            for i, key in enumerate(sorted(groups), first + 1):
                rule, members = groups[key]
                for c in members:
                    rep[h, c], disp[h, c] = first, i
                if rule is not Rule.LEAF:  # leaves, all on the bottom level, get no dispatcher
                    dispatchers.append(Node(i, formula, rule, 2 * h + 1, key[1]))
            rep_rule = Rule.S if len(dispatchers) > 1 else Rule.R if dispatchers else Rule.LEAF
            nodes.append(Node(first, formula, rep_rule, 2 * h, tuple(n.id for n in dispatchers)))
            nodes.extend(dispatchers)

    out = build(nodes, rep[0, class_of[t.root]])
    mapping = canonical_map(out)
    out = renumber(out, mapping)

    # Depth first in stored child order over (class, height) items, which
    # walks the padded tree as threads() lists it. path is the image of the
    # thread so far; an item at height h keeps its first 2h entries.
    images: dict[Thread, None] = {}
    path: list[int] = []
    stack = [(class_of[t.root], 0)]
    while stack:
        c, h = stack.pop()
        del path[2 * h :]
        path.append(mapping[rep[h, c]])
        children = levels[h][c][1]
        if children:
            path.append(mapping[disp[h, c]])
            stack.extend((k, h + 1) for k in reversed(children))
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
