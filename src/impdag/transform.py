"""Structure-changing maps between tree-shaped and dag-shaped deductions.

``unfold`` copies every shared node once per path, turning a dag into the
equivalent tree at a possibly exponential size (capped). ``compress`` goes
the other way for separation-free trees, padding short branches as
``level`` does but without building the padded tree: nodes of one level
with equal formulas merge into a single representative, and where the
merged originals were concluded by different premise groups the
representative becomes a separation node over one dispatch child per
group. ``s_eliminate`` removes separation nodes again once a branch
commitment is fixed, keeping only what the root still reaches.

Compression maps original level h to two output layers: the merge layer
2h holds one representative per distinct formula, the dispatch layer 2h+1
holds the rule-carrying children (a single repetition dispatcher when the
premise groups do not diverge, so the output stays uniformly leveled).
Leaves sit on the last merge layer and get no dispatcher. The dag is built
top down in one pass, each node made once with the breadth-first id
``canonical`` would give it. The thread image hands each original thread
to its representative/dispatcher rendering, which is exactly the
thread-set input the cleansing machinery expects.
"""

from __future__ import annotations

from .deduction import (
    DEFAULT_NODE_CAP,
    Deduction,
    Node,
    Overflow,
    Rule,
    Thread,
    _require_local_correctness,
    build,
    canonical_map,
    is_tree_like,
    lay_out,
)
from .formula import Formula, formula_key, is_implication

__all__ = [
    "DEFAULT_NODE_CAP",
    "unfold",
    "level",
    "compress",
    "s_eliminate",
]


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


class _Image(tuple):
    """The threads ``compress`` returns, with the dag object they were built
    for (``dag``)."""


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
    node over one dispatcher per premise group. Without separation nodes,
    the image is ``threads(dag)``, in the same order.

    The image also keeps the returned dag object, so ``fst`` decides
    ``ThreadSet(image)`` with that very dag by ``prov`` when it has no
    separation node; any other collection, ``tuple(image)`` included, is
    checked thread by thread. Raises ValueError unless ``t`` is tree-like,
    then LocalCorrectnessError unless it is locally correct, then ValueError
    on a separation node, whose merged branches would break clause 2d.
    """
    if not is_tree_like(t):
        raise ValueError("compress() expects a tree-like deduction; 'unfold' produces one")
    _require_local_correctness(t)

    # Hash-cons the tree bottom up: class id -> (formula, rule, child classes).
    class_of: dict[int, int] = {}
    interned: dict[tuple, int] = {}
    for n in sorted(t.nodes.values(), key=lambda n: -n.height):
        key = (n.formula, n.rule, tuple(class_of[c] for c in n.children))
        class_of[n.id] = interned.setdefault(key, len(interned))
    shapes = list(interned)
    if any(rule is Rule.S for _, rule, _ in shapes):
        s = min(n.id for n in t.nodes.values() if n.rule is Rule.S)
        raise ValueError(f"compress() expects a separation-free tree; node {s} is an S node")
    bottom = t.height()
    root = class_of[t.root]

    # A level at a time, ids given breadth first as nodes are met. Under a
    # formula's merge node, each (rule, child formulas) group of its classes
    # gets a dispatch node, in rule and then child formula_key order.
    # levels[h] maps each class met on level h to its child classes there,
    # its merge id and its dispatch id (None for a leaf); merge maps the
    # formulas met on the level at hand to their merge ids, in id order.
    levels: list[dict[int, tuple[tuple[int, ...], int, int | None]]] = []
    nodes: list[Node] = []
    merge, met, fresh = {shapes[root][0]: 1}, {root}, 2  # fresh: the next id to give out
    for h in range(bottom + 1):
        layer: dict[Formula, dict[tuple, list]] = {f: {} for f in merge}
        for c in met:
            formula, rule, children = shapes[c]
            if rule is Rule.LEAF and h < bottom:
                rule, children = Rule.R, (c,)
            # An I step's discharged antecedent is fixed by the formula.
            key = (rule, tuple(shapes[k][0] for k in children))
            layer[formula].setdefault(key, []).append((c, children))
        level: dict[int, tuple[tuple[int, ...], int, int | None]] = {}
        dispatchers = []  # (id, formula, rule, child formulas)
        for formula, first in merge.items():
            groups = layer[formula]
            ids = []
            for key in sorted(groups, key=lambda k: (k[0].value, [*map(formula_key, k[1])])):
                i = None
                if key[0] is not Rule.LEAF:  # leaves, all on the bottom level, get no dispatcher
                    i, fresh = fresh, fresh + 1
                    ids.append(i)
                    dispatchers.append((i, formula, *key))
                for c, children in groups[key]:
                    level[c] = (children, first, i)
            rule = Rule.S if len(ids) > 1 else Rule.R if ids else Rule.LEAF
            nodes.append(Node(first, formula, rule, 2 * h, tuple(ids)))
        below: dict[Formula, int] = {}
        for i, formula, rule, formulas in dispatchers:
            if rule is Rule.E and is_implication(*formulas, formula):  # build's premise order
                formulas = formulas[::-1]
            children = tuple(below.setdefault(f, fresh + len(below)) for f in formulas)
            nodes.append(Node(i, formula, rule, 2 * h + 1, children))
        fresh += len(below)
        levels.append(level)
        merge = below
        met = {k for children, _, _ in level.values() for k in children}
    out = build(nodes, 1)

    # Depth first in stored child order over (class, height) items, which
    # walks the padded tree as threads() lists it. A unary chain of items is
    # one step: chain(c, h) gives the image ids from item (c, h) down to the
    # next item that branches or is a leaf, with that item's children and
    # height. path is the image of the thread so far; an item at height h
    # keeps its first 2h entries.
    def chain(c: int, h: int) -> tuple[list[int], tuple[int, ...], int]:
        ids = []
        while True:
            children, first, i = levels[h][c]
            ids.append(first)
            if children:
                ids.append(i)
            if len(children) != 1:
                return ids, children, h
            c, h = children[0], h + 1

    chains: dict[tuple[int, int], tuple[list[int], tuple[int, ...], int]] = {}
    images: list[Thread] = []
    path: list[int] = []
    stack = [(root, 0)]
    while stack:
        item = stack.pop()
        got = chains.get(item)
        if got is None:
            got = chains[item] = chain(*item)
        ids, children, h = got
        del path[2 * item[1] :]
        path += ids
        if children:
            stack.extend((k, h + 1) for k in reversed(children))
        else:
            images.append(tuple(path))
    image = _Image(images)
    image.dag = out
    return out, image


def s_eliminate(d: Deduction, choice: dict[tuple[int, int], int]) -> Deduction:
    """Commit each separation edge to its chosen branch and drop the rest.

    Every separation node turns into one repetition node per distinct
    branch index its parents chose (the node keeps its id when all parents
    agree), parents are rewired to their copy, and nodes the root no
    longer reaches are removed. Ids of surviving nodes are kept.

    Parents that disagree add one node per extra branch index, so the
    result can exceed the input in size when commitments diverge; with
    agreeing parents it never grows.
    """
    from .assignment import _committed_branch

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
            index = _committed_branch(choice, (p, s.id), len(s.children))
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

    keep = canonical_map(Deduction(rewired, d.root))  # the ids the root still reaches
    return build([rewired[x] for x in sorted(keep)], d.root)
