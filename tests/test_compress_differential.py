"""``compress`` over subtree classes, padding short branches itself, against
the per-node body it replaced, which needed a leveled tree. Both ``compress(t)``
and ``compress(level(t))`` must give the reference's dag and thread image for
``level(t)``, on the prover's corpus and family trees, on seeded trees closed
by an introduction chain, and on unfolded dags with separation nodes, whole
and with subtrees cut off."""

import random

from impdag.checker import check_local_correctness
from impdag.deduction import Node, Rule, build, canonical_map, is_tree_like, renumber, to_dict
from impdag.formula import Formula, Implication, formula_key, parse_infix
from impdag.gen import random_local_dag
from impdag.prover import family, prove
from impdag.transform import compress, level, unfold

from conftest import random_separation_dag
from test_acceptance import CORPUS


def reference_compress(t):
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

    rep_of: dict[int, int] = {}
    disp_of: dict[int, int] = {}
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

    images: dict[tuple[int, ...], None] = {}
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


def closed_tree(seed):
    """A random unleveled tree under an introduction chain that discharges
    its leaf formulas, all but one of them half the time."""
    rng = random.Random(seed)
    tree = unfold(random_local_dag(rng, max_nodes=rng.randint(2, 60), share=0))
    by_id = (tree.node(i) for i in sorted(tree.nodes))
    hypotheses = list(dict.fromkeys(n.formula for n in by_id if n.rule is Rule.LEAF))
    rng.shuffle(hypotheses)
    if rng.random() < 0.5:
        hypotheses.pop()
    k = len(hypotheses)
    nodes = [
        Node(n.id + k, n.formula, n.rule, n.height + k, tuple(c + k for c in n.children))
        for n in tree.nodes.values()
    ]
    below, formula = tree.root + k, tree.node(tree.root).formula
    for depth in reversed(range(k)):
        formula = Implication(hypotheses[depth], formula)
        nodes.append(Node(depth + 1, formula, Rule.I, depth, (below,)))
        below = depth + 1
    return build(nodes, below)


def pruned(tree, rng):
    """``tree`` with up to three inner nodes cut down to leaves of their
    formula, which leaves it unleveled."""
    cut = set(rng.sample(sorted(tree.nodes.keys() - {tree.root}), min(3, len(tree.nodes) - 1)))
    nodes, stack = [], [tree.root]
    while stack:
        n = tree.node(stack.pop())
        if n.id in cut:
            n = Node(n.id, n.formula, Rule.LEAF, n.height)
        nodes.append(n)
        stack.extend(n.children)
    return build(nodes, tree.root)


def has_s(d):
    return any(n.rule is Rule.S for n in d.nodes.values())


def check(tree, seen):
    leveled = level(tree)
    want_dag, want_image = reference_compress(leveled)
    for got_dag, got_image in map(compress, (tree,) if leveled is tree else (tree, leveled)):
        assert to_dict(got_dag) == to_dict(want_dag)
        assert got_image == want_image
    seen["unleveled"] += leveled is not tree
    seen["s_in"] += has_s(tree)
    seen["s_out"] += has_s(want_dag)


def test_prover_trees_match_the_reference():
    seen = {"unleveled": 0, "s_in": 0, "s_out": 0}
    names = [parse_infix(text) for text in CORPUS] + [family(n) for n in range(1, 6)]
    for f in names:
        check(prove(f), seen)
    assert seen["unleveled"], seen


def test_closed_random_trees_match_the_reference():
    seen = {"unleveled": 0, "s_in": 0, "s_out": 0}
    for seed in range(240):
        check(closed_tree(seed), seen)
    assert seen["unleveled"] and seen["s_out"], seen


def test_unfolded_separation_dags_match_the_reference():
    seen = {"unleveled": 0, "s_in": 0, "s_out": 0}
    for seed in range(200):
        made = random_separation_dag(seed)
        if made is not None:
            tree = unfold(made[0])
            check(tree, seen)
            check(pruned(tree, random.Random(seed)), seen)
    assert seen["unleveled"] and seen["s_in"] and seen["s_out"], seen
