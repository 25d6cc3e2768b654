"""``compress`` over subtree classes, padding short branches itself, against
the per-node body it replaced, which needed a leveled tree. Both ``compress(t)``
and ``compress(level(t))`` must give the reference's dag and thread image for
``level(t)``, on the prover's corpus and family trees, on seeded trees closed
by an introduction chain, on those trees with repetition chains inserted
above leaves, and on unfolded dags with separation nodes, whole and with
subtrees cut off; a tree that keeps a separation node must be
refused with ValueError, as merging its branches breaks clause 2d. Where the dag has no separation node, the image
must be its ``threads``, in order. The sizes of the compressed family
proofs are pinned to their closed forms."""

import random

import pytest

from impdag.checker import check_local_correctness
from impdag.deduction import (
    Node,
    Rule,
    build,
    canonical_map,
    is_tree_like,
    renumber,
    threads,
    to_dict,
)
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


def with_repetitions(tree, rng):
    """``tree`` with a chain of one to three R nodes inserted above each of up
    to three random leaves, and the ids of the inserted nodes."""
    leaves = sorted(n.id for n in tree.nodes.values() if n.rule is Rule.LEAF)
    chains = {i: rng.randint(1, 3) for i in rng.sample(leaves, min(3, len(leaves)))}
    nodes, inserted, fresh = [], [], max(tree.nodes) + 1
    stack = [(tree.root, 0)]
    while stack:
        node_id, height = stack.pop()
        n = tree.node(node_id)
        kids = []
        for c in n.children:
            k, below = chains.get(c, 0), c
            for depth in range(height + k, height, -1):  # the chain's bottom first
                nodes.append(Node(fresh, tree.node(c).formula, Rule.R, depth, (below,)))
                inserted.append(fresh)
                below, fresh = fresh, fresh + 1
            kids.append(below)
            stack.append((c, height + k + 1))
        nodes.append(Node(n.id, n.formula, n.rule, height, tuple(kids)))
    return build(nodes, tree.root), inserted


def placements(t, inserted):
    """Where the inserted R nodes of ``t`` sit, by the names of the cases the
    padding collapse must get right."""
    bottom, root = t.height(), t.node(t.root)
    bare = {(n.formula, n.height) for n in t.nodes.values() if n.rule is Rule.LEAF}
    found = set()
    for i in inserted:
        n = t.node(i)
        if t.node(n.children[0]).rule is Rule.LEAF:
            found.add("above the bottom" if n.height == bottom - 1 else "mid-tree")
        if (n.formula, n.height) in bare:
            found.add("beside a bare leaf")
        if i in root.children:
            found.add("the root's child")
        if any(t.node(p).rule is Rule.E for p in t.parents[i]):
            found.add("an E premise")
    return found


def has_s(d):
    return any(n.rule is Rule.S for n in d.nodes.values())


def check(tree, seen):
    leveled = level(tree)
    want_dag, want_image = reference_compress(leveled)
    for got_dag, got_image in map(compress, (tree,) if leveled is tree else (tree, leveled)):
        assert to_dict(got_dag) == to_dict(want_dag)
        assert got_image == want_image
        if not has_s(got_dag):
            assert got_image == tuple(threads(got_dag))
    seen["unleveled"] += leveled is not tree
    seen["s_in"] += has_s(tree)
    seen["s_out"] += has_s(want_dag)


def test_prover_trees_match_the_reference():
    seen = {"unleveled": 0, "s_in": 0, "s_out": 0}
    names = [parse_infix(text) for text in CORPUS] + [family(n) for n in range(1, 7)]
    for f in names:
        check(prove(f), seen)
    assert seen["unleveled"], seen


def test_family_sizes_follow_their_closed_forms():
    for n in range(1, 9):
        dag, image = compress(prove(family(n)))
        assert len(dag.nodes) == 19 * n * n - 2 * n + 3
        assert len(image) == (4 ** (n + 1) - 1) // 3


def test_closed_random_trees_match_the_reference():
    seen = {"unleveled": 0, "s_in": 0, "s_out": 0}
    for seed in range(240):
        check(closed_tree(seed), seen)
    assert seen["unleveled"] and seen["s_out"], seen


def test_repetition_chains_above_leaves_match_the_reference():
    """Genuine R nodes over leaves take the leaf's class when hash-consed,
    as the padding of a leveled tree does."""
    seen = {"unleveled": 0, "s_in": 0, "s_out": 0}
    found = set()
    for seed in range(240):
        rng = random.Random(seed)
        tree = closed_tree(seed)
        for t in (tree, pruned(tree, rng)):
            t, inserted = with_repetitions(t, rng)
            check(t, seen)
            found |= placements(t, inserted)
    assert seen["unleveled"] and seen["s_out"], seen
    assert found == {
        "mid-tree", "above the bottom", "beside a bare leaf", "the root's child", "an E premise"
    }, found


def test_unfolded_separation_dags_match_the_reference():
    seen = {"unleveled": 0, "s_in": 0, "s_out": 0, "refused": 0}
    for seed in range(200):
        made = random_separation_dag(seed)
        if made is not None:
            tree = unfold(made[0])
            for t in (tree, pruned(tree, random.Random(seed))):
                if has_s(t):
                    with pytest.raises(ValueError, match="^compress.. expects a separation-free"):
                        compress(t)
                    seen["refused"] += 1
                else:
                    check(t, seen)
    assert seen["unleveled"] and seen["refused"], seen
