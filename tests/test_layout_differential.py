"""``unfold`` and ``level``, both built on ``lay_out``, against the loops
they replaced, on seeded random dags and on the prover's corpus trees."""

import random
from collections import deque

import pytest

from impdag.deduction import Node, Overflow, Rule, build, canonical, is_tree_like, to_dict
from impdag.formula import parse_infix
from impdag.gen import random_local_dag
from impdag.prover import prove
from impdag.transform import DEFAULT_NODE_CAP, level, unfold

from test_acceptance import CORPUS


def reference_unfold(d, cap=DEFAULT_NODE_CAP):
    nodes = []
    queue = deque(((d.root, 1),))
    next_id = 2
    while queue:
        old_id, new_id = queue.popleft()
        old = d.node(old_id)
        child_ids = []
        for c in old.children:
            if next_id > cap:
                return Overflow(cap)
            child_ids.append(next_id)
            queue.append((c, next_id))
            next_id += 1
        nodes.append(Node(new_id, old.formula, old.rule, old.height, tuple(child_ids)))
    return build(nodes, 1)


def reference_level(t):
    if not is_tree_like(t):
        raise ValueError("level() expects a tree-like deduction")
    bottom = max(n.height for n in t.nodes.values())
    short = [n for n in t.nodes.values() if n.rule is Rule.LEAF and n.height < bottom]
    if not short:
        return t

    parent_of = {c: n.id for n in t.nodes.values() for c in n.children}
    nodes = {n.id: n for n in t.nodes.values()}
    next_id = max(nodes) + 1
    for leaf in sorted(short, key=lambda n: n.id):
        chain = list(range(next_id, next_id + bottom - leaf.height))
        next_id += len(chain)
        p = nodes[parent_of[leaf.id]]
        nodes[p.id] = Node(
            p.id,
            p.formula,
            p.rule,
            p.height,
            tuple(chain[0] if c == leaf.id else c for c in p.children),
        )
        links = chain + [leaf.id]
        for offset, (x, below) in enumerate(zip(chain, links[1:])):
            nodes[x] = Node(x, leaf.formula, Rule.R, leaf.height + offset, (below,))
        nodes[leaf.id] = Node(leaf.id, leaf.formula, Rule.LEAF, bottom, ())
    return canonical(build(list(nodes.values()), t.root))


def comparable(result):
    return result if isinstance(result, Overflow) else to_dict(result)


def check_level(tree, seen):
    got, want = level(tree), reference_level(tree)
    assert to_dict(got) == to_dict(want)
    if want is tree:
        assert got is tree
    else:
        seen["padded"] += 1


@pytest.mark.parametrize("share", [0, 0.7])
def test_unfold_and_level_match_the_reference(share):
    seen = {"overflow": 0, "fits": 0, "padded": 0}
    for seed in range(60):
        rng = random.Random(seed)
        d = random_local_dag(rng, max_nodes=rng.randint(2, 150), share=share)
        n = len(reference_unfold(d).nodes)
        for cap in sorted({1, 2, 3, n - 1, n, n + 1, DEFAULT_NODE_CAP}):
            got, want = unfold(d, cap), reference_unfold(d, cap)
            assert comparable(got) == comparable(want), (seed, cap)
            if isinstance(want, Overflow):
                seen["overflow"] += 1
            else:
                seen["fits"] += 1
                check_level(got, seen)
    assert all(seen.values()), seen


def test_level_matches_the_reference_on_prover_trees():
    seen = {"padded": 0}
    for text in CORPUS:
        check_level(prove(parse_infix(text)), seen)
    assert seen["padded"]
