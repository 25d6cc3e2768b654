"""Shared builders for hand-made deductions used across the test suite,
a seeded generator of compressed dags with separation nodes, and a
corruptor of tuple encodings."""

import random
from dataclasses import replace

from impdag.checker import TupleEncoding
from impdag.deduction import Deduction, Node, Rule, Thread, build
from impdag.formula import Implication, parse_infix
from impdag.gen import random_local_dag
from impdag.transform import compress, level, unfold


def mk(node_id: int, formula: str, rule: str, height: int, children=()) -> Node:
    return Node(node_id, parse_infix(formula), Rule[rule], height, tuple(children))


def sep_stuck_dag() -> Deduction:
    """Two derivations of a -> b joined by a separation node under one
    discharge; neither branch choice empties the root assignment."""
    return build(
        [
            mk(1, "g -> a -> b", "I", 0, [2]),
            mk(2, "a -> b", "S", 1, [3, 4]),
            mk(3, "a -> b", "I", 2, [5]),
            mk(4, "a -> b", "E", 2, [6, 7]),
            mk(5, "b", "LEAF", 3),
            mk(6, "g", "LEAF", 3),
            mk(7, "g -> a -> b", "LEAF", 3),
        ],
        root=1,
    )


def sep_proof_dag() -> Deduction:
    """The same two-branch separation under one more discharge; choosing the
    first branch empties the root assignment."""
    return build(
        [
            mk(1, "b -> g -> a -> b", "I", 0, [2]),
            mk(2, "g -> a -> b", "I", 1, [3]),
            mk(3, "a -> b", "S", 2, [4, 5]),
            mk(4, "a -> b", "I", 3, [6]),
            mk(5, "a -> b", "E", 3, [7, 8]),
            mk(6, "b", "LEAF", 4),
            mk(7, "g", "LEAF", 4),
            mk(8, "g -> a -> b", "LEAF", 4),
        ],
        root=1,
    )


def sep_all_closed_dag() -> Deduction:
    """A 9-node dag whose separation node joins two genuinely different
    closed derivations of a -> b; every maximal thread is closed."""
    return build(
        [
            mk(1, "(g -> a -> b) -> b -> g -> a -> b", "I", 0, [2]),
            mk(2, "b -> g -> a -> b", "I", 1, [3]),
            mk(3, "g -> a -> b", "I", 2, [4]),
            mk(4, "a -> b", "S", 3, [5, 6]),
            mk(5, "a -> b", "I", 4, [7]),
            mk(6, "a -> b", "E", 4, [8, 9]),
            mk(7, "b", "LEAF", 5),
            mk(8, "g", "LEAF", 5),
            mk(9, "g -> a -> b", "LEAF", 5),
        ],
        root=1,
    )


def merge_pair_tree() -> Deduction:
    """A leveled tree holding two same-level derivations of a -> b, one by
    introduction and one by elimination, joined under an elimination root.
    Compressing it must merge the pair into a single separation node."""
    return build(
        [
            mk(1, "a -> b", "E", 0, [2, 3]),
            mk(2, "g -> a -> b", "I", 1, [4]),
            mk(3, "(g -> a -> b) -> a -> b", "I", 1, [5]),
            mk(4, "a -> b", "I", 2, [6]),
            mk(5, "a -> b", "E", 2, [7, 8]),
            mk(6, "b", "LEAF", 3),
            mk(7, "g", "LEAF", 3),
            mk(8, "g -> a -> b", "LEAF", 3),
        ],
        root=1,
    )


def diamond_dag() -> Deduction:
    """Root elimination whose two premises share one leaf."""
    return build(
        [
            mk(1, "a", "E", 0, [2, 3]),
            mk(2, "a", "R", 1, [4]),
            mk(3, "a -> a", "I", 1, [4]),
            mk(4, "a", "LEAF", 2),
        ],
        root=1,
    )


def random_separation_dag(seed: int) -> tuple[Deduction, tuple[Thread, ...]] | None:
    """Compress a random leveled tree under an introduction chain that
    discharges every leaf formula, or all but one of them half the time.

    Returns the dag and the image of the tree's threads, or None when the
    root of the dag is a separation node.
    """
    rng = random.Random(seed)
    tree = level(unfold(random_local_dag(rng, max_nodes=60, share=0)))
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
    dag, image = compress(build(nodes, below))
    if dag.node(dag.root).rule is Rule.S:
        return None
    return dag, image


def corrupt_encoding(rng: random.Random, t: TupleEncoding, condition: int) -> TupleEncoding:
    """Damage one row so check_tuples flags ``condition`` (1 to 8).

    The mutation may trip neighbouring conditions as well; the promise
    is only that the requested one is among the flagged. Raises
    ValueError when the encoding has no row the strategy applies to.
    """
    rows = list(t.rows)

    def pick(matching) -> int:
        eligible = [i for i, row in enumerate(rows) if matching(row)]
        if not eligible:
            raise ValueError(f"no row eligible for condition {condition}")
        return rng.choice(eligible)

    def other_code(code: int) -> int:
        if len(t.formula_table) < 2:
            raise ValueError(f"no row eligible for condition {condition}")
        return rng.choice([c for c in range(1, len(t.formula_table) + 1) if c != code])

    if condition == 1:
        i = pick(lambda row: True)
        rows[i] = replace(rows[i], x=t.b + 1)
    elif condition == 2:
        i = pick(lambda row: row.y1 != 0)
        rows[i] = replace(rows[i], y1=t.b + 1)
    elif condition == 3:
        i = pick(lambda row: row.h == 0)
        rows[i] = replace(rows[i], h=1)
    elif condition == 4:
        i = pick(lambda row: row.chi == "L")
        rows[i] = replace(rows[i], h1=1)
    elif condition == 5:
        i = pick(lambda row: row.chi != "L")
        rows[i] = replace(rows[i], h1=rows[i].h1 + 1)
    elif condition == 6:
        i = pick(lambda row: row.chi == "R")
        rows[i] = replace(rows[i], beta1=other_code(rows[i].beta1))
    elif condition == 7:
        i = pick(lambda row: row.chi == "I")
        target = pick(lambda row: True)
        rows[i] = replace(rows[i], y2=rows[target].x, h2=rows[i].h + 1)
    elif condition == 8:
        i = pick(lambda row: row.chi == "E")
        rows[i] = replace(rows[i], gamma=other_code(rows[i].gamma))
    else:
        raise ValueError(f"no corruption strategy for condition {condition}")
    return replace(t, rows=tuple(rows))
