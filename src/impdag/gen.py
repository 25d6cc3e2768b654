"""Seeded generators used by the test harness.

Everything here is deterministic for a fixed seed. The dag generators build
structurally valid, locally correct, separation-free deductions top down:
each expansion step only ever creates children whose formulas satisfy the
rule of the parent, so no repair pass is needed.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Iterable

from .checker import TupleEncoding
from .deduction import Deduction, Node, Rule, build, canonical
from .formula import Atom, Formula, Implication, formula_key, weight
from .prover import oracle_valid, prove
from .transform import compress, level

__all__ = [
    "random_formula",
    "enumerate_formulas",
    "provable_pool",
    "random_local_dag",
    "random_proving_dag",
    "corrupt_encoding",
]

DEFAULT_ATOMS = ("a", "b", "c")


def random_formula(rng: random.Random, max_weight: int = 7, atoms: Iterable[str] = DEFAULT_ATOMS) -> Formula:
    names = tuple(atoms)
    if max_weight < 3 or rng.random() < 0.4:
        return Atom(rng.choice(names))
    # split the remaining weight budget between the two sides
    left = random_formula(rng, (max_weight - 1) // 2, names)
    right = random_formula(rng, max_weight - 1 - weight(left), names)
    return Implication(left, right)


def enumerate_formulas(max_weight: int, atoms: Iterable[str]) -> list[Formula]:
    """Every implicational formula over ``atoms`` up to ``max_weight``, ordered."""
    names = tuple(atoms)
    by_weight: dict[int, list[Formula]] = {1: [Atom(n) for n in names]}
    for w in range(3, max_weight + 1, 2):
        forms: list[Formula] = []
        for wl in range(1, w - 1, 2):
            wr = w - 1 - wl
            for f in by_weight.get(wl, []):
                for g in by_weight.get(wr, []):
                    forms.append(Implication(f, g))
        by_weight[w] = forms
    out: list[Formula] = []
    for w in sorted(by_weight):
        if w <= max_weight:
            out.extend(by_weight[w])
    return sorted(out, key=formula_key)


def provable_pool(max_weight: int = 9, atoms: Iterable[str] = ("a", "b")) -> list[Formula]:
    """Every valid formula over ``atoms`` up to ``max_weight``."""
    return [f for f in enumerate_formulas(max_weight, atoms) if oracle_valid(f)]


def random_local_dag(
    rng: random.Random,
    max_nodes: int = 40,
    atoms: Iterable[str] = DEFAULT_ATOMS,
    share: float = 0.5,
    max_weight: int = 7,
) -> Deduction:
    """Locally correct, separation-free dag with at most ``max_nodes`` nodes.

    Grows level by level from a random root formula; each child slot is
    filled by a rule-compatible formula and, with probability ``share``,
    reuses a node already created for that formula at the same level.
    Ids come out in canonical order.
    """
    if max_nodes < 2:
        raise ValueError("a deduction with a non-leaf root needs at least 2 nodes")
    names = tuple(atoms)
    made: list[Node] = []
    frontier: list[tuple[int, Formula, int]] = [(1, random_formula(rng, max_weight, names), 0)]
    next_id = 2
    total = 1
    while frontier:
        level_nodes: dict[Formula, int] = {}
        coming: list[tuple[int, Formula, int]] = []

        def place(formula: Formula, height: int) -> int:
            nonlocal next_id, total
            if formula in level_nodes and rng.random() < share:
                return level_nodes[formula]
            node_id = next_id
            next_id += 1
            total += 1
            level_nodes[formula] = node_id
            coming.append((node_id, formula, height))
            return node_id

        for node_id, formula, height in frontier:
            room = max_nodes - total
            options = []
            if height > 0:
                options.append(Rule.LEAF)
            if room >= 1:
                options.extend((Rule.R, Rule.R))
                if isinstance(formula, Implication):
                    options.extend((Rule.I, Rule.I))
            if room >= 2:
                options.extend((Rule.E, Rule.E))
            rule = rng.choice(options)
            if rule is Rule.LEAF:
                children: tuple[int, ...] = ()
            elif rule is Rule.R:
                children = (place(formula, height + 1),)
            elif rule is Rule.I:
                assert isinstance(formula, Implication)
                children = (place(formula.consequent, height + 1),)
            else:
                minor = random_formula(rng, 5, names)
                children = (
                    place(minor, height + 1),
                    place(Implication(minor, formula), height + 1),
                )
            made.append(Node(node_id, formula, rule, height, children))
        frontier = coming
    return canonical(build(made, 1))


def random_proving_dag(rng: random.Random, provable: list[Formula]) -> Deduction:
    """A proving, separation-free deduction for a random pool formula.

    Mixes shapes: the raw search tree, its leveled form, or the leveled
    form compressed (kept only when no separation node appears), with
    occasional repetition or introduction wrappers over the root.
    """
    d = prove(rng.choice(provable))
    assert d is not None
    form = rng.randrange(3)
    if form >= 1:
        d = level(d)
    if form == 2:
        dag, _ = compress(d)
        if all(n.rule is not Rule.S for n in dag.nodes.values()):
            d = dag
    for _ in range(rng.randrange(3)):
        d = _wrap_root(rng, d)
    return canonical(d)


def _wrap_root(rng: random.Random, d: Deduction) -> Deduction:
    root = d.node(d.root)
    lifted = [
        Node(n.id, n.formula, n.rule, n.height + 1, n.children) for n in d.nodes.values()
    ]
    new_id = max(d.nodes) + 1
    if rng.random() < 0.5:
        top = Node(new_id, root.formula, Rule.R, 0, (d.root,))
    else:
        hypothesis = random_formula(rng, 3, DEFAULT_ATOMS)
        top = Node(new_id, Implication(hypothesis, root.formula), Rule.I, 0, (d.root,))
    return build(lifted + [top], new_id)


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
