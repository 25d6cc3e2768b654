"""``check_local_correctness`` against the version it replaced, which
visited the nodes sorted by id; the final sort by (condition, node) orders
the report, so the node order must not show.

Inputs: hand-assembled faulty deductions; the deductions that encodings
damaged by ``corrupt_encoding`` describe; and seeded random dags, corpus
proofs and their compressed forms with one to three nodes mutated (formula,
rule, height or children), each also with its node map in shuffled order.
On every node map that ``build`` accepts, the violation list is compared
in order with the reference's. On every map it rejects, the check raises
its StructureError, with the same text.
"""

import copy
import random

import pytest

from impdag.checker import LCReport, Violation, check_local_correctness, encode
from impdag.deduction import Deduction, Node, Rule, StructureError, build
from impdag.formula import Implication, is_implication, parse_infix
from impdag.gen import random_local_dag
from impdag.prover import prove
from impdag.transform import compress

from conftest import (
    corrupt_encoding,
    diamond_dag,
    merge_pair_tree,
    mk,
    random_separation_dag,
    sep_proof_dag,
    sep_stuck_dag,
)
from test_acceptance import CORPUS

# ------------------------------------------------- the old check, verbatim


def reference_check_local_correctness(d):
    violations = []

    def flag(condition, node, message):
        violations.append(Violation(condition, node, message))

    root = d.node(d.root)
    if root.height != 0:
        flag("1b", root.id, "root height is not 0")
    if any(root.id in n.children for n in d.nodes.values()):
        flag("1a", root.id, "root has a parent")
    if root.rule is Rule.LEAF:
        flag("3", root.id, "root is a leaf")

    for n in sorted(d.nodes.values(), key=lambda n: n.id):
        if n.rule is Rule.LEAF and n.children:
            flag("1a", n.id, "leaf has children")
        for c in n.children:
            if d.node(c).height != n.height + 1:
                flag("1c", n.id, f"child {c} is not one level up")
        if n.rule is Rule.R:
            if len(n.children) == 1 and d.node(n.children[0]).formula != n.formula:
                flag("2a", n.id, "repetition child formula differs")
        elif n.rule is Rule.I:
            if len(n.children) == 1:
                child = d.node(n.children[0])
                ok = (
                    isinstance(n.formula, Implication)
                    and n.formula.consequent == child.formula
                )
                if not ok:
                    flag("2b", n.id, "conclusion does not introduce onto the child formula")
        elif n.rule is Rule.E:
            if len(n.children) == 2:
                y, z = (d.node(c) for c in n.children)
                straight = is_implication(z.formula, y.formula, n.formula)
                swapped = is_implication(y.formula, z.formula, n.formula)
                if not (straight or swapped):
                    flag("2c", n.id, "no premise is the other premise arrow the conclusion")
        elif n.rule is Rule.S:
            for c in n.children:
                ch = d.node(c)
                if ch.formula != n.formula:
                    flag("2d", n.id, f"separation child {c} changes the formula")
                if ch.rule is Rule.S:
                    flag("2d", n.id, f"separation child {c} is itself a separation")

    ordered = tuple(sorted(violations, key=lambda v: (str(v.condition), v.node or 0)))
    return LCReport(not ordered, ordered)


# ------------------------------------------------------------------ inputs


def raw(nodes, root):
    return Deduction({n.id: n for n in nodes}, root)


FAULTY = [
    raw([mk(1, "a", "LEAF", 0)], 1),
    raw([mk(1, "a", "R", 0, (2,)), mk(2, "b", "LEAF", 1)], 1),
    raw([mk(1, "a -> b", "I", 0, (2,)), mk(2, "a", "LEAF", 1)], 1),
    raw([mk(1, "a", "I", 0, (2,)), mk(2, "a", "LEAF", 1)], 1),
    raw([mk(1, "b", "E", 0, (2, 3)), mk(2, "a", "LEAF", 1), mk(3, "a -> g", "LEAF", 1)], 1),
    raw([mk(1, "a", "S", 0, (2, 3)), mk(2, "a", "LEAF", 1), mk(3, "b", "LEAF", 1)], 1),
    raw([
        mk(1, "a", "S", 0, (2, 3)), mk(2, "a", "LEAF", 1), mk(3, "a", "S", 1, (4, 5)),
        mk(4, "a", "LEAF", 2), mk(5, "a", "LEAF", 2),
    ], 1),
    raw([mk(1, "a", "R", 2, (2,)), mk(2, "a", "LEAF", 4, (3,)), mk(3, "a", "LEAF", 5)], 1),
    raw([mk(1, "a", "R", 1, (2,)), mk(2, "b", "LEAF", 2)], 1),
    raw([mk(1, "a", "LEAF", 1, (2, 1)), mk(2, "b", "S", 0, (1, 1))], 1),
    raw([mk(3, "a", "R", 0, (1,)), mk(1, "b", "R", 1, (2,)), mk(2, "g", "LEAF", 1)], 3),
    raw([mk(1, "a", "R", 0, (2,))], 1),
    raw([mk(1, "a -> a", "I", 0, (2,)), mk(2, "a", "R", 1, (3, 4))], 1),
    raw([mk(1, "a", "LEAF", 0)], 2),
]

_RULE_OF = {"L": Rule.LEAF, "R": Rule.R, "I": Rule.I, "E": Rule.E}


def described(t):
    """The deduction a (possibly damaged) encoding's rows describe, taken as
    given; rows whose formula codes leave the table are dropped."""
    table = t.formula_table
    nodes = {}
    for row in t.rows:
        if 1 <= row.gamma <= len(table):
            children = tuple(y for y in (row.y1, row.y2) if y)
            nodes[row.x] = Node(row.x, table[row.gamma - 1], _RULE_OF[row.chi], row.h, children)
    return Deduction(nodes, 1 if 1 in nodes else min(nodes))


def mutated(d, rng):
    """``d`` with one to three nodes changed, assembled without ``build``."""
    nodes = dict(d.nodes)
    ids = list(nodes)
    formulas = [n.formula for n in nodes.values()]
    for _ in range(rng.randint(1, 3)):
        n = nodes[rng.choice(ids)]
        formula, rule, height, children = n.formula, n.rule, n.height, n.children
        roll = rng.randrange(4)
        if roll == 0:
            formula = rng.choice(formulas)
        elif roll == 1:
            rule = rng.choice(list(Rule))
        elif roll == 2:
            height += rng.choice((-1, 1))
        else:
            children = tuple(rng.sample(ids, rng.randint(0, min(3, len(ids)))))
        nodes[n.id] = Node(n.id, formula, rule, height, children)
    return Deduction(nodes, d.root)


def shuffled(d, rng):
    items = list(d.nodes.items())
    rng.shuffle(items)
    return Deduction(dict(items), d.root)


def valid_dags(rng):
    dags = [diamond_dag(), merge_pair_tree(), sep_proof_dag(), sep_stuck_dag()]
    dags += [random_local_dag(rng, max_nodes=rng.randint(2, 300)) for _ in range(60)]
    for text in CORPUS:
        tree = prove(parse_infix(text))
        dags += [tree, compress(tree)[0]]
    dags += [found[0] for found in map(random_separation_dag, range(20)) if found]
    return dags


CLEAN = LCReport(True, ())


def outcome(check, d):
    """The report ``check`` gives, or the type and text it raises."""
    try:
        return check(d)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return ("raised", type(exc), str(exc))


def expected(d):
    """The reference report where ``build`` accepts the node map of ``d``;
    where it rejects it, the type and text of its StructureError."""
    try:
        build(d.nodes.values(), d.root)
    except StructureError as exc:
        return ("raised", StructureError, str(exc))
    return reference_check_local_correctness(d)


def assert_same(d, rng):
    want = expected(d)
    assert outcome(check_local_correctness, d) == want
    # The report kept on d is the one a copy, which keeps none, computes.
    assert outcome(check_local_correctness, d) == outcome(check_local_correctness, copy.copy(d))
    # build names violations in node map order, the reference in id order.
    twin = shuffled(d, rng)
    assert outcome(check_local_correctness, twin) == expected(twin)
    return want


# ------------------------------------------------------------------- tests


def test_faulty_fixtures_match():
    rng = random.Random(1)
    outcomes = [assert_same(d, rng) for d in FAULTY]
    assert CLEAN not in outcomes
    assert sum(isinstance(want, LCReport) for want in outcomes) == 7  # build accepts these


def test_valid_dags_match():
    rng = random.Random(2)
    for d in valid_dags(rng):
        assert assert_same(d, rng) == CLEAN


@pytest.mark.parametrize("condition", range(1, 9))
def test_corrupted_encodings_match(condition):
    rng = random.Random(condition)
    damaged = 0
    for d in valid_dags(random.Random(3)):
        if any(n.rule is Rule.S for n in d.nodes.values()):
            continue
        try:
            t = corrupt_encoding(rng, encode(d), condition)
        except ValueError:
            continue  # no row the strategy applies to
        assert_same(described(t), rng)
        damaged += 1
    assert damaged >= 20


def test_mutated_dags_match():
    rng = random.Random(4)
    outcomes = [assert_same(mutated(d, rng), rng) for d in valid_dags(random.Random(5))
                for _ in range(5)]
    assert sum(want != CLEAN for want in outcomes) >= 300
    # build accepts enough faulty mutants for the reference to judge
    assert sum(isinstance(want, LCReport) and not want.ok for want in outcomes) >= 50
