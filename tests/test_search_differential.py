"""``search_choice``'s pruned depth-first search against the enumeration it
replaced, which evaluated the whole dag under every commitment in turn, and
the certificates it returns against the three deciders.

Inputs: the ``TestSearchChoice`` fixtures, seeded ``random_separation_dag``s,
and trees built as the benchmark's ``sep`` workload builds them (a random
local dag unfolded, leveled, closed by an introduction chain that leaves
one leaf formula open half the time, then compressed), kept while the
enumeration has at most 2^12 commitments to try.
"""

import math
import random
from collections import deque

import pytest

from impdag.assignment import ChoiceError, prov, prov1, search_choice
from impdag.deduction import Node, Overflow, Rule, build, proves_by_threads
from impdag.formula import Implication, formula_key, is_implication
from impdag.gen import random_local_dag
from impdag.transform import compress, level, s_eliminate, unfold

from conftest import (
    diamond_dag,
    random_separation_dag,
    sep_all_closed_dag,
    sep_proof_dag,
    sep_stuck_dag,
)
from test_assignment import identity_proof, separation_root, two_edge_dag

MAX_COMMITMENTS = 2**12


# ------------------------------------------------ the enumeration, verbatim


def reference_evaluate(d, choice):
    vals = {}

    def resolve(parent, child_id):
        child = d.node(child_id)
        if child.rule is not Rule.S:
            return vals[child_id]
        key = (parent.id, child_id)
        if key not in choice:
            raise ChoiceError(f"no branch chosen for edge {key}")
        index = choice[key]
        if not 1 <= index <= len(child.children):
            raise ChoiceError(
                f"edge {key}: branch {index} out of range 1..{len(child.children)}"
            )
        branch = d.node(child.children[index - 1])
        if branch.rule is Rule.S:
            raise ValueError(f"separation node {branch.id} directly under {child_id}")
        return vals[branch.id]

    for n in sorted(d.nodes.values(), key=lambda n: (-n.height, n.id)):
        if n.rule is Rule.S:
            continue
        if n.rule is Rule.LEAF:
            vals[n.id] = frozenset((n.formula,))
        elif n.rule is Rule.R:
            vals[n.id] = resolve(n, n.children[0])
        elif n.rule is Rule.I:
            vals[n.id] = resolve(n, n.children[0]) - {_discharged(n)}
        else:
            minor, major = _premises(d, n)
            vals[n.id] = resolve(n, minor) | resolve(n, major)
    return vals


def reference_search_choice(d):
    if d.node(d.root).rule is Rule.S:
        return None
    edges = _separation_edges(d)
    if not edges:
        return {} if reference_evaluate(d, {})[d.root] == frozenset() else None
    arities = [len(d.node(s).children) for _, s in edges]
    indices = [1] * len(edges)
    while True:
        choice = dict(zip(edges, indices))
        if reference_evaluate(d, choice)[d.root] == frozenset():
            return choice
        pos = len(indices) - 1
        while pos >= 0 and indices[pos] == arities[pos]:
            indices[pos] = 1
            pos -= 1
        if pos < 0:
            return None
        indices[pos] += 1


def _separation_edges(d):
    edges = {}
    seen = {d.root}
    queue = deque((d.root,))
    while queue:
        n = d.node(queue.popleft())
        for c in n.children:
            if d.node(c).rule is Rule.S:
                edges[n.id, c] = None
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return list(edges)


def _discharged(n):
    if not isinstance(n.formula, Implication):
        raise ValueError(f"introduction node {n.id} concludes a non-implication")
    return n.formula.antecedent


def _premises(d, n):
    y, z = n.children
    if is_implication(d.node(z).formula, d.node(y).formula, n.formula):
        return y, z
    if is_implication(d.node(y).formula, d.node(z).formula, n.formula):
        return z, y
    raise ValueError(f"elimination node {n.id} has no major premise")


# ------------------------------------------------------------------ inputs


def commitments(d):
    return math.prod(len(d.node(s).children) for _, s in _separation_edges(d))


def sep_workload_dag(rng):
    """A dag as the benchmark's ``sep`` set-up draws one, or None when the
    unfolding overflows or the compressed root is a separation node."""
    tree = unfold(random_local_dag(rng, max_nodes=60, atoms=("a", "b", "c"), share=0))
    if isinstance(tree, Overflow):
        return None
    tree = level(tree)
    leaf_formulas = sorted(
        {n.formula for n in tree.nodes.values() if n.rule is Rule.LEAF}, key=formula_key
    )
    if rng.random() < 0.5:
        leaf_formulas.remove(rng.choice(leaf_formulas))
    rng.shuffle(leaf_formulas)
    k = len(leaf_formulas)
    nodes = [Node(n.id, n.formula, n.rule, n.height + k, n.children) for n in tree.nodes.values()]
    top, formula, next_id = tree.root, tree.node(tree.root).formula, max(tree.nodes) + 1
    for height, hypothesis in zip(range(k - 1, -1, -1), leaf_formulas):
        formula = Implication(hypothesis, formula)
        nodes.append(Node(next_id, formula, Rule.I, height, (top,)))
        top, next_id = next_id, next_id + 1
    dag, _ = compress(build(nodes, top))
    return None if dag.node(dag.root).rule is Rule.S else dag


def generated_dags():
    dags = [made[0] for made in map(random_separation_dag, range(250)) if made is not None]
    rng = random.Random(2024)
    for _ in range(300):
        dag = sep_workload_dag(rng)
        if dag is not None:
            dags.append(dag)
    return [d for d in dags if commitments(d) <= MAX_COMMITMENTS]


FIXTURES = [
    sep_stuck_dag,
    sep_proof_dag,
    sep_all_closed_dag,
    identity_proof,
    diamond_dag,
    two_edge_dag,
    separation_root,
]


@pytest.fixture(scope="module")
def answered():
    """Each generated dag with the enumeration's answer."""
    return [(d, reference_search_choice(d)) for d in generated_dags()]


# ------------------------------------------------------------------- tests


@pytest.mark.parametrize("make", FIXTURES, ids=lambda make: make.__name__)
def test_fixtures_match_enumeration(make):
    d = make()
    assert search_choice(d) == reference_search_choice(d)


def test_generated_dags_match_enumeration(answered):
    for d, expected in answered:
        found = search_choice(d)
        assert found == expected
        if found is not None:
            assert list(found) == list(expected)  # same edge order


def test_generated_dags_cover_both_verdicts_and_large_searches(answered):
    bands = {True: [], False: []}  # ceil(log2 commitments) per verdict
    for d, expected in answered:
        bands[expected is not None].append(math.ceil(math.log2(commitments(d))))
    assert sum(band > 0 for band in bands[True] + bands[False]) >= 200
    assert max(bands[True]) == 12
    assert max(bands[False]) >= 10
    assert 0 in bands[True] and 0 in bands[False], "separation-free dags missing"


def test_certificates_prove(answered):
    certified = 0
    for d, choice in answered:
        if choice is None:
            continue
        cleansed = s_eliminate(d, choice)
        assert prov(cleansed) and prov1(cleansed)
        tree = unfold(cleansed)
        assert not isinstance(tree, Overflow)
        assert proves_by_threads(tree) is True
        certified += 1
    assert certified >= 100
