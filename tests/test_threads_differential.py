"""``threads`` and ``proves_by_threads`` against the thread enumerator they
replaced, which lists threads depth first and returns Overflow once it
would list more than ``cap``.

Inputs: seeded separation-free dags from ``random_local_dag`` with no
sharing and with share 0.7, and the compressed dags with separation nodes
of ``conftest.random_separation_dag``. Each is run at the caps 1, n - 1,
n, n + 1 and ``DEFAULT_THREAD_CAP``, where n is its thread count. Then a
chain of diamonds with 2^40 threads, which both functions must refuse
from a count, without listing the default cap's worth of threads first.
"""

import random
import time

import pytest

from impdag.deduction import (
    DEFAULT_THREAD_CAP,
    Node,
    Overflow,
    Rule,
    StructureError,
    build,
    check_local_correctness,
    is_closed,
    proves_by_threads,
    threads,
)
from impdag.formula import Implication, parse_infix
from impdag.gen import random_local_dag

from conftest import random_separation_dag
from test_decider_contract_differential import HAND_ASSEMBLED


def reference_threads(d, cap=None):
    """Every maximal root-to-leaf chain, depth first with children in stored
    order; Overflow(cap) on reaching a leaf once ``cap`` are listed."""
    out = []
    stack = [(d.root, (d.root,))]
    while stack:
        node_id, path = stack.pop()
        n = d.node(node_id)
        if not n.children:
            if cap is not None and len(out) >= cap:
                return Overflow(cap)
            out.append(path)
            continue
        for c in reversed(n.children):
            stack.append((c, path + (c,)))
    return out


def inputs():
    rng = random.Random(2026)
    dags = [random_local_dag(rng, max_nodes=rng.randint(2, 80), share=share)
            for share in (0, 0.7) for _ in range(40)]
    dags += [found[0] for found in map(random_separation_dag, range(30)) if found]
    return dags


DAGS = inputs()


def test_inputs_cover_both_verdicts_and_separation_nodes():
    verdicts = {all(is_closed(d, t) for t in reference_threads(d)) for d in DAGS}
    assert verdicts == {True, False}
    assert any(n.rule is Rule.S for d in DAGS for n in d.nodes.values())
    assert max(len(reference_threads(d)) for d in DAGS) > 100


@pytest.mark.parametrize("index", range(len(DAGS)))
def test_same_lists_verdicts_and_overflows(index):
    d = DAGS[index]
    listed = reference_threads(d)
    n = len(listed)
    closed = all(is_closed(d, t) for t in listed)
    for cap in sorted({1, n - 1, n, n + 1, DEFAULT_THREAD_CAP}):
        expected = reference_threads(d, cap)
        assert threads(d, cap) == expected, cap
        verdict = proves_by_threads(d, cap)
        if isinstance(expected, Overflow):
            assert verdict == Overflow(cap)
        else:
            assert verdict is closed, cap


@pytest.mark.parametrize("index", range(len(HAND_ASSEMBLED)))
def test_node_maps_build_rejects_raise_its_error(index):
    d = HAND_ASSEMBLED[index]
    with pytest.raises(StructureError):
        build(d.nodes.values(), d.root)
    with pytest.raises(StructureError):
        threads(d)


def diamond_chain(rule, k=40):
    """k diamonds of formula a stacked one on another, 2^k threads. Each
    top node has two children that share the next top node: for ``S`` two
    repetitions, for ``E`` a repetition of a and an introduction of
    a -> a, which discharges a. The last top node is a leaf."""
    a = parse_infix("a")
    nodes = []
    for level in range(k):
        top, h = 3 * level + 1, 2 * level
        if rule == "S":
            nodes.append(Node(top, a, Rule.S, h, (top + 1, top + 2)))
            sides = [(Rule.R, a), (Rule.R, a)]
        else:
            nodes.append(Node(top, a, Rule.E, h, (top + 1, top + 2)))
            sides = [(Rule.R, a), (Rule.I, Implication(a, a))]
        for offset, (side, formula) in enumerate(sides, 1):
            nodes.append(Node(top + offset, formula, side, h + 1, (top + 3,)))
    nodes.append(Node(3 * k + 1, a, Rule.LEAF, 2 * k))
    return build(nodes, 1)


def fastest(call, repeats=3):
    """The result of ``call`` and its least wall time over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return result, best


@pytest.mark.parametrize("rule", ["S", "E"])
def test_diamond_chain_has_two_threads_per_diamond(rule):
    for k in range(1, 7):
        d = diamond_chain(rule, k)
        assert check_local_correctness(d).ok
        assert len(reference_threads(d)) == 2**k
        assert threads(d, 2**k) == reference_threads(d)
        assert threads(d, 2**k - 1) == Overflow(2**k - 1)


@pytest.mark.parametrize("rule", ["S", "E"])
def test_diamond_chain_overflows_from_the_count(rule):
    d = diamond_chain(rule)
    assert len(d.nodes) == 121
    # Listing the default cap's 100 000 threads takes a good part of a
    # second; counting 121 nodes takes well under a millisecond.
    for decide in (threads, proves_by_threads):
        result, seconds = fastest(lambda: decide(d))
        assert result == Overflow(DEFAULT_THREAD_CAP)
        assert seconds < 0.1
