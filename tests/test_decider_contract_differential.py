"""One contract for every decider on the deductions ``build`` accepts: a
locally incorrect one is refused by each with ``LocalCorrectnessError`` and
the same text, naming the first violation of ``check_local_correctness``;
on a locally correct one the deciders answer, and agree. A node map that
``build`` rejects, assembled without it, is refused by each with the
StructureError ``build`` raises on it.

Inputs: the seeded valid dags of ``test_local_correctness_differential``,
each changed 30 times by its ``mutated`` helper. Mutants that ``build``
accepts without separation nodes go to ``prov``, ``prov1``,
``proves_by_threads``, ``search_choice``, ``evaluate``, the two
fundamental-set entry points and, when tree-like, ``compress``; mutants
with separation nodes, and the valid dags with them, go to the same
deciders, which refuse them or, for a certificate ``search_choice`` finds,
must confirm it. Mutants that ``build`` rejects, and four hand-assembled
maps (a premise-less repetition, a two-premise introduction, a one-branch
separation and an unreachable node), go to all of them.
"""

import random

import pytest

from impdag.assignment import evaluate, prov, prov1, search_choice
from impdag.checker import LocalCorrectnessError, check_local_correctness
from impdag.deduction import Overflow, Rule, StructureError, build, is_tree_like, proves_by_threads
from impdag.fst import ThreadSet, check_fst, cleanse_via_fst
from impdag.transform import compress, s_eliminate

from conftest import mk
from test_local_correctness_differential import mutated, raw, valid_dags

EMPTY = ThreadSet(())


def first_commitment(d):
    """Branch 1 on every edge into a separation node."""
    return {(p, s): 1 for s, n in d.nodes.items() if n.rule is Rule.S for p in d.parents[s]}


def shared_deciders(d):
    """The deciders that take any dag, each as a call on ``d``."""
    return {
        "search_choice": lambda: search_choice(d),
        "evaluate": lambda: evaluate(d, first_commitment(d)),
        "check_fst": lambda: check_fst(d, EMPTY),
        "cleanse_via_fst": lambda: cleanse_via_fst(d, EMPTY),
        "prov": lambda: prov(d),
        "prov1": lambda: prov1(d),
        "proves_by_threads": lambda: proves_by_threads(d),
    }


# Node maps that build rejects but that the old check called locally correct.
HAND_ASSEMBLED = [
    raw([mk(1, "a -> a", "I", 0, (2,)), mk(2, "a", "R", 1)], 1),
    raw([mk(1, "a -> a", "I", 0, (2, 3)), mk(2, "a", "LEAF", 1), mk(3, "a", "LEAF", 1)], 1),
    raw([mk(1, "a -> a", "I", 0, (2,)), mk(2, "a", "S", 1, (3,)), mk(3, "a", "LEAF", 2)], 1),
    raw([mk(1, "a -> a", "I", 0, (2,)), mk(2, "a", "LEAF", 1), mk(3, "b", "LEAF", 1)], 1),
]


@pytest.fixture(scope="module")
def mutants():
    """The mutants ``build`` accepts, split by whether they have S nodes; the
    valid dags with S nodes join their mutants. Those it rejects, as
    assembled, are under "rejected"."""
    rng = random.Random(11)
    split = {False: [], True: [], "rejected": []}
    for d in valid_dags(random.Random(5)):
        if any(n.rule is Rule.S for n in d.nodes.values()):
            split[True].append(d)
        for _ in range(30):
            m = mutated(d, rng)
            try:
                m = build(m.nodes.values(), m.root)
            except StructureError:
                split["rejected"].append(m)
                continue
            split[any(n.rule is Rule.S for n in m.nodes.values())].append(m)
    return split


def expected_text(report):
    v = report.violations[0]
    return f"not locally correct: condition {v.condition} at node {v.node}: {v.message}"


def assert_refused(d, calls):
    """Every call raises the one error, with the text of the first violation."""
    report = check_local_correctness(d)
    for name, call in calls.items():
        with pytest.raises(LocalCorrectnessError) as info:
            call()
        assert str(info.value) == expected_text(report), name
        assert info.value.report == report, name


@pytest.mark.parametrize("with_s, refusals, answers", [(False, 300, 150), (True, 70, 20)])
def test_mutants_cover_both_outcomes(mutants, with_s, refusals, answers):
    refused = sum(not check_local_correctness(d).ok for d in mutants[with_s])
    assert refused >= refusals
    assert len(mutants[with_s]) - refused >= answers


def test_separation_free_mutants(mutants):
    for d in mutants[False]:
        calls = shared_deciders(d)
        if is_tree_like(d):
            calls["compress"] = lambda: compress(d)
        if not check_local_correctness(d).ok:
            assert_refused(d, calls)
            continue
        verdict = prov(d)
        assert prov1(d) == verdict
        by_threads = proves_by_threads(d)
        assert isinstance(by_threads, Overflow) or by_threads == verdict
        assert (search_choice(d) is not None) == verdict
        assert (evaluate(d, {})[d.root] == frozenset()) == verdict


def test_separation_mutants(mutants):
    for d in mutants[True]:
        if not check_local_correctness(d).ok:
            assert_refused(d, shared_deciders(d))
            continue
        choice = search_choice(d)
        if choice is not None:
            assert evaluate(d, choice)[d.root] == frozenset()
            cleansed = s_eliminate(d, choice)
            assert prov(cleansed) and prov1(cleansed)


def test_rejected_node_maps(mutants):
    rejected = HAND_ASSEMBLED + mutants["rejected"]
    assert len(mutants["rejected"]) >= 1000
    for d in rejected:
        with pytest.raises(StructureError) as built:
            build(d.nodes.values(), d.root)
        calls = shared_deciders(d)
        calls["check_local_correctness"] = lambda: check_local_correctness(d)
        if is_tree_like(d):
            calls["compress"] = lambda: compress(d)
        for name, call in calls.items():
            with pytest.raises(StructureError) as info:
                call()
            assert str(info.value) == str(built.value), name
