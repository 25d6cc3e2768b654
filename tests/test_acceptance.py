"""Eight end-to-end checks, one test each.

Each test prints one ``ACCEPTANCE n: PASS``/``FAIL`` line (run pytest with
``-s`` to see them as they happen). Randomized checks use fixed seeds, so
the suite is deterministic.
"""

import math
import random
import statistics
import time

import pytest

from impdag.assignment import SepValue, evaluate, evaluate_symbolic, prov, prov1, search_choice
from impdag.checker import check_local_correctness, check_tuples, decode, encode
from impdag.deduction import Overflow, Rule, proves_by_threads, threads
from impdag.formula import parse_infix, to_infix
from impdag.fst import ThreadSet, CleansingError, FstError, cleanse_via_fst
from impdag.gen import (
    enumerate_formulas,
    provable_pool,
    random_local_dag,
    random_proving_dag,
)
from impdag.prover import family, oracle_valid, prove
from impdag.transform import compress, level, s_eliminate, unfold

from conftest import corrupt_encoding, merge_pair_tree, sep_proof_dag, sep_stuck_dag

# The benchmark corpus: small named combinator types plus a few shapes with
# repeated subproofs. Every entry is valid in minimal implicational logic.
CORPUS = [
    "a -> a",
    "a -> b -> a",
    "(a -> b -> g) -> (a -> b) -> a -> g",
    "(a -> b) -> (g -> a) -> g -> b",
    "(b -> g) -> (a -> b) -> a -> g",
    "(a -> b -> g) -> b -> a -> g",
    "(a -> a -> b) -> a -> b",
    "a -> (a -> b) -> b",
    "((a -> a) -> b) -> b",
    "((a -> b) -> b) -> (b -> a) -> b -> b",
    "((a -> b) -> g) -> b -> g",
]


def report(n: int, ok: bool) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}")


def fs(*texts):
    return frozenset(parse_infix(t) for t in texts)


def test_criterion_1_branching_assignment_goldens():
    ok = False
    try:
        stuck = sep_stuck_dag()
        vals = evaluate_symbolic(stuck)
        # S node carries *({b}, {g, g -> a -> b}), the root *({b}, {g -> a -> b})
        assert vals[2] == SepValue(2, (fs("b"), fs("g", "g -> a -> b")))
        assert vals[1] == SepValue(2, (fs("b"), fs("g -> a -> b")))
        assert search_choice(stuck) is None

        proof = sep_proof_dag()
        choice = search_choice(proof)
        assert choice == {(2, 3): 1}
        assert evaluate(proof, choice)[proof.root] == frozenset()
        ok = True
    finally:
        report(1, ok)


def test_criterion_2_compression_golden():
    ok = False
    try:
        dag, _ = compress(merge_pair_tree())
        seps = [n for n in dag.nodes.values() if n.rule is Rule.S]
        assert len(seps) == 1
        s = seps[0]
        assert to_infix(s.formula) == "a -> b"
        assert {dag.node(c).rule for c in s.children} == {Rule.I, Rule.E}
        assert check_local_correctness(dag).ok
        ok = True
    finally:
        report(2, ok)


def test_criterion_3_tuple_encoding_conformance():
    ok = False
    try:
        rng = random.Random(300)
        for _ in range(500):
            d = random_local_dag(rng, max_nodes=60)
            t = encode(d)
            assert decode(t) == d
            assert check_tuples(t).ok == check_local_correctness(d).ok == True  # noqa: E712
        corrupted = 0
        while corrupted < 100:
            condition = 1 + corrupted % 8
            d = random_local_dag(rng, max_nodes=60)
            try:
                bad = corrupt_encoding(rng, encode(d), condition)
            except ValueError:
                continue  # no eligible row; resample the dag
            flagged = {v.condition for v in check_tuples(bad).violations}
            assert condition in flagged
            corrupted += 1
        ok = True
    finally:
        report(3, ok)


def test_criterion_4_provability_method_agreement():
    ok = False
    try:
        rng = random.Random(400)
        start = time.perf_counter()
        checked = 0
        while checked < 1000:
            d = random_local_dag(rng, max_nodes=50)
            ts = threads(d, 100_000)
            if isinstance(ts, Overflow):
                continue
            by_threads = proves_by_threads(d, 100_000)
            assert prov(d) == prov1(d) == by_threads
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        ok = True
    finally:
        report(4, ok)


def test_criterion_5_prover_oracle_agreement():
    ok = False
    try:
        disagreements = 0
        for f in enumerate_formulas(9, ("a", "b")):
            if (prove(f) is not None) != oracle_valid(f):
                disagreements += 1
        assert disagreements == 0

        for text in ("a -> a", "a -> b -> a", "(a -> (b -> c)) -> ((a -> b) -> (a -> c))"):
            assert prove(parse_infix(text)) is not None
        for text in ("a -> b", "((a -> b) -> a) -> a"):
            assert prove(parse_infix(text)) is None
        ok = True
    finally:
        report(5, ok)


def _pipeline(f):
    """prove -> level -> compress -> cleanse; returns (tree, dag, cleansed)."""
    tree = prove(f)
    assert tree is not None
    leveled = level(tree)
    dag, image = compress(leveled)
    try:
        choice, cleansed = cleanse_via_fst(dag, ThreadSet(image))
    except (FstError, CleansingError):
        choice = search_choice(dag)
        assert choice is not None
        cleansed = s_eliminate(dag, choice)

    assert all(n.rule is not Rule.S for n in cleansed.nodes.values())
    assert check_local_correctness(cleansed).ok
    assert prov(cleansed)
    assert cleansed.node(cleansed.root).formula == f
    assert len(cleansed.nodes) <= len(dag.nodes)

    # merge layers (even dag heights) stay within the distinct-formula count
    # of the corresponding leveled-tree level
    tree_formulas = {}
    for n in leveled.nodes.values():
        tree_formulas.setdefault(n.height, set()).add(n.formula)
    dag_width = {}
    for n in dag.nodes.values():
        dag_width[n.height] = dag_width.get(n.height, 0) + 1
    for h, width in dag_width.items():
        if h % 2 == 0:
            assert width <= len(tree_formulas[h // 2])
    return tree, dag, cleansed


def test_criterion_6_compression_pipeline():
    ok = False
    try:
        for text in CORPUS:
            _pipeline(parse_infix(text))

        counts = []
        for n in range(1, 7):
            tree, dag, _ = _pipeline(family(n))
            counts.append((n, len(tree.nodes), len(dag.nodes)))
        print("family n / tree nodes / dag nodes:")
        for n, tree_nodes, dag_nodes in counts:
            print(f"  {n}  {tree_nodes}  {dag_nodes}")
        assert all(a[1] < b[1] and a[2] < b[2] for a, b in zip(counts, counts[1:]))
        for n, tree_nodes, dag_nodes in counts:
            if n >= 3:
                assert dag_nodes < tree_nodes
        ok = True
    finally:
        report(6, ok)


def test_criterion_7_unfolding_preserves_provability():
    ok = False
    try:
        pool = provable_pool(max_weight=9, atoms=("a", "b"))
        rng = random.Random(700)
        for _ in range(500):
            d = random_proving_dag(rng, pool)
            tree = unfold(d)
            assert not isinstance(tree, Overflow)
            assert prov(tree)
            assert tree.node(tree.root).formula == d.node(d.root).formula
            assert check_local_correctness(tree).ok
        ok = True
    finally:
        report(7, ok)


def _time_call(fn, repeats):
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn()
        per_call = (time.perf_counter() - t0) / repeats
        best = per_call if best is None else min(best, per_call)
    return best


def _log_log_slope(xs, ys):
    """Least-squares slope of log y against log x."""
    logs = [math.log(x) for x in xs], [math.log(y) for y in ys]
    return statistics.linear_regression(*logs).slope


def test_criterion_8_runtime_growth_is_polynomial():
    ok = False
    try:
        rng = random.Random(800)
        sizes, tuple_times, prov_times = [], [], []
        for target in (10, 30, 100, 300, 1000, 3000, 10000):
            d = random_local_dag(rng, max_nodes=target)
            t = encode(d)
            repeats = max(1, 3000 // len(d.nodes))
            sizes.append(len(d.nodes))
            tuple_times.append(_time_call(lambda: check_tuples(t), repeats))
            prov_times.append(_time_call(lambda: prov(d), repeats))
        tuple_slope = _log_log_slope(sizes, tuple_times)
        prov_slope = _log_log_slope(sizes, prov_times)
        print(f"log-log slopes: check_tuples {tuple_slope:.2f}, prov {prov_slope:.2f}")
        assert tuple_slope <= 3.5
        assert prov_slope <= 3.5
        ok = True
    finally:
        report(8, ok)
