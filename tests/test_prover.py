"""Proof search, the validity oracle, and the benchmark family."""

import itertools

import pytest

from impdag.assignment import prov
from impdag.checker import check_local_correctness
from impdag.deduction import Rule, is_tree_like, to_dict
from impdag.formula import Atom, Implication, parse_infix, weight
from impdag.prover import (
    OracleBoundError,
    ResourceLimitError,
    family,
    oracle_valid,
    prove,
)

S_COMBINATOR = "(a -> b -> g) -> (a -> b) -> a -> g"
PEIRCE = "((a -> b) -> a) -> a"


def certified(text):
    d = prove(parse_infix(text))
    assert d is not None
    assert is_tree_like(d)
    assert check_local_correctness(d).ok
    assert prov(d)
    assert d.node(d.root).formula == parse_infix(text)
    return d


class TestProve:
    def test_identity(self):
        d = certified("a -> a")
        assert len(d.nodes) == 2
        assert [d.node(i).rule for i in (1, 2)] == [Rule.I, Rule.LEAF]

    def test_weakening(self):
        d = certified("a -> b -> a")
        assert len(d.nodes) == 3
        assert [d.node(i).rule for i in (1, 2, 3)] == [Rule.I, Rule.I, Rule.LEAF]
        assert d.node(3).formula == Atom("a")

    def test_application(self):
        d = certified("a -> (a -> b) -> b")
        assert len(d.nodes) == 5
        rules = sorted(n.rule.value for n in d.nodes.values())
        assert rules == ["E", "I", "I", "LEAF", "LEAF"]

    def test_composite_hypothesis_split(self):
        d = certified("((a -> a) -> b) -> b")
        assert len(d.nodes) == 5
        eliminations = [n for n in d.nodes.values() if n.rule is Rule.E]
        assert len(eliminations) == 1
        assert eliminations[0].formula == Atom("b")

    def test_s_combinator(self):
        certified(S_COMBINATOR)

    def test_b_and_c_combinators(self):
        certified("(b -> g) -> (a -> b) -> a -> g")
        certified("(a -> b -> g) -> b -> a -> g")

    def test_unprovable(self):
        for text in ("a", "a -> b", PEIRCE, "(a -> b) -> b"):
            assert prove(parse_infix(text)) is None

    def test_deterministic(self):
        first = prove(parse_infix(S_COMBINATOR))
        second = prove(parse_infix(S_COMBINATOR))
        assert first == second
        assert to_dict(first) == to_dict(second)

    def test_node_budget(self):
        with pytest.raises(ResourceLimitError) as info:
            prove(parse_infix(S_COMBINATOR), max_nodes=3)
        assert info.value.limit == "nodes"

    @pytest.mark.parametrize("text", ["a -> a", "a -> b -> a", S_COMBINATOR])
    def test_node_budget_admits_a_proof_of_exactly_that_size(self, text):
        size = len(certified(text).nodes)
        assert to_dict(prove(parse_infix(text), max_nodes=size)) == to_dict(certified(text))
        with pytest.raises(ResourceLimitError) as info:
            prove(parse_infix(text), max_nodes=size - 1)
        assert info.value.limit == "nodes"

    def test_depth_budget(self):
        with pytest.raises(ResourceLimitError) as info:
            prove(parse_infix("x1 -> x2 -> x3 -> x1"), max_depth=2)
        assert info.value.limit == "depth"

    def test_outcome_does_not_depend_on_earlier_calls(self):
        def budgeted():
            try:
                return to_dict(prove(family(3), max_depth=3))
            except ResourceLimitError as exc:
                return exc.limit

        cold = budgeted()
        assert cold == "depth"
        assert prove(family(3)) is not None
        assert budgeted() == cold


class TestOracle:
    @pytest.mark.parametrize(
        "text",
        [
            "a -> a",
            "a -> b -> a",
            S_COMBINATOR,
            "a -> (a -> b) -> b",
            "((a -> a) -> b) -> b",
            "((a -> b) -> b) -> (b -> a) -> b -> b",
        ],
    )
    def test_valid(self, text):
        assert oracle_valid(parse_infix(text))

    @pytest.mark.parametrize(
        "text",
        ["a", "a -> b", PEIRCE, "(a -> b) -> b", "((a -> b) -> b) -> a -> b"],
    )
    def test_invalid(self, text):
        assert not oracle_valid(parse_infix(text))

    def test_bound(self):
        with pytest.raises(OracleBoundError):
            oracle_valid(parse_infix(S_COMBINATOR), bound=5)


def formulas_up_to(max_weight, atoms=("a", "b")):
    """Every purely implicational formula over the atoms, by weight."""
    pool = {1: [Atom(name) for name in atoms]}
    for w in range(3, max_weight + 1, 2):
        made = []
        for left in range(1, w - 1, 2):
            for f in pool.get(left, ()):
                for g in pool.get(w - 1 - left, ()):
                    made.append(Implication(f, g))
        pool[w] = made
    return list(itertools.chain.from_iterable(pool.values()))


class TestAgreement:
    def test_small_formulas(self):
        checked = 0
        for f in formulas_up_to(7):
            assert (prove(f) is not None) == oracle_valid(f), f
            checked += 1
        assert checked == 102


class TestFamily:
    def test_shape(self):
        assert family(1) == parse_infix("(p1 -> p1 -> p1 -> p1 -> p2) -> p1 -> p2")

    def test_weight_is_linear(self):
        for n in range(1, 7):
            assert weight(family(n)) == 10 * n + 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            family(0)

    def test_small_members_prove_and_validate(self):
        for n in (1, 2):
            f = family(n)
            assert oracle_valid(f)
            d = prove(f)
            assert d is not None
            assert prov(d)

