"""Proof search, the validity oracle, and the benchmark family."""

import itertools
import sys

import pytest

from impdag.assignment import prov
from impdag.checker import check_local_correctness
from impdag.deduction import Rule, is_tree_like, to_dict
from impdag.formula import Atom, Implication, parse_infix, weight
import impdag.prover as prover
from impdag.prover import (
    DEFAULT_MAX_DEPTH,
    OracleBoundError,
    ResourceLimitError,
    family,
    oracle_valid,
    prove,
)

from test_prover_differential import chain

S_COMBINATOR = "(a -> b -> g) -> (a -> b) -> a -> g"
PEIRCE = "((a -> b) -> a) -> a"


def stack_depth():
    """Frames on the calling thread's stack, the caller's included."""
    frames, frame = 0, sys._getframe(1)
    while frame is not None:
        frames, frame = frames + 1, frame.f_back
    return frames


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

    def test_node_budget(self, monkeypatch):
        monkeypatch.setattr(prover, "DEFAULT_MAX_NODES", 3)
        with pytest.raises(ResourceLimitError) as info:
            prove(parse_infix(S_COMBINATOR))
        assert info.value.limit == "nodes"

    @pytest.mark.parametrize("text", ["a -> a", "a -> b -> a", S_COMBINATOR])
    def test_node_budget_admits_a_proof_of_exactly_that_size(self, text, monkeypatch):
        size = len(certified(text).nodes)
        want = to_dict(certified(text))
        monkeypatch.setattr(prover, "DEFAULT_MAX_NODES", size)
        assert to_dict(prove(parse_infix(text))) == want
        monkeypatch.setattr(prover, "DEFAULT_MAX_NODES", size - 1)
        with pytest.raises(ResourceLimitError) as info:
            prove(parse_infix(text))
        assert info.value.limit == "nodes"

    def test_memo_starts_each_sequent_once(self, monkeypatch):
        # Not valid: the cyclic clauses send the search back to sequents it
        # settled already. With the memo it starts 3 067 of them; searching
        # each revisit again would start 40 076.
        clauses = [f"((x{i} -> x{(i + 1) % 7}) -> g)" for i in range(7)]
        f = parse_infix(" -> ".join(clauses) + " -> g")
        assert weight(f) == 43
        started = []
        search = prover._search
        monkeypatch.setattr(prover, "_search", lambda *seq: started.append(seq) or search(*seq))
        assert prove(f) is None
        assert len(set(started)) == len(started) < 4000

    def test_depth_budget(self):
        # chain(k) nests its search 2k + 2 sequents deep
        assert prove(chain(199)) is not None
        with pytest.raises(ResourceLimitError) as info:
            prove(chain(200))
        assert (info.value.limit, info.value.value) == ("depth", DEFAULT_MAX_DEPTH)
        assert str(info.value) == "depth budget of 400 exceeded"

    def test_outcome_does_not_depend_on_earlier_calls(self):
        def outcome(f):
            try:
                return to_dict(prove(f))
            except ResourceLimitError as exc:
                return exc.limit

        cold = outcome(chain(250))
        assert cold == "depth"
        proof = outcome(chain(199))
        assert outcome(chain(250)) == cold
        assert outcome(chain(199)) == proof

    def test_long_chain_fits_a_small_stack(self):
        # The search runs on an explicit stack and the layout applies the
        # substitutions in a loop, so prove(chain(199)) needs only a few
        # frames above its caller: from the top of a fresh interpreter a
        # recursion limit of 10 suffices.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 50)
        try:
            d = prove(chain(199))
        finally:
            sys.setrecursionlimit(limit)
        assert d is not None and prov(d)

    def test_long_chain_from_a_deep_caller(self):
        # a caller already about 900 frames deep, under the default limit
        def nested(frames):
            return prove(chain(199)) if frames >= 900 else nested(frames + 1)

        d = nested(stack_depth())
        assert d is not None and prov(d)


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

    def test_search_depth_is_bounded(self):
        # each level of double negation nests the search one call deeper
        assert not oracle_valid(double_negations(399), bound=10**8)
        for n in (400, 1000):
            with pytest.raises(OracleBoundError, match="search depth exceeds 400"):
                oracle_valid(double_negations(n), bound=10**8)

    def test_deep_search_from_a_deep_caller(self):
        # a caller already about 900 frames deep, under the default limit
        def nested(frames):
            if frames < 900:
                return nested(frames + 1)
            with pytest.raises(OracleBoundError, match="search depth exceeds 400"):
                oracle_valid(double_negations(400), bound=10**8)
            return oracle_valid(double_negations(399), bound=10**8)

        assert nested(stack_depth()) is False


def double_negations(n):
    """F_n -> b, where F_0 = a and F_(k+1) = (F_k -> b) -> b."""
    f, b = Atom("a"), Atom("b")
    for _ in range(n):
        f = Implication(Implication(f, b), b)
    return Implication(f, b)


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

