"""Assignment values per branch commitment, provability checks."""

import io
import itertools
import re

import pytest

from impdag.assignment import (
    ChoiceError,
    SeparationPresentError,
    evaluate,
    load_choice,
    prov,
    prov1,
    save_choice,
    search_choice,
)
from impdag.checker import LocalCorrectnessError, check_local_correctness
from impdag.deduction import Deduction, FormatError, Node, Rule, build, proves_by_threads
from impdag.formula import parse_infix
from impdag.prover import family, prove

from conftest import (
    diamond_dag,
    merge_pair_tree,
    mk,
    random_separation_dag,
    sep_all_closed_dag,
    sep_proof_dag,
    sep_stuck_dag,
)


def fs(*texts):
    return frozenset(parse_infix(t) for t in texts)


def identity_proof():
    return build([mk(1, "a -> a", "I", 0, (2,)), mk(2, "a", "LEAF", 1)], 1)


def leaf_under_repetition():
    return build([mk(1, "a", "R", 0, (2,)), mk(2, "a", "LEAF", 1)], 1)


def introduction_onto_other_formula():
    # Fails condition 2b only: a -> g is concluded from a premise of a, so
    # node 1 discharges nothing.
    return build([mk(1, "a -> g", "I", 0, (2,)), mk(2, "a", "LEAF", 1)], 1)


def two_edge_dag():
    # Both premises of node 2 read separation node 5 over their own edge.
    # Branch 1 leaves b -> a open, branch 2 leaves a, which only the root
    # discharges; nodes 3 and 4 discharge neither, so only committing both
    # edges to branch 2 proves, and the search backtracks to the last pair.
    return build(
        [
            mk(1, "a -> b -> a", "I", 0, (2,)),
            mk(2, "b -> a", "E", 1, (3, 4)),
            mk(3, "g -> b -> a", "I", 2, (5,)),
            mk(4, "(g -> b -> a) -> b -> a", "I", 2, (5,)),
            mk(5, "b -> a", "S", 3, (6, 7)),
            mk(6, "b -> a", "LEAF", 4),
            mk(7, "b -> a", "I", 4, (8,)),
            mk(8, "a", "LEAF", 5),
        ],
        1,
    )


def separation_root():
    return build(
        [
            mk(1, "a", "S", 0, (2, 3)),
            mk(2, "a", "LEAF", 1),
            mk(3, "a", "LEAF", 1),
        ],
        1,
    )


def separation_under_separation(root_rule):
    # Fails condition 2d: node 4 is a separation branch of separation node 2.
    root_formula = "a -> a" if root_rule == "I" else "a"
    return build(
        [
            mk(1, root_formula, root_rule, 0, (2,)),
            mk(2, "a", "S", 1, (3, 4)),
            mk(3, "a", "LEAF", 2),
            mk(4, "a", "S", 2, (5, 6)),
            mk(5, "a", "LEAF", 3),
            mk(6, "a", "LEAF", 3),
        ],
        1,
    )


def malformed_under_separation(rule):
    # The second branch of node 2 is an introduction that concludes an atom,
    # or an elimination without a major premise.
    if rule == "I":
        below = [mk(4, "a", "I", 2, (5,)), mk(5, "a", "LEAF", 3)]
    else:
        below = [mk(4, "a", "E", 2, (5, 6)), mk(5, "b", "LEAF", 3), mk(6, "g", "LEAF", 3)]
    return build(
        [
            mk(1, "a -> a", "I", 0, (2,)),
            mk(2, "a", "S", 1, (3, 4)),
            mk(3, "a", "R", 2, (7,)),
            *below,
            mk(7, "a", "LEAF", 3),
        ],
        1,
    )


def raises_not_locally_correct(text):
    """The one error every decider raises on a locally incorrect dag."""
    return pytest.raises(LocalCorrectnessError, match=f"^{re.escape(text)}$")


SEPARATION_UNDER_SEPARATION = (
    "not locally correct: condition 2d at node 2: separation child 4 is itself a separation"
)


class TestBranchValues:
    """The separation goldens, read one commitment at a time: a separation
    node's branches are the values its parent can read."""

    def test_stuck_dag_golden_values(self):
        d = sep_stuck_dag()
        for k, root in ((1, fs("b")), (2, fs("g -> a -> b"))):
            vals = evaluate(d, {(1, 2): k})
            assert vals[5] == fs("b")
            assert (vals[3], vals[4]) == (fs("b"), fs("g", "g -> a -> b"))
            assert vals[1] == root

    def test_proof_dag_golden_values(self):
        d = sep_proof_dag()
        for k, root in ((1, frozenset()), (2, fs("g -> a -> b"))):
            vals = evaluate(d, {(2, 3): k})
            assert (vals[4], vals[5]) == (fs("b"), fs("g", "g -> a -> b"))
            assert vals[1] == root


class TestEvaluate:
    def test_branch_one_empties_root(self):
        vals = evaluate(sep_proof_dag(), {(2, 3): 1})
        assert vals[1] == frozenset()

    def test_branch_two_leaves_residue(self):
        vals = evaluate(sep_proof_dag(), {(2, 3): 2})
        assert vals[1] == fs("g -> a -> b")

    def test_missing_entry(self):
        with pytest.raises(ChoiceError, match=r"\(2, 3\)"):
            evaluate(sep_proof_dag(), {})

    def test_index_out_of_range(self):
        with pytest.raises(ChoiceError, match="out of range"):
            evaluate(sep_proof_dag(), {(2, 3): 3})

    def test_extra_entries_ignored(self):
        vals = evaluate(identity_proof(), {(9, 9): 1})
        assert vals[1] == frozenset()

    def test_per_edge_divergence(self):
        d = two_edge_dag()
        assert check_local_correctness(d).ok
        vals = evaluate(d, {(3, 5): 1, (4, 5): 2})
        assert vals[3] == fs("b -> a") and vals[4] == fs("a")
        assert vals[2] == fs("a", "b -> a")

    def test_separation_nodes_carry_no_value(self):
        vals = evaluate(sep_proof_dag(), {(2, 3): 1})
        assert 3 not in vals
        assert set(vals) == {1, 2, 4, 5, 6, 7, 8}

    def test_separation_under_separation_raises_for_any_commitment(self):
        d = separation_under_separation("I")
        with raises_not_locally_correct(SEPARATION_UNDER_SEPARATION):
            evaluate(d, {(1, 2): 1, (2, 4): 1})

    def test_separation_root_has_no_root_value(self):
        vals = evaluate(separation_root(), {})
        assert 1 not in vals


class TestProv:
    def test_identity_proves(self):
        assert prov(identity_proof())

    def test_repetition_over_leaf_does_not(self):
        assert not prov(leaf_under_repetition())

    def test_rejects_separation(self):
        with pytest.raises(SeparationPresentError, match="search_choice"):
            prov(sep_proof_dag())


def test_separation_error_names_the_least_separation_node():
    # Equal deductions give one text, whatever order their node maps keep.
    dags = (found[0] for found in map(random_separation_dag, range(100)) if found)
    d = next(d for d in dags if sum(n.rule is Rule.S for n in d.nodes.values()) >= 2)
    copy = build(reversed(list(d.nodes.values())), d.root)
    assert copy == d
    least = min(n.id for n in d.nodes.values() if n.rule is Rule.S)
    for decide in (prov, prov1):
        for dag in (d, copy):
            with pytest.raises(SeparationPresentError) as exc:
                decide(dag)
            assert str(exc.value) == f"node {least} is a separation node; use search_choice"


class TestProv1:
    def test_identity_proves(self):
        assert prov1(identity_proof())

    def test_repetition_over_leaf_does_not(self):
        assert not prov1(leaf_under_repetition())

    def test_rejects_separation(self):
        with pytest.raises(SeparationPresentError):
            prov1(sep_stuck_dag())

    def test_agreement_on_golden_dags(self):
        for d in (
            identity_proof(),
            leaf_under_repetition(),
            diamond_dag(),
            merge_pair_tree(),
        ):
            assert check_local_correctness(d).ok
            by_threads = proves_by_threads(d)
            assert isinstance(by_threads, bool)
            assert prov(d) == prov1(d) == by_threads


class TestIntroductionOntoOtherFormula:
    def test_no_decider_proves(self):
        d = introduction_onto_other_formula()
        report = check_local_correctness(d)
        assert [(v.condition, v.node) for v in report.violations] == [("2b", 1)]
        text = ("not locally correct: condition 2b at node 1:"
                " conclusion does not introduce onto the child formula")
        for decide in (prov, prov1, proves_by_threads, search_choice, lambda d: evaluate(d, {})):
            with raises_not_locally_correct(text) as info:
                decide(d)
            assert info.value.report == report


class TestSearchChoice:
    def test_stuck_dag_has_no_certificate(self):
        assert search_choice(sep_stuck_dag()) is None

    def test_proof_dag_picks_branch_one(self):
        assert search_choice(sep_proof_dag()) == {(2, 3): 1}

    def test_all_closed_dag(self):
        assert search_choice(sep_all_closed_dag()) == {(3, 4): 1}

    def test_separation_free_proving_gives_empty_choice(self):
        assert search_choice(identity_proof()) == {}

    def test_separation_free_non_proving_gives_none(self):
        assert search_choice(diamond_dag()) is None

    def test_two_edges_backtracks_to_last_pair(self):
        d = two_edge_dag()
        assert check_local_correctness(d).ok
        assert search_choice(d) == {(3, 5): 2, (4, 5): 2}

    def test_separation_root_gives_none(self):
        assert search_choice(separation_root()) is None

    @pytest.mark.parametrize("root_rule", ["I", "R"])
    def test_separation_under_separation_raises_before_any_commitment(self, root_rule):
        # Under I the first commitment, {(1, 2): 1, (2, 4): 1}, proves without
        # reading node 4; under R a search in order reaches it. The outcome
        # must not depend on that.
        d = separation_under_separation(root_rule)
        with raises_not_locally_correct(SEPARATION_UNDER_SEPARATION):
            search_choice(d)

    @pytest.mark.parametrize(
        "rule, text",
        [
            ("I", "condition 2b at node 4: conclusion does not introduce onto the child formula"),
            ("E", "condition 2c at node 4: no premise is the other premise arrow the conclusion"),
        ],
    )
    def test_malformed_branch_raises_before_any_commitment(self, rule, text):
        # Committing edge (1, 2) to branch 1 proves without reading node 4.
        d = malformed_under_separation(rule)
        with raises_not_locally_correct(f"not locally correct: {text}"):
            search_choice(d)
        with raises_not_locally_correct(f"not locally correct: {text}"):
            evaluate(d, {(1, 2): 1})


def major_premise_first(d):
    """``d`` with every elimination's children stored major premise first,
    an order ``build`` would normalize away."""
    nodes = {
        i: Node(n.id, n.formula, n.rule, n.height, n.children[::-1]) if n.rule is Rule.E else n
        for i, n in d.nodes.items()
    }
    return Deduction(nodes, d.root)


def commitments(d):
    """Every commitment of ``d``'s edges into separation nodes."""
    edges = [(p.id, c) for p in d.nodes.values() for c in p.children
             if d.node(c).rule is Rule.S]
    counts = [range(1, len(d.node(s).children) + 1) for _, s in edges]
    return [dict(zip(edges, picks)) for picks in itertools.product(*counts)]


class TestMajorPremiseFirst:
    """Elimination premises are read in stored order; the values and
    verdicts must not depend on which premise is stored first."""

    @pytest.mark.parametrize(
        "make", [diamond_dag, merge_pair_tree, lambda: prove(family(2))],
        ids=["diamond", "merge_pair", "family_2"],
    )
    def test_separation_free(self, make):
        d = make()
        twin = major_premise_first(d)
        assert twin != d and check_local_correctness(twin).ok
        assert prov(twin) == prov(d) and prov1(twin) == prov1(d)
        assert search_choice(twin) == search_choice(d)
        assert evaluate(twin, {}) == evaluate(d, {})

    @pytest.mark.parametrize("make", [sep_stuck_dag, sep_proof_dag, sep_all_closed_dag])
    def test_with_separation(self, make):
        d = make()
        twin = major_premise_first(d)
        assert twin != d and check_local_correctness(twin).ok
        assert search_choice(twin) == search_choice(d)
        for choice in commitments(d):
            assert evaluate(twin, choice) == evaluate(d, choice)


class TestTreeAgreement:
    """Per-edge evaluation against a direct recursion on tree-like dags."""

    @staticmethod
    def reference(d, x, choice):
        n = d.node(x)

        def through(child_id):
            child = d.node(child_id)
            if child.rule is Rule.S:
                branch = child.children[choice[(x, child_id)] - 1]
                return TestTreeAgreement.reference(d, branch, choice)
            return TestTreeAgreement.reference(d, child_id, choice)

        if n.rule is Rule.LEAF:
            return frozenset((n.formula,))
        if n.rule is Rule.R:
            return through(n.children[0])
        if n.rule is Rule.I:
            return through(n.children[0]) - {n.formula.antecedent}
        first, second = (d.node(c) for c in n.children)
        return through(first.id) | through(second.id)

    @pytest.mark.parametrize("choice", [{(2, 3): 1}, {(2, 3): 2}])
    def test_sep_proof_tree(self, choice):
        d = sep_proof_dag()
        vals = evaluate(d, choice)
        for x in vals:
            assert vals[x] == self.reference(d, x, choice)

    def test_separation_free_trees(self):
        for d in (identity_proof(), merge_pair_tree()):
            vals = evaluate(d, {})
            for x in vals:
                assert vals[x] == self.reference(d, x, {})


class TestChoiceFiles:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "choice.json")
        choice = {(3, 5): 2, (2, 3): 1}
        save_choice(choice, path)
        assert load_choice(path) == choice

    def test_stream_round_trip(self):
        buffer = io.StringIO()
        save_choice({(2, 3): 1}, buffer)
        assert load_choice(io.StringIO(buffer.getvalue())) == {(2, 3): 1}

    def test_saved_entries_sorted(self):
        buffer = io.StringIO()
        save_choice({(4, 5): 2, (2, 3): 1}, buffer)
        text = buffer.getvalue()
        assert text.index('"sep": 3') < text.index('"sep": 5')

    @pytest.mark.parametrize(
        "text",
        [
            "{}",
            '[{"parent": 1, "sep": 2}]',
            '[{"parent": 1, "sep": 2, "index": true}]',
            '[{"parent": 1, "sep": 2, "index": 0}]',
            '[{"parent": 1, "sep": 2, "index": "1"}]',
            '[{"parent": 1, "sep": 2, "index": 1},'
            ' {"parent": 1, "sep": 2, "index": 2}]',
            "not json",
        ],
    )
    def test_malformed_documents(self, text):
        with pytest.raises(FormatError):
            load_choice(io.StringIO(text))
