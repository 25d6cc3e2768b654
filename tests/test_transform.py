"""Unfolding, leveling, compression, and separation elimination."""

import re

import pytest

from impdag.assignment import ChoiceError, prov, search_choice
from impdag.checker import LocalCorrectnessError, check_local_correctness
from impdag.cli import main
from impdag.deduction import Deduction, Overflow, Rule, build, canonical, is_tree_like, to_dict
from impdag.deduction import save_deduction
from impdag.formula import parse_infix, weight
from impdag.transform import compress, level, s_eliminate, unfold

from conftest import (
    diamond_dag,
    merge_pair_tree,
    mk,
    sep_all_closed_dag,
    sep_proof_dag,
)


def identity_proof():
    return build([mk(1, "a -> a", "I", 0, (2,)), mk(2, "a", "LEAF", 1)], 1)


def short_branch_tree():
    return build(
        [
            mk(1, "b", "E", 0, (2, 3)),
            mk(2, "a", "LEAF", 1),
            mk(3, "a -> b", "R", 1, (4,)),
            mk(4, "a -> b", "LEAF", 2),
        ],
        1,
    )


def two_parent_sep_dag():
    return build(
        [
            mk(1, "b -> g", "I", 0, (2,)),
            mk(2, "g", "E", 1, (3, 4)),
            mk(3, "a", "R", 2, (5,)),
            mk(4, "a -> g", "R", 2, (5,)),
            mk(5, "a", "S", 3, (6, 7)),
            mk(6, "a", "LEAF", 4),
            mk(7, "b", "LEAF", 4),
        ],
        1,
    )


def node_count(d):
    return len(d.nodes)


def total_weight(d):
    return sum(weight(n.formula) for n in d.nodes.values())


class TestUnfold:
    def test_tree_comes_back_isomorphic(self):
        for d in (identity_proof(), sep_proof_dag(), merge_pair_tree()):
            assert unfold(d) == canonical(d)

    def test_diamond_duplicates_shared_leaf(self):
        t = unfold(diamond_dag())
        assert is_tree_like(t)
        assert node_count(t) == 5
        leaves = [n for n in t.nodes.values() if n.rule is Rule.LEAF]
        assert len(leaves) == 2
        assert {n.formula for n in leaves} == {parse_infix("a")}

    def test_cap_overflow(self):
        assert unfold(diamond_dag(), cap=4) == Overflow(4)

    def test_preserves_root_formula_and_correctness(self):
        t = unfold(diamond_dag())
        assert t.node(t.root).formula == diamond_dag().node(1).formula
        assert check_local_correctness(t).ok

    def test_preserves_provability(self):
        for d in (identity_proof(), diamond_dag(), merge_pair_tree()):
            t = unfold(d)
            assert prov(t) == prov(d)


class TestLevel:
    def test_leveled_tree_untouched(self):
        t = identity_proof()
        assert level(t) is t

    def test_pads_short_branch(self):
        out = level(short_branch_tree())
        bottom = max(n.height for n in out.nodes.values())
        assert bottom == 2
        assert all(
            n.height == bottom for n in out.nodes.values() if n.rule is Rule.LEAF
        )
        assert node_count(out) == 5
        assert check_local_correctness(out).ok
        inserted = out.node(2)
        assert inserted.rule is Rule.R and inserted.formula == parse_infix("a")

    def test_pads_two_levels(self):
        t = build(
            [
                mk(1, "b", "E", 0, (2, 3)),
                mk(2, "a", "LEAF", 1),
                mk(3, "a -> b", "R", 1, (4,)),
                mk(4, "a -> b", "R", 2, (5,)),
                mk(5, "a -> b", "R", 3, (6,)),
                mk(6, "a -> b", "LEAF", 4),
            ],
            1,
        )
        out = level(t)
        added = [
            n
            for n in out.nodes.values()
            if n.rule is Rule.R and n.formula == parse_infix("a")
        ]
        assert len(added) == 3
        assert check_local_correctness(out).ok

    def test_rejects_non_tree(self):
        with pytest.raises(ValueError, match="tree-like"):
            level(diamond_dag())


class TestCompress:
    def test_merge_pair_structure(self):
        dag, image = compress(merge_pair_tree())
        assert node_count(dag) == 12
        assert check_local_correctness(dag).ok
        assert dag.node(dag.root).formula == parse_infix("a -> b")

        seps = [n for n in dag.nodes.values() if n.rule is Rule.S]
        assert len(seps) == 1
        sep = seps[0]
        assert sep.formula == parse_infix("a -> b")
        branch_rules = {dag.node(c).rule for c in sep.children}
        assert branch_rules == {Rule.I, Rule.E}
        assert all(dag.node(c).formula == sep.formula for c in sep.children)

    def test_merge_pair_thread_image(self):
        dag, image = compress(merge_pair_tree())
        assert image == (
            (1, 2, 3, 5, 7, 9, 12),
            (1, 2, 4, 6, 7, 8, 10),
            (1, 2, 4, 6, 7, 8, 11),
        )
        for thread in image:
            assert thread[0] == dag.root
            assert dag.node(thread[-1]).rule is Rule.LEAF
            for parent, child in zip(thread, thread[1:]):
                assert child in dag.node(parent).children

    def test_merge_layer_formulas_distinct(self):
        dag, _ = compress(merge_pair_tree())
        by_layer = {}
        for n in dag.nodes.values():
            if n.height % 2 == 0:
                by_layer.setdefault(n.height, []).append(n.formula)
        for formulas in by_layer.values():
            assert len(formulas) == len(set(formulas))

    def test_distinct_levels_add_only_dispatchers(self):
        dag, image = compress(identity_proof())
        assert node_count(dag) == 3
        rules = [dag.node(i).rule for i in (1, 2, 3)]
        assert rules == [Rule.R, Rule.I, Rule.LEAF]
        assert prov(dag)
        assert image == ((1, 2, 3),)

    def test_rejects_non_tree(self):
        with pytest.raises(ValueError, match="tree-like"):
            compress(diamond_dag())

    def test_pads_short_branch_itself(self):
        t = short_branch_tree()
        dag, image = compress(t)
        want_dag, want_image = compress(level(t))
        assert to_dict(dag) == to_dict(want_dag)
        assert image == want_image
        assert dag.height() == 4  # the short leaf a is repeated down to level 2

    def test_major_premise_stored_first_gives_the_canonical_dag(self):
        # A tree made without build may keep an E node's major premise first;
        # the dag stores the minor first and is still numbered breadth first.
        nodes = [mk(1, "b", "E", 0, (2, 3)), mk(2, "a -> b", "LEAF", 1), mk(3, "a", "LEAF", 1)]
        dag, image = compress(Deduction({n.id: n for n in nodes}, 1))
        want, _ = compress(build(nodes, 1))
        assert to_dict(dag) == to_dict(canonical(dag)) == to_dict(want)
        assert image == ((1, 2, 4), (1, 2, 3))

    def test_rejects_separation_trees(self, tmp_path, capsys):
        # Merging the branches of an S node would list one child twice.
        tree = unfold(sep_proof_dag())
        text = "compress() expects a separation-free tree; node 3 is an S node"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            compress(tree)
        path = tmp_path / "tree.json"
        save_deduction(tree, str(path))
        assert main(["compress", str(path)]) == 2
        assert capsys.readouterr() == ("", text + "\n")

    def test_rejects_locally_incorrect(self):
        t = build([mk(1, "a", "R", 0, (2,)), mk(2, "b", "LEAF", 1)], 1)
        with pytest.raises(LocalCorrectnessError, match="^not locally correct: condition 2a"):
            compress(t)

    def test_compressed_not_more_provable(self):
        # merging preserves threads, so the non-proving input stays so
        dag, _ = compress(merge_pair_tree())
        assert search_choice(dag) is None


class TestSEliminate:
    def test_branch_one_of_example_proof(self):
        d = sep_proof_dag()
        out = s_eliminate(d, {(2, 3): 1})
        assert set(out.nodes) == {1, 2, 3, 4, 6}
        replaced = out.node(3)
        assert replaced.rule is Rule.R and replaced.children == (4,)
        assert check_local_correctness(out).ok
        assert prov(out)
        assert out.node(out.root).formula == d.node(d.root).formula

    def test_branch_two_keeps_residue(self):
        out = s_eliminate(sep_proof_dag(), {(2, 3): 2})
        assert set(out.nodes) == {1, 2, 3, 5, 7, 8}
        assert not prov(out)

    def test_all_closed_dag_six_nodes(self):
        out = s_eliminate(sep_all_closed_dag(), {(3, 4): 1})
        assert set(out.nodes) == {1, 2, 3, 4, 5, 7}
        assert out.node(4).rule is Rule.R
        assert prov(out)

    def test_separation_free_identity(self):
        for d in (identity_proof(), diamond_dag()):
            assert s_eliminate(d, {}) == d

    def test_missing_entry(self):
        with pytest.raises(ChoiceError, match="no branch chosen"):
            s_eliminate(sep_proof_dag(), {})

    def test_out_of_range_entry(self):
        with pytest.raises(ChoiceError, match="out of range"):
            s_eliminate(sep_proof_dag(), {(2, 3): 9})

    def test_agreeing_parents_share_one_copy(self):
        out = s_eliminate(two_parent_sep_dag(), {(3, 5): 1, (4, 5): 1})
        assert set(out.nodes) == {1, 2, 3, 4, 5, 6}
        assert out.node(5).rule is Rule.R
        assert out.node(3).children == out.node(4).children == (5,)

    def test_diverging_parents_get_separate_copies(self):
        d = two_parent_sep_dag()
        out = s_eliminate(d, {(3, 5): 1, (4, 5): 2})
        assert node_count(out) == 8
        first = out.node(3).children[0]
        second = out.node(4).children[0]
        assert first != second
        assert out.node(first).children == (6,)
        assert out.node(second).children == (7,)

    def test_never_grows_when_parents_agree(self):
        cases = [
            (sep_proof_dag(), {(2, 3): 1}),
            (sep_proof_dag(), {(2, 3): 2}),
            (sep_all_closed_dag(), {(3, 4): 1}),
            (sep_all_closed_dag(), {(3, 4): 2}),
        ]
        for d, choice in cases:
            out = s_eliminate(d, choice)
            assert node_count(out) <= node_count(d)
            assert total_weight(out) <= total_weight(d)

    def test_rejects_separation_root(self):
        d = build(
            [
                mk(1, "a", "S", 0, (2, 3)),
                mk(2, "a", "LEAF", 1),
                mk(3, "a", "LEAF", 1),
            ],
            1,
        )
        with pytest.raises(ValueError, match="root"):
            s_eliminate(d, {})


class TestPipelineSmoke:
    def test_search_then_eliminate_proves(self):
        d = sep_proof_dag()
        choice = search_choice(d)
        assert choice is not None
        out = s_eliminate(d, choice)
        assert prov(out)
        assert check_local_correctness(out).ok

    def test_compress_of_leveled_identity_round(self):
        t = level(identity_proof())
        dag, image = compress(t)
        assert prov(dag)
        assert len(image) == 1
