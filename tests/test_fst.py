"""Fundamental thread sets: condition checks and cleansing."""

import io

import pytest

from impdag.assignment import prov
from impdag.deduction import FormatError, Rule, build, threads
from impdag.fst import (
    CleansingError,
    FstError,
    ThreadSet,
    check_fst,
    cleanse_via_fst,
    load_threads,
    save_threads,
)

from conftest import (
    diamond_dag,
    merge_pair_tree,
    mk,
    sep_all_closed_dag,
    sep_proof_dag,
)


def identity_proof():
    return build([mk(1, "a -> a", "I", 0, (2,)), mk(2, "a", "LEAF", 1)], 1)


def weakening_proof():
    return build(
        [
            mk(1, "b -> a -> b", "I", 0, (2,)),
            mk(2, "a -> b", "I", 1, (3,)),
            mk(3, "b", "LEAF", 2),
        ],
        1,
    )


def shared_discharge_dag():
    # Both premise chains of the root join at one introduction node above
    # a separation; lets tests steer pairing through branch commitments.
    # Deliberately ignores the rule-formula side conditions apart from
    # thread closure, which is all cleansing inspects.
    return build(
        [
            mk(1, "b", "E", 0, (2, 3)),
            mk(2, "a", "R", 1, (4,)),
            mk(3, "a -> b", "R", 1, (4,)),
            mk(4, "a -> a", "I", 2, (5,)),
            mk(5, "a", "S", 3, (6, 7)),
            mk(6, "a", "LEAF", 4),
            mk(7, "a", "LEAF", 4),
        ],
        1,
    )


def full_set(d):
    return ThreadSet(tuple(threads(d)))


class TestValidation:
    def test_rejects_foreign_edge(self):
        with pytest.raises(ValueError, match="missing edge"):
            check_fst(identity_proof(), ThreadSet(((1, 3),)))

    def test_rejects_thread_not_from_root(self):
        with pytest.raises(ValueError, match="root"):
            check_fst(identity_proof(), ThreadSet(((2,),)))

    def test_rejects_short_thread(self):
        with pytest.raises(ValueError, match="before reaching a leaf"):
            check_fst(identity_proof(), ThreadSet(((1,),)))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            check_fst(identity_proof(), ThreadSet(((1, 2), (1, 2))))


class TestCheckFst:
    def test_single_thread_proof(self):
        report = check_fst(identity_proof(), ThreadSet(((1, 2),)))
        assert report.is_fst
        assert report.witnesses == ()

    def test_weakening_proof(self):
        report = check_fst(weakening_proof(), full_set(weakening_proof()))
        assert report.is_fst

    def test_empty_set_not_dense(self):
        report = check_fst(identity_proof(), ThreadSet(()))
        assert not report.dense
        assert report.all_closed and report.e_preserving
        assert report.witnesses == (1, 2)

    def test_open_thread_blocks_example(self):
        d = sep_proof_dag()
        report = check_fst(d, full_set(d))
        assert report.dense and report.e_preserving
        assert not report.all_closed
        assert report.witnesses == ((1, 2, 3, 5, 8),)

    def test_all_closed_example(self):
        d = sep_all_closed_dag()
        report = check_fst(d, full_set(d))
        assert report.is_fst

    def test_diamond_threads_are_open(self):
        d = diamond_dag()
        report = check_fst(d, full_set(d))
        assert report.dense and report.e_preserving
        assert not report.all_closed

    def test_partial_set_fails_everything(self):
        report = check_fst(diamond_dag(), ThreadSet(((1, 2, 4),)))
        assert not report.dense
        assert not report.all_closed
        assert not report.e_preserving
        assert 3 in report.witnesses
        assert ((1, 2, 4), 1) in report.witnesses

    def test_dropped_branch_breaks_preservation_only_with_closure(self):
        d = sep_all_closed_dag()
        first_two = ThreadSet(tuple(threads(d)[:2]))
        report = check_fst(d, first_two)
        assert report.all_closed
        assert not report.dense
        assert not report.e_preserving
        assert ((1, 2, 3, 4, 6, 8), 6) in report.witnesses


class TestAllThreadsFst:
    """The set of every thread, the candidate set most tests here use."""

    def test_enumerates_in_stored_order(self):
        d = sep_proof_dag()
        assert full_set(d).threads == (
            (1, 2, 3, 4, 6),
            (1, 2, 3, 5, 7),
            (1, 2, 3, 5, 8),
        )


class TestCleanse:
    def test_separation_free_proof_passes_through(self):
        d = identity_proof()
        choice, out = cleanse_via_fst(d, full_set(d))
        assert choice == {}
        assert out == d

    def test_all_closed_dag(self):
        d = sep_all_closed_dag()
        choice, out = cleanse_via_fst(d, full_set(d))
        assert choice == {(3, 4): 1}
        assert set(out.nodes) == {1, 2, 3, 4, 5, 7}
        assert out.node(4).rule is Rule.R
        assert prov(out)

    def test_open_example_rejected(self):
        d = sep_proof_dag()
        with pytest.raises(FstError, match="closure") as info:
            cleanse_via_fst(d, full_set(d))
        assert info.value.report.dense
        assert not info.value.report.all_closed

    def test_unproving_dag_rejected(self):
        d = merge_pair_tree()
        with pytest.raises(FstError, match="closure"):
            cleanse_via_fst(d, full_set(d))

    def test_inconsistent_candidate_skipped(self):
        d = shared_discharge_dag()
        enumerated = threads(d)
        reordered = ThreadSet(
            (enumerated[0], enumerated[3], enumerated[2], enumerated[1])
        )
        assert check_fst(d, reordered).is_fst
        choice, out = cleanse_via_fst(d, reordered)
        assert choice == {(4, 5): 1}
        assert 7 not in out.nodes
        assert prov(out)

    def test_no_consistent_candidate(self):
        d = shared_discharge_dag()
        enumerated = threads(d)
        divergent = ThreadSet((enumerated[0], enumerated[3]))
        assert check_fst(d, divergent).is_fst
        with pytest.raises(CleansingError, match="agrees with the branches"):
            cleanse_via_fst(d, divergent)

    def test_choice_entries_lie_on_supplied_threads(self):
        d = sep_all_closed_dag()
        collection = full_set(d)
        choice, _ = cleanse_via_fst(d, collection)
        covered = {node_id for th in collection.threads for node_id in th}
        for (parent, sep), index in choice.items():
            assert d.node(sep).children[index - 1] in covered


class TestThreadFiles:
    def test_round_trip(self):
        collection = full_set(sep_proof_dag())
        buffer = io.StringIO()
        save_threads(collection, buffer)
        assert load_threads(io.StringIO(buffer.getvalue())) == collection

    def test_round_trip_on_disk(self, tmp_path):
        path = str(tmp_path / "threads.json")
        collection = full_set(sep_all_closed_dag())
        save_threads(collection, path)
        assert load_threads(path) == collection

    @pytest.mark.parametrize(
        "text",
        [
            "{}",
            "[[1, 2], []]",
            '[[1, "2"]]',
            "[[1, 2], [1, 2]]",
            "[[true]]",
            "not json",
        ],
    )
    def test_malformed_documents(self, text):
        with pytest.raises(FormatError):
            load_threads(io.StringIO(text))
