"""Local-correctness reports, the tuple encoding, and its text format."""

import copy
import pickle

import pytest

from impdag import checker, deduction
from impdag.checker import (
    DecodeError,
    EncodingError,
    LCReport,
    LocalCorrectnessError,
    TupleFormatError,
    TupleRow,
    Violation,
    check_local_correctness,
    check_tuples,
    decode,
    encode,
    parse_tuples,
    render_tuples,
)
from impdag.cli import _load_correct_dag
from impdag.assignment import search_choice
from impdag.deduction import (
    Deduction, StructureError, build, canonical, load_deduction, save_deduction,
)
from impdag.formula import parse_infix, to_infix
from impdag.prover import prove
from impdag.transform import compress, level, s_eliminate, unfold

from conftest import diamond_dag as make_diamond
from conftest import merge_pair_tree as make_merge_pair
from conftest import mk
from conftest import sep_proof_dag as make_sep_proof



def identity_proof():
    return build([mk(1, "a -> a", "I", 0, (2,)), mk(2, "a", "LEAF", 1)], 1)


def conditions(report):
    return {v.condition for v in report.violations}


class TestLocalCorrectness:
    def test_checker_reexports_the_objects_of_deduction(self):
        for name in ("check_local_correctness", "LocalCorrectnessError", "Violation", "LCReport"):
            assert getattr(checker, name) is getattr(deduction, name)

    def test_golden_dags_pass(self):
        for d in (make_sep_proof(), make_diamond(), make_merge_pair()):
            report = check_local_correctness(d)
            assert report.ok, report.violations

    def test_single_leaf_root_fails_clause_3(self):
        d = build([mk(1, "a", "LEAF", 0)], 1)
        assert conditions(check_local_correctness(d)) == {"3"}

    def test_repetition_changing_formula(self):
        d = build(
            [mk(1, "a", "R", 0, (2,)), mk(2, "b", "LEAF", 1)],
            1,
        )
        assert conditions(check_local_correctness(d)) == {"2a"}

    def test_introduction_not_onto_child(self):
        d = build(
            [mk(1, "a -> b", "I", 0, (2,)), mk(2, "a", "LEAF", 1)],
            1,
        )
        assert conditions(check_local_correctness(d)) == {"2b"}

    def test_introduction_of_non_implication(self):
        d = build(
            [mk(1, "a", "I", 0, (2,)), mk(2, "a", "LEAF", 1)],
            1,
        )
        assert conditions(check_local_correctness(d)) == {"2b"}

    def test_elimination_with_no_major(self):
        d = build(
            [
                mk(1, "b", "E", 0, (2, 3)),
                mk(2, "a", "LEAF", 1),
                mk(3, "a -> g", "LEAF", 1),
            ],
            1,
        )
        assert conditions(check_local_correctness(d)) == {"2c"}

    def test_elimination_swapped_order_is_fine(self):
        nodes = {
            1: mk(1, "b", "E", 0, (3, 2)),
            2: mk(2, "a", "LEAF", 1),
            3: mk(3, "a -> b", "LEAF", 1),
        }
        d = Deduction(nodes, 1)
        assert check_local_correctness(d).ok

    def test_separation_child_formula_mismatch(self):
        d = build(
            [
                mk(1, "a", "S", 0, (2, 3)),
                mk(2, "a", "LEAF", 1),
                mk(3, "b", "LEAF", 1),
            ],
            1,
        )
        report = check_local_correctness(d)
        assert "2d" in conditions(report)

    def test_separation_under_separation(self):
        nodes = {
            1: mk(1, "a", "S", 0, (2, 3)),
            2: mk(2, "a", "LEAF", 1),
            3: mk(3, "a", "S", 1, (4, 5)),
            4: mk(4, "a", "LEAF", 2),
            5: mk(5, "a", "LEAF", 2),
        }
        d = Deduction(nodes, 1)
        assert "2d" in conditions(check_local_correctness(d))

    def test_structural_clauses_on_raw_deduction(self):
        # assembled by hand past build: leaf with a child, bad child height,
        # root at height 2; the check runs build and raises its error
        nodes = {
            1: mk(1, "a", "R", 2, (2,)),
            2: mk(2, "a", "LEAF", 4, (3,)),
            3: mk(3, "a", "LEAF", 5),
        }
        with pytest.raises(StructureError) as info:
            check_local_correctness(Deduction(nodes, 1))
        assert str(info.value) == (
            "node 1: child 2 height 4 is not parent height + 1; "
            "node 2: LEAF rule needs 0 children, got 1; node 1: root height is not 0"
        )

    def test_dangling_child_raises_build_error(self):
        d = Deduction({1: mk(1, "a -> a", "I", 0, (2,)), 2: mk(2, "a", "R", 1, (3, 4))}, 1)
        text = "^node 2: child 3 does not exist; node 2: child 4 does not exist$"
        with pytest.raises(StructureError, match=text):
            check_local_correctness(d)
        with pytest.raises(StructureError, match=text):
            encode(d)

    def test_missing_root_raises_build_error(self):
        # tree-like by its edges, so compress gets as far as the check
        d = Deduction({1: mk(1, "a", "R", 1, (1,))}, 2)
        text = "^node 1: child 1 height 1 is not parent height \\+ 1; root 2 does not exist$"
        for call in (check_local_correctness, encode, compress):
            with pytest.raises(StructureError, match=text):
                call(d)

    def test_violations_sorted_and_messages_present(self):
        d = build(
            [mk(1, "a", "I", 0, (2,)), mk(2, "b", "R", 1, (3,)), mk(3, "g", "LEAF", 2)], 1
        )
        assert check_local_correctness(d) == LCReport(False, (
            Violation("2a", 2, "repetition child formula differs"),
            Violation("2b", 1, "conclusion does not introduce onto the child formula"),
        ))


class TestReportMemo:
    """build keeps the report on every deduction it returns; any other
    deduction runs build once, when it is first checked."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """The node maps ``deduction`` runs build on, in call order: for its
        loader and tree layout, and for check_local_correctness."""
        calls, walk = [], deduction.build
        monkeypatch.setattr(
            deduction, "build", lambda nodes, root: calls.append(nodes) or walk(nodes, root)
        )
        return calls

    def test_no_walk_after_the_load(self, walks, tmp_path):
        path = tmp_path / "proof.json"
        save_deduction(prove(parse_infix("a -> (a -> b) -> b")), str(path))
        d = _load_correct_dag(str(path))
        walked = len(walks)  # the proof's and the load's own builds
        report = check_local_correctness(d)
        encode(d)
        compress(d)
        assert report.ok and len(walks) == walked
        assert check_local_correctness(d) is report

    def test_every_producer_hands_out_its_report(self, walks, tmp_path):
        tree = prove(parse_infix("(a -> b) -> (b -> g) -> a -> g"))
        path = tmp_path / "proof.json"
        save_deduction(tree, str(path))
        sep = make_sep_proof()
        products = {
            "load_deduction": load_deduction(str(path)),
            "prove": tree,
            "level": level(tree),
            "unfold": unfold(make_diamond()),
            "compress": compress(tree)[0],
            "s_eliminate": s_eliminate(sep, search_choice(sep)),
            "decode": decode(encode(tree)),
        }
        assert products["level"] is not tree  # the proof has leaves of two heights
        walked = len(walks)  # the producers' own builds
        for name, d in products.items():
            assert check_local_correctness(d).ok, name
            assert len(walks) == walked, name

    def test_copies_compute_the_report_afresh(self, walks):
        d = make_diamond()
        report = check_local_correctness(d)
        clones = (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d)))
        for count, clone in enumerate(clones, 1):
            assert clone == d
            assert check_local_correctness(clone) == report
            assert len(walks) == count
            assert check_local_correctness(clone) == report and len(walks) == count

    def test_memo_changes_no_equality_or_repr(self):
        checked, fresh = make_diamond(), make_diamond()
        check_local_correctness(checked)
        assert checked == fresh and repr(checked) == repr(fresh)


class TestEncode:
    def test_identity_proof_rows(self):
        t = encode(identity_proof())
        assert (t.a, t.b) == (6, 2)
        assert t.formula_table == (parse_infix("a"), parse_infix("a -> a"))
        assert t.rows == (
            TupleRow(1, 2, 0, 0, 1, 1, "I", 2, 1, 0),
            TupleRow(2, 0, 0, 1, 0, 0, "L", 1, 0, 0),
        )
        assert not t.over_budget

    def test_diamond_rows(self):
        diamond_dag = make_diamond()
        t = encode(diamond_dag)
        assert (t.a, t.b) == (2, 4)
        by_id = {r.x: r for r in t.rows}
        assert by_id[1].chi == "E" and (by_id[1].y1, by_id[1].y2) == (2, 3)
        assert by_id[1].beta2 == 2  # major premise carries the implication
        assert by_id[4].chi == "L"
        assert not t.over_budget

    def test_elimination_orientation_renormalized(self):
        nodes = {
            1: mk(1, "b", "E", 0, (3, 2)),
            2: mk(2, "a", "LEAF", 1),
            3: mk(3, "a -> b", "LEAF", 1),
        }
        t = encode(Deduction(nodes, 1))
        row = next(r for r in t.rows if r.chi == "E")
        minor = t.formula_table[row.beta1 - 1]
        major = t.formula_table[row.beta2 - 1]
        assert to_infix(major) == "a -> b" and to_infix(minor) == "a"

    def test_rejects_separation(self):
        sep_proof_dag = make_sep_proof()
        with pytest.raises(EncodingError, match="separation"):
            encode(sep_proof_dag)

    def test_rejects_locally_incorrect(self):
        d = build([mk(1, "a", "R", 0, (2,)), mk(2, "b", "LEAF", 1)], 1)
        with pytest.raises(LocalCorrectnessError) as exc_info:
            encode(d)
        assert str(exc_info.value) == (
            "not locally correct: condition 2a at node 1: repetition child formula differs"
        )
        assert exc_info.value.report is check_local_correctness(d)

    def test_rejects_unreachable_nodes(self):
        # assembled by hand past build, which the check runs on it
        nodes = {
            1: mk(1, "a -> a", "I", 0, (2,)),
            2: mk(2, "a", "LEAF", 1),
            5: mk(5, "a", "LEAF", 1),
        }
        with pytest.raises(StructureError, match="^node 5: unreachable from root$"):
            encode(Deduction(nodes, 1))

    def test_over_budget_flag(self):
        d = build(
            [
                mk(1, "b", "E", 0, (2, 3)),
                mk(2, "a", "LEAF", 1),
                mk(3, "a -> b", "LEAF", 1),
            ],
            1,
        )
        t = encode(d)
        assert t.a == 2 and len(t.formula_table) == 3
        assert t.over_budget

    def test_encode_renumbers_breadth_first(self):
        merge_pair_tree = make_merge_pair()
        t = encode(merge_pair_tree)
        assert [r.x for r in t.rows] == list(range(1, 9))
        assert t.rows[0].h == 0
        heights = [r.h for r in t.rows]
        assert heights == sorted(heights)


class TestDecode:
    def test_round_trip_identity(self):
        d = identity_proof()
        assert decode(encode(d)) == canonical(d)

    def test_round_trip_golden(self):
        diamond_dag, merge_pair_tree = make_diamond(), make_merge_pair()
        for d in (diamond_dag, merge_pair_tree):
            assert decode(encode(d)) == canonical(d)

    def test_empty_rows(self):
        t = encode(identity_proof())
        with pytest.raises(DecodeError, match="root"):
            decode(t._replace(rows=()))

    def test_dangling_formula_code(self):
        t = encode(identity_proof())
        bad = t.rows[0]._replace(gamma=9)
        with pytest.raises(DecodeError, match="code 9"):
            decode(t._replace(rows=(bad, t.rows[1])))

    def test_unknown_rule_letter(self):
        t = encode(identity_proof())
        bad = t.rows[0]._replace(chi="Q")
        with pytest.raises(DecodeError) as err:
            decode(t._replace(rows=(bad, t.rows[1])))
        assert str(err.value) == "row 1: unknown rule letter 'Q'"

    def test_two_roots(self):
        t = encode(identity_proof())
        extra = t.rows[0]._replace(x=3)
        with pytest.raises(DecodeError, match="height-0"):
            decode(t._replace(rows=t.rows + (extra,)))

    def test_equal_duplicate_rows_are_one_node(self):
        # Condition 1 allows equal rows with one id; check_tuples accepts them.
        t = encode(make_diamond())
        for i in range(len(t.rows)):
            doubled = t._replace(rows=t.rows[: i + 1] + t.rows[i:])
            assert check_tuples(doubled).ok
            assert decode(doubled) == decode(t)

    def test_conflicting_duplicate_rows(self):
        t = encode(make_diamond())
        clash = t.rows[3]._replace(gamma=2)
        with pytest.raises(DecodeError, match="node 4: duplicate node id"):
            decode(t._replace(rows=t.rows + (clash, t.rows[3])))


class TestCheckTuples:
    def test_accepts_encodings(self):
        diamond_dag, merge_pair_tree = make_diamond(), make_merge_pair()
        for d in (identity_proof(), diamond_dag, merge_pair_tree):
            report = check_tuples(encode(d))
            assert report.ok, report.violations

    def _mutate(self, t, index, **changes):
        rows = list(t.rows)
        rows[index] = rows[index]._replace(**changes)
        return t._replace(rows=tuple(rows))

    def test_condition_0_bad_rule_letter(self):
        diamond_dag = make_diamond()
        t = self._mutate(encode(diamond_dag), 1, chi="X")
        assert 0 in conditions(check_tuples(t))

    def test_condition_0_formula_code_out_of_table(self):
        diamond_dag = make_diamond()
        t = self._mutate(encode(diamond_dag), 1, gamma=40)
        assert 0 in conditions(check_tuples(t))

    def test_condition_1_id_out_of_range(self):
        diamond_dag = make_diamond()
        t = self._mutate(encode(diamond_dag), 3, x=9)
        assert 1 in conditions(check_tuples(t))

    def test_condition_1_conflicting_duplicates(self):
        diamond_dag = make_diamond()
        t = encode(diamond_dag)
        clash = t.rows[2]._replace(x=t.rows[1].x)
        t = t._replace(rows=t.rows + (clash,))
        assert 1 in conditions(check_tuples(t))

    def test_condition_2_premise_formula_disagrees(self):
        diamond_dag = make_diamond()
        t = self._mutate(encode(diamond_dag), 0, beta1=2)
        assert 2 in conditions(check_tuples(t))

    def test_condition_2_missing_premise_row(self):
        diamond_dag = make_diamond()
        t = encode(diamond_dag)
        t = t._replace(rows=t.rows[:-1])  # drop the shared leaf
        assert 2 in conditions(check_tuples(t))

    def test_condition_3_no_root_row(self):
        diamond_dag = make_diamond()
        t = encode(diamond_dag)
        t = t._replace(rows=t.rows[1:])  # drop the root
        assert 3 in conditions(check_tuples(t))

    def test_condition_3_parentless_leaf(self):
        row = TupleRow(1, 0, 0, 0, 0, 0, "L", 1, 0, 0)
        t = encode(identity_proof())
        t = t._replace(b=1, rows=(row,))
        assert 3 in conditions(check_tuples(t))

    def test_condition_4_leaf_with_premise_slots(self):
        diamond_dag = make_diamond()
        t = self._mutate(encode(diamond_dag), 3, y1=1)
        assert 4 in conditions(check_tuples(t))

    def test_condition_5_wrong_premise_height_slot(self):
        diamond_dag = make_diamond()
        t = self._mutate(encode(diamond_dag), 1, h1=3)
        assert 5 in conditions(check_tuples(t))

    def test_condition_5_missing_second_elimination_premise(self):
        diamond_dag = make_diamond()
        t = self._mutate(encode(diamond_dag), 0, y2=0, beta2=0)
        assert 5 in conditions(check_tuples(t))

    def test_condition_6_repetition_changes_formula(self):
        diamond_dag = make_diamond()
        t = self._mutate(encode(diamond_dag), 1, gamma=2)
        assert 6 in conditions(check_tuples(t))

    def test_condition_7_introduction_atomic_conclusion(self):
        diamond_dag = make_diamond()
        t = self._mutate(encode(diamond_dag), 2, gamma=1)
        assert 7 in conditions(check_tuples(t))

    def test_condition_8_major_premise_mismatch(self):
        diamond_dag = make_diamond()
        t = self._mutate(encode(diamond_dag), 0, gamma=2)
        report = check_tuples(t)
        assert conditions(report) == {8}


class TestTextFormat:
    def test_render_parse_round_trip(self):
        diamond_dag, merge_pair_tree = make_diamond(), make_merge_pair()
        for d in (identity_proof(), diamond_dag, merge_pair_tree):
            t = encode(d)
            assert parse_tuples(render_tuples(t)) == t

    def test_rendered_shape(self):
        text = render_tuples(encode(identity_proof()))
        lines = text.strip().splitlines()
        assert lines[0] == "6 2"
        assert lines[1] == "1\ta" and lines[2] == "2\t> a a"
        assert lines[3] == "1 2 0 0 1 1 I 2 1 0"
        assert lines[4] == "2 0 0 1 0 0 L 1 0 0"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "6\n",
            "x y\n",
            "6 2\n1\ta\n1 2 0 0 1 1 I 2 1\n",  # nine fields
            "6 2\n1\ta\n1 2 0 0 1 1 Q 2 1 0\n",  # bad letter
            "6 2\n1\ta\n3\tb\n",  # table codes skip 2
            "6 2\n1\t) a\n",  # formula does not parse
            "6 2\n1 0 0 1 0 0 L 1 0 0\n1\ta\n",  # table after rows
        ],
    )
    def test_malformed_documents(self, text):
        with pytest.raises(TupleFormatError):
            parse_tuples(text)

    def test_parse_recomputes_over_budget(self):
        text = "2 3\n1\ta\n2\tb\n3\t> a b\n" + (
            "1 2 3 0 1 1 E 2 1 3\n"
            "2 0 0 1 0 0 L 1 0 0\n"
            "3 0 0 1 0 0 L 3 0 0\n"
        )
        t = parse_tuples(text)
        assert t.over_budget
