"""End-to-end command line coverage: exit codes, stream separation, piping."""

import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

import impdag
from impdag.assignment import prov
from impdag.checker import check_tuples, parse_tuples
from impdag.cli import main
from impdag.deduction import DEFAULT_THREAD_CAP, Rule, build, canonical, load_deduction
from impdag.deduction import save_deduction
from impdag.deduction import threads as dag_threads
from impdag.formula import to_infix, weight
from impdag.fst import ThreadSet, load_threads, save_threads
from impdag.prover import ResourceLimitError, family, prove
from impdag.transform import level
from impdag.checker import encode, render_tuples

from conftest import (
    corrupt_encoding,
    diamond_dag,
    merge_pair_tree,
    mk,
    sep_all_closed_dag,
    sep_proof_dag,
    sep_stuck_dag,
)
from test_fst import shared_discharge_dag
from test_prover import double_negations
from test_threads_differential import diamond_chain


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# Child interpreters import the same impdag as this one.
CHILD_ENV = dict(os.environ)
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(impdag.__file__)), os.getenv("PYTHONPATH")])
)


def run_process(argv):
    """Run the command line in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "impdag", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=CHILD_ENV,
    )


def dag_file(tmp_path, d, name="d.json"):
    path = tmp_path / name
    save_deduction(d, str(path))
    return str(path)


def parse_dag(text):
    return load_deduction(io.StringIO(text))


class TestTopLevel:
    def test_version_names_both_format_versions(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "dag format 1" in out and "tuple format 1" in out

    def test_missing_file_is_malformed(self, capsys):
        code, _, err = run(["prov", "no-such-file.json"], capsys)
        assert code == 2
        assert "no-such-file.json" in err

    def test_reads_dag_from_stdin(self, tmp_path, capsys, monkeypatch):
        buffer = io.StringIO()
        save_deduction(diamond_dag(), buffer)
        monkeypatch.setattr(sys, "stdin", io.StringIO(buffer.getvalue()))
        code, out, err = run(["check", "-"], capsys)
        assert code == 0
        assert "locally correct" in err


class TestCheck:
    def test_clean_dag(self, tmp_path, capsys):
        code, out, err = run(["check", dag_file(tmp_path, diamond_dag())], capsys)
        assert code == 0
        assert out == ""
        assert "locally correct" in err

    def test_violations_go_to_stdout(self, tmp_path, capsys):
        bad = build([mk(1, "a -> b", "I", 0, (2,)), mk(2, "g", "LEAF", 1)], 1)
        code, out, err = run(["check", dag_file(tmp_path, bad)], capsys)
        assert code == 1
        assert "condition" in out
        assert "violation" in err


class TestProv:
    def test_proving(self, tmp_path, capsys):
        d = build([mk(1, "a -> a", "I", 0, (2,)), mk(2, "a", "LEAF", 1)], 1)
        code, out, _ = run(["prov", dag_file(tmp_path, d)], capsys)
        assert code == 0
        assert out.strip() == "proving"

    def test_not_proving(self, tmp_path, capsys):
        code, out, _ = run(["prov", dag_file(tmp_path, diamond_dag())], capsys)
        assert code == 1
        assert out.strip() == "not proving"

    @pytest.mark.parametrize("method", ["a", "reach", "threads"])
    def test_methods_agree(self, tmp_path, capsys, method):
        path = dag_file(tmp_path, diamond_dag())
        code, out, _ = run(["prov", path, "--method", method], capsys)
        assert code == 1
        assert out.strip() == "not proving"

    def test_separation_nodes_block_the_verdict(self, tmp_path, capsys):
        code, out, err = run(["prov", dag_file(tmp_path, sep_proof_dag())], capsys)
        assert code == 1
        assert out.strip() == "not proving"
        assert "search" in err

    def test_thread_cap_exhausted(self, tmp_path, capsys):
        path = dag_file(tmp_path, diamond_dag())
        code, _, err = run(["prov", path, "--method", "threads", "--cap", "1"], capsys)
        assert code == 3
        assert "--cap" in err

    @pytest.mark.parametrize("method", ["a", "reach", "threads"])
    def test_cap_below_one_is_malformed(self, method, tmp_path, capsys):
        path = dag_file(tmp_path, diamond_dag())
        code, out, err = run(["prov", path, "--method", method, "--cap", "0"], capsys)
        assert code == 2
        assert out == ""
        assert "--cap must be at least 1" in err

    def test_environment_does_not_set_the_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("IMPDAG_DEFAULT_CAP", "1")
        path = dag_file(tmp_path, diamond_dag())
        code, out, _ = run(["prov", path, "--method", "threads"], capsys)
        assert code == 1
        assert out.strip() == "not proving"


class TestProvByThreads:
    """``prov --method threads``: the cap is decided before threads are listed."""

    @pytest.mark.parametrize("cap", [1000, DEFAULT_THREAD_CAP])
    def test_cap_hit_exits_3_with_the_note(self, tmp_path, capsys, cap):
        path = dag_file(tmp_path, diamond_chain("E"), "chain.json")  # 2^40 threads
        start = time.perf_counter()
        code, out, err = run(["prov", path, "--method", "threads", "--cap", str(cap)], capsys)
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == ""
        assert err.strip() == f"more than {cap} threads; raise --cap"

    def test_proving_dag_exits_0(self, tmp_path, capsys):
        d = build([mk(1, "a -> b -> a", "I", 0, (2,)), mk(2, "b -> a", "I", 1, (3,)),
                   mk(3, "a", "LEAF", 2)], 1)
        code, out, _ = run(["prov", dag_file(tmp_path, d), "--method", "threads"], capsys)
        assert code == 0
        assert out.strip() == "proving"

    def test_non_proving_dag_exits_1(self, tmp_path, capsys):
        path = dag_file(tmp_path, diamond_chain("E", 3))
        code, out, _ = run(["prov", path, "--method", "threads"], capsys)
        assert code == 1
        assert out.strip() == "not proving"


class TestSearch:
    def test_certificate_emitted_as_choice_document(self, tmp_path, capsys):
        code, out, err = run(["search", dag_file(tmp_path, sep_proof_dag())], capsys)
        assert code == 0
        assert json.loads(out) == [{"parent": 2, "sep": 3, "index": 1}]
        assert "1 edge" in err

    def test_no_certificate(self, tmp_path, capsys):
        code, out, _ = run(["search", dag_file(tmp_path, sep_stuck_dag())], capsys)
        assert code == 1
        assert out == ""

    def test_separation_free_proving_dag_needs_no_commitments(self, tmp_path, capsys):
        d = build([mk(1, "a -> a", "I", 0, (2,)), mk(2, "a", "LEAF", 1)], 1)
        code, out, _ = run(["search", dag_file(tmp_path, d)], capsys)
        assert code == 0
        assert json.loads(out) == []

    def test_emit_choice_writes_a_file(self, tmp_path, capsys):
        target = tmp_path / "choice.json"
        code, out, err = run(
            ["search", dag_file(tmp_path, sep_proof_dag()), "--emit-choice", str(target)],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text()) == [{"parent": 2, "sep": 3, "index": 1}]


class TestProveOracle:
    def test_prove_writes_a_checkable_proof(self, capsys):
        code, out, err = run(["prove", "a -> b -> a"], capsys)
        assert code == 0
        d = parse_dag(out)
        assert prov(d)
        assert "proof with 3 node(s), height 2" in err

    def test_prove_out_file(self, tmp_path, capsys):
        target = tmp_path / "proof.json"
        code, out, _ = run(["prove", "a -> a", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert prov(load_deduction(str(target)))

    def test_unprovable(self, capsys):
        code, out, err = run(["prove", "a -> b"], capsys)
        assert code == 1
        assert out == ""
        assert "not provable" in err

    def test_bad_formula(self, capsys):
        code, _, err = run(["prove", "a -> -> b"], capsys)
        assert code == 2
        assert "formula" in err

    def test_oracle_verdicts(self, capsys):
        code, out, _ = run(["oracle", "(a -> b -> g) -> (a -> b) -> a -> g"], capsys)
        assert code == 0
        assert out.strip() == "valid"
        code, out, _ = run(["oracle", "((a -> b) -> a) -> a"], capsys)
        assert code == 1
        assert out.strip() == "invalid"

    def test_prove_deeply_parenthesized_formula(self):
        formula = "(" * 1200 + "a" + ")" * 1200 + " -> a"
        done = run_process(["prove", formula])
        assert done.returncode == 0
        assert prov(parse_dag(done.stdout))
        assert "Traceback" not in done.stderr

    def test_oracle_long_chain_hits_the_weight_bound(self):
        done = run_process(["oracle", " -> ".join(["a"] * 1500)])
        assert done.returncode == 3
        assert "exceeds bound" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_oracle_bound_below_one_is_malformed(self, bound, capsys):
        code, out, err = run(["oracle", "a -> a", "--bound", bound], capsys)
        assert code == 2
        assert out == ""
        assert "--bound must be at least 1" in err

    @pytest.mark.parametrize("n, code", [(300, 1), (1000, 3)])
    def test_oracle_deep_search_answers_or_hits_the_depth_bound(self, n, code):
        done = run_process(["oracle", "--bound", "100000000", to_infix(double_negations(n))])
        assert done.returncode == code
        assert done.stdout == ("invalid\n" if code == 1 else "")
        assert ("search depth exceeds 400" in done.stderr) == (code == 3)
        assert "Traceback" not in done.stderr


class TestCompressUnfold:
    def test_compress_golden_tree(self, tmp_path, capsys):
        # An R node over a leaf grows: the merge adds a dispatcher per level.
        repeat = build([mk(1, "a", "R", 0, (2,)), mk(2, "a", "LEAF", 1)], 1)
        threads_out = tmp_path / "image.json"
        for tree, separations, threads, note in (
            (merge_pair_tree(), 1, 3, "8 tree node(s) compressed to 12; image keeps 3 thread(s)"),
            (repeat, 0, 1, "2 tree node(s) compressed to 3; image keeps 1 thread(s)"),
        ):
            code, out, err = run(
                ["compress", dag_file(tmp_path, tree), "--threads-out", str(threads_out)],
                capsys,
            )
            assert code == 0
            dag = parse_dag(out)
            assert sum(1 for n in dag.nodes.values() if n.rule is Rule.S) == separations
            assert len(load_threads(str(threads_out)).threads) == threads
            assert note in err

    @pytest.mark.parametrize("n", range(1, 6))
    def test_compress_note_counts_the_family_image(self, n, tmp_path, capsys):
        tree = prove(family(n))
        code, _, err = run(["compress", dag_file(tmp_path, tree)], capsys)
        assert code == 0
        dag_nodes, threads = 19 * n * n - 2 * n + 3, (4 ** (n + 1) - 1) // 3
        assert (
            f"{len(tree.nodes)} tree node(s) compressed to {dag_nodes};"
            f" image keeps {threads} thread(s)"
        ) in err

    def test_compress_levels_automatically(self, tmp_path, capsys):
        ragged = build(
            [
                mk(1, "b", "E", 0, (2, 3)),
                mk(2, "a", "LEAF", 1),
                mk(3, "a -> b", "R", 1, (4,)),
                mk(4, "a -> b", "LEAF", 2),
            ],
            1,
        )
        code, out, _ = run(["compress", dag_file(tmp_path, ragged)], capsys)
        assert code == 0
        parse_dag(out)

    def test_compress_rejects_proper_dags(self, tmp_path, capsys):
        code, _, err = run(["compress", dag_file(tmp_path, diamond_dag())], capsys)
        assert code == 2
        assert "tree-like" in err

    def test_unfold_duplicates_shared_nodes(self, tmp_path, capsys):
        code, out, _ = run(["unfold", dag_file(tmp_path, diamond_dag())], capsys)
        assert code == 0
        assert len(parse_dag(out).nodes) == 5

    def test_unfold_cap(self, tmp_path, capsys):
        code, _, err = run(
            ["unfold", dag_file(tmp_path, diamond_dag()), "--cap", "4"], capsys
        )
        assert code == 3
        assert "--cap" in err


class TestCleanse:
    def test_search_mode(self, tmp_path, capsys):
        code, out, err = run(
            ["cleanse", dag_file(tmp_path, sep_proof_dag()), "--search"], capsys
        )
        assert code == 0
        cleansed = parse_dag(out)
        assert all(n.rule is not Rule.S for n in cleansed.nodes.values())
        assert prov(cleansed)

    def test_search_mode_stuck(self, tmp_path, capsys):
        code, out, _ = run(
            ["cleanse", dag_file(tmp_path, sep_stuck_dag()), "--search"], capsys
        )
        assert code == 1
        assert out == ""

    def test_choice_mode(self, tmp_path, capsys):
        choice = tmp_path / "choice.json"
        choice.write_text(json.dumps([{"parent": 2, "sep": 3, "index": 1}]))
        code, out, _ = run(
            ["cleanse", dag_file(tmp_path, sep_proof_dag()), "--choice", str(choice)],
            capsys,
        )
        assert code == 0
        assert prov(parse_dag(out))

    def test_choice_mode_wrong_branch(self, tmp_path, capsys):
        choice = tmp_path / "choice.json"
        choice.write_text(json.dumps([{"parent": 2, "sep": 3, "index": 2}]))
        code, out, err = run(
            ["cleanse", dag_file(tmp_path, sep_proof_dag()), "--choice", str(choice)],
            capsys,
        )
        assert code == 1
        assert "do not yield a proof" in err

    def test_choice_mode_incomplete(self, tmp_path, capsys):
        choice = tmp_path / "choice.json"
        choice.write_text("[]")
        code, _, err = run(
            ["cleanse", dag_file(tmp_path, sep_proof_dag()), "--choice", str(choice)],
            capsys,
        )
        assert code == 2

    def test_fst_mode(self, tmp_path, capsys):
        d = sep_all_closed_dag()
        threads = tmp_path / "threads.json"
        save_threads(ThreadSet(tuple(dag_threads(d))), str(threads))
        code, out, _ = run(
            ["cleanse", dag_file(tmp_path, d), "--fst", str(threads)], capsys
        )
        assert code == 0
        cleansed = parse_dag(out)
        assert all(n.rule is not Rule.S for n in cleansed.nodes.values())
        assert prov(cleansed)

    def test_fst_mode_rejects_non_fst(self, tmp_path, capsys):
        d = sep_all_closed_dag()
        first = dag_threads(d)[:1]
        threads = tmp_path / "threads.json"
        threads.write_text(json.dumps([list(t) for t in first]))
        code, _, err = run(
            ["cleanse", dag_file(tmp_path, d), "--fst", str(threads)], capsys
        )
        assert code == 1
        assert "fundamental" in err

    def test_search_mode_separation_root(self, tmp_path, capsys):
        d = build(
            [
                mk(1, "a -> a", "S", 0, (2, 3)),
                mk(2, "a -> a", "I", 1, (4,)),
                mk(3, "a -> a", "I", 1, (5,)),
                mk(4, "a", "LEAF", 2),
                mk(5, "a", "LEAF", 2),
            ],
            1,
        )
        code, out, err = run(["cleanse", dag_file(tmp_path, d), "--search"], capsys)
        assert (code, out) == (2, "")
        assert "the root is a separation node; nothing discharges it" in err

    def test_fst_mode_no_consistent_continuation(self, tmp_path, capsys):
        d = shared_discharge_dag()
        enumerated = dag_threads(d)
        threads = tmp_path / "threads.json"
        save_threads(ThreadSet((enumerated[0], enumerated[3])), str(threads))
        code, out, err = run(
            ["cleanse", dag_file(tmp_path, d), "--fst", str(threads)], capsys
        )
        assert (code, out) == (1, "")
        assert "agrees with the branches already committed" in err

    def test_modes_are_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cleanse", dag_file(tmp_path, sep_proof_dag()), "--search", "--fst", "x"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestEncodeDecode:
    def test_round_trip_through_files(self, tmp_path, capsys):
        table = tmp_path / "rows.txt"
        code, out, _ = run(
            ["encode", dag_file(tmp_path, diamond_dag()), "--out", str(table)], capsys
        )
        assert code == 0
        code, out, _ = run(["decode", str(table)], capsys)
        assert code == 0
        assert parse_dag(out).nodes == canonical(diamond_dag()).nodes

    def test_encode_rejects_separation_nodes(self, tmp_path, capsys):
        code, _, err = run(["encode", dag_file(tmp_path, sep_proof_dag())], capsys)
        assert code == 1
        assert "separation" in err

    def test_encode_rejects_incorrect_dags(self, tmp_path, capsys):
        bad = build([mk(1, "a -> b", "I", 0, (2,)), mk(2, "g", "LEAF", 1)], 1)
        code, _, err = run(["encode", dag_file(tmp_path, bad)], capsys)
        assert code == 1
        assert "condition" in err

    def test_decode_accepts_equal_duplicate_rows(self, tmp_path, capsys):
        single = "2 2\n1\ta\n2\t> a a\n1 2 0 0 1 1 I 2 1 0\n2 0 0 1 0 0 L 1 0 0\n"
        doubled = single + "2 0 0 1 0 0 L 1 0 0\n"
        outputs = []
        for name, text in (("single.txt", single), ("doubled.txt", doubled)):
            table = tmp_path / name
            table.write_text(text)
            code, out, _ = run(["decode", str(table)], capsys)  # checks, then decodes
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_decode_rejects_garbage(self, tmp_path, capsys):
        table = tmp_path / "rows.txt"
        table.write_text("this is not a tuple table\n")
        code, _, err = run(["decode", str(table)], capsys)
        assert code == 2

    def test_decode_rejects_two_roots(self, tmp_path, capsys):
        text = (
            "2 3\n1\t> a a\n2\ta\n"
            "1 2 0 0 1 1 I 1 2 0\n2 0 0 1 0 0 L 2 0 0\n3 2 0 0 1 1 I 1 2 0\n"
        )
        assert check_tuples(parse_tuples(text)).ok  # only decode sees the fault
        table = tmp_path / "rows.txt"
        table.write_text(text)
        code, out, err = run(["decode", str(table)], capsys)
        assert (code, out) == (2, "")
        assert "bad tuple table: expected one height-0 row, found 2" in err

    def test_decode_rejects_violated_conditions(self, tmp_path, capsys):
        t = corrupt_encoding(random.Random(4), encode(diamond_dag()), 5)
        table = tmp_path / "rows.txt"
        table.write_text(render_tuples(t))
        code, _, err = run(["decode", str(table)], capsys)
        assert code == 2
        assert "condition" in err


class TestFstCheck:
    def test_fundamental(self, tmp_path, capsys):
        d = sep_all_closed_dag()
        threads = tmp_path / "threads.json"
        save_threads(ThreadSet(tuple(dag_threads(d))), str(threads))
        code, out, err = run(
            ["fst-check", dag_file(tmp_path, d), str(threads)], capsys
        )
        assert code == 0
        assert out.strip() == "fundamental"
        assert "dense: True" in err

    def test_not_fundamental(self, tmp_path, capsys):
        d = sep_all_closed_dag()
        first = dag_threads(d)[:1]
        threads = tmp_path / "threads.json"
        threads.write_text(json.dumps([list(t) for t in first]))
        code, out, err = run(
            ["fst-check", dag_file(tmp_path, d), str(threads)], capsys
        )
        assert code == 1
        assert out.strip() == "not fundamental"
        assert "witness" in err

    def test_threads_must_belong_to_the_dag(self, tmp_path, capsys):
        threads = tmp_path / "threads.json"
        threads.write_text(json.dumps([[1, 99]]))
        d = sep_all_closed_dag()
        code, _, err = run(["fst-check", dag_file(tmp_path, d), str(threads)], capsys)
        assert code == 2


class TestBench:
    def test_small_family_table(self, capsys):
        code, out, _ = run(["bench", "--family", "2"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("n  weight")

    def test_leveled_column_counts_the_padded_tree(self, capsys, monkeypatch):
        def no_level(tree):
            raise AssertionError("bench builds no leveled tree")

        monkeypatch.setattr("impdag.transform.level", no_level)
        code, out, _ = run(["bench", "--family", "3"], capsys)
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()[1:]]
        assert len(rows) == 3
        for n, row in enumerate(rows, 1):
            tree = prove(family(n))
            assert row[:4] == [str(n), str(weight(family(n))), str(len(tree.nodes)),
                               str(len(level(tree).nodes))]

    def test_image_column_counts_the_threads(self, capsys):
        code, out, _ = run(["bench", "--family", "3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split()[4:6] == ["dag", "image"]
        for n, line in enumerate(lines[1:], 1):
            assert line.split()[4:6] == [str(19 * n * n - 2 * n + 3), str((4 ** (n + 1) - 1) // 3)]

    def test_max_is_no_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--family", "2", "--max", "5"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("args", [["--family", "0"]])
    def test_counts_below_one_are_malformed(self, args, capsys):
        code, out, err = run(["bench", *args], capsys)
        assert code == 2
        assert out == ""
        assert f"{args[-2]} must be at least 1" in err

    def test_prover_budget_exits_with_the_cap_code(self, capsys, monkeypatch):
        def over_budget(f):
            raise ResourceLimitError("nodes", 7)

        monkeypatch.setattr("impdag.prover.prove", over_budget)
        code, out, err = run(["bench", "--family", "2"], capsys)
        assert code == 3
        assert len(out.strip().splitlines()) == 1
        assert "family 1: search gave up: nodes budget of 7 exceeded" in err
        assert "Traceback" not in err


class TestSubprocessPipeline:
    def test_prove_compress_cleanse_check_pipe(self, tmp_path):
        script = (
            f"{sys.executable} -m impdag prove 'a -> (a -> b) -> b'"
            f" | {sys.executable} -m impdag compress -"
            f" | {sys.executable} -m impdag cleanse - --search"
            f" | {sys.executable} -m impdag check -"
        )
        done = subprocess.run(
            ["sh", "-c", script], capture_output=True, text=True, timeout=120, env=CHILD_ENV
        )
        assert done.returncode == 0
        assert "locally correct" in done.stderr
