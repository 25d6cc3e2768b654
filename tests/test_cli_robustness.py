"""The exit-code contract on hostile input: locally incorrect dags, files
that are not UTF-8, seeded mutations of every artifact kind, and a long
formula under a memory limit.

Commands run in-process, so an uncaught exception fails the test instead
of turning into a traceback and exit status 1; only the memory-limited
runs use child processes, so that the limit binds them alone.
"""

import copy
import io
import json
import random
import subprocess
import sys

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest

from impdag.assignment import prov
from impdag.checker import LocalCorrectnessError, encode, render_tuples
from impdag.cli import main
from impdag.deduction import Rule, build, save_deduction, threads, to_dict, write_json, write_text
from impdag.formula import to_infix
from impdag.gen import provable_pool, random_formula, random_local_dag, random_proving_dag

from conftest import (
    diamond_dag,
    merge_pair_tree,
    mk,
    sep_all_closed_dag,
    sep_proof_dag,
    sep_stuck_dag,
)
from test_cli import CHILD_ENV
from test_reader_differential import EDGE_DOCUMENTS


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def no_major_premise():
    return build(
        [mk(1, "b", "E", 0, (2, 3)), mk(2, "a", "LEAF", 1), mk(3, "a -> g", "LEAF", 1)], 1
    )


def introduction_onto_atom():
    return build([mk(1, "a", "I", 0, (2,)), mk(2, "a", "LEAF", 1)], 1)


def separation_under_separation():
    return build(
        [
            mk(1, "a -> a", "I", 0, (2,)),
            mk(2, "a", "S", 1, (3, 4)),
            mk(3, "a", "S", 2, (5, 6)),
            mk(4, "a", "R", 2, (7,)),
            mk(5, "a", "LEAF", 3),
            mk(6, "a", "LEAF", 3),
            mk(7, "a", "LEAF", 3),
        ],
        1,
    )


BAD_DAGS = {
    "2c": no_major_premise,
    "2b": introduction_onto_atom,
    "2d": separation_under_separation,
}

# Commands that decide or transform on the assumption of local correctness.
DECIDERS = (
    ["prov", "{dag}", "--method", "a"],
    ["prov", "{dag}", "--method", "reach"],
    ["prov", "{dag}", "--method", "threads"],
    ["search", "{dag}"],
    ["cleanse", "{dag}", "--search"],
    ["cleanse", "{dag}", "--choice", "{choice}"],
    ["cleanse", "{dag}", "--fst", "{threads}"],
    ["fst-check", "{dag}", "{threads}"],
)

ALL_COMMANDS = (
    ["check", "{dag}"],
    *DECIDERS,
    ["unfold", "{dag}", "--cap", "2000"],
    ["compress", "{dag}"],
    ["encode", "{dag}"],
    ["decode", "{tuples}"],
)


def fill(argv, files):
    return [arg.format(**files) for arg in argv]


def files_for(tmp_path, dag=None):
    """Paths for every artifact kind, filled with well-formed documents."""
    files = {kind: str(tmp_path / kind) for kind in ("dag", "choice", "threads", "tuples")}
    save_deduction(dag or diamond_dag(), files["dag"])
    write_json([], files["choice"])
    write_json([], files["threads"])
    write_text(render_tuples(encode(diamond_dag())), files["tuples"])
    return files


class TestLocalCorrectnessGate:
    @pytest.mark.parametrize("condition", sorted(BAD_DAGS))
    @pytest.mark.parametrize("argv", DECIDERS, ids=lambda a: " ".join(a[:1] + a[2:]))
    def test_refused_with_the_failing_condition(self, tmp_path, capsys, argv, condition):
        files = files_for(tmp_path, BAD_DAGS[condition]())
        code, out, err = run(fill(argv, files), capsys)
        assert code == 2
        assert out == ""
        assert f"condition {condition} at node" in err

    @pytest.mark.parametrize("condition", sorted(BAD_DAGS))
    def test_deciders_agree(self, tmp_path, capsys, condition):
        files = files_for(tmp_path, BAD_DAGS[condition]())
        results = {
            run(["prov", files["dag"], "--method", method], capsys)
            for method in ("a", "reach", "threads")
        }
        assert len(results) == 1
        assert results.pop()[0] == 2

    @pytest.mark.parametrize("condition", sorted(BAD_DAGS))
    def test_stderr_is_the_library_error(self, tmp_path, capsys, condition):
        d = BAD_DAGS[condition]()
        with pytest.raises(LocalCorrectnessError) as info:
            prov(d)
        files = files_for(tmp_path, d)
        for argv in DECIDERS:
            _, _, err = run(fill(argv, files), capsys)
            assert err == f"{info.value}\n", argv


@pytest.mark.parametrize("kind", ["dag", "choice", "threads", "tuples"])
def test_non_utf8_files_are_malformed(tmp_path, capsys, kind):
    files = files_for(tmp_path, sep_all_closed_dag())
    with open(files[kind], "wb") as fh:
        fh.write(b'{"root": "\xff\xfe"}\n')
    reading = [argv for argv in ALL_COMMANDS if "{" + kind + "}" in argv]
    assert reading
    for argv in reading:
        code, _, err = run(fill(argv, files), capsys)
        assert code == 2, argv
        assert "not UTF-8" in err, argv


@pytest.mark.parametrize("argv", [["prove", "-"], ["oracle", "-"], ["check", "-"]])
def test_non_utf8_stdin_is_malformed(capsys, monkeypatch, argv):
    stdin = io.TextIOWrapper(io.BytesIO(b"a -> \xff"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "not UTF-8" in err


@pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5_000], ids=["nested", "long-int"])
def test_undecodable_json_is_malformed(tmp_path, capsys, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, _, err = run(["check", str(path)], capsys)
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize("formula", [{"a": 1}, {}, [], None, 7], ids=repr)
def test_non_string_formula_is_malformed(tmp_path, capsys, formula):
    files = files_for(tmp_path)
    doc = to_dict(diamond_dag())
    doc["nodes"][1]["formula"] = formula
    write_json(doc, files["dag"])
    for argv in ALL_COMMANDS:
        if "{dag}" in argv:
            code, out, err = run(fill(argv, files), capsys)
            assert (code, out) == (2, ""), argv
            assert "node 2: formula must be a string" in err, argv


@pytest.mark.parametrize(
    "doc, expected", [case[1:] for case in EDGE_DOCUMENTS], ids=[case[0] for case in EDGE_DOCUMENTS]
)
def test_edge_documents_keep_their_check_result(tmp_path, capsys, doc, expected):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["check", str(path)], capsys)
    if expected == "loaded":
        assert (code, out, err) == (0, "", "locally correct\n")
    else:
        assert (code, out, err) == (2, "", f"bad deduction in {path}: {expected}\n")


# A right-nested formula of 40 000 atoms (200 KB of text), and a
# two-node deduction, an R node over a leaf, that carries it.
LONG_FORMULA = " -> ".join(["a"] * 40_000)


def long_formula_dag_text():
    doc = to_dict(build([mk(1, "a", "R", 0, (2,)), mk(2, "a", "LEAF", 1)], 1))
    for entry in doc["nodes"]:
        entry["formula"] = LONG_FORMULA
    return json.dumps(doc)


def limit_address_space():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (2**30, hard))


@pytest.mark.skipif(
    getattr(resource, "RLIMIT_AS", None) is None, reason="no address-space limit here"
)
@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["oracle", "-"], 3, "formula weight 79999 exceeds bound"),
        (["prove", "-"], 3, "search gave up: depth budget of 400 exceeded"),
        (["check", "-"], 0, "locally correct"),
        (["compress", "-"], 0, ""),
        (["encode", "-"], 0, ""),
    ],
    ids=["oracle", "prove", "check", "compress", "encode"],
)
def test_long_formula_keeps_the_exit_contract_in_1_gib(argv, code, message):
    # Only the child's address space is limited, to 1 GiB.
    stdin = LONG_FORMULA if argv[0] in ("oracle", "prove") else long_formula_dag_text()
    done = subprocess.run(
        [sys.executable, "-m", "impdag", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
        env=CHILD_ENV,
        preexec_fn=limit_address_space,
    )
    assert "Traceback" not in done.stderr
    assert done.returncode == code, done.stderr
    assert message in done.stderr


# Seeded fuzzing of every command over mutated documents.

_FORMULA_JUNK = ("a ->", "", "(a", 7, None, ["a"], True, {}, {"a": 1})
_RULE_JUNK = ("LEAF", "R", "I", "E", "S", "X", 1, None)


def mutate_dag(rng, doc):
    doc = copy.deepcopy(doc)
    nodes = doc["nodes"]
    ids = [entry["id"] for entry in nodes]
    entry = rng.choice(nodes)
    kind = rng.randrange(9)
    if kind == 0:
        entry["formula"] = to_infix(random_formula(rng, 7))
    elif kind == 1:
        entry["formula"] = rng.choice(_FORMULA_JUNK)
    elif kind == 2:
        entry["rule"] = rng.choice(_RULE_JUNK)
    elif kind == 3:
        entry["height"] = rng.choice((entry["height"] + 1, entry["height"] - 1, "0", True))
    elif kind == 4:
        entry["children"] = entry["children"][::-1]
    elif kind == 5:
        entry["children"] = entry["children"] + [rng.choice(ids + [0, 999])]
    elif kind == 6:
        entry["children"] = entry["children"][:-1] if rng.random() < 0.8 else "1"
    elif kind == 7:
        doc["root"] = rng.choice(ids + [0, "1"])
    else:
        nodes.remove(entry)
    return doc


def random_choice(rng, ids):
    entries = [
        {"parent": rng.choice(ids), "sep": rng.choice(ids), "index": rng.randrange(0, 4)}
        for _ in range(rng.randrange(4))
    ]
    if entries and rng.random() < 0.3:
        entries[0][rng.choice(("parent", "sep", "index"))] = rng.choice(("1", None, 1.5))
    if rng.random() < 0.1:
        return {"parent": 1}
    return entries


def random_threads(rng, d):
    listed = [list(th) for th in threads(d, cap=200)[:50]] if rng.random() < 0.7 else []
    rng.shuffle(listed)
    roll = rng.random()
    if listed and roll < 0.4:
        listed.pop()
    elif listed and roll < 0.6:
        victim = rng.choice(listed)
        victim[rng.randrange(len(victim))] = rng.choice([*d.nodes, 0, "x"])
    elif roll < 0.8:
        listed.append([rng.choice(list(d.nodes)) for _ in range(rng.randrange(1, 4))])
    return listed


def corrupt_table(rng, text):
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    fields = lines[i].split("\t") if "\t" in lines[i] else lines[i].split(" ")
    j = rng.randrange(len(fields))
    fields[j] = rng.choice(("-1", "0", "99", "x", "L", "E", "> a", str(rng.randrange(12))))
    lines[i] = ("\t" if "\t" in lines[i] else " ").join(fields)
    return "\n".join(lines) + "\n"


def fuzz_bases(rng):
    pool = provable_pool(max_weight=5, atoms=("a", "b"))
    bases = [
        diamond_dag(),
        merge_pair_tree(),
        sep_all_closed_dag(),
        sep_proof_dag(),
        sep_stuck_dag(),
    ]
    bases += [random_local_dag(rng, rng.randrange(2, 16)) for _ in range(4)]
    bases += [random_proving_dag(rng, pool) for _ in range(2)]
    return bases


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fuzzed_inputs_keep_the_exit_contract(tmp_path, capsys, seed):
    rng = random.Random(seed)
    files = files_for(tmp_path)
    for base in fuzz_bases(rng):
        doc = to_dict(base)
        encodable = all(n.rule is not Rule.S for n in base.nodes.values())
        table = render_tuples(encode(base if encodable else diamond_dag()))
        for round_ in range(3):
            mutated = doc if round_ == 0 else mutate_dag(rng, doc)
            write_json(mutated, files["dag"])
            write_json(random_choice(rng, list(base.nodes)), files["choice"])
            write_json(random_threads(rng, base), files["threads"])
            write_text(table if round_ == 0 else corrupt_table(rng, table), files["tuples"])
            for argv in ALL_COMMANDS:
                code, _, _ = run(fill(argv, files), capsys)
                assert code in (0, 1, 2, 3), (argv, mutated)
