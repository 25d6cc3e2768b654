"""``from_dict`` and ``load_threads`` against the readers they replaced,
which put off the integer test on child and node ids to a ``finally:``
rescan of every entry read so far.

Inputs: documents drawn from a fixed seed. Each starts from a well-formed
one (the ``to_dict`` form of a small random dag, or a list of distinct
threads) and gets a bad id in its first, a middle or its last entry, other
errors before or after that entry, both, or neither. Both versions must
raise the same exception type with the same text, naming the same entry,
or return the same value. ``load_deduction``, which turns entries into
nodes while decoding, reads the JSON text of every seeded deduction
document and of hand-made edge documents against the same reference.
"""

import io
import json
import random
from collections import Counter
from itertools import islice

import pytest

from impdag.deduction import (
    _ENTRY,
    _FIELDS,
    _RULES,
    FormatError,
    Node,
    StructureError,
    Thread,
    build,
    from_dict,
    load_deduction,
    read_json,
    to_dict,
)
from impdag.formula import Formula, FormulaSyntaxError, parse_infix
from impdag.fst import ThreadSet, load_threads
from impdag.gen import random_local_dag


def reference_from_dict(obj):
    """Build a deduction from the document form; node order in the document
    is irrelevant, children order is significant."""
    if not isinstance(obj, dict):
        raise FormatError("document must be an object")
    if "root" not in obj or "nodes" not in obj:
        raise FormatError("document needs 'root' and 'nodes'")
    if not isinstance(obj["root"], int) or isinstance(obj["root"], bool):
        raise FormatError("'root' must be a node id")
    if not isinstance(obj["nodes"], list):
        raise FormatError("'nodes' must be a list")
    nodes: list[Node] = []
    parsed: dict[str, Formula] = {}  # each distinct formula text is parsed once
    try:
        for entry in obj["nodes"]:
            if type(entry) is not dict:
                raise FormatError("each node must be an object")
            try:
                nid, text, rule, height, kids = _ENTRY(entry)
            except KeyError:
                raise FormatError(f"node entry missing {sorted(_FIELDS - entry.keys())}") from None
            if type(nid) is not int:
                raise FormatError("node id must be an integer")
            if type(text) is not str:
                raise FormatError(f"node {nid}: formula must be a string")
            formula = parsed.get(text)
            if formula is None:
                try:
                    formula = parsed[text] = parse_infix(text)
                except FormulaSyntaxError as exc:
                    raise FormatError(f"node {nid}: bad formula: {exc}") from exc
            if type(rule) is not str or rule not in _RULES:
                raise FormatError(f"node {nid}: unknown rule {rule!r}")
            if type(height) is not int:
                raise FormatError(f"node {nid}: height must be an integer")
            if type(kids) is not list:
                raise FormatError(f"node {nid}: children must be a list of ids")
            nodes.append(Node(nid, formula, _RULES[rule], height, tuple(kids)))
    finally:  # one flat scan of the child ids read, before a later entry's error
        if not {type(c) for n in nodes for c in n.children} <= {int}:
            bad = next(n for n in nodes if any(type(c) is not int for c in n.children))
            raise FormatError(f"node {bad.id}: children must be a list of ids") from None
    return build(nodes, obj["root"])


def reference_load_threads(source):
    """Read a thread collection: a JSON list of node-id lists."""
    obj = read_json(source)
    if not isinstance(obj, list):
        raise FormatError("thread document must be a list")
    collected: dict[Thread, None] = {}
    scanned = 0  # the entries whose ids the flat scan below covers
    try:
        for i, entry in enumerate(obj):
            if not isinstance(entry, list) or not entry:
                raise FormatError(f"entry {i}: expected a non-empty list of node ids")
            scanned = i + 1
            th = tuple(entry)
            if th in collected:
                raise FormatError(f"entry {i}: duplicate thread")
            collected[th] = None
    finally:  # one flat scan of the ids read, before a later entry's error
        if not {type(v) for entry in islice(obj, scanned) for v in entry} <= {int}:
            i = next(i for i, entry in enumerate(obj) if any(type(v) is not int for v in entry))
            raise FormatError(f"entry {i}: node ids must be integers") from None
    return ThreadSet(tuple(collected))


DOCUMENTS = 20_000
# Values that are no node id, and one that is but names no node.
BAD_IDS = (1.5, 2.0, True, False, "2", [2], [], None, {"id": 2}, 10**30)
NOT_A_CONTAINER = (None, 3, "[]", 1.5, True, {"a": 1})


def outcome(read, arg):
    try:
        return "loaded", read(arg)
    except Exception as exc:  # both versions must fail alike, whatever the type
        return type(exc).__name__, str(exc)


def positions(rng, n):
    """Entry indices for a bad id: the first, a middle or the last entry."""
    return rng.choice((0, n // 2, n - 1))


def damage_entry(rng, entry):
    """One entry error other than a bad child id, or a structure error."""
    kind = rng.randrange(10)
    if kind == 0 or type(entry) is not dict:
        return rng.choice(NOT_A_CONTAINER + ([2],))
    entry = dict(entry)
    if kind == 1:
        entry.pop(rng.choice(sorted(_FIELDS)), None)
    elif kind == 2:
        entry["formula"] = rng.choice(("a ->", "", "(a", "a b", "->", 7, None))
    elif kind == 3:
        entry["rule"] = rng.choice(("X", "leaf", "", 1, None, ["R"]))
    elif kind == 4:
        entry["height"] = rng.choice((1.0, "0", None, True, [0]))
    elif kind == 5:
        entry["children"] = rng.choice(("1", 1, None, {"1": 2}, (2,)))
    elif kind == 6:
        entry["id"] = rng.choice((1.0, "1", True, None, [1]))
    elif kind == 7:
        kids = entry.get("children")
        entry["children"] = (kids if type(kids) is list else []) + [10_000]  # no such node
    elif kind == 8:
        height = entry.get("height")
        entry["height"] = (height if type(height) is int else 0) + rng.choice((-1, 1))
    else:
        entry["id"] = rng.choice((1, 2, 3))  # likely a duplicate id
    return entry


def dag_documents(rng):
    dags = [to_dict(random_local_dag(rng, max_nodes=rng.randint(2, 8), share=0.5))
            for _ in range(60)]
    for _ in range(DOCUMENTS):
        doc = rng.choice(dags)
        entries = list(doc["nodes"])
        rng.shuffle(entries)  # node order in the document is irrelevant
        roll = rng.random()
        if roll < 0.04:
            yield rng.choice((
                rng.choice(NOT_A_CONTAINER + (entries,)),
                {"nodes": entries},
                {"root": doc["root"]},
                {"root": rng.choice((True, 1.0, "1", None)), "nodes": entries},
                {"root": doc["root"], "nodes": rng.choice(NOT_A_CONTAINER)},
            ))
            continue
        if roll < 0.85:  # a bad child id
            at = positions(rng, len(entries))
            kids = list(entries[at]["children"])
            bad = rng.choice(BAD_IDS)
            if kids and rng.random() < 0.5:
                kids[rng.randrange(len(kids))] = bad
            else:
                kids.insert(rng.randint(0, len(kids)), bad)
            entries[at] = dict(entries[at], children=kids)
        for _ in range(rng.choice((0, 0, 1, 1, 2))):  # errors before or after it
            at = rng.randrange(len(entries))
            entries[at] = damage_entry(rng, entries[at])
        if rng.random() < 0.05:
            entries.append(rng.choice(entries))
        yield {"root": doc["root"], "nodes": entries}


def thread_documents(rng):
    for _ in range(DOCUMENTS):
        entries = list(dict.fromkeys(
            tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 7))
        ))
        entries = [list(t) for t in entries]
        roll = rng.random()
        if roll < 0.04:
            yield rng.choice(NOT_A_CONTAINER)
            continue
        if roll < 0.8:  # a bad id
            at = positions(rng, len(entries))
            th = list(entries[at])
            bad = rng.choice(BAD_IDS)
            if rng.random() < 0.5:
                th[rng.randrange(len(th))] = bad
            else:
                th.insert(rng.randint(0, len(th)), bad)
            entries[at] = th
        for _ in range(rng.choice((0, 0, 1, 1, 2))):  # errors before or after it
            at = rng.randrange(len(entries))
            kind = rng.randrange(4)
            if kind == 0:
                entries[at] = rng.choice(NOT_A_CONTAINER)
            elif kind == 1:
                entries[at] = []
            elif kind == 2:  # a later duplicate, perhaps with a float equal to an int
                th = list(entries[at]) if type(entries[at]) is list else [1]
                if th and rng.random() < 0.5 and type(th[0]) is int:
                    th[0] = float(th[0])
                entries.insert(rng.randint(at + 1, len(entries)), th)
            else:  # a duplicate of a later entry
                entries.insert(at, list(entries[at]) if type(entries[at]) is list else [1])
        yield entries


def test_from_dict_matches_the_rescanning_reader():
    seen = Counter()
    for doc in dag_documents(random.Random(2719)):
        expected, got = outcome(reference_from_dict, doc), outcome(from_dict, doc)
        if expected[0] == "loaded":
            assert got[0] == "loaded", (doc, got)
            assert to_dict(got[1]) == to_dict(expected[1]), doc
        else:
            assert got == expected, doc
        seen[expected[0]] += 1
    assert set(seen) == {"loaded", FormatError.__name__, StructureError.__name__}, seen
    assert min(seen.values()) >= 10, seen


def test_load_threads_matches_the_rescanning_reader():
    seen = Counter()
    for doc in thread_documents(random.Random(3137)):
        text = json.dumps(doc)
        expected = outcome(reference_load_threads, io.StringIO(text))
        got = outcome(load_threads, io.StringIO(text))
        if expected[0] == "loaded":
            assert got[0] == "loaded", (doc, got)
            assert got[1].threads == expected[1].threads, doc
        else:
            assert got == expected, doc
        seen[expected[0]] += 1
    assert set(seen) == {"loaded", FormatError.__name__}, seen
    assert min(seen.values()) >= 100, seen


def reference_load(text):
    return reference_from_dict(read_json(io.StringIO(text)))


def compare_loads(text):
    """The outcome of both readers on ``text``, which must agree."""
    expected, got = outcome(reference_load, text), outcome(load_deduction, io.StringIO(text))
    if expected[0] == "loaded":
        assert got[0] == "loaded", (text, got)
        assert to_dict(got[1]) == to_dict(expected[1]), text
    else:
        assert got == expected, text
    return expected


def test_load_deduction_matches_the_rescanning_reader():
    seen = Counter()
    for doc in dag_documents(random.Random(2719)):
        seen[compare_loads(json.dumps(doc))[0]] += 1
    assert set(seen) == {"loaded", FormatError.__name__, StructureError.__name__}, seen
    assert min(seen.values()) >= 10, seen


# A well-formed node entry, which the decoder turns into a node wherever it
# sits, and a valid two-node document to put it in.
NODE = {"id": 1, "formula": "a", "rule": "LEAF", "height": 0, "children": []}


def edited(at, **fields):
    doc = {"root": 1, "nodes": [
        {"id": 1, "formula": "a -> a", "rule": "I", "height": 0, "children": [2]},
        {"id": 2, "formula": "a", "rule": "LEAF", "height": 1, "children": []},
    ]}
    if at is not None:
        doc["nodes"][at] = dict(doc["nodes"][at], **fields)
    return doc


# (name, document, "loaded" or the FormatError text)
EDGE_DOCUMENTS = [
    ("node-in-formula", edited(0, formula=NODE), "node 1: formula must be a string"),
    ("node-in-children", edited(0, children=[2, NODE]), "node 1: children must be a list of ids"),
    ("node-in-root", dict(edited(None), root=NODE), "'root' must be a node id"),
    ("node-in-rule", edited(1, rule=NODE), f"node 2: unknown rule {NODE!r}"),
    ("node-in-id", edited(1, id=NODE), "node id must be an integer"),
    ("node-in-height", edited(0, height=NODE), "node 1: height must be an integer"),
    ("node-as-nodes", {"root": 1, "nodes": NODE}, "'nodes' must be a list"),
    ("node-shaped-document", NODE, "document needs 'root' and 'nodes'"),
    ("node-shaped-document-with-root", dict(NODE, root=1), "document needs 'root' and 'nodes'"),
    ("document-with-entry-keys", dict(edited(None), **NODE), "loaded"),
    ("entry-with-nodes-key", edited(1, nodes=[NODE]), "loaded"),
    ("bad-formula", edited(1, formula="a ->"),
     "node 2: bad formula: unexpected end of input (position 4)"),
    ("true-id", edited(1, id=True), "node id must be an integer"),
    ("float-child", edited(0, children=[2.0]), "node 1: children must be a list of ids"),
    ("bad-entry-first", {"root": 1, "nodes": [dict(NODE, id=3, rule="X")] + edited(None)["nodes"]},
     "node 3: unknown rule 'X'"),
]


@pytest.mark.parametrize(
    "doc, expected", [case[1:] for case in EDGE_DOCUMENTS], ids=[case[0] for case in EDGE_DOCUMENTS]
)
def test_load_deduction_edge_documents(doc, expected):
    kind, value = compare_loads(json.dumps(doc))
    assert (kind if kind == "loaded" else value) == expected
    assert kind in ("loaded", FormatError.__name__)
