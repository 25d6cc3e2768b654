import io
import json

import pytest

from conftest import diamond_dag, mk, sep_proof_dag, sep_stuck_dag
from impdag.checker import LocalCorrectnessError, check_local_correctness
from impdag.deduction import (
    Deduction,
    FormatError,
    Node,
    Overflow,
    Rule,
    StructureError,
    build,
    canonical,
    from_dict,
    is_closed,
    is_tree_like,
    proves_by_threads,
    save_deduction,
    threads,
    to_dict,
)
from impdag.formula import parse_infix


def test_build_minimal_introduction():
    d = build(
        [mk(1, "a -> a", "I", 0, [2]), mk(2, "a", "LEAF", 1)],
        root=1,
    )
    assert d.root == 1
    assert d.node(2).rule is Rule.LEAF


def test_build_rejects_bad_child_height():
    with pytest.raises(StructureError) as err:
        build([mk(1, "a -> a", "I", 0, [2]), mk(2, "a", "LEAF", 2)], root=1)
    assert any("height" in msg for _, msg in err.value.violations)


def test_build_rejects_wrong_arity():
    with pytest.raises(StructureError) as err:
        build([mk(1, "a", "R", 0)], root=1)
    assert err.value.violations[0][0] == 1


def test_build_rejects_short_separation():
    with pytest.raises(StructureError):
        build(
            [mk(1, "a", "S", 0, [2]), mk(2, "a", "LEAF", 1)],
            root=1,
        )


def test_build_rejects_a_separation_listing_one_child_twice():
    # Accepted, it would list one thread twice and its parent twice over.
    with pytest.raises(StructureError, match="^node 2: S rule needs distinct children$"):
        build(
            [
                mk(1, "a -> a", "I", 0, [2]),
                mk(2, "a", "S", 1, [3, 3, 4]),
                mk(3, "a", "LEAF", 2),
                mk(4, "a", "LEAF", 2),
            ],
            root=1,
        )


def test_build_rejects_unreachable_and_rooted_elsewhere():
    with pytest.raises(StructureError) as err:
        build(
            [
                mk(1, "a -> a", "I", 0, [2]),
                mk(2, "a", "LEAF", 1),
                mk(9, "b", "LEAF", 1),
            ],
            root=1,
        )
    assert any(nid == 9 for nid, _ in err.value.violations)


def test_build_rejects_duplicate_ids():
    with pytest.raises(StructureError):
        build([mk(1, "a", "LEAF", 0), mk(1, "b", "LEAF", 0)], root=1)


def test_build_normalizes_elimination_child_order():
    swapped = build(
        [
            mk(1, "b", "E", 0, [3, 2]),  # major first on input
            mk(2, "a", "LEAF", 1),
            mk(3, "a -> b", "LEAF", 1),
        ],
        root=1,
    )
    assert swapped.node(1).children == (2, 3)


def test_threads_of_shared_separation_proof():
    d = sep_proof_dag()
    ts = threads(d)
    assert ts == [(1, 2, 3, 4, 6), (1, 2, 3, 5, 7), (1, 2, 3, 5, 8)]


def test_threads_cap_overflow_is_a_value():
    d = sep_proof_dag()
    assert threads(d, cap=2) == Overflow(2)


def test_is_closed_depends_on_discharge():
    d = sep_proof_dag()
    assert is_closed(d, (1, 2, 3, 4, 6))  # leaf b discharged at the root
    assert is_closed(d, (1, 2, 3, 5, 7))  # leaf g discharged one level up
    assert not is_closed(d, (1, 2, 3, 5, 8))  # major premise never discharged


def test_proves_by_threads():
    assert proves_by_threads(sep_proof_dag()) is False
    closed = build(
        [mk(1, "a -> a", "I", 0, [2]), mk(2, "a", "LEAF", 1)],
        root=1,
    )
    assert proves_by_threads(closed) is True


def test_single_node_dag_has_one_thread():
    d = build([mk(1, "a", "LEAF", 0)], root=1)
    assert threads(d) == [(1,)]
    text = "^not locally correct: condition 3 at node 1: root is a leaf$"
    with pytest.raises(LocalCorrectnessError, match=text):
        proves_by_threads(d)


def test_tree_likeness():
    assert not is_tree_like(diamond_dag())
    assert is_tree_like(sep_proof_dag())


def hand_assembled():
    """Node sets assembled directly, past build()'s checks: an unreachable
    node, two-parent nodes, parented roots and a root that is its own child."""
    a, b = parse_infix("a"), parse_infix("b")

    def nodes(*specs):
        return {i: Node(i, a, Rule[rule], 0, tuple(kids)) for i, rule, kids in specs}

    return [
        Deduction(nodes((1, "I", [2]), (2, "LEAF", [])), 1),
        Deduction(nodes((1, "I", [2]), (2, "LEAF", []), (3, "LEAF", [])), 1),
        Deduction(nodes((1, "E", [2, 3]), (2, "R", [4]), (3, "R", [4]), (4, "LEAF", [])), 1),
        Deduction(nodes((1, "E", [2, 2]), (2, "LEAF", [])), 1),
        Deduction(nodes((1, "R", [2]), (2, "R", [1])), 1),
        Deduction(nodes((1, "I", [2]), (2, "LEAF", []), (3, "R", [1])), 1),
        Deduction(nodes((1, "R", [1])), 1),
        Deduction({7: Node(7, b, Rule.LEAF, 0)}, 7),
    ]


def test_tree_likeness_matches_the_parent_map_definition():
    answers = []
    for d in hand_assembled() + [diamond_dag(), sep_proof_dag(), sep_stuck_dag()]:
        parented = bool(d.parents[d.root])
        want = all(len(ps) == 1 for i, ps in d.parents.items() if i != d.root)
        assert is_tree_like(d) == want
        try:
            check_local_correctness(d)
            flagged = False
        except StructureError as exc:
            flagged = f"node {d.root}: root has a parent" in str(exc)
        assert flagged == parented
        answers.append((want, parented))
    assert set(answers) == {(True, False), (False, False), (True, True), (False, True)}


def test_canonical_renumbers_breadth_first():
    d = build(
        [
            mk(10, "a -> a", "I", 0, [7]),
            mk(7, "a", "R", 1, [4]),
            mk(4, "a", "LEAF", 2),
        ],
        root=10,
    )
    c = canonical(d)
    assert sorted(c.nodes) == [1, 2, 3]
    assert c.root == 1
    assert c.node(1).children == (2,)
    assert canonical(c) == c


def test_document_round_trip():
    d = sep_stuck_dag()
    doc = to_dict(d)
    assert from_dict(doc) == d
    buf = io.StringIO()
    save_deduction(d, buf)
    assert from_dict(json.loads(buf.getvalue())) == d


def test_document_node_order_is_irrelevant():
    doc = to_dict(sep_stuck_dag())
    doc["nodes"].reverse()
    assert from_dict(doc) == sep_stuck_dag()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.pop("root"),
        lambda doc: doc["nodes"][0].pop("rule"),
        lambda doc: doc["nodes"][0].update(rule="Q"),
        lambda doc: doc["nodes"][0].update(formula="a ->"),
        lambda doc: doc["nodes"][0].update(children="2"),
    ],
)
def test_document_schema_errors(mutate):
    doc = to_dict(sep_stuck_dag())
    mutate(doc)
    with pytest.raises(FormatError):
        from_dict(doc)


def _document(root=1, nodes=None, **second):
    """A two-node document; ``second`` replaces fields of node 2, and a
    field given as ``...`` is removed."""
    doc = {
        "root": root,
        "nodes": [
            {"id": 1, "formula": "a -> a", "rule": "I", "height": 0, "children": [2]},
            {"id": 2, "formula": "a", "rule": "LEAF", "height": 1, "children": []},
        ],
    }
    for key, value in second.items():
        if value is ...:
            del doc["nodes"][1][key]
        else:
            doc["nodes"][1][key] = value
    if nodes is not None:
        doc["nodes"] = nodes
    return doc


_BAD_ENTRY = {"id": 1, "formula": "a ->", "rule": "I", "height": 0, "children": [2]}
_BAD_IDS = {"id": 1, "formula": "a -> a", "rule": "I", "height": 0, "children": ["2"]}
_FIRST_IDS = "node 1: children must be a list of ids"


def _second(**fields):
    """The second node of ``_document``'s two, with ``fields`` replaced and a
    field given as ``...`` removed."""
    entry = {"id": 2, "formula": "a", "rule": "LEAF", "height": 1, "children": []}
    entry.update(fields)
    return {k: v for k, v in entry.items() if v is not ...}
_STRING = "node 2: formula must be a string"
_CUT = "bad formula: unexpected end of input (position 4)"

# (document, error text). The texts were taken from the loader that checked
# each field in turn, except those for formulas that are not strings. A case
# that breaks two checks pins which check runs first.
SCHEMA_ERRORS = [
    ([], "document must be an object"),
    ("x", "document must be an object"),
    (None, "document must be an object"),
    ({"nodes": []}, "document needs 'root' and 'nodes'"),
    ({"root": 1}, "document needs 'root' and 'nodes'"),
    ({"nodes": {}}, "document needs 'root' and 'nodes'"),
    (_document(root="1"), "'root' must be a node id"),
    (_document(root=True), "'root' must be a node id"),
    (_document(root=1.0), "'root' must be a node id"),
    (_document(root=None), "'root' must be a node id"),
    (_document(root="1", nodes={}), "'root' must be a node id"),
    (_document(nodes={}), "'nodes' must be a list"),
    (_document(nodes="x"), "'nodes' must be a list"),
    (_document(nodes=[[]]), "each node must be an object"),
    (_document(nodes=["x"]), "each node must be an object"),
    (_document(nodes=[None]), "each node must be an object"),
    (_document(nodes=[_BAD_ENTRY, "x"]), f"node 1: {_CUT}"),
    (_document(nodes=["x", _BAD_ENTRY]), "each node must be an object"),
    (_document(rule=...), "node entry missing ['rule']"),
    (_document(id=..., formula=...), "node entry missing ['formula', 'id']"),
    (_document(nodes=[{}]), "node entry missing ['children', 'formula', 'height', 'id', 'rule']"),
    (_document(id="2", rule=...), "node entry missing ['rule']"),
    (_document(id="2"), "node id must be an integer"),
    (_document(id=True), "node id must be an integer"),
    (_document(id=2.0), "node id must be an integer"),
    (_document(id=None), "node id must be an integer"),
    (_document(id="2", formula="a ->"), "node id must be an integer"),
    (_document(formula="a ->"), f"node 2: {_CUT}"),
    (_document(formula=""), "node 2: bad formula: empty input (position 0)"),
    (_document(formula="(a"), "node 2: bad formula: expected ')' (position 2)"),
    (_document(formula=7), _STRING),
    (_document(formula=None), _STRING),
    (_document(formula=True), _STRING),
    (_document(formula=["a"]), _STRING),
    (_document(formula=[]), _STRING),
    (_document(formula={}), _STRING),
    (_document(formula={"a": 1}), _STRING),
    (_document(formula="a ->", rule="Q"), f"node 2: {_CUT}"),
    (_document(formula=7, rule="Q"), _STRING),
    (_document(rule="Q"), "node 2: unknown rule 'Q'"),
    (_document(rule="leaf"), "node 2: unknown rule 'leaf'"),
    (_document(rule=1), "node 2: unknown rule 1"),
    (_document(rule=None), "node 2: unknown rule None"),
    (_document(rule=["I"]), "node 2: unknown rule ['I']"),
    (_document(rule={}), "node 2: unknown rule {}"),
    (_document(rule="Q", height="1"), "node 2: unknown rule 'Q'"),
    (_document(height="1"), "node 2: height must be an integer"),
    (_document(height=True), "node 2: height must be an integer"),
    (_document(height=1.0), "node 2: height must be an integer"),
    (_document(height=None), "node 2: height must be an integer"),
    (_document(height="1", children="2"), "node 2: height must be an integer"),
    (_document(children="2"), "node 2: children must be a list of ids"),
    (_document(children=None), "node 2: children must be a list of ids"),
    (_document(children={}), "node 2: children must be a list of ids"),
    (_document(children=[True]), "node 2: children must be a list of ids"),
    (_document(children=["2"]), "node 2: children must be a list of ids"),
    (_document(children=[3, 2.0]), "node 2: children must be a list of ids"),
    # An entry's bad child ids win over any later entry's error.
    (_document(nodes=[_BAD_IDS, _second(rule="Q")]), _FIRST_IDS),
    (_document(nodes=[_BAD_IDS, "x"]), _FIRST_IDS),
    (_document(nodes=[_BAD_IDS, _second(formula=...)]), _FIRST_IDS),
    (_document(nodes=[_BAD_IDS, _second(children=[None])]), _FIRST_IDS),
    (_document(nodes=[_BAD_IDS, _second(), _second()]), _FIRST_IDS),
    (_document(nodes=[{**_BAD_IDS, "rule": "Q"}, _second(children=["2"])]),
     "node 1: unknown rule 'Q'"),
    (_document(nodes=[_second(id=1), _second(children=[1.0]), _second(height=None)]),
     "node 2: children must be a list of ids"),
]


@pytest.mark.parametrize("doc, text", SCHEMA_ERRORS, ids=[t for _, t in SCHEMA_ERRORS])
def test_document_schema_error_texts(doc, text):
    with pytest.raises(FormatError) as err:
        from_dict(doc)
    assert str(err.value) == text


def test_parents_map():
    d = diamond_dag()
    assert d.parents[4] == (2, 3)
    assert d.parents[1] == ()


def test_leaf_rule_must_match_children():
    with pytest.raises(StructureError):
        build(
            [
                mk(1, "a", "LEAF", 0, [2]),
                mk(2, "a", "LEAF", 1),
            ],
            root=1,
        )


def test_elimination_children_must_differ():
    n1 = Node(1, parse_infix("a"), Rule.E, 0, (2, 2))
    n2 = mk(2, "a", "LEAF", 1)
    with pytest.raises(StructureError):
        build([n1, n2], root=1)
