"""The ``__slots__`` records behave as the frozen dataclasses they replaced:
same constructor, ``repr``, equality and hashing, no assignment, and they
survive pickling and copying, which the benchmark relies on when it hands
set-up results from a forked child to its parent."""

import copy
import pickle

import pytest

from impdag.assignment import SepValue, _by_descending_height, evaluate_symbolic, prov
from impdag.deduction import Deduction, Node, Overflow, Rule
from impdag.formula import parse_infix
from impdag.fst import FstReport, ThreadSet

from conftest import diamond_dag

A = parse_infix("a")

RECORDS = [
    (Overflow(cap=3), "Overflow(cap=3)"),
    (ThreadSet(((1, 2), (1, 3))), "ThreadSet(threads=((1, 2), (1, 3)))"),
    (
        FstReport(True, False, True, ((1, 2),)),
        "FstReport(dense=True, all_closed=False, e_preserving=True, witnesses=((1, 2),))",
    ),
    (
        SepValue(2, (frozenset(), frozenset({A}))),
        "SepValue(node=2, branches=(frozenset(), frozenset({Atom(name='a')})))",
    ),
    (
        Deduction({1: Node(1, A, Rule.LEAF, 0)}, 1),
        "Deduction(nodes={1: Node(id=1, formula=Atom(name='a'), rule=<Rule.LEAF: 'LEAF'>,"
        " height=0, children=())}, root=1)",
    ),
]
IDS = [type(r).__name__ for r, _ in RECORDS]


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_text(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_pickle_and_copies_are_equal(record, text):
    for clone in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == text


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, text):
    name = record.__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


@pytest.mark.parametrize("record, text", RECORDS[:4], ids=IDS[:4])
def test_hash_is_the_hash_of_the_fields(record, text):
    assert hash(record) == hash(tuple(getattr(record, n) for n in record.__match_args__))
    assert len({record, copy.deepcopy(record)}) == 1


def test_deduction_is_unhashable():
    with pytest.raises(TypeError):
        hash(diamond_dag())


def test_constructor_takes_positions_or_keywords():
    assert Overflow(3) == Overflow(cap=3)
    assert SepValue(branches=(), node=1) == SepValue(1, ())
    assert Overflow(3) != Overflow(4)
    assert Overflow(3) != ThreadSet(3)
    for args, kwargs in [((), {}), ((1, 2), {}), ((1,), {"cap": 1}), ((), {"limit": 1})]:
        with pytest.raises(TypeError):
            Overflow(*args, **kwargs)


def test_parents_are_computed_once_and_not_compared():
    d = diamond_dag()
    parents = d.parents
    assert d.parents is parents
    assert d == copy.deepcopy(d) == pickle.loads(pickle.dumps(d))
    assert parents == {
        i: tuple(sorted(n.id for n in d.nodes.values() if i in n.children)) for i in d.nodes
    }


def test_node_order_is_sorted_once_and_not_compared(monkeypatch):
    import impdag.assignment as assignment

    sorts = []
    monkeypatch.setattr(
        assignment, "_by_descending_height", lambda d: sorts.append(d) or _by_descending_height(d)
    )
    d, fresh = diamond_dag(), diamond_dag()
    evaluate_symbolic(d)
    assert not prov(d)  # the R branch leaves leaf a open
    assert sorts == [d]
    order = d._descending
    assert [n.id for n in order] == [4, 2, 3, 1]
    assert d == fresh and repr(d) == repr(fresh)
    for clone in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert clone == d and repr(clone) == repr(d)
        assert getattr(clone, "_descending", None) is None
        evaluate_symbolic(clone)
        assert sorts[-1] is clone
    assert len(sorts) == 4
    assert d._descending is order
