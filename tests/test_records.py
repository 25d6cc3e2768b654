"""The ``__slots__`` records behave as the frozen dataclasses they replaced:
same constructor, ``repr``, equality and hashing, no assignment, and they
survive pickling and copying, which the benchmark relies on when it hands
set-up results from a forked child to its parent."""

import copy
import pickle

import pytest

import impdag.assignment as assignment
from impdag.assignment import evaluate, prov
from impdag.deduction import Deduction, Node, Overflow, Rule
from impdag.formula import parse_infix
from impdag.fst import FstReport, ThreadSet, check_fst, cleanse_via_fst
from impdag.prover import family, prove
from impdag.transform import compress

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


@pytest.mark.parametrize("record, text", RECORDS[:3], ids=IDS[:3])
def test_hash_is_the_hash_of_the_fields(record, text):
    assert hash(record) == hash(tuple(getattr(record, n) for n in record.__match_args__))
    assert len({record, copy.deepcopy(record)}) == 1


def test_deduction_is_unhashable():
    with pytest.raises(TypeError):
        hash(diamond_dag())


def test_constructor_takes_positions_or_keywords():
    assert Overflow(3) == Overflow(cap=3)
    assert FstReport(witnesses=(), e_preserving=True, all_closed=False, dense=True) == FstReport(
        True, False, True, ()
    )
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


def _order_uses(d):
    evaluate(d, {})
    assert not prov(d)  # the R branch leaves leaf a open
    assert [n.id for n in d._descending] == [4, 2, 3, 1]


def _family_3_image():
    dag, image = compress(prove(family(3)))
    return dag, (ThreadSet(image),)


def _image_uses(d, threads):
    # On the image's own dag both fst calls ask prov; on a copy they walk
    # the threads, and only cleansing asks prov, of the copy it returns.
    assert check_fst(d, threads).is_fst
    assert cleanse_via_fst(d, threads) == ({}, d)
    assert prov(d)


# Per memo: what computes it in ``assignment``, its slot, a dag with the
# arguments of the calls, and the calls that read it.
MEMOS = {
    "node order": ("_by_descending_height", "_descending", lambda: (diamond_dag(), ()),
                   _order_uses),
    "prov verdict": ("_Program", "_proves", _family_3_image, _image_uses),
}


@pytest.mark.parametrize("name", list(MEMOS))
def test_memos_are_computed_once_per_object_and_not_compared(name, monkeypatch):
    compute, slot, make, uses = MEMOS[name]
    (d, args), (fresh, _) = make(), make()
    calls = []
    real = getattr(assignment, compute)
    monkeypatch.setattr(assignment, compute, lambda d: calls.append(d) or real(d))
    uses(d, *args)
    assert calls == [d]
    kept = getattr(d, slot)
    assert d == fresh and repr(d) == repr(fresh)
    for clone in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert clone == d and repr(clone) == repr(d)
        assert getattr(clone, slot, None) is None
        uses(clone, *args)
        assert calls[-1] is clone
    assert len(calls) == 4
    assert getattr(d, slot) is kept
