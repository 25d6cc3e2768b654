"""``check_fst`` and ``cleanse_via_fst`` on the image ``compress`` returns,
decided by ``prov`` when given with its own separation-free dag, against
the same calls on ``tuple(image)``, which are always worked thread by
thread: on the acceptance corpus, family 1..7 and 40 generated separation
dags, open and closed. An image given with an equal dag that is another
object must take the thread-by-thread path and agree too."""

from itertools import islice

import pytest

import impdag.fst as fst
from impdag.deduction import Rule, renumber, to_dict
from impdag.formula import parse_infix
from impdag.fst import ThreadSet, check_fst, cleanse_via_fst
from impdag.prover import family, prove
from impdag.transform import compress

from conftest import random_separation_dag
from test_acceptance import CORPUS


def _separation_dags(count):
    made = (random_separation_dag(seed) for seed in range(1000))
    found = list(islice((dag_image for dag_image in made if dag_image is not None), count))
    assert len(found) == count
    return found


CASES = (
    [(f"corpus {f}", lambda f=f: compress(prove(parse_infix(f)))) for f in CORPUS]
    + [(f"family {n}", lambda n=n: compress(prove(family(n)))) for n in range(1, 8)]
)


def outcome(fn, *args):
    """The comparable result of a call: the report, the choice with the
    cleansed document, or the exception's type and text."""
    try:
        value = fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, tuple):
        return "ok", value[0], to_dict(value[1])
    return "ok", value


@pytest.fixture
def surveys(monkeypatch):
    """The dags the thread-by-thread walk was run on, in call order."""
    calls = []
    walk = fst._survey
    monkeypatch.setattr(fst, "_survey", lambda d, c: calls.append(d) or walk(d, c))
    return calls


def compare(dag, image, surveys):
    """``check_fst`` and ``cleanse_via_fst`` on ``ThreadSet(image)`` against
    the same calls on ``ThreadSet(tuple(image))``; returns how many of the
    two calls on the image walked its threads."""
    walks = 0
    for fn in (check_fst, cleanse_via_fst):
        want = outcome(fn, dag, ThreadSet(tuple(image)))
        surveys.clear()
        assert outcome(fn, dag, ThreadSet(image)) == want
        walks += len(surveys)
    return walks


def is_separated(dag):
    return any(n.rule is Rule.S for n in dag.nodes.values())


@pytest.mark.parametrize("name, make", CASES, ids=[name for name, _ in CASES])
def test_proofs_are_decided_per_class(name, make, surveys):
    dag, image = make()
    assert not is_separated(dag)
    assert compare(dag, image, surveys) == 0
    _, cleansed = cleanse_via_fst(dag, ThreadSet(image))
    assert to_dict(cleansed) == to_dict(dag)


def test_separation_dags_match_the_thread_walk(surveys):
    kinds = set()
    for dag, image in _separation_dags(40):
        closed = check_fst(dag, ThreadSet(tuple(image))).all_closed
        separated = is_separated(dag)
        kinds.add((closed, separated))
        # Only a closed image of a dag without S nodes is decided by prov;
        # both calls walk every other.
        assert compare(dag, image, surveys) == 2 * (not closed or separated)
        if closed and not separated:
            _, cleansed = cleanse_via_fst(dag, ThreadSet(image))
            assert to_dict(cleansed) == to_dict(dag)
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}, kinds


@pytest.mark.parametrize("pick", range(4))
def test_an_equal_dag_is_walked_thread_by_thread(pick, surveys):
    dag, image = ([compress(prove(family(3)))] + _separation_dags(3))[pick]
    twin = renumber(dag, {i: i for i in dag.nodes})
    assert twin == dag and twin is not dag
    assert compare(twin, image, surveys) == 2


def test_copies_of_the_image_are_walked_thread_by_thread(surveys):
    dag, image = compress(prove(family(2)))
    for copy in (tuple(image), image[:], list(image), image[::-1]):
        surveys.clear()
        assert check_fst(dag, ThreadSet(copy)).is_fst
        assert surveys == [dag]
