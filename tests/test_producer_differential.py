"""Every library function that hands out a deduction hands out a locally
correct one, or refuses its input with a ValueError.

Inputs: the valid dags of the local-correctness differential test and the
dags of ``random_separation_dag`` for 200 seeds, with the thread image
``compress`` returned for each. Producers: ``unfold``, then ``level`` and
``compress`` on the unfolded tree, ``cleanse_via_fst`` with the image
``compress`` returns, ``s_eliminate`` with the certificate of
``search_choice``, and ``decode(encode(d))`` on separation-free dags.
"""

import random
from collections import Counter

from impdag.assignment import search_choice
from impdag.checker import check_local_correctness, decode, encode
from impdag.deduction import Overflow, Rule
from impdag.fst import ThreadSet, cleanse_via_fst
from impdag.transform import compress, level, s_eliminate, unfold

from conftest import random_separation_dag
from test_local_correctness_differential import valid_dags

# Unfolding a shared dag can grow exponentially, and so can the search over
# separation edges; larger inputs add time, not cases.
CAP = 2_000
SEARCH_EDGES = 12


def outcome(seen, name, produce, part=None):
    """What ``produce()`` returns, or None where it refuses or overflows. A
    refusal must be a ValueError, and the deduction handed out (``part`` of
    a tuple result) locally correct."""
    try:
        out = produce()
    except ValueError:
        seen[name, "refused"] += 1
        return None
    if isinstance(out, Overflow):
        return None
    report = check_local_correctness(out if part is None else out[part])
    assert report.ok, (name, report.violations[:3])
    seen[name, "made"] += 1
    return out


def eliminated(d, seen):
    edges = sum(len(d.parents[n.id]) for n in d.nodes.values() if n.rule is Rule.S)
    if edges > SEARCH_EDGES:
        return
    choice = search_choice(d)
    if choice is not None:
        outcome(seen, "s_eliminate", lambda: s_eliminate(d, choice))


def cleansed(dag, image, seen):
    outcome(seen, "cleanse_via_fst", lambda: cleanse_via_fst(dag, ThreadSet(image)), part=1)


def exercise(d, seen):
    if all(n.rule is not Rule.S for n in d.nodes.values()):
        outcome(seen, "decode", lambda: decode(encode(d)))
    eliminated(d, seen)
    tree = outcome(seen, "unfold", lambda: unfold(d, CAP))
    if tree is None:
        return
    outcome(seen, "level", lambda: level(tree))
    compressed = outcome(seen, "compress", lambda: compress(tree), part=0)
    if compressed is not None:
        cleansed(*compressed, seen)
        eliminated(compressed[0], seen)


def test_every_producer_hands_out_a_locally_correct_deduction():
    seen = Counter()
    for d in valid_dags(random.Random(5)):
        exercise(d, seen)
    for seed in range(200):
        made = random_separation_dag(seed)
        if made is not None:
            exercise(made[0], seen)
            cleansed(*made, seen)
    producers = {"unfold", "level", "compress", "cleanse_via_fst", "s_eliminate", "decode"}
    assert {name for name, kind in seen if kind == "made"} == producers, seen
    assert seen["compress", "refused"], seen
