"""The prefix-id ``check_fst`` and ``cleanse_via_fst`` against a
reference that indexes thread prefixes as tuple slices, on generated
separation dags with four thread sets per dag, on thread sets whose threads
share prefixes with their predecessors in every way the shared-prefix walk
distinguishes (also with threads given as lists), and on the family images."""

import random
import re
from collections import Counter, deque

from impdag.assignment import prov
from impdag.deduction import Rule, is_closed, to_dict
from impdag.fst import (
    CleansingError,
    FstError,
    FstReport,
    ThreadSet,
    check_fst,
    cleanse_via_fst,
)
from impdag.prover import family, prove
from impdag.transform import compress, s_eliminate

from conftest import random_separation_dag


def _validate(d, collection):
    seen = set()
    for th in collection.threads:
        if th in seen:
            raise ValueError(f"duplicate thread {th}")
        seen.add(th)
        if not th or th[0] != d.root:
            raise ValueError(f"thread {th} does not start at the root")
        for parent, child in zip(th, th[1:]):
            if child not in d.node(parent).children:
                raise ValueError(f"thread {th} uses a missing edge {parent}->{child}")
        if d.node(th[-1]).children:
            raise ValueError(f"thread {th} stops before reaching a leaf")


def _other_premise(d, node_id, taken):
    return next(c for c in d.node(node_id).children if c != taken)


def reference_check_fst(d, collection):
    _validate(d, collection)
    listed = collection.threads
    covered = {node_id for th in listed for node_id in th}
    uncovered = sorted(set(d.nodes) - covered)
    open_threads = [th for th in listed if not is_closed(d, th)]
    prefixes = {th[:k] for th in listed for k in range(1, len(th) + 1)}
    unpaired = []
    for th in listed:
        for i in range(len(th) - 1):
            if d.node(th[i]).rule is not Rule.E:
                continue
            w = _other_premise(d, th[i], th[i + 1])
            if th[: i + 1] + (w,) not in prefixes:
                unpaired.append((th, th[i]))
    return FstReport(
        dense=not uncovered,
        all_closed=not open_threads,
        e_preserving=not unpaired,
        witnesses=(*uncovered, *open_threads, *unpaired),
    )


def reference_cleanse_via_fst(d, collection):
    report = reference_check_fst(d, collection)
    if not report.is_fst:
        failed = [
            name
            for name, ok in (
                ("density", report.dense),
                ("closure", report.all_closed),
                ("elimination preservation", report.e_preserving),
            )
            if not ok
        ]
        raise FstError(
            "thread collection is not fundamental: fails " + ", ".join(failed),
            report,
        )

    listed = collection.threads
    by_prefix = {}
    for pos, th in enumerate(listed):
        for k in range(2, len(th) + 1):
            by_prefix.setdefault(th[:k], []).append(pos)

    def commitments(th):
        for i in range(1, len(th) - 1):
            node = d.node(th[i])
            if node.rule is Rule.S:
                yield (th[i - 1], th[i]), node.children.index(th[i + 1]) + 1

    choice = {}

    def consistent(th):
        return all(choice.get(edge, branch) == branch for edge, branch in commitments(th))

    retained = {}
    queue = deque()

    def retain(pos):
        retained[pos] = None
        for edge, branch in commitments(listed[pos]):
            choice[edge] = branch
        queue.append(pos)

    retain(0)
    while queue:
        th = listed[queue.popleft()]
        for i in range(len(th) - 1):
            if d.node(th[i]).rule is not Rule.E:
                continue
            w = _other_premise(d, th[i], th[i + 1])
            candidates = by_prefix.get(th[: i + 1] + (w,), [])
            if any(pos in retained for pos in candidates):
                continue
            pick = next((pos for pos in candidates if consistent(listed[pos])), None)
            if pick is None:
                raise CleansingError(
                    f"no continuation through premise {w} of node {th[i]} "
                    "agrees with the branches already committed"
                )
            retain(pick)

    for node in d.nodes.values():
        if node.rule is Rule.S:
            for parent in d.parents.get(node.id, ()):
                choice.setdefault((parent, node.id), 1)

    cleansed = s_eliminate(d, choice)
    if not prov(cleansed):
        raise CleansingError(
            "eliminated deduction is not proving; branch commitments were inconsistent"
        )
    return choice, cleansed


def outcome(fn, *args):
    """The comparable result of a call: its value, or its exception's
    exact type and message."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def thread_sets(seed, image):
    rng = random.Random(seed)
    shuffled = list(image)
    rng.shuffle(shuffled)
    half = rng.sample(image, len(image) // 2)
    return [image, tuple(shuffled), tuple(half), (image[0], image[0])]


def report_fields(report):
    return report.dense, report.all_closed, report.e_preserving, report.witnesses


def as_given(value, threads):
    """A reference result for the tuple form of ``threads``, with each
    thread given as a list shown as that list, as check_fst shows it."""
    given = {tuple(th): th for th in threads}
    if isinstance(value, str):
        for th in threads:
            pattern = re.escape(f"thread {tuple(th)}") + "(?= |$)"
            value = re.sub(pattern, lambda _: f"thread {th}", value)
        return value

    def witness(w):
        if isinstance(w, tuple) and w in given:
            return given[w]
        if isinstance(w, tuple) and len(w) == 2 and isinstance(w[0], tuple):
            return given[w[0]], w[1]
        return w

    dense, all_closed, e_preserving, witnesses = value
    return dense, all_closed, e_preserving, tuple(map(witness, witnesses))


def compare(dag, threads):
    """check_fst and cleanse_via_fst on ``threads`` against the references
    on the same threads as tuples; the kind of the cleansing outcome."""
    collection = ThreadSet(tuple(threads))
    as_tuples = ThreadSet(tuple(map(tuple, threads)))
    kind, got = outcome(check_fst, dag, collection)
    ref_kind, want = outcome(reference_check_fst, dag, as_tuples)
    assert kind == ref_kind, threads
    if kind == "ok":
        assert report_fields(got) == as_given(report_fields(want), threads)
    else:
        assert got == as_given(want, threads)

    kind, got = outcome(cleanse_via_fst, dag, collection)
    ref_kind, want = outcome(reference_cleanse_via_fst, dag, as_tuples)
    assert kind == ref_kind, threads
    if kind == "ok":
        assert got[0] == want[0]
        assert to_dict(got[1]) == to_dict(want[1])
    else:
        assert got == as_given(want, threads)
    return kind


def shared_prefix_sets(dag, image):
    """Thread sets in which a thread shares a prefix with its predecessor
    in each way the shared-prefix walk has to get right."""
    first, last = image[0], image[-1]
    longest = max(image, key=len)
    mid = len(longest) // 2

    def foreign(parent):
        """A node that is not a child of ``parent``."""
        return next(i for i in sorted(dag.nodes) if i not in dag.node(parent).children)

    return [
        (first, last, last),  # equal to its predecessor
        (*image, image[0]),
        (longest, longest[:-1]),  # a strict prefix of its predecessor
        (longest, longest[:1]),
        (first, first + (first[-1],)),  # continuing past its predecessor's leaf
        (longest, longest[:-1] + (foreign(longest[-2]),)),  # a foreign edge late
        (longest, longest[:mid] + (foreign(longest[mid - 1]),) + longest[mid + 1 :]),
        (first, ()),  # an empty thread
        ((),),
        (),
        image[::-1],
    ]


def test_prefix_index_matches_slice_reference():
    seen = Counter()
    dags = 0
    for seed in range(1000):
        made = random_separation_dag(seed)
        if made is None:
            continue
        dag, image = made
        for threads in thread_sets(seed, image):
            seen[compare(dag, threads)] += 1
        dags += 1
        if dags == 60:
            break
    assert dags == 60
    assert set(seen) == {"ok", "FstError", "CleansingError", "ValueError"}, seen


def test_shared_prefix_edge_cases_match_slice_reference():
    seen = Counter()
    dags = 0
    for seed in range(1000):
        made = random_separation_dag(seed)
        if made is None:
            continue
        dag, image = made
        sets = shared_prefix_sets(dag, image) + thread_sets(seed, image)
        for threads in sets:
            seen[compare(dag, threads)] += 1
            seen["lists", compare(dag, [list(th) for th in threads])] += 1
        dags += 1
        if dags == 20:
            break
    assert dags == 20
    kinds = {"ok", "FstError", "CleansingError", "ValueError"}
    assert set(seen) == kinds | {("lists", kind) for kind in kinds}, seen


def test_family_images_match_slice_reference():
    for n in range(1, 6):
        dag, image = compress(prove(family(n)))
        assert compare(dag, image) == compare(dag, image[::-1]) == "ok"
