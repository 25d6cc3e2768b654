"""Fundamental sets of threads and thread-guided cleansing.

A fundamental set is a collection of maximal threads that is dense
(covers every node), closed (each thread discharges its leaf), and
preserves elimination nodes (each premise used on a thread can be traded
for the other premise without leaving the set).  Such a set certifies
provability of a dag with separation nodes and drives ``cleanse_via_fst``,
which commits one branch per separation edge and hands the result to
``transform.s_eliminate``.

``check_fst`` and ``cleanse_via_fst`` read one prefix index, built in the
walk that validates the threads: each distinct prefix gets an integer id
keyed by (id of the prefix one node shorter, next node).  Ids, not tuple
slices: a slice copies and hashes its whole prefix, quadratic in thread
length; an id costs one dict lookup per node.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import islice
from typing import IO, Iterator

from .assignment import Choice, prov
from .deduction import Deduction, FormatError, Rule, Thread, is_closed, read_json, write_json
from .transform import s_eliminate

__all__ = [
    "CleansingError",
    "FstError",
    "FstReport",
    "ThreadSet",
    "check_fst",
    "cleanse_via_fst",
    "load_threads",
    "save_threads",
]


@dataclass(frozen=True)
class ThreadSet:
    """An ordered collection of maximal root-to-leaf threads.

    Order matters: cleansing seeds from the first thread and scans
    pairing candidates in stored order.
    """

    threads: tuple[Thread, ...]


@dataclass(frozen=True)
class FstReport:
    """Outcome of the three fundamental-set conditions.

    witnesses collects the offenders: uncovered node ids for density,
    open threads for closure, and (thread, elimination node) pairs for
    preservation.
    """

    dense: bool
    all_closed: bool
    e_preserving: bool
    witnesses: tuple[object, ...]

    @property
    def is_fst(self) -> bool:
        return self.dense and self.all_closed and self.e_preserving


class FstError(ValueError):
    """The supplied thread collection is not a fundamental set."""

    def __init__(self, message: str, report: FstReport) -> None:
        super().__init__(message)
        self.report = report


class CleansingError(ValueError):
    """Cleansing could not commit a consistent branch for every edge."""


def _survey(
    d: Deduction, collection: ThreadSet
) -> tuple[FstReport, dict[tuple[int, int], int], list[list[int]]]:
    """Validate and index ``collection`` in one walk, then evaluate it.

    Returns the report, the prefix ids keyed by (id of the prefix one node
    shorter, next node), and each thread's prefix ids, the root's id 0 first.
    """
    listed = collection.threads
    step: dict[tuple[int, int], int] = {}
    paths: list[list[int]] = []
    whole: set[int] = set()
    for th in listed:
        if not th or th[0] != d.root:
            raise ValueError(f"thread {th} does not start at the root")
        pid, path, parent = 0, [0], d.nodes[th[0]]
        for child in islice(th, 1, None):
            if child not in parent.children:
                raise ValueError(f"thread {th} uses a missing edge {parent.id}->{child}")
            pid = step.setdefault((pid, child), len(step) + 1)
            path.append(pid)
            parent = d.nodes[child]
        if parent.children:
            raise ValueError(f"thread {th} stops before reaching a leaf")
        # Maximal threads that share their last prefix id are equal.
        if pid in whole:
            raise ValueError(f"duplicate thread {th}")
        whole.add(pid)
        paths.append(path)

    uncovered = sorted(d.nodes.keys() - {th[0] for th in listed} - {n for _, n in step})
    open_threads = [th for th in listed if not is_closed(d, th)]
    unpaired = [
        (th, node_id)
        for th, path in zip(listed, paths)
        for node_id, _, key in _eliminations(d, th, path)
        if key not in step
    ]
    witnesses = (*uncovered, *open_threads, *unpaired)
    report = FstReport(not uncovered, not open_threads, not unpaired, witnesses)
    return report, step, paths


def _eliminations(
    d: Deduction, th: Thread, path: list[int]
) -> Iterator[tuple[int, int, tuple[int, int]]]:
    """Each E node on ``th``, its premise off ``th``, and the key of the prefix taking it."""
    for i in range(len(th) - 1):
        node = d.nodes[th[i]]
        if node.rule is Rule.E:
            minor, major = node.children
            other = major if minor == th[i + 1] else minor
            yield th[i], other, (path[i], other)


def check_fst(d: Deduction, collection: ThreadSet) -> FstReport:
    """Evaluate density, closure, and elimination preservation.

    Raises ValueError if some element is not a maximal thread of ``d``;
    the three conditions themselves are report-valued, never raised.
    """
    return _survey(d, collection)[0]


def cleanse_via_fst(d: Deduction, collection: ThreadSet) -> tuple[Choice, Deduction]:
    """Commit separation branches along ``collection`` and eliminate them.

    Starting from the first thread, each retained thread is walked from the
    conclusion upward, and the other premise of each elimination node on it
    is continued by the first thread with that prefix whose branch crossings
    agree with the commitments so far; that thread is retained in turn.  Edges
    no retained thread crosses default to branch 1 and do not survive elimination.

    Returns the full commitment and the separation-free result.  Raises
    FstError when the set fails a fundamental-set condition and
    CleansingError when no pairing thread agrees with the commitments.
    """
    report, step, paths = _survey(d, collection)
    if not report.is_fst:
        names = ("density", "closure", "elimination preservation")
        flags = (report.dense, report.all_closed, report.e_preserving)
        failed = ", ".join(name for name, ok in zip(names, flags) if not ok)
        raise FstError(f"thread collection is not fundamental: fails {failed}", report)

    listed = collection.threads
    choice: Choice = {}

    def commitments(th: Thread) -> Iterator[tuple[tuple[int, int], int]]:
        for i in range(1, len(th) - 1):
            node = d.node(th[i])
            if node.rule is Rule.S:
                yield (th[i - 1], th[i]), node.children.index(th[i + 1]) + 1

    def consistent(th: Thread) -> bool:
        return all(choice.get(edge, branch) == branch for edge, branch in commitments(th))

    reached: set[int] = set()
    queue: deque[int] = deque()

    def retain(pos: int) -> None:
        reached.update(paths[pos])
        choice.update(commitments(listed[pos]))
        queue.append(pos)

    # Without S nodes every pick is consistent and nothing is committed.
    if any(node.rule is Rule.S for node in d.nodes.values()):
        through: defaultdict[int, list[int]] = defaultdict(list)
        for pos, path in enumerate(paths):
            for pid in path:
                through[pid].append(pos)
        retain(0)
        while queue:
            pos = queue.popleft()
            for node_id, other, key in _eliminations(d, listed[pos], paths[pos]):
                pid = step[key]
                if pid in reached:
                    continue
                pick = next((p for p in through[pid] if consistent(listed[p])), None)
                if pick is None:
                    raise CleansingError(
                        f"no continuation through premise {other} of node {node_id} "
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


def load_threads(source: str | IO[str]) -> ThreadSet:
    """Read a thread collection: a JSON list of node-id lists."""
    obj = read_json(source)
    if not isinstance(obj, list):
        raise FormatError("thread document must be a list")
    collected: dict[Thread, None] = {}
    for i, entry in enumerate(obj):
        if not isinstance(entry, list) or not entry:
            raise FormatError(f"entry {i}: expected a non-empty list of node ids")
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in entry):
            raise FormatError(f"entry {i}: node ids must be integers")
        th = tuple(entry)
        if th in collected:
            raise FormatError(f"entry {i}: duplicate thread")
        collected[th] = None
    return ThreadSet(tuple(collected))


def save_threads(collection: ThreadSet, target: str | IO[str]) -> None:
    """Write a thread collection in the format load_threads reads."""
    write_json([list(th) for th in collection.threads], target)
