"""Fundamental sets of threads and thread-guided cleansing.

A fundamental set is a collection of maximal threads that is dense
(covers every node), closed (each thread discharges its leaf), and
preserves elimination nodes (each premise used on a thread can be traded
for the other premise without leaving the set).  Such a set certifies
provability of a dag with separation nodes and drives ``cleanse_via_fst``,
which commits one branch per separation edge and hands the result to
``transform.s_eliminate``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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

    def __iter__(self) -> Iterator[Thread]:
        return iter(self.threads)

    def __len__(self) -> int:
        return len(self.threads)


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


def _validate(d: Deduction, collection: ThreadSet) -> None:
    seen: set[Thread] = set()
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


def _other_premise(d: Deduction, node_id: int, taken: int) -> int:
    return next(c for c in d.node(node_id).children if c != taken)


def check_fst(d: Deduction, collection: ThreadSet) -> FstReport:
    """Evaluate density, closure, and elimination preservation.

    Raises ValueError if some element is not a maximal thread of ``d``;
    the three conditions themselves are report-valued, never raised.
    """
    _validate(d, collection)
    listed = collection.threads
    covered = {node_id for th in listed for node_id in th}
    uncovered = sorted(set(d.nodes) - covered)
    open_threads = [th for th in listed if not is_closed(d, th)]
    prefixes = {th[:k] for th in listed for k in range(1, len(th) + 1)}
    unpaired: list[tuple[Thread, int]] = []
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


def cleanse_via_fst(d: Deduction, collection: ThreadSet) -> tuple[Choice, Deduction]:
    """Commit separation branches along ``collection`` and eliminate them.

    Starting from the first thread, each retained thread is walked from
    the conclusion upward; every elimination node on it must have its
    other premise continued by some thread of the set with the same
    prefix (the preservation condition), and the first such thread whose
    branch crossings agree with the commitments made so far is retained
    in turn.  Edges never crossed by a retained thread default to branch
    1; they cannot survive into the eliminated dag.

    Returns the full commitment and the separation-free result.  Raises
    FstError when the set fails a fundamental-set condition and
    CleansingError when no pairing thread agrees with the branches
    already committed.
    """
    report = check_fst(d, collection)
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
    by_prefix: dict[Thread, list[int]] = {}
    for pos, th in enumerate(listed):
        for k in range(2, len(th) + 1):
            by_prefix.setdefault(th[:k], []).append(pos)

    def commitments(th: Thread) -> Iterator[tuple[tuple[int, int], int]]:
        for i in range(1, len(th) - 1):
            node = d.node(th[i])
            if node.rule is Rule.S:
                yield (th[i - 1], th[i]), node.children.index(th[i + 1]) + 1

    choice: Choice = {}

    def consistent(th: Thread) -> bool:
        return all(choice.get(edge, branch) == branch for edge, branch in commitments(th))

    retained: dict[int, None] = {}
    queue: deque[int] = deque()

    def retain(pos: int) -> None:
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


def load_threads(source: str | IO[str]) -> ThreadSet:
    """Read a thread collection: a JSON list of node-id lists."""
    obj = read_json(source)
    if not isinstance(obj, list):
        raise FormatError("thread document must be a list")
    collected: list[Thread] = []
    seen: set[Thread] = set()
    for i, entry in enumerate(obj):
        if not isinstance(entry, list) or not entry:
            raise FormatError(f"entry {i}: expected a non-empty list of node ids")
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in entry):
            raise FormatError(f"entry {i}: node ids must be integers")
        th = tuple(entry)
        if th in seen:
            raise FormatError(f"entry {i}: duplicate thread")
        seen.add(th)
        collected.append(th)
    return ThreadSet(tuple(collected))


def save_threads(collection: ThreadSet, target: str | IO[str]) -> None:
    """Write a thread collection in the format load_threads reads."""
    write_json([list(th) for th in collection.threads], target)
