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
keyed by the id of the prefix one node shorter and the next node.  Ids,
not tuple slices: a slice copies and hashes its whole prefix, quadratic in
thread length.  The walk works once per distinct prefix, not once per
thread entry: it skips a thread's longest common prefix with the thread
before it, found by bisection over slice comparisons, and each step reads
a per-edge table giving the antecedent an I parent discharges and an E
parent's other premise.  A thread is closed when its leaf formula is among
the antecedents discharged along it; each new prefix leaving an E node
records the key of the prefix taking the other premise instead.

A thread image that ``transform.compress`` returns for a dag without
separation nodes, given with the very dag object it was built for, is
decided by ``prov`` instead. It lists every thread of that dag, so it is
dense and preserves eliminations, and ``prov`` holds exactly when each of
those threads is closed; each call on the image runs ``prov`` once. When
``prov`` fails, or the dag has separation nodes, the image is walked as
any other collection is.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import islice
from typing import IO, Iterator

from .assignment import Choice, prov
from .deduction import Deduction, FormatError, Record, Rule, Thread, _require_local_correctness
from .deduction import read_json, write_text
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


class ThreadSet(Record):
    """An ordered collection of maximal root-to-leaf threads.

    Order matters: cleansing seeds from the first thread and scans
    pairing candidates in stored order.
    """

    __slots__ = ("threads",)
    threads: tuple[Thread, ...]


class FstReport(Record):
    """Outcome of the three fundamental-set conditions.

    witnesses collects the offenders: uncovered node ids for density,
    open threads for closure, and (thread, elimination node) pairs for
    preservation.
    """

    __slots__ = ("dense", "all_closed", "e_preserving", "witnesses")
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
) -> tuple[FstReport, dict[int, int], list[list[int]], dict[int, tuple[int, int, int]]]:
    """Validate and index ``collection`` in one walk, then evaluate it.

    Returns the report; the prefix ids, keyed by (id of the prefix one node
    shorter) * width + (position of the next node in ``d.nodes``); each
    thread's prefix ids, the root's id 0 first; and, per prefix id whose
    last step leaves an E node, that node, its other premise and the key of
    the prefix taking that premise instead.
    """
    nodes = d.nodes
    width = len(nodes)
    position = {i: k for k, i in enumerate(nodes)}
    # Per parent, per child: the child's position, the antecedent an I
    # parent discharges onto it, an E parent's other premise with its
    # position, and the child's own table. A thread is closed when its leaf
    # formula is among the antecedents discharged along it.
    edges: dict[int, dict[int, tuple]] = {i: {} for i in nodes}
    I, E = Rule.I, Rule.E  # noqa: E741
    for n in nodes.values():
        discharged = n.formula.antecedent if n.rule is I else None
        out = edges[n.id]
        for c in n.children:
            other = other_at = None
            if n.rule is E:
                minor, major = n.children
                other = major if minor == c else minor
                other_at = position[other]
            out[c] = (position[c], discharged, other, other_at, edges[c])

    listed = collection.threads
    step: dict[int, int] = {}
    paths: list[list[int]] = []
    elims: dict[int, tuple[int, int, int]] = {}
    whole: set[int] = set()
    covered: set[int] = set()
    open_threads = []
    prev: Thread = (d.root,)
    path = [0]
    held: list = []  # the antecedents discharged on each edge of prev
    fresh = 0  # the last prefix id given out
    for th in listed:
        if not th or th[0] != d.root:
            raise ValueError(f"thread {th} does not start at the root")
        t = tuple(th)
        # prev is valid and indexed in full, so its longest common prefix
        # with t (at least the root) needs no work: find it by bisection.
        k, hi = 1, min(len(t), len(prev))
        while k < hi:
            mid = (k + hi + 1) // 2
            if t[:mid] == prev[:mid]:
                k = mid
            else:
                hi = mid - 1
        path = path[:k]
        del held[k - 1 :]
        pid, parent = path[-1], t[k - 1]
        out = edges[parent]
        for child in islice(t, k, None):
            info = out.get(child)
            if info is None:
                raise ValueError(f"thread {th} uses a missing edge {parent}->{child}")
            at, discharged, other, other_at, out = info
            key = pid * width + at
            pid = step.get(key)
            if pid is None:
                pid = step[key] = fresh = fresh + 1
                if other is not None:
                    elims[pid] = (parent, other, key - at + other_at)
            path.append(pid)
            held.append(discharged)
            parent = child
        if out:
            raise ValueError(f"thread {th} stops before reaching a leaf")
        # Maximal threads that share their last prefix id are equal.
        if pid in whole:
            raise ValueError(f"duplicate thread {th}")
        whole.add(pid)
        paths.append(path)
        covered.update(t[k:])
        if nodes[parent].formula not in held:
            open_threads.append(th)
        prev = t

    if listed:
        covered.add(d.root)
    uncovered = sorted(nodes.keys() - covered)
    unpaired = []
    if any(key not in step for _, _, key in elims.values()):
        unpaired = [
            (th, node_id)
            for th, path in zip(listed, paths)
            for node_id, _, key in (elims[pid] for pid in path if pid in elims)
            if key not in step
        ]
    witnesses = (*uncovered, *open_threads, *unpaired)
    report = FstReport(not uncovered, not open_threads, not unpaired, witnesses)
    return report, step, paths, elims


def _proven_image(d: Deduction, collection: ThreadSet) -> bool:
    """Whether ``collection`` is ``compress``'s image of an S-free ``d`` itself and ``prov(d)``."""
    if getattr(collection.threads, "dag", None) is not d:
        return False
    S = Rule.S
    return all(n.rule is not S for n in d.nodes.values()) and prov(d)


def check_fst(d: Deduction, collection: ThreadSet) -> FstReport:
    """Evaluate density, closure, and elimination preservation.

    Raises ValueError if some element is not a maximal thread of ``d``;
    the three conditions themselves are report-valued, never raised. The
    ``compress`` image of an S-free ``d`` itself is not walked when ``prov(d)``.
    """
    _require_local_correctness(d)
    if _proven_image(d, collection):
        return FstReport(True, True, True, ())
    return _survey(d, collection)[0]


def cleanse_via_fst(d: Deduction, collection: ThreadSet) -> tuple[Choice, Deduction]:
    """Commit separation branches along ``collection`` and eliminate them.

    Starting from the first thread, each retained thread is walked from the
    conclusion upward, and the other premise of each elimination node on it
    is continued by the first thread with that prefix whose branch crossings
    agree with the commitments so far; that thread is retained in turn.  Edges
    no retained thread crosses default to branch 1 and do not survive elimination.

    The ``compress`` image of an S-free ``d`` itself gives ``({}, d)`` when ``prov(d)``.
    Returns the full commitment and the separation-free result.  Raises
    FstError when the set fails a fundamental-set condition and
    CleansingError when no pairing thread agrees with the commitments.
    """
    _require_local_correctness(d)
    if _proven_image(d, collection):
        return {}, d
    report, step, paths, elims = _survey(d, collection)
    if not report.is_fst:
        names = ("density", "closure", "elimination preservation")
        flags = (report.dense, report.all_closed, report.e_preserving)
        failed = ", ".join(name for name, ok in zip(names, flags) if not ok)
        raise FstError(f"thread collection is not fundamental: fails {failed}", report)

    separated = any(node.rule is Rule.S for node in d.nodes.values())
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
    if separated:
        through: defaultdict[int, list[int]] = defaultdict(list)
        for pos, path in enumerate(paths):
            for pid in path:
                through[pid].append(pos)
        retain(0)
        while queue:
            pos = queue.popleft()
            # Each E node on the thread, its premise off the thread and the
            # key of the prefix taking that premise, in thread order.
            for node_id, other, key in (elims[pid] for pid in paths[pos] if pid in elims):
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
                for parent in d.parents[node.id]:
                    choice.setdefault((parent, node.id), 1)

    # Without S nodes nothing is eliminated, and a dense set reaches every node.
    cleansed = s_eliminate(d, choice) if separated else d
    if not prov(cleansed):
        raise CleansingError(
            "eliminated deduction is not proving; branch commitments were inconsistent"
        )
    return choice, cleansed


def load_threads(source: str | IO[str]) -> ThreadSet:
    """Read a thread collection: a JSON list of distinct, non-empty node-id
    lists. Each entry is checked as it is read; the first bad one is named."""
    obj = read_json(source)
    if not isinstance(obj, list):
        raise FormatError("thread document must be a list")
    collected: dict[Thread, None] = {}
    for i, entry in enumerate(obj):
        if not isinstance(entry, list) or not entry:
            raise FormatError(f"entry {i}: expected a non-empty list of node ids")
        for v in entry:
            if type(v) is not int:
                raise FormatError(f"entry {i}: node ids must be integers")
        th = tuple(entry)
        if th in collected:
            raise FormatError(f"entry {i}: duplicate thread")
        collected[th] = None
    return ThreadSet(tuple(collected))


def save_threads(collection: ThreadSet, target: str | IO[str]) -> None:
    """Write the text of ``write_json(collection.threads, target)`` directly; ids are ints."""
    listed = ",\n  ".join(
        "[\n    " + ",\n    ".join(map(str, t)) + "\n  ]" if t else "[]" for t in collection.threads
    )
    write_text(f"[\n  {listed}\n]\n" if collection.threads else "[]\n", target)
