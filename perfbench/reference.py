"""A fixed piece of reference work that tracks the host's current speed.

On a shared host the same work can take twice as long from one minute to
the next, so the benchmark times this reference between the operations it
measures and scales its timings by how slow the reference ran (see
run.py). The reference uses no impdag code: a change to the program never
moves it, so a slower or faster program still reads slower or faster.

It does in miniature what the program does most: build small immutable
trees, share equal subtrees through a dict, walk them recursively and
render them as text.
"""

from __future__ import annotations

import gc
import time

# About the reference's mean time under Python 3.11 on a 2-vCPU Xeon. It
# only sets the unit: scaled timings read as times at the speed where the
# reference takes this long.
NOMINAL_MS = 2.0


def _build(depth: int, k: int, memo: dict):
    if depth == 0:
        return ("atom", "abc"[k % 3])
    key = (depth, k % 7)
    node = memo.get(key)
    if node is None:
        node = ("->", _build(depth - 1, 2 * k + 1, memo), _build(depth - 1, 3 * k + 2, memo))
        memo[key] = node
    return node


def _render(node, out: list) -> None:
    if node[0] == "atom":
        out.append(node[1])
        return
    out.append("(")
    _render(node[1], out)
    out.append(" -> ")
    _render(node[2], out)
    out.append(")")


def work() -> int:
    total = 0
    for seed in range(12):
        memo: dict = {}
        tree = _build(9, seed, memo)
        out: list = []
        _render(tree, out)
        total += len("".join(out)) + len(memo)
    return total


def sample_ms() -> float:
    """One timing of the reference work. The collector is off meanwhile, so
    the size of the program's heap cannot change the sample."""
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return (time.perf_counter() - start) * 1000
    finally:
        gc.enable()


def samples_ms(n: int) -> list[float]:
    """``n`` samples after one untimed run, which pays for cold caches."""
    work()
    return [sample_ms() for _ in range(n)]


def scale(samples: list[float]) -> float:
    """The factor that turns times measured while ``samples`` were taken
    into times at the nominal speed."""
    return NOMINAL_MS / (sum(samples) / len(samples))
