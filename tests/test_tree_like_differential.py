"""``is_tree_like`` against its parent-map definition, every node but the
root with exactly one parent, on every deduction that ``build`` accepts
among the inputs of the build and compress differential tests. On a
deduction with ``build``'s report the answer is a count of child ids; it
must also hold on a plain copy of the node map, read before and after
``check_local_correctness`` gives the copy a report."""

import random

from impdag.checker import check_local_correctness
from impdag.deduction import Deduction, StructureError, build, is_tree_like
from impdag.prover import family, prove
from impdag.transform import level, unfold

from conftest import random_separation_dag
from test_build_differential import node_lists
from test_compress_differential import closed_tree, pruned, with_repetitions


def by_parents(d):
    return all(len(ps) == 1 for i, ps in d.parents.items() if i != d.root)


def built():
    for order, root in node_lists():
        try:
            yield build(order, root)
        except StructureError:
            pass
    for seed in range(120):
        rng = random.Random(seed)
        tree = closed_tree(seed)
        for t in (tree, pruned(tree, rng), with_repetitions(tree, rng)[0]):
            yield from (t, level(t))
        made = random_separation_dag(seed)
        if made is not None:
            yield made[0]
            yield unfold(made[0])
    yield from (prove(family(n)) for n in range(1, 4))


def test_tree_likeness_is_the_parent_map_definition():
    answers = set()
    for d in built():
        copy = Deduction(dict(d.nodes), d.root)
        got = [is_tree_like(d), is_tree_like(copy)]
        check_local_correctness(copy)
        got.append(is_tree_like(copy))
        want = by_parents(d)
        assert got == [want] * 3
        answers.add(want)
    assert answers == {True, False}
