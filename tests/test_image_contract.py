"""The image ``compress`` returns reads as the tuple of its threads: every
read gives what ``tuple(image)`` gives. Its length is counted, not listed;
and ``fst`` takes its ``prov`` shortcut for the image object alone, not for
``tuple(image)``, a slice, a copy or a pickle of it."""

import copy
import io
import pickle
import random
import tracemalloc

import pytest

import impdag.fst as fst
from impdag.fst import ThreadSet, check_fst, save_threads
from impdag.prover import family, prove
from impdag.transform import compress, level

from conftest import merge_pair_tree, random_separation_dag

CASES = (
    [(f"family {n}", lambda n=n: compress(prove(family(n)))) for n in range(1, 5)]
    + [("merge pair", lambda: compress(merge_pair_tree()))]
    + [(f"separation dag {seed}", lambda seed=seed: random_separation_dag(seed)) for seed in (1, 4)]
)


def written(threads):
    buf = io.StringIO()
    save_threads(ThreadSet(threads), buf)
    return buf.getvalue()


@pytest.mark.parametrize("name, make", CASES, ids=[name for name, _ in CASES])
def test_every_read_gives_what_the_tuple_gives(name, make):
    _, image = make()
    want = tuple(image)
    n = len(want)
    assert n and len(image) == n and bool(image)
    assert list(image) == list(want) and list(reversed(image)) == list(reversed(want))
    assert [image[i] for i in range(-n, n)] == [want[i] for i in range(-n, n)]
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            image[index]
    for cut in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -1),
                slice(1, n, 2), slice(n, 0)):
        assert type(image[cut]) is tuple and image[cut] == want[cut]
    assert image == want and want == image and image == image
    assert not (image != want) and not (want != image)
    assert image != want[1:] and want[1:] != image
    assert image != list(want) and list(want) != image
    assert hash(image) == hash(want)
    assert want[-1] in image and () not in image
    assert image.index(want[-1]) == n - 1 and image.count(want[0]) == 1
    for clone in (copy.copy(image), copy.deepcopy(image), pickle.loads(pickle.dumps(image))):
        assert type(clone) is tuple and clone == want
    k = min(3, n)
    assert random.Random(5).sample(image, k) == random.Random(5).sample(want, k)
    assert ThreadSet(image) == ThreadSet(want) and ThreadSet(want) == ThreadSet(image)
    assert hash(ThreadSet(image)) == hash(ThreadSet(want))
    assert written(image) == written(want)


def test_images_of_equal_threads_are_equal():
    (_, one), (_, two) = compress(prove(family(2))), compress(prove(family(2)))
    assert one == two and not (one != two) and hash(one) == hash(two)
    assert one != compress(prove(family(1)))[1]


def test_the_shortcut_is_for_the_image_object_alone(monkeypatch):
    calls = []
    walk = fst._survey
    monkeypatch.setattr(fst, "_survey", lambda d, c: calls.append(d) or walk(d, c))
    dag, image = compress(prove(family(2)))
    assert check_fst(dag, ThreadSet(image)).is_fst and calls == []
    for other in (tuple(image), image[:], copy.copy(image), copy.deepcopy(image),
                  pickle.loads(pickle.dumps(image))):
        calls.clear()
        assert check_fst(dag, ThreadSet(other)).is_fst
        assert calls == [dag]


def test_the_length_is_counted_without_listing_the_threads():
    tree = level(prove(family(6)))
    tracemalloc.start()
    try:
        dag, image = compress(tree)
        assert len(image) == (4 ** 7 - 1) // 3
        held = tracemalloc.get_traced_memory()[0]
        listed = tuple(image)
        listing = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    # The dag and the image as counted hold a small fraction of the listed threads.
    assert 10 * held < listing, (held, listing)
    assert len(listed) == len(image)
