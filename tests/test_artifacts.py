"""Artifacts stay byte-identical across changes to the in-memory representation.

The digests were taken from the JSON documents and tuple tables that the
pipeline wrote before formulas were hash-consed, and every later version
must write the same bytes. For each input the digest covers, in order, the
saved proof tree, its leveled form and its compressed dag, each followed by
its rendered tuple table. The image digests cover the thread image that
``compress`` returns, saved as a thread file; they were taken before the
image was built by one walk over the tree instead of from ``threads()``.
The family(6) digest, the same recipe, was taken while ``save_deduction``
still wrote ``json.dumps(to_dict(d), indent=2)``. Formulas hash by
identity, so the last test recomputes every digest, and that of the proof
of a deep implication chain, in a fresh interpreter that first interned
thousands of other formulas in a shuffled order.
"""

import hashlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

from impdag.assignment import search_choice
from impdag.checker import encode, render_tuples
from impdag.deduction import Node, Rule, build, renumber, save_deduction, to_dict
from impdag.formula import parse_infix
from impdag.fst import ThreadSet, save_threads
from impdag.gen import enumerate_formulas
from impdag.prover import family, prove
from impdag.transform import compress, level

from conftest import random_separation_dag
from test_acceptance import CORPUS
from test_cli import CHILD_ENV
from test_prover_differential import chain
from test_search_differential import FIXTURES

DIGESTS = {
    "a -> a": "cc2c91360ce6d96957277e03310da4f10f5e44c21b68142a3a2e05a882281a24",
    "a -> b -> a": "38ece23f74b0e6c70c8bdebe817af80442fbc64728951dc1532ea2bda2ac7e0a",
    "(a -> b -> g) -> (a -> b) -> a -> g": "7b7b60b00ab039681744e908388aaefc50523e7cecb3bddbcd1b2fbc717aebd8",
    "(a -> b) -> (g -> a) -> g -> b": "c2fda2441d7cd77b34ad61768fe367add875777844f88caba14a49a84b18b677",
    "(b -> g) -> (a -> b) -> a -> g": "0e537f9e63c6430234deb8507475bd345753f79488e1e2afeafbe0dd801bdf9f",
    "(a -> b -> g) -> b -> a -> g": "423479f034dbee9297250664b8e82d4528a3f812059fc51fdb457e019022fe12",
    "(a -> a -> b) -> a -> b": "9057e3aa6b804377213c755d6d9ecb9d1111d992c21a6a1cb3803c716cf8fddf",
    "a -> (a -> b) -> b": "7b75071f4c5b2ebde768be6d42962ea1d0ce8ee63c8d7380d10d90e966048480",
    "((a -> a) -> b) -> b": "ff29e540d7d5ca2ca82b3c5ab19ea534c1d35376d401ab12e8c768fc7dabc4ce",
    "((a -> b) -> b) -> (b -> a) -> b -> b": "f083a72e7cada9c8a0ee02a3f5c666114e8a691b5d6acc41b6bd7045ad626c08",
    "((a -> b) -> g) -> b -> g": "1a7cd4ec0399e508961c9cb661e8602051bdec76700fe5b479fb89c110069796",
    "family(1)": "85c83e1d5e5e7fe9ead60be879cb9d4ae2d6b61e1c7582956fea077ad5c476cd",
    "family(2)": "dfd8b3fe937b1e2c368ca71c0fd8032d4b6ec04e7fadb640c5a6f91341326a62",
    "family(3)": "9841acd28394f176392b790771b44109d61e3d59fd5fcc255faf43d4584ee785",
    "family(4)": "7aaff11f6b555ffc5f2970c4c718181b91c66d0543a8394402034daa9b1e695b",
    "family(5)": "eecbb9ce691e8e1c571543149a5e2afcc1f6a08efffbb78206b7cc26d9fedce8",
}

IMAGE_DIGESTS = {
    "a -> a": "47d6b8f50d5b36d06b502619e1e91bcdff23e5b53aebc1d7f7feff4482233632",
    "a -> b -> a": "a19b58ef5c8f611e9d4f8f0260e37785e1c2bddba5ec344a1933e80a1a7865b6",
    "(a -> b -> g) -> (a -> b) -> a -> g": "41f3c8a4198c5c48b66d13dbb9fa0dd95b104ecf8a077c9028966be167e16ee7",
    "(a -> b) -> (g -> a) -> g -> b": "06162111a57f0d61826ee5a399cc6382a19911cd512bf1502a044aa6d4adddb0",
    "(b -> g) -> (a -> b) -> a -> g": "06162111a57f0d61826ee5a399cc6382a19911cd512bf1502a044aa6d4adddb0",
    "(a -> b -> g) -> b -> a -> g": "d9a0a4757d3b7b44ff1b23149f735f195f87e65e7869e3377560f045e2c92369",
    "(a -> a -> b) -> a -> b": "a19adaf30b1ee2cb9a2f14bddd06387a91463ae768e179ab65cf2988a2c19655",
    "a -> (a -> b) -> b": "ad2632c3f61122fd160f98115e3df471112fd5531ede908b5cf17de14dc1b0f2",
    "((a -> a) -> b) -> b": "c88c4a156256d8db7382f3aad3eb8175bc84ce88b29ed0cedec3f28419c31aae",
    "((a -> b) -> b) -> (b -> a) -> b -> b": "9fab4542037c011cdf4688c089f24dc349ef9ec73330f8af3c5ebb049191650e",
    "((a -> b) -> g) -> b -> g": "9c427f00df76d15e1e0ee1118cbb1861bd8f146caa942a9a9d31ef6f3f131237",
    "family(1)": "2164501dcc506aedda3d2a69c70eeca7af4b0bb995d1cda6a4e4a0983a1901b8",
    "family(2)": "c023c4160db4025022b93eded115b9257507f5b39ddc3ba195ddfb2492e3f16d",
    "family(3)": "849b9de9663c3bcf0fb24aee1b873451dc9cf0ab2fe6e9aa03adf3b250adb796",
    "family(4)": "d8db9c2e634215c38910784f678b39e7c17df06fb2bf56c619fc97d25e1d7e29",
    "family(5)": "6a0d397ea349734caeae8f88efd55a9ebfc4cf4faea80affc3a39424819c0356",
}


FAMILY_6_DIGEST = "cc0c9e550aa399ab84b59be8d095b131e6a320a4c40f79e6985437ca3192a7ae"


def _formula(name):
    if name.startswith("family("):
        return family(int(name[len("family("):-1]))
    return parse_infix(name)


def test_inputs_are_the_corpus_and_family():
    assert list(DIGESTS) == CORPUS + [f"family({n})" for n in range(1, 6)]


def _pipeline_digest(formula):
    tree = prove(formula)
    leveled = level(tree)
    dag, _ = compress(leveled)
    digest = hashlib.sha256()
    for d in (tree, leveled, dag):
        buffer = io.StringIO()
        save_deduction(d, buffer)
        digest.update(buffer.getvalue().encode())
        digest.update(render_tuples(encode(d)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(DIGESTS))
def test_pipeline_artifacts_are_byte_identical(name):
    assert _pipeline_digest(_formula(name)) == DIGESTS[name]


def test_family_6_artifacts_are_byte_identical():
    assert _pipeline_digest(family(6)) == FAMILY_6_DIGEST


def _separation_dags(count):
    """The first ``count`` dags that ``random_separation_dag`` makes, with
    gaps between their ids; every second one has its ids in reverse
    breadth-first order."""
    seed = 0
    while count:
        made = random_separation_dag(seed)
        seed += 1
        if made is not None:
            count -= 1
            step = 3 if count % 2 else -3
            yield renumber(made[0], {i: 10_000 + step * i for i in made[0].nodes})


def test_writer_text_is_the_indented_document():
    one_node = build([Node(7, parse_infix("a"), Rule.LEAF, 0)], 7)
    for index, d in enumerate([one_node, *_separation_dags(30)]):
        buffer = io.StringIO()
        save_deduction(d, buffer)
        assert buffer.getvalue() == json.dumps(to_dict(d), indent=2) + "\n", index


def _image_digest(formula):
    _, image = compress(level(prove(formula)))
    buffer = io.StringIO()
    save_threads(ThreadSet(image), buffer)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", list(DIGESTS))
def test_thread_images_are_byte_identical(name):
    assert _image_digest(_formula(name)) == IMAGE_DIGESTS[name]


def _choices():
    return [None if c is None else [[list(e), b] for e, b in c.items()]
            for c in map(search_choice, (make() for make in FIXTURES))]


def _survey_digest():
    """One digest over the proof and compressed dag of every provable
    formula over three atoms up to weight 11, which gives the prover
    sequents with more than one step to choose from."""
    digest = hashlib.sha256()
    for f in enumerate_formulas(11, ("a", "b", "g")):
        tree = prove(f)
        for d in () if tree is None else (tree, compress(tree)[0]):
            buffer = io.StringIO()
            save_deduction(d, buffer)
            digest.update(buffer.getvalue().encode())
    return digest.hexdigest()


def _chain_digest():
    """Digest of the proof of a deep chain, whose sequents carry the
    largest contexts, so sets of them iterate in the most orders."""
    text = json.dumps(to_dict(prove(chain(120))))
    return hashlib.sha256(text.encode()).hexdigest()


# Interns the formulas read from stdin in the order given, before anything
# else builds one, then prints the digests and choices the test compares.
PROBE = """
import json, sys
from impdag.formula import parse_prefix
for text in json.load(sys.stdin):
    parse_prefix(text)
import test_artifacts as a
print(json.dumps([
    {name: a._pipeline_digest(a._formula(name)) for name in a.DIGESTS},
    a._pipeline_digest(a.family(6)),
    {name: a._image_digest(a._formula(name)) for name in a.DIGESTS},
    a._choices(),
    a._survey_digest(),
    a._chain_digest(),
]))
"""


def test_outputs_do_not_depend_on_the_interning_order():
    # Formulas hash by identity, so interning others first, in a shuffled
    # order, moves every set and dict of formulas to another order.
    formulas = enumerate_formulas(9, ("a", "b", "g")) + [family(n) for n in range(1, 5)]
    texts = [f.prefix for f in formulas]
    random.Random(15).shuffle(texts)
    env = dict(CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(__file__), env["PYTHONPATH"]])
    done = subprocess.run([sys.executable, "-c", PROBE], input=json.dumps(texts),
                          capture_output=True, text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    digests, family_6, images, choices, survey, chain_digest = json.loads(done.stdout)
    assert digests == DIGESTS
    assert family_6 == FAMILY_6_DIGEST
    assert images == IMAGE_DIGESTS
    assert choices == _choices()
    assert survey == _survey_digest()
    assert chain_digest == _chain_digest()
