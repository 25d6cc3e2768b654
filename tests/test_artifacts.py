"""Artifacts stay byte-identical across changes to the in-memory representation.

The digests were taken from the JSON documents and tuple tables that the
pipeline wrote before formulas were hash-consed, and every later version
must write the same bytes. For each input the digest covers, in order, the
saved proof tree, its leveled form and its compressed dag, each followed by
its rendered tuple table.
"""

import hashlib
import io

import pytest

from impdag.checker import encode, render_tuples
from impdag.deduction import save_deduction
from impdag.formula import parse_infix
from impdag.prover import family, prove
from impdag.transform import compress, level

from test_acceptance import CORPUS

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


def _formula(name):
    if name.startswith("family("):
        return family(int(name[len("family("):-1]))
    return parse_infix(name)


def test_inputs_are_the_corpus_and_family():
    assert list(DIGESTS) == CORPUS + [f"family({n})" for n in range(1, 6)]


@pytest.mark.parametrize("name", list(DIGESTS))
def test_pipeline_artifacts_are_byte_identical(name):
    tree = prove(_formula(name))
    leveled = level(tree)
    dag, _ = compress(leveled)
    digest = hashlib.sha256()
    for d in (tree, leveled, dag):
        buffer = io.StringIO()
        save_deduction(d, buffer)
        digest.update(buffer.getvalue().encode())
        digest.update(render_tuples(encode(d)).encode())
    assert digest.hexdigest() == DIGESTS[name]
