import copy
import pickle
import random
import tracemalloc
from dataclasses import make_dataclass

import pytest

from impdag import formula as formula_module
from impdag.formula import (
    Atom,
    FormulaSyntaxError,
    Implication,
    is_implication,
    parse_infix,
    parse_prefix,
    to_infix,
    weight,
)
from impdag.gen import random_formula

A = Atom("a")
B = Atom("b")
G = Atom("g")


def test_parse_infix_right_associative():
    assert parse_infix("a -> b -> a") == Implication(A, Implication(B, A))


def test_parse_infix_parenthesized_antecedent():
    assert parse_infix("(a -> b) -> a") == Implication(Implication(A, B), A)


def test_parse_infix_explicit_grouping_matches_default():
    assert parse_infix("g -> (a -> b)") == Implication(G, Implication(A, B))
    assert parse_infix("g -> (a -> b)") == parse_infix("g -> a -> b")


def test_parse_infix_atom_names():
    f = parse_infix("alpha2 -> beta_3")
    assert f == Implication(Atom("alpha2"), Atom("beta_3"))


@pytest.mark.parametrize(
    "text",
    ["", "->", "a ->", "-> a", "(a -> b", "a -> b)", "a b", "a -> (b -> )", "1a -> b"],
)
def test_parse_infix_rejects_malformed(text):
    with pytest.raises(FormulaSyntaxError):
        parse_infix(text)


def test_parse_infix_error_carries_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_infix("a -> $b")
    assert err.value.position == 5


def test_parse_prefix_basic():
    assert parse_prefix("> g > a b") == Implication(G, Implication(A, B))


def test_parse_prefix_reports_arity_errors():
    with pytest.raises(FormulaSyntaxError):
        parse_prefix("> a")  # exhausted early
    with pytest.raises(FormulaSyntaxError):
        parse_prefix("a b")  # leftover token
    with pytest.raises(FormulaSyntaxError):
        parse_prefix("")


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("", "empty input", 0),
        (">", "missing operand", 1),
        ("> a", "missing operand", 2),
        ("a b", "unused token 'b'", 1),
        ("1x", "bad atom '1x'", 0),
        ("> a 1x", "bad atom '1x'", 2),
    ],
)
def test_parse_prefix_error_contract(text, message, position):
    with pytest.raises(FormulaSyntaxError) as err:
        parse_prefix(text)
    assert str(err.value) == f"{message} (position {position})"
    assert err.value.position == position


@pytest.mark.parametrize("text, position", [("1x", 0), ("> a 1x", 2)])
def test_parse_prefix_checks_names_already_in_the_table(text, position):
    # The constructor does not check names, so "1x" can be interned; the
    # parser must still reject it rather than find it in the table.
    Atom("1x")
    with pytest.raises(FormulaSyntaxError) as err:
        parse_prefix(text)
    assert str(err.value) == f"bad atom '1x' (position {position})"


def test_to_infix_minimal_parentheses():
    assert to_infix(Implication(G, Implication(A, B))) == "g -> a -> b"
    assert to_infix(Implication(Implication(A, B), G)) == "(a -> b) -> g"


def test_prefix_single_spaces():
    assert Implication(Implication(A, B), G).prefix == "> > a b g"


def test_weight_counts_atoms_plus_arrows():
    assert weight(A) == 1
    assert weight(parse_infix("a -> b")) == 3
    assert weight(parse_infix("g -> a -> b")) == 5


def test_weight_equals_prefix_token_count():
    rng = random.Random(7)
    for _ in range(200):
        f = random_formula(rng, max_weight=13)
        assert weight(f) == len(f.prefix.split())


def test_round_trip_infix_and_prefix():
    rng = random.Random(11)
    for _ in range(300):
        f = random_formula(rng, max_weight=15)
        assert parse_infix(to_infix(f)) == f
        assert parse_prefix(f.prefix) == f


# Frozen dataclasses with the field layout formulas had before they were
# hash-consed; reprs must not change.
_OldAtom = make_dataclass("Atom", [("name", str)], frozen=True)
_OldImplication = make_dataclass(
    "Implication", [("antecedent", object), ("consequent", object)], frozen=True
)


def _old(f):
    if isinstance(f, Atom):
        return _OldAtom(f.name)
    return _OldImplication(_old(f.antecedent), _old(f.consequent))


def _chain(n):
    """a -> a -> ... -> a with n atoms."""
    return " -> ".join(["a"] * n)


def test_equal_formulas_are_one_object():
    assert Implication(A, B) is Implication(A, B)
    assert Atom("a") is A
    assert parse_infix("(a -> b) -> g") is Implication(Implication(A, B), G)
    assert parse_prefix("> > a b g") is parse_infix("(a -> b) -> g")


def test_hash_and_repr_match_the_dataclass_layout():
    rng = random.Random(31)
    for _ in range(300):
        f = random_formula(rng, max_weight=15)
        assert repr(f) == repr(_old(f))


def test_formulas_hash_by_identity():
    rng = random.Random(41)
    formulas = [A, Atom("probe_hash"), *(random_formula(rng, max_weight=15) for _ in range(100))]
    for f in formulas:
        assert hash(f) == object.__hash__(f)
    assert "__hash__" not in vars(Atom) and "__hash__" not in vars(Implication)


@pytest.mark.parametrize("other", ["a", 1, None, []], ids=repr)
def test_implication_rejects_a_non_formula_on_either_side(other):
    for args in ((other, A), (A, other)):
        with pytest.raises(TypeError) as err:
            Implication(*args)
        assert str(err.value) == "Implication needs two formulas"


@pytest.mark.parametrize("name", [1, None, A], ids=repr)
def test_atom_rejects_a_name_that_is_no_string(name):
    with pytest.raises(TypeError) as err:
        Atom(name)
    assert str(err.value) == "an atom name is a string"


def test_pickle_and_copy_return_the_interned_object():
    rng = random.Random(37)
    formulas = [random_formula(rng, max_weight=15) for _ in range(50)]
    formulas.append(parse_infix(_chain(1500)))
    for f in formulas:
        assert pickle.loads(pickle.dumps(f)) is f
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(formulas)) == formulas


def test_formulas_are_immutable():
    f = Implication(A, B)
    with pytest.raises(AttributeError):
        f.antecedent = B
    with pytest.raises(AttributeError):
        A.name = "b"
    with pytest.raises(TypeError):
        Implication(A, "b")


def test_deep_formulas_need_no_recursion():
    chain = parse_infix(_chain(1500))
    assert weight(chain) == 2999
    assert to_infix(chain) == _chain(1500)
    assert parse_prefix(chain.prefix) is chain
    assert repr(chain).count("Implication(") == 1499
    nested = parse_infix("(" * 1200 + "a" + ")" * 1200 + " -> a")
    assert nested is Implication(A, A)
    left = parse_infix("(" * 1000 + "a" + " -> a)" * 1000)
    assert weight(left) == 2001
    assert parse_infix(to_infix(left)) is left


@pytest.mark.parametrize("atoms, name", [(10_000, "p"), (50_000, "q")])
def test_deep_formulas_cost_linear_memory(atoms, name):
    # A fresh atom per size, so no subformula is in the table already.
    text = " -> ".join([name] * atoms)
    tracemalloc.start()
    try:
        f = parse_infix(text)
        assert to_infix(f) == text
        assert pickle.loads(pickle.dumps(f)) is f
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200 * len(text)


def test_is_implication_interns_nothing():
    x, y = Atom("probe_x"), Atom("probe_y")
    size = len(formula_module._TABLE)
    assert not is_implication(x, x, y)
    assert not is_implication(Implication(y, x), x, y)
    assert len(formula_module._TABLE) == size + 1
    assert is_implication(Implication(x, y), x, y)
