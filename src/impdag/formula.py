"""Purely implicational formulas over named atoms.

A formula is an atom or an implication between two formulas; there are no
other connectives. Two concrete syntaxes are supported:

* infix, with a right-associative ``->`` and optional parentheses, as in
  ``a -> b -> c`` (read ``a -> (b -> c)``);
* prefix, operator first, with ``>`` as the arrow token and single spaces
  between tokens, as in ``> a > b c``.

The weight of a formula counts atom occurrences plus arrows, which is
exactly the token count of its prefix rendering.

Formulas are hash-consed (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006): the constructors ``Atom(name)`` and
``Implication(antecedent, consequent)`` look the formula up in one
process-wide table, keyed by the name or by the two children, and return
the existing object when there is one. So equal formulas are the same
object, ``==`` is an identity test, and the object is the formula's only
identity: it hashes by identity, as ``Rule`` does. Such hashes follow
where objects happen to be allocated, so no output may follow set or dict
iteration order over formulas; every order that reaches an artifact goes
through ``formula_key`` or node ids. Build formulas only through these
constructors. The table keeps every formula built for the life of the
process, so code that only asks whether a formula is a given implication
uses ``is_implication``, which builds nothing. Each formula is immutable
and holds only its structure (a name, or two children), its weight and
caches of its texts. One renderer spells out the prefix, infix and
``repr`` texts on first use: it reuses the texts already kept on
subformulas and keeps the prefix or infix text on the formula asked
alone, so each rendering costs time and memory linear in its length.
Parsing, rendering, ``repr`` and pickling (through the prefix text) are
iterative, so deep formulas never hit the interpreter's recursion limit.
"""

from __future__ import annotations

import re
from operator import attrgetter

__all__ = [
    "Atom",
    "Implication",
    "Formula",
    "FormulaSyntaxError",
    "parse_infix",
    "parse_prefix",
    "to_infix",
    "weight",
    "formula_key",
    "is_implication",
]

# Atoms are keyed by name, implications by their two children.
_TABLE: dict[object, "Formula"] = {}


def _frozen(self, *args) -> None:
    raise AttributeError(f"{type(self).__name__} is immutable")


def _intern(cls: type, key: object, **fields: object) -> "Formula":
    f = object.__new__(cls)
    for slot, value in fields.items():
        object.__setattr__(f, slot, value)
    _TABLE[key] = f
    return f


class Atom:
    """A named atom; ``Atom(name)`` returns the one atom with that name."""

    __slots__ = ("name", "weight", "_prefix", "_infix")
    __setattr__ = __delattr__ = _frozen
    prefix = property(attrgetter("name"))

    def __new__(cls, name: str) -> "Atom":
        if not isinstance(name, str):
            raise TypeError("an atom name is a string")
        f = _TABLE.get(name)
        if f is None:
            f = _intern(cls, name, name=name, weight=1, _prefix=name, _infix=name)
        return f

    def __repr__(self) -> str:
        return f"Atom(name={self.name!r})"

    def __reduce__(self):
        return Atom, (self.name,)


class Implication:
    """``antecedent -> consequent``; the constructor returns the one
    implication between those two formulas. Its prefix and infix texts
    are rendered on first use and kept."""

    __slots__ = ("antecedent", "consequent", "weight", "_prefix", "_infix")
    __setattr__ = __delattr__ = _frozen

    def __new__(cls, antecedent: "Formula", consequent: "Formula") -> "Implication":
        if not (isinstance(antecedent, Formula) and isinstance(consequent, Formula)):
            raise TypeError("Implication needs two formulas")
        key = (antecedent, consequent)
        f = _TABLE.get(key)
        if f is None:
            f = _intern(
                cls,
                key,
                antecedent=antecedent,
                consequent=consequent,
                weight=1 + antecedent.weight + consequent.weight,
                _prefix=None,
                _infix=None,
            )
        return f

    @property
    def prefix(self) -> str:
        return self._prefix or _render(self, "_prefix")

    def __repr__(self) -> str:
        return _render(self, None)

    def __reduce__(self):
        # Flat text, so pickling or copying a deep formula does not
        # recurse, and the copy is the interned object.
        return parse_prefix, (self.prefix,)


Formula = Atom | Implication


def _render(f: Formula, slot: str | None) -> str:
    """Spell out, without recursion, the text kept in ``slot`` (``"_prefix"``
    or ``"_infix"``), or the ``repr`` for None. Texts kept on subformulas
    are reused, and the result is kept on ``f`` alone: keeping every
    subformula's text would cost memory quadratic in the depth."""
    out: list[str] = []
    stack: list[Formula | str] = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            out.append(g)
        elif slot is None:
            if isinstance(g, Atom):
                out.append(repr(g))
            else:
                stack += (")", g.consequent, ", consequent=", g.antecedent, "Implication(antecedent=")
        elif (text := getattr(g, slot)) is not None:
            out.append(text)
        elif slot == "_prefix":
            stack += (g.consequent, " ", g.antecedent, "> ")
        elif isinstance(g.antecedent, Implication):
            stack += (g.consequent, ") -> ", g.antecedent, "(")
        else:
            stack += (g.consequent, " -> ", g.antecedent)
    text = "".join(out)
    if slot is not None:
        object.__setattr__(f, slot, text)
    return text


class FormulaSyntaxError(ValueError):
    """Malformed formula text; ``position`` points at the offending spot.

    For infix input the position is a character offset, for prefix input a
    token index.
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (position {position})")
        self.position = position


_ATOM_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# A token after optional white space, or the offending character.
_INFIX_TOKEN_RE = re.compile(r"\s*(?:(->|\(|\)|[A-Za-z][A-Za-z0-9_]*)|(\S))")


def _infix_tokens(text: str):
    """Each token of ``text`` with its position."""
    for m in _INFIX_TOKEN_RE.finditer(text):
        if m[2] is not None:
            raise FormulaSyntaxError(f"unexpected character {m[2]!r}", m.start(2))
        yield m[1], m.start(1)


def parse_infix(text: str) -> Formula:
    """Parse the infix syntax; the arrow associates to the right.

    The grammar is ``implication := unit ['->' implication]`` and
    ``unit := atom | '(' implication ')'``. Tokens are read one at a time,
    with one of lookahead; a character that starts no token is reported
    before any grammar error. The stack holds, innermost last, ``None`` for
    each open parenthesis and the left operand of each arrow still waiting
    for its right side.
    """
    tokens, end = _infix_tokens(text), ("", len(text))
    try:
        tok, pos = next(tokens, end)
        if not tok:
            raise FormulaSyntaxError("empty input", 0)
        stack: list[Formula | None] = []
        while True:
            if tok == "(":
                stack.append(None)
                tok, pos = next(tokens, end)
                continue
            if tok in ("->", ")", ""):
                message = f"unexpected {tok!r}" if tok else "unexpected end of input"
                raise FormulaSyntaxError(message, pos)
            value: Formula = Atom(tok)
            # A unit is complete: start a right side, or close what it ends.
            tok, pos = next(tokens, end)
            while tok != "->":
                while stack and stack[-1] is not None:
                    value = Implication(stack.pop(), value)
                if not stack:
                    if tok:
                        raise FormulaSyntaxError(f"unexpected {tok!r}", pos)
                    return value
                if tok != ")":
                    raise FormulaSyntaxError("expected ')'", pos)
                stack.pop()
                tok, pos = next(tokens, end)
            stack.append(value)
            tok, pos = next(tokens, end)
    except FormulaSyntaxError:
        for _ in tokens:  # raises instead at a bad character further on
            pass
        raise


def parse_prefix(text: str) -> Formula:
    """Parse the prefix syntax: whitespace-separated tokens, ``>`` is the arrow.

    The stack holds ``None`` for each arrow still waiting for its left
    operand and the left operand of each arrow waiting for its right one.
    Each distinct atom token is checked once per call, and an implication
    already in the table is looked up without calling its constructor.
    The canonical text just read, its tokens joined by single spaces, is
    kept as the result's prefix, so an unpickled formula is not rendered
    again.
    """
    tokens = text.split()
    if not tokens:
        raise FormulaSyntaxError("empty input", 0)
    atoms: dict[str, Atom] = {}
    stack: list[Formula | None] = []
    for i, tok in enumerate(tokens):
        if tok == ">":
            stack.append(None)
            continue
        value: Formula | None = atoms.get(tok)
        if value is None:
            if _ATOM_RE.fullmatch(tok) is None:
                raise FormulaSyntaxError(f"bad atom {tok!r}", i)
            value = atoms[tok] = Atom(tok)
        while stack and stack[-1] is not None:
            left = stack.pop()
            value = _TABLE.get((left, value)) or Implication(left, value)
        if not stack:
            break
        stack[-1] = value
    else:
        raise FormulaSyntaxError("missing operand", len(tokens))
    if i + 1 != len(tokens):
        raise FormulaSyntaxError(f"unused token {tokens[i + 1]!r}", i + 1)
    if value._prefix is None:
        object.__setattr__(value, "_prefix", " ".join(tokens))
    return value


def to_infix(f: Formula) -> str:
    """Render with minimal parentheses; only left arrow operands need them.
    The text is kept on the formula."""
    return f._infix or _render(f, "_infix")


def weight(f: Formula) -> int:
    return f.weight


def formula_key(f: Formula) -> tuple[int, str]:
    """Deterministic total order on formulas: weight first, then prefix text."""
    return (f.weight, f.prefix)


def is_implication(f: Formula, antecedent: Formula, consequent: Formula) -> bool:
    """``f == Implication(antecedent, consequent)``, without building (and
    so interning) that implication when it does not exist yet."""
    return (
        isinstance(f, Implication) and f.antecedent is antecedent and f.consequent is consequent
    )
