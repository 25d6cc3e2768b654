"""The flat tuple encoding of a deduction.

Local correctness lives in ``deduction``; its ``check_local_correctness``,
``LocalCorrectnessError``, ``Violation`` and ``LCReport`` are re-exported here.

``encode`` flattens a separation-free, locally correct deduction into rows

    t(x) = [x, y1, y2, h, h1, h2, chi, gamma, beta1, beta2]

the paper's 10-tuples, one per node, where y1, y2 are the premise ids (0
when absent), h the node height, h1, h2 the premise heights, chi the rule
letter (L, R, I, E), gamma the node formula and beta1, beta2 the premise
formulas, all formulas as codes into a side table. ``TupleRow`` is a plain
named tuple, so the layer unpacks rows rather than reading fields one by
one. ``check_tuples`` re-validates rows directly against numbered
conditions 1 to 8 without materializing a deduction:

1. rows with equal ids are equal, ids lie in 1..b;
2. a premise ref agrees with the referenced row on height and formula;
3. the parentless node has height 0 and is not a leaf;
4. leaf rows zero every premise slot;
5. non-leaf premises exist and sit at h + 1;
6. repetition keeps its premise formula and has no second premise;
7. introduction concludes an implication onto its premise formula;
8. the major elimination premise is the minor premise arrow the conclusion.

Condition 0 is used for rows that are malformed before any of the above
apply (formula codes out of table range, negative numbers). Formulas are
hash-consed, so every formula comparison ``check_tuples`` makes is an
identity test, and it runs in time linear in the rows plus the table.
"""

from __future__ import annotations

from typing import NamedTuple

from .deduction import (
    Deduction, LCReport, LocalCorrectnessError, Node, Rule, StructureError, Violation,
    _require_local_correctness, build, canonical_map, check_local_correctness,
)
from .formula import (
    Formula,
    FormulaSyntaxError,
    Implication,
    formula_key,
    is_implication,
    parse_prefix,
    weight,
)

__all__ = [
    "Violation",
    "LCReport",
    "TupleRow",
    "TupleEncoding",
    "EncodingError",
    "LocalCorrectnessError",
    "DecodeError",
    "TupleFormatError",
    "check_local_correctness",
    "encode",
    "decode",
    "check_tuples",
    "render_tuples",
    "parse_tuples",
]


class EncodingError(ValueError):
    """The deduction has separation nodes, which the rows cannot hold."""


class DecodeError(ValueError):
    """The tuple rows do not describe a deduction."""


class TupleFormatError(ValueError):
    """The tuple document text is malformed."""


class TupleRow(NamedTuple):
    x: int
    y1: int
    y2: int
    h: int
    h1: int
    h2: int
    chi: str  # one of "L", "R", "I", "E"
    gamma: int
    beta1: int
    beta2: int


class TupleEncoding(NamedTuple):
    a: int  # twice the root formula weight, the nominal formula budget
    b: int  # node count
    formula_table: tuple[Formula, ...]
    rows: tuple[TupleRow, ...]
    over_budget: bool  # True when the table exceeded the nominal budget


_CHI = {Rule.LEAF: "L", Rule.R: "R", Rule.I: "I", Rule.E: "E"}
_RULE_OF = {"L": Rule.LEAF, "R": Rule.R, "I": Rule.I, "E": Rule.E}
_ROW_TEXT = " ".join(["%s"] * len(TupleRow._fields))


def encode(d: Deduction) -> TupleEncoding:
    """Flatten a separation-free, locally correct deduction to tuple rows;
    raises EncodingError on separation nodes, then LocalCorrectnessError.

    Node ids are renumbered 1..b breadth first from the root so the output
    is deterministic. The formula table lists every formula labelling a
    node, ordered by weight then prefix text, codes starting at 1.
    """
    E, S = Rule.E, Rule.S
    separations = [n.id for n in d.nodes.values() if n.rule is S]
    if separations:
        raise EncodingError(f"node {min(separations)} is a separation node")
    _require_local_correctness(d)

    nodes = d.nodes
    new_id = canonical_map(d)  # in new-id order
    table = sorted({n.formula for n in nodes.values()}, key=formula_key)
    code = {f: i for i, f in enumerate(table, 1)}
    ref = {i: (x, code[nodes[i].formula]) for i, x in new_id.items()}

    rows = []
    for i, (x, gamma) in ref.items():
        n = nodes[i]
        h, children = n.height, n.children
        if n.rule is E:
            y, z = children
            if not is_implication(nodes[z].formula, nodes[y].formula, n.formula):
                children = (z, y)
        y1 = y2 = beta1 = beta2 = h1 = 0
        if children:
            h1 = h + 1
            y1, beta1 = ref[children[0]]
            if len(children) > 1:
                y2, beta2 = ref[children[1]]
        rows.append(TupleRow(x, y1, y2, h, h1, h1, _CHI[n.rule], gamma, beta1, beta2))
    a = 2 * weight(nodes[d.root].formula)
    return TupleEncoding(a, len(rows), tuple(table), tuple(rows), len(table) > a)


def decode(t: TupleEncoding) -> Deduction:
    """Rebuild the deduction; raises DecodeError on dangling codes or a
    missing root. Equal rows with one id are one node (condition 1)."""
    if not t.rows:
        raise DecodeError("no root: empty row list")
    by_id: dict[int, TupleRow] = {}
    for row in t.rows:
        if by_id.setdefault(row[0], row) != row:
            rows = t.rows  # conflicting duplicates: build names each of them
            break
    else:
        rows = by_id.values()

    table = t.formula_table
    nodes, roots = [], []
    for x, y1, y2, h, _, _, chi, gamma, _, _ in rows:
        rule = _RULE_OF.get(chi)
        if rule is None:
            raise DecodeError(f"row {x}: unknown rule letter {chi!r}")
        if not 1 <= gamma <= len(table):
            raise DecodeError(f"row {x}: formula code {gamma} outside the table")
        # the nonzero premise ids, in slot order
        children = (y1, y2) if y1 and y2 else (y1 or y2,) if y1 or y2 else ()
        nodes.append(Node(x, table[gamma - 1], rule, h, children))
        if h == 0:
            roots.append(x)

    if len(roots) != 1:
        raise DecodeError(f"expected one height-0 row, found {len(roots)}")
    try:
        return build(nodes, roots[0])
    except StructureError as exc:
        raise DecodeError(f"rows do not form a dag: {exc}") from exc


def check_tuples(t: TupleEncoding) -> LCReport:
    """Validate rows directly against conditions 1 to 8, without building a
    deduction. Reachability is not part of these conditions."""
    violations: list[Violation] = []

    def flag(condition: int, node: int, message: str) -> None:
        violations.append(Violation(condition, node, message))

    formula_at = dict(enumerate(t.formula_table, 1))
    by_id: dict[int, TupleRow] = {}
    for row in t.rows:
        x, y1, y2, h, h1, h2, chi, gamma, beta1, beta2 = row
        if chi not in _RULE_OF or min(y1, y2, h, h1, h2, gamma, beta1, beta2) < 0:
            flag(0, x, "malformed row values")
            continue
        if gamma not in formula_at:
            flag(0, x, f"formula code {gamma} outside the table")
            continue
        if not 1 <= x <= t.b:
            flag(1, x, f"node code {x} outside 1..{t.b}")
            continue
        first = by_id.setdefault(x, row)
        if first is not row and first != row:
            flag(1, x, "conflicting duplicate rows")

    # Premise references (condition 2) and the per-rule conditions 4 to 8
    # share one pass; the stable sort below keeps each condition's order.
    children_of_someone: set[int] = set()
    for x, y1, y2, h, h1, h2, chi, gamma, beta1, beta2 in by_id.values():
        for y, hy, by in ((y1, h1, beta1), (y2, h2, beta2)):
            if y == 0:
                continue
            children_of_someone.add(y)
            other = by_id.get(y)
            if other is None:
                flag(2, x, f"premise row {y} is missing")
                continue
            if other[3] != hy:
                flag(2, x, f"premise {y} height {other[3]} does not match slot {hy}")
            if other[7] != by:
                flag(2, x, f"premise {y} formula does not match slot")

        if chi == "L":
            if y1 or y2 or h1 or h2 or beta1 or beta2:
                flag(4, x, "leaf row with nonzero premise slots")
            continue
        if y1 == 0 or (chi == "E" and y2 == 0):
            flag(5, x, "non-leaf row without its premise")
        if h1 != h + 1 or h2 != h + 1:
            flag(5, x, "premise heights are not h + 1")
        if chi == "R":
            if y2 or beta2:
                flag(6, x, "repetition row with a second premise")
            elif gamma != beta1:
                flag(6, x, "repetition changes the formula")
        elif chi == "I":
            if y2 or beta2:
                flag(7, x, "introduction row with a second premise")
            else:
                f = formula_at[gamma]
                if not (isinstance(f, Implication) and f.consequent is formula_at.get(beta1)):
                    flag(7, x, "conclusion does not introduce onto the premise formula")
        elif chi == "E":
            minor, major = formula_at.get(beta1), formula_at.get(beta2)
            if minor is None or major is None:
                flag(8, x, "elimination premise codes outside the table")
            elif not is_implication(major, minor, formula_at[gamma]):
                flag(8, x, "major premise is not minor arrow conclusion")

    roots = [x for x in by_id if x not in children_of_someone]
    if not roots:
        flag(3, 0, "no parentless row")
    for x in roots:
        row = by_id[x]
        if row[3] != 0:
            flag(3, x, "parentless row with nonzero height")
        if row[6] == "L":
            flag(3, x, "parentless row is a leaf")

    ordered = tuple(sorted(violations, key=lambda v: (str(v.condition), v.node or 0)))
    return LCReport(not ordered, ordered)


def render_tuples(t: TupleEncoding) -> str:
    """Text form: header line 'a b', then the formula table (code, tab,
    prefix formula), then one row per line with the rule letter upper case."""
    lines = [f"{t.a} {t.b}"]
    lines += [f"{i}\t{f.prefix}" for i, f in enumerate(t.formula_table, 1)]
    lines += [_ROW_TEXT % row for row in t.rows]
    return "\n".join(lines) + "\n"


def parse_tuples(text: str) -> TupleEncoding:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TupleFormatError("empty document")
    head = lines[0].split()
    if len(head) != 2:
        raise TupleFormatError("header must be 'a b'")
    try:
        a, b = int(head[0]), int(head[1])
    except ValueError as exc:
        raise TupleFormatError(f"bad header: {exc}") from exc

    table: list[Formula] = []
    rows: list[TupleRow] = []
    for ln in lines[1:]:
        if "\t" in ln:
            if rows:
                raise TupleFormatError("formula table lines must precede rows")
            code_text, formula_text = ln.split("\t", 1)
            try:
                code = int(code_text)
                formula = parse_prefix(formula_text)
            except (ValueError, FormulaSyntaxError) as exc:
                raise TupleFormatError(f"bad table line {ln!r}: {exc}") from exc
            if code != len(table) + 1:
                raise TupleFormatError(f"table codes must run 1.., got {code}")
            table.append(formula)
            continue
        parts = ln.split()
        if len(parts) != 10:
            raise TupleFormatError(f"row needs 10 fields: {ln!r}")
        x, y1, y2, h, h1, h2, chi, gamma, beta1, beta2 = parts
        if chi not in _RULE_OF:
            raise TupleFormatError(f"bad rule letter {chi!r}")
        try:
            rows.append(
                TupleRow(
                    int(x), int(y1), int(y2), int(h), int(h1), int(h2),
                    chi, int(gamma), int(beta1), int(beta2),
                )
            )
        except ValueError as exc:
            raise TupleFormatError(f"bad row {ln!r}: {exc}") from exc

    return TupleEncoding(a, b, tuple(table), tuple(rows), len(table) > a)
