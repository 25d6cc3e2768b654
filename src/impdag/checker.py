"""Local correctness checking and the flat tuple encoding.

``check_local_correctness`` works on a built deduction and reports which
clause of the node-local definition fails, identified by a short clause id:

* ``1a``  edge endpoints (leaves have no children, the root no parent);
* ``1b``  root height is 0;
* ``1c``  children sit exactly one level above their parent;
* ``2a``  repetition repeats its child formula;
* ``2b``  introduction prepends an antecedent to its child formula;
* ``2c``  one elimination premise is the other premise arrow the conclusion;
* ``2d``  separation children repeat the node formula and are not
          themselves separations;
* ``3``   the root is not a leaf.

``encode`` flattens a separation-free, locally correct deduction into rows

    t(x) = [x, y1, y2, h, h1, h2, chi, gamma, beta1, beta2]

where y1, y2 are the premise ids (0 when absent), h the node height, h1, h2
the premise heights, chi the rule letter (L, R, I, E), gamma the node
formula and beta1, beta2 the premise formulas, all formulas as codes into a
side table. ``check_tuples`` re-validates rows directly against numbered
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
apply (formula codes out of table range, negative numbers). The runtime of
``check_tuples`` is a small constant times b * a formula-symbol
comparisons plus dictionary lookups, quadratic in the input size overall.
"""

from __future__ import annotations

from dataclasses import dataclass

from .deduction import Deduction, Node, Rule, StructureError, build, canonical
from .formula import (
    Formula,
    FormulaSyntaxError,
    Implication,
    formula_key,
    is_implication,
    parse_prefix,
    to_prefix,
    weight,
)

__all__ = [
    "Violation",
    "LCReport",
    "TupleRow",
    "TupleEncoding",
    "EncodingError",
    "DecodeError",
    "TupleFormatError",
    "check_local_correctness",
    "encode",
    "decode",
    "check_tuples",
    "render_tuples",
    "parse_tuples",
]


@dataclass(frozen=True)
class Violation:
    condition: int | str
    node: int | None
    message: str


@dataclass(frozen=True)
class LCReport:
    ok: bool
    violations: tuple[Violation, ...]


class EncodingError(ValueError):
    """The deduction cannot be encoded (separation nodes, or not locally
    correct)."""

    def __init__(self, message: str, report: LCReport | None = None) -> None:
        super().__init__(message)
        self.report = report


class DecodeError(ValueError):
    """The tuple rows do not describe a deduction."""


class TupleFormatError(ValueError):
    """The tuple document text is malformed."""


def check_local_correctness(d: Deduction) -> LCReport:
    """Report-valued check of every node-local clause; never raises."""
    violations: list[Violation] = []

    def flag(condition: int | str, node: int | None, message: str) -> None:
        violations.append(Violation(condition, node, message))

    root = d.node(d.root)
    if root.height != 0:
        flag("1b", root.id, "root height is not 0")
    if d.parents[root.id]:
        flag("1a", root.id, "root has a parent")
    if root.rule is Rule.LEAF:
        flag("3", root.id, "root is a leaf")

    for n in sorted(d.nodes.values(), key=lambda n: n.id):
        if n.rule is Rule.LEAF and n.children:
            flag("1a", n.id, "leaf has children")
        for c in n.children:
            if d.node(c).height != n.height + 1:
                flag("1c", n.id, f"child {c} is not one level up")
        if n.rule is Rule.R:
            if len(n.children) == 1 and d.node(n.children[0]).formula != n.formula:
                flag("2a", n.id, "repetition child formula differs")
        elif n.rule is Rule.I:
            if len(n.children) == 1:
                child = d.node(n.children[0])
                ok = (
                    isinstance(n.formula, Implication)
                    and n.formula.consequent == child.formula
                )
                if not ok:
                    flag("2b", n.id, "conclusion does not introduce onto the child formula")
        elif n.rule is Rule.E:
            if len(n.children) == 2:
                y, z = (d.node(c) for c in n.children)
                straight = is_implication(z.formula, y.formula, n.formula)
                swapped = is_implication(y.formula, z.formula, n.formula)
                if not (straight or swapped):
                    flag("2c", n.id, "no premise is the other premise arrow the conclusion")
        elif n.rule is Rule.S:
            for c in n.children:
                ch = d.node(c)
                if ch.formula != n.formula:
                    flag("2d", n.id, f"separation child {c} changes the formula")
                if ch.rule is Rule.S:
                    flag("2d", n.id, f"separation child {c} is itself a separation")

    ordered = tuple(sorted(violations, key=lambda v: (str(v.condition), v.node or 0)))
    return LCReport(not ordered, ordered)


@dataclass(frozen=True)
class TupleRow:
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


@dataclass(frozen=True)
class TupleEncoding:
    a: int  # twice the root formula weight, the nominal formula budget
    b: int  # node count
    formula_table: tuple[Formula, ...]
    rows: tuple[TupleRow, ...]
    over_budget: bool  # True when the table exceeded the nominal budget


_CHI = {Rule.LEAF: "L", Rule.R: "R", Rule.I: "I", Rule.E: "E"}


def encode(d: Deduction) -> TupleEncoding:
    """Flatten a separation-free, locally correct deduction to tuple rows.

    Node ids are renumbered 1..b breadth first from the root so the output
    is deterministic. The formula table lists every formula labelling a
    node, ordered by weight then prefix text, codes starting at 1.
    """
    for n in sorted(d.nodes.values(), key=lambda n: n.id):
        if n.rule is Rule.S:
            raise EncodingError(f"node {n.id} is a separation node")
    report = check_local_correctness(d)
    if not report.ok:
        first = report.violations[0]
        raise EncodingError(
            f"not locally correct: condition {first.condition} at node {first.node}",
            report,
        )

    c = canonical(d)
    table = sorted({n.formula for n in c.nodes.values()}, key=formula_key)
    code = {f: i + 1 for i, f in enumerate(table)}
    a = 2 * weight(c.node(c.root).formula)

    rows = []
    for i in sorted(c.nodes):
        n = c.node(i)
        children = n.children
        if n.rule is Rule.E:
            y, z = (c.node(j) for j in children)
            if not is_implication(z.formula, y.formula, n.formula):
                children = (children[1], children[0])
        y1 = children[0] if len(children) > 0 else 0
        y2 = children[1] if len(children) > 1 else 0
        rows.append(
            TupleRow(
                x=n.id,
                y1=y1,
                y2=y2,
                h=n.height,
                h1=n.height + 1 if children else 0,
                h2=n.height + 1 if children else 0,
                chi=_CHI[n.rule],
                gamma=code[n.formula],
                beta1=code[c.node(y1).formula] if y1 else 0,
                beta2=code[c.node(y2).formula] if y2 else 0,
            )
        )
    return TupleEncoding(a, len(rows), tuple(table), tuple(rows), len(table) > a)


def decode(t: TupleEncoding) -> Deduction:
    """Rebuild the deduction; raises DecodeError on dangling codes or a
    missing root."""
    if not t.rows:
        raise DecodeError("no root: empty row list")
    rule_of = {"L": Rule.LEAF, "R": Rule.R, "I": Rule.I, "E": Rule.E}

    def formula_at(code: int, row: TupleRow) -> Formula:
        if not 1 <= code <= len(t.formula_table):
            raise DecodeError(f"row {row.x}: formula code {code} outside the table")
        return t.formula_table[code - 1]

    nodes = []
    for row in t.rows:
        if row.chi not in rule_of:
            raise DecodeError(f"row {row.x}: unknown rule letter {row.chi!r}")
        children = tuple(y for y in (row.y1, row.y2) if y)
        nodes.append(Node(row.x, formula_at(row.gamma, row), rule_of[row.chi], row.h, children))

    roots = [n.id for n in nodes if n.height == 0]
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

    def formula_at(code: int) -> Formula | None:
        if 1 <= code <= len(t.formula_table):
            return t.formula_table[code - 1]
        return None

    by_id: dict[int, TupleRow] = {}
    for row in t.rows:
        ints = (row.y1, row.y2, row.h, row.h1, row.h2, row.gamma, row.beta1, row.beta2)
        if row.chi not in ("L", "R", "I", "E") or any(v < 0 for v in ints):
            flag(0, row.x, "malformed row values")
            continue
        if formula_at(row.gamma) is None:
            flag(0, row.x, f"formula code {row.gamma} outside the table")
            continue
        if not 1 <= row.x <= t.b:
            flag(1, row.x, f"node code {row.x} outside 1..{t.b}")
            continue
        if row.x in by_id:
            if by_id[row.x] != row:
                flag(1, row.x, "conflicting duplicate rows")
            continue
        by_id[row.x] = row

    children_of_someone: set[int] = set()
    for row in by_id.values():
        for y, hy, by in ((row.y1, row.h1, row.beta1), (row.y2, row.h2, row.beta2)):
            if y == 0:
                continue
            children_of_someone.add(y)
            other = by_id.get(y)
            if other is None:
                flag(2, row.x, f"premise row {y} is missing")
                continue
            if other.h != hy:
                flag(2, row.x, f"premise {y} height {other.h} does not match slot {hy}")
            if other.gamma != by:
                flag(2, row.x, f"premise {y} formula does not match slot")

    roots = [x for x in by_id if x not in children_of_someone]
    if not roots:
        flag(3, 0, "no parentless row")
    for x in roots:
        row = by_id[x]
        if row.h != 0:
            flag(3, x, "parentless row with nonzero height")
        if row.chi == "L":
            flag(3, x, "parentless row is a leaf")

    for row in by_id.values():
        if row.chi == "L":
            if any((row.y1, row.y2, row.h1, row.h2, row.beta1, row.beta2)):
                flag(4, row.x, "leaf row with nonzero premise slots")
            continue
        if row.y1 == 0 or (row.chi == "E" and row.y2 == 0):
            flag(5, row.x, "non-leaf row without its premise")
        if row.h1 != row.h + 1 or row.h2 != row.h + 1:
            flag(5, row.x, "premise heights are not h + 1")
        gamma = formula_at(row.gamma)
        beta1 = formula_at(row.beta1)
        beta2 = formula_at(row.beta2)
        if row.chi == "R":
            if row.y2 != 0 or row.beta2 != 0:
                flag(6, row.x, "repetition row with a second premise")
            elif row.gamma != row.beta1:
                flag(6, row.x, "repetition changes the formula")
        elif row.chi == "I":
            if row.y2 != 0 or row.beta2 != 0:
                flag(7, row.x, "introduction row with a second premise")
            elif beta1 is None or not (
                isinstance(gamma, Implication) and gamma.consequent == beta1
            ):
                flag(7, row.x, "conclusion does not introduce onto the premise formula")
        elif row.chi == "E":
            if beta1 is None or beta2 is None or gamma is None:
                flag(8, row.x, "elimination premise codes outside the table")
            elif not is_implication(beta2, beta1, gamma):
                flag(8, row.x, "major premise is not minor arrow conclusion")

    ordered = tuple(sorted(violations, key=lambda v: (str(v.condition), v.node or 0)))
    return LCReport(not ordered, ordered)


def render_tuples(t: TupleEncoding) -> str:
    """Text form: header line 'a b', then the formula table (code, tab,
    prefix formula), then one row per line with the rule letter upper case."""
    lines = [f"{t.a} {t.b}"]
    for i, f in enumerate(t.formula_table):
        lines.append(f"{i + 1}\t{to_prefix(f)}")
    for r in t.rows:
        lines.append(
            f"{r.x} {r.y1} {r.y2} {r.h} {r.h1} {r.h2} {r.chi} "
            f"{r.gamma} {r.beta1} {r.beta2}"
        )
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
        chi = parts[6]
        if chi not in ("L", "R", "I", "E"):
            raise TupleFormatError(f"bad rule letter {chi!r}")
        try:
            nums = [int(p) for p in parts[:6] + parts[7:]]
        except ValueError as exc:
            raise TupleFormatError(f"bad row {ln!r}: {exc}") from exc
        x, y1, y2, h, h1, h2, gamma, beta1, beta2 = nums
        rows.append(TupleRow(x, y1, y2, h, h1, h2, chi, gamma, beta1, beta2))

    return TupleEncoding(a, b, tuple(table), tuple(rows), len(table) > a)
