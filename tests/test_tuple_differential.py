"""The tuple layer against the one it replaced, which stored rows as frozen
dataclasses, encoded from a renumbered copy of the deduction and parsed
formula tables with a constructor call per token.

Inputs: seeded ``random_local_dag``s of 10 to 1 000 nodes, the prover's
corpus proofs and their leveled and compressed forms, each also under
shuffled node ids with every elimination's premises stored major first;
encodings damaged by ``corrupt_encoding`` for each of conditions 1 to 8;
and malformed table texts. Compared: the rendered text byte for byte,
violation lists in order, ``to_dict`` of the decoded deduction, and the
type and text of every exception.

Two intended differences: equal rows with one id are one node, so
``decode`` accepts them where the old code reported a duplicate id; and
``encode`` refuses a locally incorrect deduction with the deciders'
``LocalCorrectnessError``, which the reference raises in place of the old
``EncodingError``.
"""

import random
from dataclasses import dataclass, replace

import pytest

from impdag.checker import (
    DecodeError,
    EncodingError,
    LocalCorrectnessError,
    TupleFormatError,
    check_local_correctness,
    check_tuples,
    decode,
    encode,
    parse_tuples,
    render_tuples,
)
from impdag.deduction import (
    Deduction,
    Node,
    Rule,
    StructureError,
    build,
    canonical,
    to_dict,
)
from impdag.formula import (
    _ATOM_RE,
    Atom,
    Formula,
    FormulaSyntaxError,
    Implication,
    formula_key,
    is_implication,
    parse_infix,
    parse_prefix,
    weight,
)
from impdag.gen import random_local_dag
from impdag.prover import prove
from impdag.transform import compress, level

from conftest import corrupt_encoding, diamond_dag, merge_pair_tree, mk, sep_proof_dag
from test_acceptance import CORPUS

# ------------------------------------------------ the old layer, verbatim


@dataclass(frozen=True)
class ReferenceViolation:
    condition: int | str
    node: int | None
    message: str


@dataclass(frozen=True)
class ReferenceReport:
    ok: bool
    violations: tuple[ReferenceViolation, ...]


@dataclass(frozen=True)
class ReferenceRow:
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
class ReferenceEncoding:
    a: int  # twice the root formula weight, the nominal formula budget
    b: int  # node count
    formula_table: tuple[Formula, ...]
    rows: tuple[ReferenceRow, ...]
    over_budget: bool  # True when the table exceeded the nominal budget


_CHI = {Rule.LEAF: "L", Rule.R: "R", Rule.I: "I", Rule.E: "E"}


def reference_encode(d):
    for n in sorted(d.nodes.values(), key=lambda n: n.id):
        if n.rule is Rule.S:
            raise EncodingError(f"node {n.id} is a separation node")
    report = check_local_correctness(d)
    if not report.ok:
        raise LocalCorrectnessError(report)

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
            ReferenceRow(
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
    return ReferenceEncoding(a, len(rows), tuple(table), tuple(rows), len(table) > a)


def reference_decode(t):
    if not t.rows:
        raise DecodeError("no root: empty row list")
    rule_of = {"L": Rule.LEAF, "R": Rule.R, "I": Rule.I, "E": Rule.E}

    def formula_at(code, row):
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


def reference_check_tuples(t):
    violations = []

    def flag(condition, node, message):
        violations.append(ReferenceViolation(condition, node, message))

    def formula_at(code):
        if 1 <= code <= len(t.formula_table):
            return t.formula_table[code - 1]
        return None

    by_id = {}
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

    children_of_someone = set()
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
    return ReferenceReport(not ordered, ordered)


def reference_render_tuples(t):
    lines = [f"{t.a} {t.b}"]
    for i, f in enumerate(t.formula_table):
        lines.append(f"{i + 1}\t{f.prefix}")
    for r in t.rows:
        lines.append(
            f"{r.x} {r.y1} {r.y2} {r.h} {r.h1} {r.h2} {r.chi} "
            f"{r.gamma} {r.beta1} {r.beta2}"
        )
    return "\n".join(lines) + "\n"


def reference_parse_tuples(text):
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

    table = []
    rows = []
    for ln in lines[1:]:
        if "\t" in ln:
            if rows:
                raise TupleFormatError("formula table lines must precede rows")
            code_text, formula_text = ln.split("\t", 1)
            try:
                code = int(code_text)
                formula = reference_parse_prefix(formula_text)
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
        rows.append(ReferenceRow(x, y1, y2, h, h1, h2, chi, gamma, beta1, beta2))

    return ReferenceEncoding(a, b, tuple(table), tuple(rows), len(table) > a)


def reference_parse_prefix(text):
    tokens = text.split()
    if not tokens:
        raise FormulaSyntaxError("empty input", 0)
    stack = []
    i = 0
    while True:
        if i >= len(tokens):
            raise FormulaSyntaxError("missing operand", i)
        tok = tokens[i]
        if tok == ">":
            stack.append(None)
            i += 1
            continue
        if _ATOM_RE.fullmatch(tok) is None:
            raise FormulaSyntaxError(f"bad atom {tok!r}", i)
        value = Atom(tok)
        i += 1
        while stack and stack[-1] is not None:
            value = Implication(stack.pop(), value)
        if not stack:
            break
        stack[-1] = value
    if i != len(tokens):
        raise FormulaSyntaxError(f"unused token {tokens[i]!r}", i)
    return value


# --------------------------------------------------------------- compare


def outcome(call, *args):
    """What a call gives: ("ok", value) or ("raised", type, text)."""
    try:
        return ("ok", call(*args))
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return ("raised", type(exc), str(exc))


def as_reference(t):
    """A new-layer encoding in the old layer's types."""
    rows = tuple(ReferenceRow(*row) for row in t.rows)
    return ReferenceEncoding(t.a, t.b, t.formula_table, rows, t.over_budget)


def violations(report):
    return [(v.condition, v.node, v.message) for v in report.violations]


def deduplicated(t):
    """The old layer's view of the one intended difference: equal repeats of
    a row dropped, unless some id has conflicting rows."""
    rows = tuple(dict.fromkeys(t.rows))
    if len({row.x for row in rows}) < len(rows):
        return t
    return replace(t, rows=rows)


def assert_same_encoding(t, want):
    """The new encoding ``t`` and the old one ``want`` agree on everything
    the layer reports."""
    text = render_tuples(t)
    assert text == reference_render_tuples(want)
    assert t.over_budget == want.over_budget
    assert violations(check_tuples(t)) == violations(reference_check_tuples(want))
    got = outcome(lambda: to_dict(decode(t)))
    expected = outcome(lambda: to_dict(reference_decode(deduplicated(want))))
    assert got == expected


def assert_same_text(text):
    """Parsing ``text``, and everything after it, agrees with the old layer."""
    got = outcome(parse_tuples, text)
    want = outcome(reference_parse_tuples, text)
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got == want
    else:
        assert_same_encoding(got[1], want[1])


# ------------------------------------------------------------------ inputs


def shuffled(d, rng):
    """``d`` under random node ids, each elimination's premises stored major
    first, assembled without ``build`` so that order is kept."""
    ids = rng.sample(range(1, 3 * len(d.nodes) + 1), len(d.nodes))
    new = dict(zip(sorted(d.nodes), ids))
    nodes = {}
    for n in d.nodes.values():
        children = tuple(new[c] for c in n.children)
        if n.rule is Rule.E:
            children = children[::-1]
        nodes[new[n.id]] = Node(new[n.id], n.formula, n.rule, n.height, children)
    return Deduction(nodes, new[d.root])


def random_dags():
    rng = random.Random(20261018)
    dags = []
    while len(dags) < 200:
        d = random_local_dag(rng, max_nodes=rng.randint(10, 1000), share=rng.random())
        if 10 <= len(d.nodes) <= 1000:
            dags.append(d)
    return dags


def corpus_dags():
    dags = [diamond_dag(), merge_pair_tree()]
    for text in CORPUS:
        tree = prove(parse_infix(text))
        leveled = level(tree)
        dag, _ = compress(leveled)
        dags += [tree, leveled]
        if all(n.rule is not Rule.S for n in dag.nodes.values()):
            dags.append(dag)
    return dags


@pytest.fixture(scope="module")
def dags():
    rng = random.Random(7)
    plain = random_dags() + corpus_dags()
    return plain + [shuffled(d, rng) for d in plain]


# ------------------------------------------------------------------- tests


def test_inputs_cover_sizes_and_orientations(dags):
    sizes = [len(d.nodes) for d in dags]
    assert min(sizes) <= 10 and max(sizes) >= 900
    swapped = [
        d for d in dags
        for n in d.nodes.values()
        if n.rule is Rule.E
        and is_implication(d.node(n.children[0]).formula, d.node(n.children[1]).formula, n.formula)
    ]
    assert len(swapped) >= 100
    assert sum(d != canonical(d) for d in dags) >= 200


def test_encode_matches(dags):
    for d in dags:
        t, want = encode(d), reference_encode(d)
        text = render_tuples(t)
        assert text == reference_render_tuples(want)
        assert t.over_budget == want.over_budget
        assert_same_text(text)


def test_encoding_errors_match():
    rejected = [
        sep_proof_dag(),
        build([mk(1, "a", "R", 0, (2,)), mk(2, "b", "LEAF", 1)], 1),
        build([mk(1, "a -> b", "I", 0, (2,)), mk(2, "g", "LEAF", 1)], 1),
        build([mk(1, "a", "LEAF", 0)], 1),
    ]
    for d in rejected:
        got, want = outcome(encode, d), outcome(reference_encode, d)
        assert got == want and got[0] == "raised"


@pytest.mark.parametrize("condition", range(1, 9))
def test_corrupted_encodings_match(dags, condition):
    rng = random.Random(condition)
    damaged = 0
    for d in dags[::4]:
        try:
            t = corrupt_encoding(rng, encode(d), condition)
        except ValueError:
            continue  # no row the strategy applies to
        assert condition in {v.condition for v in check_tuples(t).violations}
        assert_same_encoding(t, as_reference(t))
        damaged += 1
    assert damaged >= 20


def test_equal_duplicate_rows_decode_as_one_node(dags):
    rng = random.Random(3)
    for d in dags[::5]:
        t = encode(d)
        doubled = [row for row in t.rows for _ in range(rng.choice((1, 1, 2)))]
        t2 = t._replace(rows=tuple(doubled))
        assert check_tuples(t2).ok
        assert to_dict(decode(t2)) == to_dict(decode(t))
        assert_same_text(render_tuples(t2))


TABLE = "6 2\n1\ta\n2\t> a a\n"
ROWS = "1 2 0 0 1 1 I 2 1 0\n2 0 0 1 0 0 L 1 0 0\n"

MALFORMED = [
    "",
    "\n \n",
    "6\n",
    "6 2 1\n",
    "x y\n",
    "6 2\n1\ta\n1 2 0 0 1 1 I 2 1\n",
    "6 2\n1\ta\n1 2 0 0 1 1 Q 2 1 0\n",
    "6 2\n1\ta\n1 2 0 0 1 1 i 2 1 0\n",
    "6 2\n1\ta\n1 2 z 0 1 1 I 2 1 0\n",
    "6 2\n1\ta\n1 2 0 0 1 1 I 2 1 q\n",
    "6 2\n1\ta\n3\tb\n",
    "6 2\n0\ta\n",
    "6 2\nq\ta\n",
    "6 2\n1\t) a\n",
    "6 2\n1\t\n",
    "6 2\n1\t>\n",
    "6 2\n1\t> a\n",
    "6 2\n1\ta b\n",
    "6 2\n1\t1x\n",
    "6 2\n1\t> a 1x\n",
    "6 2\n1\t> > a\n",
    "6 2\n1\ta\t b\n",
    "6 2\n1 0 0 1 0 0 L 1 0 0\n1\ta\n",
    TABLE,
    TABLE + ROWS,
    TABLE + ROWS + "2 0 0 1 0 0 L 1 0 0\n",  # an equal repeat
    TABLE + ROWS + "2 0 0 1 0 0 L 2 0 0\n",  # a conflicting repeat
    TABLE + ROWS + "2 0 0 1 0 0 L 2 0 0\n2 0 0 1 0 0 L 1 0 0\n",
    TABLE + ROWS + "1 2 0 0 1 1 I 2 1 0\n",  # the root repeated
    TABLE + "1 2 0 0 1 1 I 2 1 0\n",  # premise row missing
    TABLE + "2 0 0 1 0 0 L 1 0 0\n",  # no root
    TABLE + "1 2 0 0 1 1 I 3 1 0\n2 0 0 1 0 0 L 1 0 0\n",  # code out of table
    TABLE + "1 2 0 0 1 1 I 2 1 0\n2 0 0 1 0 0 L 0 0 0\n",  # code 0
    TABLE + "1 2 0 0 1 1 I 2 1 0\n2 0 0 -1 0 0 L 1 0 0\n",  # negative height
    TABLE + "1 2 0 0 1 1 I 2 1 0\n3 0 0 1 0 0 L 1 0 0\n",  # id out of range
    TABLE + "1 2 0 0 1 1 I 2 1 0\n2 0 0 1 0 0 L 1 0 0\n0 0 0 0 0 0 R 1 0 0\n",
    TABLE + "1 0 2 0 1 1 I 2 0 1\n2 0 0 1 0 0 L 1 0 0\n",  # premise in slot 2
    TABLE + "1 2 0 0 1 1 R 2 1 0\n2 0 0 1 0 0 L 1 0 0\n",
    TABLE + "1 2 0 0 2 2 I 2 1 0\n2 0 0 1 0 0 L 1 0 0\n",
    TABLE + "1 2 2 0 1 1 E 1 1 2\n2 0 0 1 0 0 L 1 0 0\n",
    TABLE + "1 2 0 0 1 1 I 2 1 0\n2 1 0 1 2 0 L 1 2 0\n",  # a cycle
    "2 3\n1\ta\n2\tb\n3\t> a b\n1 2 3 0 1 1 E 2 1 3\n2 0 0 1 0 0 L 1 0 0\n3 0 0 1 0 0 L 3 0 0\n",
    "2 3\n1\ta\n2\tb\n3\t> a b\n1 3 2 0 1 1 E 2 3 1\n2 0 0 1 0 0 L 1 0 0\n3 0 0 1 0 0 L 3 0 0\n",
    "2 3\n1\ta\n2\tb\n3\t> a b\n1 2 3 0 1 1 E 2 1 9\n2 0 0 1 0 0 L 1 0 0\n3 0 0 1 0 0 L 3 0 0\n",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_table_texts_match(text):
    assert_same_text(text)


def test_prefix_texts_match():
    rng = random.Random(11)
    texts = ["", ">", "> a", "a b", "1x", "> a 1x", "> > a b > a", "a\tb", " a ", "> a a a"]
    for _ in range(2000):
        tokens = [rng.choice((">", ">", "a", "b", "c1", "1x", "a_b", "$")) for _ in range(rng.randint(1, 9))]
        texts.append(" ".join(tokens))
    for text in texts:
        got, want = outcome(parse_prefix, text), outcome(reference_parse_prefix, text)
        assert got == want
