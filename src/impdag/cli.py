"""Command line front end.

Artifact output (dag documents, tuple tables, choice and thread files) goes
to stdout so commands compose in pipes; verdicts, sizes and progress notes
go to stderr. Wherever a command reads a file, "-" means stdin, and the
artifact-writing options accept "-" for stdout.

Exit status: 0 positive outcome, 1 negative verdict (not proving, not
provable, a failed check, a cleansing that found no consistent pairing),
2 malformed or unusable input, 3 a resource cap was hit.

Every command runs in a fresh process, so start-up is part of each stage's
time. Module level therefore imports only ``formula`` and ``deduction``, which
every command uses; each handler imports the rest of what it runs, in the
branch that runs it.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import DAG_FORMAT_VERSION, TUPLE_FORMAT_VERSION, __version__
from .deduction import (
    DEFAULT_NODE_CAP,
    DEFAULT_ORACLE_WEIGHT,
    DEFAULT_THREAD_CAP,
    Deduction,
    FormatError,
    LocalCorrectnessError,
    Overflow,
    Rule,
    StructureError,
    _require_local_correctness,
    check_local_correctness,
    load_deduction,
    proves_by_threads,
    read_text,
    save_deduction,
    write_text,
)
from .formula import Formula, FormulaSyntaxError, parse_infix, to_infix, weight

OK = 0
NEGATIVE = 1
MALFORMED = 2
LIMIT = 3


class CliError(Exception):
    """Abort with a message on stderr and the carried exit code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _load(path: str, reader, what: str):
    source = sys.stdin if path == "-" else path
    try:
        return reader(source)
    except OSError as exc:
        raise CliError(MALFORMED, f"cannot read {what} from {path}: {exc}") from exc
    except (FormatError, StructureError) as exc:
        raise CliError(MALFORMED, f"bad {what} in {path}: {exc}") from exc


def _load_dag(path: str) -> Deduction:
    return _load(path, load_deduction, "deduction")


def _load_correct_dag(path: str) -> Deduction:
    """A deduction for the deciders, which assume local correctness; any
    violation is malformed input, reported by its first condition."""
    d = _load_dag(path)
    try:
        _require_local_correctness(d)
    except LocalCorrectnessError as exc:
        raise CliError(MALFORMED, str(exc)) from exc
    return d


def _write(writer, out: str | None, label: str) -> None:
    if out is None or out == "-":
        writer(sys.stdout)
    else:
        try:
            writer(out)
        except OSError as exc:
            raise CliError(MALFORMED, f"cannot write {out}: {exc}") from exc
        _note(f"wrote {label} to {out}")


def _parse_formula(text: str) -> Formula:
    if text == "-":
        text = _load(text, read_text, "formula")
    try:
        return parse_infix(text)
    except FormulaSyntaxError as exc:
        raise CliError(MALFORMED, f"bad formula: {exc}") from exc


def _print_violations(violations, stream) -> None:
    for v in violations:
        where = f" at node {v.node}" if v.node is not None else ""
        print(f"condition {v.condition}{where}: {v.message}", file=stream)


def _cmd_check(args) -> int:
    report = check_local_correctness(_load_dag(args.dag))
    _print_violations(report.violations, sys.stdout)
    if report.ok:
        _note("locally correct")
        return OK
    _note(f"{len(report.violations)} violation(s)")
    return NEGATIVE


def _cmd_prov(args) -> int:
    from .assignment import prov, prov1
    d = _load_correct_dag(args.dag)
    if any(n.rule is Rule.S for n in d.nodes.values()):
        print("not proving")
        _note("separation nodes present; commit branches with 'search' or 'cleanse'")
        return NEGATIVE
    if args.method == "threads":
        result = proves_by_threads(d, args.cap)
        if isinstance(result, Overflow):
            _note(f"more than {result.cap} threads; raise --cap")
            return LIMIT
        verdict = result
    elif args.method == "reach":
        verdict = prov1(d)
    else:
        verdict = prov(d)
    print("proving" if verdict else "not proving")
    return OK if verdict else NEGATIVE


def _cmd_search(args) -> int:
    from .assignment import save_choice, search_choice
    d = _load_correct_dag(args.dag)
    choice = search_choice(d)
    if choice is None:
        _note("no branch commitment makes this deduction prove")
        return NEGATIVE
    _write(lambda t: save_choice(choice, t), args.emit_choice, "choice")
    _note(f"certificate committing {len(choice)} edge(s)")
    return OK


def _cmd_prove(args) -> int:
    from .prover import ResourceLimitError, prove
    f = _parse_formula(args.formula)
    try:
        d = prove(f)
    except ResourceLimitError as exc:
        _note(f"search gave up: {exc}")
        return LIMIT
    if d is None:
        _note(f"not provable: {to_infix(f)}")
        return NEGATIVE
    _write(lambda t: save_deduction(d, t), args.out, "proof")
    _note(f"proof with {len(d.nodes)} node(s), height {d.height()}")
    return OK


def _cmd_oracle(args) -> int:
    from .prover import OracleBoundError, oracle_valid
    f = _parse_formula(args.formula)
    try:
        verdict = oracle_valid(f, bound=args.bound)
    except OracleBoundError as exc:
        _note(str(exc))
        return LIMIT
    print("valid" if verdict else "invalid")
    return OK if verdict else NEGATIVE


def _cmd_compress(args) -> int:
    from .transform import compress
    d = _load_dag(args.tree)
    try:
        dag, image = compress(d)
    except ValueError as exc:
        raise CliError(MALFORMED, str(exc)) from exc
    _write(lambda t: save_deduction(dag, t), args.out, "compressed dag")
    if args.threads_out:
        from .fst import ThreadSet, save_threads
        _write(lambda t: save_threads(ThreadSet(image), t), args.threads_out, "image threads")
    _note(
        f"{len(d.nodes)} tree node(s) compressed to {len(dag.nodes)};"
        f" image keeps {len(image)} thread(s)"
    )
    return OK


def _cmd_unfold(args) -> int:
    from .transform import unfold
    d = _load_dag(args.dag)
    result = unfold(d, args.cap)
    if isinstance(result, Overflow):
        _note(f"unfolding exceeds {result.cap} nodes; raise --cap")
        return LIMIT
    _write(lambda t: save_deduction(result, t), args.out, "tree")
    _note(f"{len(d.nodes)} node(s) unfold to {len(result.nodes)}")
    return OK


def _cmd_cleanse(args) -> int:
    d = _load_correct_dag(args.dag)
    if d.node(d.root).rule is Rule.S:
        raise CliError(MALFORMED, "the root is a separation node; nothing discharges it")
    if args.fst:
        from .fst import CleansingError, FstError, cleanse_via_fst, load_threads
        collection = _load(args.fst, load_threads, "thread collection")
        try:
            choice, cleansed = cleanse_via_fst(d, collection)
        except FstError as exc:
            _note(f"not a fundamental thread set: {exc}")
            return NEGATIVE
        except CleansingError as exc:
            _note(str(exc))
            return NEGATIVE
        except ValueError as exc:
            raise CliError(MALFORMED, str(exc)) from exc
    else:
        from .assignment import ChoiceError, load_choice, prov, search_choice
        from .transform import s_eliminate
        if args.search:
            maybe = search_choice(d)
            if maybe is None:
                _note("no branch commitment makes this deduction prove")
                return NEGATIVE
            choice = maybe
        else:
            choice = _load(args.choice, load_choice, "choice")
        try:
            cleansed = s_eliminate(d, choice)
        except ChoiceError as exc:
            raise CliError(MALFORMED, str(exc)) from exc
        if not prov(cleansed):
            _note("the committed branches do not yield a proof")
            return NEGATIVE
    _write(lambda t: save_deduction(cleansed, t), args.out, "cleansed dag")
    _note(
        f"{len(d.nodes)} node(s) cleansed to {len(cleansed.nodes)}"
        f" committing {len(choice)} edge(s)"
    )
    return OK


def _cmd_encode(args) -> int:
    from .checker import EncodingError, encode, render_tuples
    d = _load_dag(args.dag)
    try:
        t = encode(d)
    except (EncodingError, LocalCorrectnessError) as exc:
        if isinstance(exc, LocalCorrectnessError):
            _print_violations(exc.report.violations, sys.stderr)
        _note(f"cannot encode: {exc}")
        return NEGATIVE
    _write(lambda out: write_text(render_tuples(t), out), args.out, "tuple table")
    if t.over_budget:
        _note(f"note: {len(t.formula_table)} formulas exceed the budget a = {t.a}")
    return OK


def _cmd_decode(args) -> int:
    from .checker import DecodeError, TupleFormatError, check_tuples, decode, parse_tuples
    text = _load(args.tuples, read_text, "tuple table")
    try:
        t = parse_tuples(text)
    except TupleFormatError as exc:
        raise CliError(MALFORMED, f"bad tuple table: {exc}") from exc
    report = check_tuples(t)
    if not report.ok:
        _print_violations(report.violations, sys.stderr)
        raise CliError(MALFORMED, f"tuple table violates {len(report.violations)} condition(s)")
    try:
        d = decode(t)
    except DecodeError as exc:
        raise CliError(MALFORMED, f"bad tuple table: {exc}") from exc
    _write(lambda target: save_deduction(d, target), args.out, "deduction")
    _note(f"decoded {len(d.nodes)} node(s)")
    return OK


def _cmd_fst_check(args) -> int:
    from .fst import check_fst, load_threads
    d = _load_correct_dag(args.dag)
    collection = _load(args.threads, load_threads, "thread collection")
    try:
        report = check_fst(d, collection)
    except ValueError as exc:
        raise CliError(MALFORMED, str(exc)) from exc
    print("fundamental" if report.is_fst else "not fundamental")
    _note(
        f"dense: {report.dense}  all closed: {report.all_closed}"
        f"  elimination preserving: {report.e_preserving}"
    )
    for witness in report.witnesses[:5]:
        _note(f"witness: {witness}")
    return OK if report.is_fst else NEGATIVE


def _cmd_bench(args) -> int:
    from .prover import ResourceLimitError, family, prove
    from .transform import compress
    print("n  weight  tree  leveled  dag  image  prove_s  compress_s")
    for n in range(1, args.family + 1):
        f = family(n)
        t0 = time.perf_counter()
        try:
            d = prove(f)
        except ResourceLimitError as exc:
            _note(f"family {n}: search gave up: {exc}")
            return LIMIT
        t1 = time.perf_counter()
        assert d is not None
        # compress pads by itself; level would add an R node per level a leaf sits above the bottom
        bottom = d.height()
        leveled = len(d.nodes) + sum(bottom - n.height for n in d.nodes.values() if not n.children)
        t2 = time.perf_counter()
        dag, image = compress(d)
        t3 = time.perf_counter()
        print(
            f"{n}  {weight(f)}  {len(d.nodes)}  {leveled}  {len(dag.nodes)}  {len(image)}"
            f"  {t1 - t0:.3f}  {t3 - t2:.3f}"
        )
    return OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impdag",
        description="Build, check, compress and cleanse implicational deductions.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=(
            f"impdag {__version__}"
            f" (dag format {DAG_FORMAT_VERSION}, tuple format {TUPLE_FORMAT_VERSION})"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("check", _cmd_check, "Report local correctness violations.")
    p.add_argument("dag", help="deduction file, or - for stdin")

    p = add("prov", _cmd_prov, "Decide whether a separation-free deduction proves.")
    p.add_argument("dag", help="deduction file, or - for stdin")
    p.add_argument("--method", choices=("a", "reach", "threads"), default="a",
                   help="assignment (default), reachability, or thread enumeration")
    p.add_argument("--cap", type=int, default=DEFAULT_THREAD_CAP,
                   help=f"thread cap for --method threads (default {DEFAULT_THREAD_CAP})")

    p = add("search", _cmd_search, "Find branch commitments that make a deduction prove.")
    p.add_argument("dag", help="deduction file, or - for stdin")
    p.add_argument("--emit-choice", metavar="FILE", help="write the choice here instead of stdout")

    p = add("prove", _cmd_prove, "Search for a proof of a formula.")
    p.add_argument("formula", help="infix formula such as 'a -> b -> a', or - for stdin")
    p.add_argument("--out", metavar="FILE", help="write the proof here instead of stdout")

    p = add("oracle", _cmd_oracle, "Decide validity of a formula without building a proof.")
    p.add_argument("formula", help="infix formula, or - for stdin")
    p.add_argument("--bound", type=int, default=DEFAULT_ORACLE_WEIGHT,
                   help=f"give up beyond this goal weight (default {DEFAULT_ORACLE_WEIGHT})")

    p = add("compress", _cmd_compress, "Merge equal-formula nodes of a tree, level by level.")
    p.add_argument("tree",
                   help="tree-like deduction file, or - for stdin; short branches are padded")
    p.add_argument("--out", metavar="FILE", help="write the dag here instead of stdout")
    p.add_argument("--threads-out", metavar="FILE", help="also write the image thread collection")

    p = add("unfold", _cmd_unfold, "Expand a dag into an equivalent tree.")
    p.add_argument("dag", help="deduction file, or - for stdin")
    p.add_argument("--cap", type=int, default=DEFAULT_NODE_CAP,
                   help=f"node cap (default {DEFAULT_NODE_CAP})")
    p.add_argument("--out", metavar="FILE", help="write the tree here instead of stdout")

    p = add("cleanse", _cmd_cleanse, "Remove separation nodes, keeping a proving deduction.")
    p.add_argument("dag", help="deduction file, or - for stdin")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--choice", metavar="FILE", help="commit the branches listed in this file")
    mode.add_argument("--fst", metavar="FILE",
                      help="derive the branches from this fundamental thread set")
    mode.add_argument("--search", action="store_true", help="search for branches that prove")
    p.add_argument("--out", metavar="FILE", help="write the result here instead of stdout")

    p = add("encode", _cmd_encode, "Flatten a deduction to its tuple table.")
    p.add_argument("dag", help="deduction file, or - for stdin")
    p.add_argument("--out", metavar="FILE", help="write the table here instead of stdout")

    p = add("decode", _cmd_decode, "Rebuild a deduction from a tuple table.")
    p.add_argument("tuples", help="tuple table file, or - for stdin")
    p.add_argument("--out", metavar="FILE", help="write the deduction here instead of stdout")

    p = add("fst-check", _cmd_fst_check, "Test a thread collection for fundamentality.")
    p.add_argument("dag", help="deduction file, or - for stdin")
    p.add_argument("threads", help="thread collection file, or - for stdin")

    p = add("bench", _cmd_bench, "Time proving and compression on a formula family.")
    p.add_argument("--family", type=int, required=True, metavar="N",
                   help="run family members 1 through N")

    return parser


# Every integer option counts something, so each must be at least 1.
_COUNTS = ("cap", "bound", "family")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for option in _COUNTS:
            if getattr(args, option, 1) < 1:
                raise CliError(MALFORMED, f"--{option} must be at least 1")
        return args.handler(args)
    except CliError as exc:
        _note(str(exc))
        return exc.code
    except BrokenPipeError:
        return OK


if __name__ == "__main__":
    sys.exit(main())
