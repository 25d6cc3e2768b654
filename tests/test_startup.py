"""Each command line process imports only the modules its command runs, and
the handlers' imports leave no name undefined. The tuple encoding in
``checker`` is loaded by the commands that encode or decode, and by no other."""

import ast
import builtins
import dis
import json
import subprocess
import sys
import types
from pathlib import Path

import impdag.cli

from test_cli import CHILD_ENV

# Prints the modules that importing impdag.cli, and running the command in
# its arguments if any, adds to what the interpreter had loaded at start,
# ``site`` included; exits with the command's status.
PROBE = """
import json, sys
before = set(sys.modules)
import impdag.cli
code = impdag.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps(sorted(set(sys.modules) - before)))
sys.exit(code)
"""


def loaded(*argv, stdin=""):
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
        env=CHILD_ENV,
    )
    assert done.returncode == 0, done.stderr
    modules = json.loads(done.stdout.splitlines()[-1])
    return {m.split(".", 1)[1] for m in modules if m.startswith("impdag.")}, modules


def test_importing_the_cli_loads_formula_and_deduction_only():
    impdag_modules, modules = loaded()
    assert impdag_modules == {"cli", "deduction", "formula"}
    assert "dataclasses" not in modules


def impdag_output(*argv, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "impdag", *argv],
        input=stdin, capture_output=True, text=True, timeout=120, env=CHILD_ENV, check=True,
    ).stdout


def test_each_stage_loads_what_it_runs(tmp_path):
    proof = impdag_output("prove", "a -> (a -> b) -> b")
    base = {"cli", "deduction", "formula"}
    assert loaded("check", "-", stdin=proof)[0] == base
    assert loaded("compress", "-", stdin=proof)[0] == base | {"transform"}
    assert loaded("prove", "a -> a")[0] == base | {"prover", "assignment"}
    search, modules = loaded("cleanse", "-", "--search", stdin=proof)
    assert search == base | {"assignment", "transform"}
    assert "dataclasses" not in modules
    threads = tmp_path / "threads.json"
    with_threads = loaded("compress", "-", "--threads-out", str(threads), stdin=proof)[0]
    assert "fst" in with_threads and threads.exists()


def test_only_the_tuple_commands_load_the_encoding(tmp_path):
    proof = impdag_output("prove", "a -> (a -> b) -> b")
    dag, threads = tmp_path / "dag.json", tmp_path / "threads.json"
    dag.write_text(impdag_output("compress", "-", "--threads-out", str(threads), stdin=proof))
    table = impdag_output("encode", "-", stdin=proof)
    without = [
        ("prove", "a -> a"),
        ("compress", "-"),
        ("cleanse", "-", "--search"),
        ("cleanse", str(dag), "--fst", str(threads)),
        ("check", "-"),
        ("prov", "-"),
        ("search", "-"),
        ("unfold", "-"),
        ("fst-check", str(dag), str(threads)),
    ]
    for argv in without:
        assert "checker" not in loaded(*argv, stdin=proof)[0], argv
    for argv, stdin in ((("encode", "-"), proof), (("decode", "-"), table)):
        assert "checker" in loaded(*argv, stdin=stdin)[0], argv


def test_only_the_tuple_handlers_import_the_encoding():
    """No module but ``cli`` imports ``checker``, and ``cli`` only in the
    handlers of ``encode`` and ``decode``."""
    def imports_checker(node):
        if isinstance(node, ast.Import):
            return any(a.name == "impdag.checker" for a in node.names)
        if isinstance(node, ast.ImportFrom):
            if node.module in ("checker", "impdag.checker"):
                return True
            return node.module in (None, "impdag") and any(a.name == "checker" for a in node.names)
        return False

    importers = set()
    for path in sorted(Path(impdag.cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope = {}  # node -> name of the outermost function holding it
        for f in ast.walk(tree):  # breadth first: outer functions come first
            if isinstance(f, ast.FunctionDef):
                for node in ast.walk(f):
                    scope.setdefault(node, f.name)
        importers |= {
            (path.stem, scope.get(node, "<module>")) for node in ast.walk(tree)
            if imports_checker(node)
        }
    assert importers == {("cli", "_cmd_encode"), ("cli", "_cmd_decode")}


def code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def test_every_global_the_cli_reads_is_defined():
    path = impdag.cli.__file__
    with open(path, encoding="utf-8") as fh:
        module = compile(fh.read(), path, "exec")
    defined = set(vars(impdag.cli)) | set(vars(builtins))
    codes = list(code_objects(module))
    undefined = {
        (code.co_name, instr.argval)
        for code in codes
        for instr in dis.get_instructions(code)
        if instr.opname == "LOAD_GLOBAL" and instr.argval not in defined
    }
    assert not undefined
    # The walk reaches the handlers, their lambdas and the parser's helper.
    assert {"_cmd_cleanse", "<lambda>", "add"} <= {code.co_name for code in codes}
