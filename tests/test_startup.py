"""Each command line process imports only the modules its command runs, and
the handlers' imports leave no name undefined."""

import builtins
import dis
import json
import subprocess
import sys
import types

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


def test_each_stage_loads_what_it_runs(tmp_path):
    proof = subprocess.run(
        [sys.executable, "-m", "impdag", "prove", "a -> (a -> b) -> b"],
        capture_output=True, text=True, timeout=120, env=CHILD_ENV, check=True,
    ).stdout
    base = {"cli", "deduction", "formula"}
    assert loaded("check", "-", stdin=proof)[0] == base | {"checker"}
    assert loaded("compress", "-", stdin=proof)[0] == base | {"checker", "transform"}
    assert loaded("prove", "a -> a")[0] == base | {"prover", "assignment", "checker"}
    search, modules = loaded("cleanse", "-", "--search", stdin=proof)
    assert search == base | {"assignment", "checker", "transform"}
    assert "dataclasses" not in modules
    threads = tmp_path / "threads.json"
    with_threads = loaded("compress", "-", "--threads-out", str(threads), stdin=proof)[0]
    assert "fst" in with_threads and threads.exists()


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
