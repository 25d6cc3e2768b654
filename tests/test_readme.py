"""The README's library example runs as written, and its command table
matches the command line."""

import argparse
import re
from pathlib import Path

from impdag.cli import _build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_command_table_matches_the_parser():
    """Every subcommand has a row, and every option a row names is one its
    command accepts."""
    sub = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    rows = re.findall(r"^\| (`.*?) \|", README.read_text(encoding="utf-8"), re.M)
    named = {}
    for cell in rows:
        for span in re.findall(r"`([^`]*)`", cell):
            command = span.split()[0]
            named.setdefault(command, set()).update(re.findall(r"--[\w-]+", span))
    assert named.keys() == sub.choices.keys()
    for command, options in named.items():
        accepted = {o for a in sub.choices[command]._actions for o in a.option_strings}
        assert options <= accepted, command
