"""The package's optional parameters, the CLI's settable values and the
source lines, counted.

Each parameter with a default is a setting that some caller may choose and
that every caller has to reason about; so is each argument of a CLI
command.  The source line count is the benchmark's `lines.total`.  Each
count may only grow with a change that raises its bound and says why.
"""

import argparse
import ast
from pathlib import Path

from trifocal.cli import build_parser

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trifocal"
MAX_OPTIONS = 28
MAX_CLI_VALUES = 26
MAX_SOURCE_LINES = 2744


def count_options():
    """Parameters with a default: positional defaults plus the keyword-only
    parameters whose default is given."""
    n = 0
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                n += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
    return n


def test_option_count_does_not_grow():
    assert 0 < count_options() <= MAX_OPTIONS


def count_cli_values():
    """Arguments of every subcommand (positionals and flags), help aside."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sum(not isinstance(a, argparse._HelpAction)
               for sp in sub.choices.values() for a in sp._actions)


def test_cli_value_count_does_not_grow():
    assert 0 < count_cli_values() <= MAX_CLI_VALUES


def count_source_lines():
    """Lines of every *.py file in the package, as perfbench/run.py counts
    lines.total."""
    return sum(len(p.read_text().splitlines()) for p in PACKAGE.rglob("*.py"))


def test_source_line_count_does_not_grow():
    assert 0 < count_source_lines() <= MAX_SOURCE_LINES
