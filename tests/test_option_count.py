"""The package's optional parameters, counted.

Each parameter with a default is a setting that some caller may choose and
that every caller has to reason about.  The count may only grow with a
change that raises MAX_OPTIONS and says why.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trifocal"
MAX_OPTIONS = 36


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
