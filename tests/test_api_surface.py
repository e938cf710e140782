"""Every public top-level function and class has a caller outside the tests.

A name counts as used when a code token (not a string, a comment or an
import) names it somewhere in `src/`, `demos/` or `perfbench/`, other than
its own `def` or `class` line. An API that only tests call belongs in the
test that needs it, as an oracle.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sparsedil"

# public names kept without a caller, each with its reason
UNCALLED = {
    ("bench", "parse_csv"): "acceptance criterion 8 parses `bench --format csv` output with it",
}


def _code_names(path: Path):
    """(line, name) of every NAME token outside import statements."""
    in_import = False
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type == tokenize.NEWLINE:
            in_import = False
        elif tok.type == tokenize.NAME:
            if tok.string == "import":
                in_import = True
            elif not in_import:
                yield tok.start[0], tok.string


def _uncalled_public_names():
    refs = {}
    for tree in ("src", "demos", "perfbench"):
        for path in (ROOT / tree).rglob("*.py"):
            for line, name in _code_names(path):
                refs.setdefault(name, set()).add((path.resolve(), line))
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and not refs.get(node.name, set()) - {(path.resolve(), node.lineno)}):
                yield path.stem, node.name


def test_every_public_name_has_a_caller_outside_tests():
    uncalled = set(_uncalled_public_names())
    assert uncalled - UNCALLED.keys() == set(), "public names only tests call"
    # an exception whose name gained a caller or was deleted is stale
    assert UNCALLED.keys() - uncalled == set()
