"""Every public top-level function and class has a caller outside the tests,
no package module reads another one's private names, and every function
reads each of its parameters.

A name counts as used when a code token (not a string, a comment or an
import) names it somewhere in `src/`, `demos/` or `perfbench/`, other than
its own `def` or `class` line. An API that only tests call belongs in the
test that needs it, as an oracle.

A private name (`_name`, not a dunder) belongs to its module: a token run
`other . _name` in `src/sparsedil/`, where `other` is another module of the
package, fails the second test. Tests, demos and perfbench may reach into
internals on purpose and are not scanned.

A parameter counts as read when its name is loaded somewhere in the body of
its function, nested functions included; a default value does not count.
A parameter nothing reads is an input form the function only pretends to
take.
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

# (module, function, parameter) kept unread, each with its reason
UNREAD = {
    ("scheme", "default_backend", "level"):
        "perfbench and the CLI ask for the default per level; today every level has the same",
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


def _private_reads(path: Path):
    """(line, "module._name") of each read of another package module's private name."""
    others = {p.stem for p in PACKAGE.glob("*.py")} - {path.stem}
    toks = [tok for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
            if tok.type not in (tokenize.NL, tokenize.COMMENT)]
    for before, mod, dot, name in zip([None] + toks, toks, toks[1:], toks[2:]):
        if (mod.type == tokenize.NAME and mod.string in others and dot.string == "."
                and (before is None or before.string != ".")    # not an attribute chain
                and name.type == tokenize.NAME and name.string.startswith("_")
                and not name.string.startswith("__")):
            yield mod.start[0], f"{mod.string}.{name.string}"


def test_no_module_reads_another_modules_private_names():
    reads = {f"{path.stem}:{line}": read for path in sorted(PACKAGE.glob("*.py"))
             for line, read in _private_reads(path)}
    assert reads == {}


def _unread_parameters(path: Path):
    """(module, function, parameter) of each parameter its function's body never loads."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for name in params:
                if name not in loaded:
                    yield path.stem, node.name, name


def test_every_parameter_is_read():
    unread = {u for path in sorted(PACKAGE.glob("*.py")) for u in _unread_parameters(path)}
    assert unread - UNREAD.keys() == set(), "parameters nothing reads"
    assert UNREAD.keys() - unread == set()
