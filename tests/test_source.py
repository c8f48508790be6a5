"""Checks on the source tree itself."""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_no_assert_statements_in_src():
    """Errors in src/ are typed exceptions, which python -O keeps and an
    assert statement is not."""
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def _counted_files() -> list[Path]:
    """The files whose uses count: src/ and perfbench/, and the scripts/
    that import gridmc (a script that does not cannot call it)."""
    def imports_gridmc(path):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        modules = [a.name for node in nodes if isinstance(node, ast.Import)
                   for a in node.names]
        modules += [node.module or "" for node in nodes if isinstance(node, ast.ImportFrom)]
        return any(module.split(".")[0] == "gridmc" for module in modules)
    return [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "perfbench").rglob("*.py")),
            *filter(imports_gridmc, sorted((ROOT / "scripts").rglob("*.py")))]


def _uses_in(path: Path) -> tuple[set[str], set[str]]:
    """(names, attributes) a file uses.  Names: every name token but the one
    a `def` or `class` defines.  Attributes: every `.name` reference.  Each
    set also holds every string literal that is an identifier (a `getattr`
    or wrapper target, as perfbench/tracer.py names them)."""
    text = path.read_text()
    names, strings, prev = set(), set(), None
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            if prev not in ("def", "class"):
                names.add(tok.string)
            prev = tok.string
        elif tok.type == tokenize.STRING:
            try:
                value = ast.literal_eval(tok.string)
            except ValueError:  # an f-string
                value = None
            if isinstance(value, str) and value.isidentifier():
                strings.add(value)
            prev = None
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
            prev = None
    attributes = {node.attr for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Attribute)}
    return names | strings, attributes | strings


def test_every_src_definition_is_used_outside_the_tests():
    """Nothing ships in src/ that only the tests call: every function and
    class defined in src/gridmc (dunders aside) is named, and every method
    is referenced as an attribute `.name` or an identifier string, in src/,
    perfbench/ or a script that imports gridmc, outside its own def or
    class line."""
    uses = [_uses_in(path) for path in _counted_files()]
    names = set().union(*(n for n, _ in uses))
    attributes = set().union(*(a for _, a in uses))
    unused = []
    for path in sorted((SRC / "gridmc").glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        unused += [f"{path.name}:{node.lineno} {node.name}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and not (node.name.startswith("__") and node.name.endswith("__"))
                   and node.name not in (attributes if id(node) in methods else names)]
    assert unused == []
