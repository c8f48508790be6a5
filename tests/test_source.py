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


def _names_in(path: Path) -> set[str]:
    """Identifiers a file uses: every name token but the one a `def` or
    `class` defines, and every string literal that is an identifier (a
    `getattr` or wrapper target, as perfbench/tracer.py names them)."""
    names, prev = set(), None
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
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
                names.add(value)
            prev = None
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
            prev = None
    return names


def test_every_src_definition_is_used_outside_the_tests():
    """Nothing ships in src/ that only the tests call: every function, class
    and method defined in src/gridmc (dunders aside) is named in src/,
    scripts/ or perfbench/ outside its own def or class line."""
    used = set().union(*(_names_in(path)
                         for folder in ("src", "scripts", "perfbench")
                         for path in sorted((ROOT / folder).rglob("*.py"))))
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path in sorted((SRC / "gridmc").glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in used]
    assert unused == []
