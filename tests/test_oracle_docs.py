"""Each oracle names its test: every docstring in `src/` of the form
"... oracle of `X`: test_name" names a test function that exists under
`tests/`, and the public oracles open with such a line."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ORACLE_LINE = re.compile(r"oracle of [^:\n]*`[^`\n]+`[^:\n]*: (test_\w+)", re.I)
PUBLIC_ORACLES = ("eval_P", "kr_P", "eval_rational", "eval_P_via_generating_function",
                  "table_via_generating_function")


def _definitions(directory: Path):
    """(file, node) for every module, class and function under `directory`."""
    for path in sorted(directory.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                yield path, node


def test_oracle_docstrings_name_existing_tests():
    tests = {node.name for _, node in _definitions(ROOT / "tests")
             if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}
    named, openers = {}, {}
    for path, node in _definitions(ROOT / "src"):
        doc = ast.get_docstring(node) or ""
        where = f"{path.name}:{getattr(node, 'name', '')}"
        named.update({f"{where}:{test}": test for test in ORACLE_LINE.findall(doc)})
        if isinstance(node, ast.FunctionDef):
            openers[node.name] = doc.partition("\n")[0]
    missing = sorted(where for where, test in named.items() if test not in tests)
    assert len(named) >= len(PUBLIC_ORACLES) and not missing, missing
    for name in PUBLIC_ORACLES:
        assert ORACLE_LINE.search(openers[name]), (name, openers[name])


# the library entry points no command calls, each named in README.md
ENTRY_POINTS = ("table", "orthonormal_map", "gillespie_run", "evolve_distribution",
                "numeric_eigenbasis")


def test_every_public_name_is_used_an_oracle_or_an_entry_point():
    # a public function or class is referenced elsewhere in the package, or
    # is an oracle, or is one of the named entry points: one that is none of
    # these is duplication to delete, not to keep
    import mvkraw

    package = ROOT / "src" / "mvkraw"
    used = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    readme = (ROOT / "README.md").read_text()
    assert all(f"`{name}`" in readme or f"{name}(" in readme for name in ENTRY_POINTS)
    public = [name for name in mvkraw.__all__ if name not in mvkraw._EXPORTS]
    unused = [
        name for name in public
        if name not in used and name not in ENTRY_POINTS
        and not ORACLE_LINE.search((getattr(mvkraw, name).__doc__ or "").partition("\n")[0])
    ]
    assert not unused, unused
