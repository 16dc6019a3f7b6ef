"""Each oracle names its test: every docstring in `src/` of the form
"... oracle of `X`: test_name" names a test function that exists under
`tests/`, the public oracles open with such a line, and no oracle calls
the `X` it checks."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ORACLE_LINE = re.compile(r"oracle of [^:\n]*`[^`\n]+`[^:\n]*: (test_\w+)", re.I)
PUBLIC_ORACLES = ("eval_P", "kr_P", "eval_rational", "eval_P_via_generating_function",
                  "table_via_generating_function")
ORACLE_OF = re.compile(r"oracle of [^`:\n]*`([\w.]+)`", re.I)


def _definitions(directory: Path):
    """(file, node) for every module, class and function under `directory`."""
    for path in sorted(directory.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                yield path, node


def _referenced(tree: ast.AST) -> set:
    """Every name `tree` reads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


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


def test_no_oracle_calls_what_it_checks():
    # an oracle that reaches the code it checks, as `X` or as the private
    # `_X` behind it, compares that code with itself
    checked, offenders = set(), []
    for path, node in _definitions(ROOT / "src"):
        if not isinstance(node, ast.FunctionDef):
            continue
        for target in ORACLE_OF.findall(ast.get_docstring(node) or ""):
            name = target.rpartition(".")[2].lstrip("_")
            checked.add(node.name)
            if _referenced(node) & {name, f"_{name}"}:
                offenders.append(f"{path.name}:{node.name} calls {target}")
    assert not offenders, offenders
    assert checked >= {*PUBLIC_ORACLES, "characteristic_matrix", "rational_case_n2"}, checked


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
        if path.name != "__init__.py":
            used |= _referenced(ast.parse(path.read_text()))
    readme = (ROOT / "README.md").read_text()
    assert all(f"`{name}`" in readme or f"{name}(" in readme for name in ENTRY_POINTS)
    public = [name for name in mvkraw.__all__ if name not in mvkraw._EXPORTS]
    unused = [
        name for name in public
        if name not in used and name not in ENTRY_POINTS
        and not ORACLE_LINE.search((getattr(mvkraw, name).__doc__ or "").partition("\n")[0])
    ]
    assert not unused, unused
