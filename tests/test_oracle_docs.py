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
