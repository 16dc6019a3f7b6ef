"""The README's "Library sketch" runs as written against the public API."""

import argparse
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("True ")


def test_readme_options_exist():
    # every `--option` the README names, pip's aside, is one some command
    # accepts, so a removed option cannot linger in the docs; and every
    # option some command accepts, help aside, is named there, so none is
    # undocumented
    from mvkraw.cli import _build_parser

    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    accepted = {flag for sp in sub.choices.values() for flag in sp._option_string_actions}
    text = "\n".join(line for line in README.read_text().splitlines()
                     if "pip install" not in line)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    assert named and named <= accepted, sorted(named - accepted)
    unnamed = {flag for flag in accepted - {"-h", "--help"}
               if not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text)}
    assert not unnamed, sorted(unnamed)
