"""The README's Library example runs as written and shows the values it claims, and the
module names it cites exist."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs_and_shows_its_values():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    env: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("  #")
        try:
            expected = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            # No value claimed (an import, an assignment, or prose after the #).
            exec(code, env)
            continue
        assert eval(code, env) == expected, line
        checked += 1
    assert checked >= 4


def test_readme_module_names_resolve():
    # Every backticked ``module.name`` of a package module (``linalg.MAX_DIM``,
    # ``homalg.EXT_TABLES``, ...) names an attribute that exists.
    modules = {p.stem for p in (README.parent / "src" / "localp2").glob("*.py")} - {"__init__"}
    names = [(mod, path) for mod, path in re.findall(r"`(\w+)\.([\w.]+)`", README.read_text(
        encoding="utf-8")) if mod in modules]
    assert len(names) >= 5
    for mod, path in names:
        obj = importlib.import_module(f"localp2.{mod}")
        for part in path.split("."):
            assert hasattr(obj, part), f"README names {mod}.{path}, which does not exist"
            obj = getattr(obj, part)
