"""The README's Library example runs as written and shows the values it claims."""

from __future__ import annotations

import ast
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
