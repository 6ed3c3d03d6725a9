"""The README's "Library use" examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_examples_run_in_one_namespace(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) >= 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "returns_array" in namespace and len(capsys.readouterr().out.splitlines()) == 7
