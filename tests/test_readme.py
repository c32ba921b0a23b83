"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1, "README 'Library' should hold one python block"
    return blocks[0]


def test_readme_library_example_runs():
    exec(compile(library_example(), str(README), "exec"), {"__name__": "readme"})
