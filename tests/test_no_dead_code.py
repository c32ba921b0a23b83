"""Every function and class of the package is named somewhere besides its
definition: in the package, in a demo, or in the README.

The scan is by name, so it is conservative: a name that also occurs as a
word elsewhere (another method of the same name, a docstring) counts as used.
Dunder methods are called by the interpreter and are not scanned.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "taucover"

# Names kept with no caller in the package.
ALLOWED: set[str] = set()


def _definitions():
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield path.relative_to(ROOT), node.name


def _words() -> Counter:
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py"), ROOT / "README.md"]
    return Counter(word for p in files for word in re.findall(r"\w+", p.read_text()))


def test_every_definition_is_named_elsewhere():
    definitions = list(_definitions())
    defined = Counter(name for _path, name in definitions)
    words = _words()
    unused = sorted(
        f"{path}: {name}"
        for path, name in definitions
        if name not in ALLOWED and words[name] <= defined[name]
    )
    assert not unused, "defined but never named:\n" + "\n".join(unused)
