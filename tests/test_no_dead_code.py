"""Every function and class of the package is named somewhere besides its
definition: in the package, in a demo, or in the README.

The scan is by name, so it is conservative: a name that also occurs as a
word elsewhere (another method of the same name, a docstring) counts as used.
A re-export in ``__init__.py`` does not count: a name only the package root
exports must be documented in the README or called.
Dunder methods are called by the interpreter and are not scanned.  An
exception class is held to more: some ``raise`` in the package must name it,
since an ``except`` clause or an export alone catches nothing.  A module-level
import must be named in its module's code; ``__future__`` imports and the
re-exports of ``__init__.py`` are exempt.  No function binds a local name
that it, or a function nested in it, never reads; a name that starts with
``_`` is bound to be dropped, and one declared ``global`` or ``nonlocal`` is
read elsewhere.

Values become ring elements only where they enter from outside: the
functions of COERCION_BOUNDARY are the only ones that name a ``coerce``
method.  Every other function takes an element of its own ring as it is.

Printed text follows the rules ``exprparse`` owns: no other module tests
whether a text is a sum (``" " in text`` or ``"+" in text``) to decide its
parentheses.

The weight layout of a cover chart's form modules lives in ``forms``: it is
the only module that builds a ``pidmod.DirectSum``.

The read-off rule of ``pidmod`` has one owner: ``_read_off`` is the only
function that reads the SNF's diagonal against a row of U*x.  The other
functions that name ``diag`` read it alone: the SNF's own rank, torsion and
choice of the rows that can fail, the certificate, and the free columns of
the kernel.

Every SNF the package takes is reduced for a block of weights:
``_block_snf`` is the only function that calls ``smith_normal_form``, so
every failed certificate names its block.

No module holds a float constant or names ``float``: every reported value is
exact, and the JSON writer takes no float.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "taucover"

# Names kept with no caller in the package.
ALLOWED: set[str] = set()

# Where a value from outside becomes a ring element through
# ``ChartRing.coerce``: a text, an int or a polynomial in the
# parser and in the library entries, and only a polynomial, the operand the
# parser's folds pass, in ``RingElem._check``.
COERCION_BOUNDARY = {
    "ChartRing.parse",
    "RingElem._check",
    "ChartedScheme.per_chart",
    "TorsionBundle.__init__",
    "is_trivial_class",
}

# The functions that name an SNF's ``diag``; only ``_read_off`` reads it
# against a vector.
DIAGONAL_READERS = {
    "SNFResult.__init__",
    "SNFResult.rank",
    "SNFResult.nonunit_torsion",
    "SNFResult.rows_to_read",
    "_verify_snf",
    "syzygy_matrix",
    "_read_off",
}


def _definitions():
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield path.relative_to(ROOT), node.name


def _words() -> Counter:
    package = [p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"]
    files = [*package, *(ROOT / "demos").glob("*.py"), ROOT / "README.md"]
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


def test_every_module_level_import_is_named_in_its_module():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in named:
                        unused.append(f"{path.relative_to(ROOT)}: {bound}")
    assert not unused, "imported but never named:\n" + "\n".join(unused)


def test_no_function_binds_a_local_it_never_reads():
    dead = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = [node for node in ast.walk(func) if isinstance(node, ast.Name)]
            read = {node.id for node in names if not isinstance(node.ctx, ast.Store)}
            read.update(
                name
                for node in ast.walk(func)
                if isinstance(node, (ast.Global, ast.Nonlocal))
                for name in node.names
            )
            dead.update(
                f"{path.relative_to(ROOT)}:{node.lineno}: {node.id}"
                for node in names
                if isinstance(node.ctx, ast.Store)
                and node.id not in read
                and not node.id.startswith("_")
            )
    assert not dead, "bound but never read:\n" + "\n".join(sorted(dead))


def _raised_names() -> set[str]:
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_class_is_raised():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    raised = _raised_names()
    unraised = sorted(name for name in classes if name not in raised)
    assert classes and not unraised, f"error classes never raised: {unraised}"


def test_package_exports_are_sorted_complete_and_resolvable():
    import inspect

    import taucover

    exported = taucover.__all__
    assert exported == sorted(set(exported)), "__all__ is unsorted or repeats a name"
    missing = [name for name in exported if not hasattr(taucover, name)]
    assert not missing, f"__all__ names what the package does not bind: {missing}"
    public = sorted(
        name
        for name, value in vars(taucover).items()
        if not name.startswith("_")
        and (inspect.isclass(value) or inspect.isfunction(value))
    )
    unlisted = [name for name in public if name not in exported]
    assert not unlisted, f"bound at the package root but not in __all__: {unlisted}"


def _functions_naming(attr: str) -> set[str]:
    """Qualified names of the functions that name an attribute ``attr``."""
    return _functions_where(lambda node: isinstance(node, ast.Attribute) and node.attr == attr)


def _functions_calling(name: str) -> set[str]:
    """Qualified names of the functions that call ``name``, bare or as an
    attribute."""

    def calls(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name

    return _functions_where(calls)


def _functions_where(match) -> set[str]:
    """Qualified names of the functions holding a node that ``match``
    accepts; a nested function or lambda counts as the function it is
    defined in."""
    found = set()

    def visit(node, prefix: str, owner: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and owner is None:
                visit(child, f"{prefix}{child.name}.", None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner is None:
                visit(child, prefix, prefix + child.name)
            else:
                if match(child):
                    found.add(owner or "<module>")
                visit(child, prefix, owner)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), "", None)
    return found


def test_values_are_coerced_only_at_the_boundary():
    assert _functions_naming("coerce") == COERCION_BOUNDARY


def test_only_the_read_off_reads_the_diagonal_against_a_vector():
    assert _functions_naming("diag") == DIAGONAL_READERS


def test_every_reduction_names_its_block():
    assert _functions_calling("smith_normal_form") == {"_block_snf"}


def test_only_the_grammar_decides_when_a_text_is_a_sum():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "exprparse.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Constant)
                and node.left.value in (" ", "+")
                and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
            ):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found, "a sum test outside exprparse:\n" + "\n".join(found)


def test_only_forms_builds_a_direct_sum():
    builders = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "DirectSum":
                    builders.add(path.name)
    assert builders == {"forms.py"}, f"DirectSum built in {sorted(builders)}"


def test_no_module_holds_a_float():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Constant) and type(node.value) is float) or (
                isinstance(node, ast.Name) and node.id == "float"
            ):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found, "a float in the package:\n" + "\n".join(found)
