"""Named example bundles with frozen expected results.

Each catalog entry is a JSON file holding a bundle description, a block of
expected check results, and a provenance tag per expected section saying how
the value was obtained (``direct`` inspection or ``derived:<oracle>``).  The
directory defaults to the one shipped with the package and can be overridden
through the ``TAUCOVER_CATALOG_DIR`` environment variable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .covers import TorsionBundle
from .errors import MalformedInput
from .exprparse import _excerpt

CATALOG_ENV = "TAUCOVER_CATALOG_DIR"

_REQUIRED_KEYS = ("name", "description", "bundle", "expected", "provenance")


@dataclass(frozen=True)
class Fixture:
    """One catalog entry; ``bundle()`` parses the stored description."""

    name: str
    description: str
    bundle_json: dict
    expected: dict
    provenance: dict

    def bundle(self) -> TorsionBundle:
        return TorsionBundle.from_json(self.bundle_json)


def catalog_dir() -> Path:
    override = os.environ.get(CATALOG_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "catalog"


def fixture_names() -> list[str]:
    base = catalog_dir()
    if not base.is_dir():
        raise MalformedInput(f"catalog directory {base} does not exist")
    return sorted(path.stem for path in base.glob("*.json"))


def load_fixture(name: str) -> Fixture:
    path = catalog_dir() / f"{name}.json"
    if not path.is_file():
        raise MalformedInput(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}"
        )
    try:
        data = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:  # nesting too deep to decode
        raise MalformedInput(f"fixture file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise MalformedInput(f"fixture file {path} must hold a JSON object")
    missing = [k for k in _REQUIRED_KEYS if k not in data]
    if missing:
        raise MalformedInput(f"fixture file {path} missing keys: {missing}")
    if data["name"] != name:
        raise MalformedInput(
            f"fixture file {path} names itself {_excerpt(data['name'])}, expected {name!r}"
        )
    bundle, expected = data["bundle"], data["expected"]
    if not isinstance(bundle, dict) or not isinstance(expected, dict):
        raise MalformedInput(f"fixture file {path}: bundle and expected must be objects")
    # what the `catalog` listing reads
    missing = [f"bundle.{k}" for k in ("field", "n", "charts") if k not in bundle]
    if not isinstance(expected.get("validate"), dict) or "degenerate" not in expected["validate"]:
        missing.append("expected.validate.degenerate")
    if missing:
        raise MalformedInput(f"fixture file {path} missing keys: {missing}")
    if not isinstance(bundle["charts"], list):
        raise MalformedInput(f"fixture file {path}: bundle.charts must be a list")
    if not isinstance(expected.get("sequences", {}), dict):
        raise MalformedInput(f"fixture file {path}: expected.sequences must be an object")
    return Fixture(
        name=data["name"],
        description=data["description"],
        bundle_json=bundle,
        expected=expected,
        provenance=data["provenance"],
    )


def load_all() -> list[Fixture]:
    return [load_fixture(name) for name in fixture_names()]
