"""The README stays in step with the code it names."""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

import stepskew

README = Path(__file__).resolve().parent.parent / "README.md"


def entry_point_table() -> dict[str, list[str]]:
    """module -> names, from the README's "Key entry points" table."""
    text = README.read_text()
    start = text.index("Key entry points per module:")
    table: dict[str, list[str]] = {}
    for line in text[start:].splitlines()[1:]:
        if table and not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`"):
            table[cells[0].strip("`")] = re.findall(r"`([^`]+)`", cells[1])
    return table


def resolves(obj, dotted: str) -> bool:
    """Whether a dotted name such as `MarkovSpec.sim` resolves on obj, one
    attribute at a time."""
    for attr in dotted.split("."):
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_entry_points_resolve():
    table = entry_point_table()
    assert set(table) == {"graphs", "kernels", "dynamics", "skew", "ergodic", "cli"}
    missing = [
        f"{module}.{name}"
        for module, names in table.items()
        for name in names
        if not resolves(importlib.import_module(f"stepskew.{module}"), name)
    ]
    assert sum(map(len, table.values())) >= 50
    assert not missing, f"README names entry points that do not exist: {missing}"


def test_readme_table_names_every_reexport():
    table = entry_point_table()
    unlisted = sorted(
        f"{module}.{name}"
        for name, obj in vars(stepskew).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
        and (module := obj.__module__.removeprefix("stepskew.")) in table
        and name not in table[module]
    )
    assert not unlisted, f"re-exported but missing from the README table: {unlisted}"
