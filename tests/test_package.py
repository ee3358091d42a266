"""The package namespace holds no name that only the tests use."""

import ast
import re
from pathlib import Path

import icfmdp

ROOT = Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "icfmdp" / "__init__.py"


def public_names():
    """The names `icfmdp/__init__.py` imports, and those it loads on first use (`_LAZY`)."""
    tree = ast.parse(INIT.read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names] + list(icfmdp._LAZY)


def test_every_public_name_is_used_outside_the_tests():
    # A reference is any other mention of the name in src/, bench/ or scripts/: its own
    # def or class line and the package's import of it do not count.
    files = [f for d in ("src", "bench", "scripts") for f in sorted((ROOT / d).rglob("*.py"))
             if f != INIT]
    text = "\n".join(f.read_text() for f in files)
    unused = [name for name in public_names()
              if not re.search(rf"\b{name}\b",
                               re.sub(rf"^\s*(def|class) {name}\b.*$", "", text, flags=re.M))]
    assert unused == []
