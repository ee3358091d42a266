"""The package holds no name that only the tests use, or that nothing uses."""

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


def module_level_definitions():
    """(file, line number, name) of each name a package module binds at its top level by
    def, class or assignment, dunders aside."""
    for file in sorted((ROOT / "src" / "icfmdp").glob("*.py")):
        for node in ast.parse(file.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [(node.lineno, node.name)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [(n.lineno, n.id) for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)]
            else:
                continue
            yield from ((file, lineno, name) for lineno, name in names
                        if not name.startswith("__"))


def test_every_module_level_name_is_used():
    # A use is any mention of the name in src/, bench/ or scripts/ but the one that
    # defines it: the first mention on its definition line is struck out.
    lines = {f: f.read_text().splitlines() for d in ("src", "bench", "scripts")
             for f in sorted((ROOT / d).rglob("*.py"))}
    definitions = list(module_level_definitions())
    for file, lineno, name in definitions:
        lines[file][lineno - 1] = re.sub(rf"\b{name}\b", "", lines[file][lineno - 1], count=1)
    text = "\n".join(line for file_lines in lines.values() for line in file_lines)
    unused = sorted({name for _, _, name in definitions
                     if not re.search(rf"\b{name}\b", text)})
    assert unused == []
