"""Unused-import lint.

One rule, run by ``make lint`` (and CI): a name a module under
``src/repro`` imports at top level must be read somewhere in that
module.  A deletion tends to leave its imports behind; this finds them.

Exempt: ``__init__.py`` files (their imports are the package's
re-exports), names listed in the module's ``__all__``, ``from
__future__`` imports, and import lines carrying ``# noqa`` (imports kept
for their side effect, such as self-registration).  A name read only
inside a string annotation (``"DispatchContext | None"``) counts as
read.  Exits non-zero listing offenders.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__``."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names.update(
                leaf.value
                for leaf in ast.walk(node.value)
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
            )
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, string annotations included."""
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(
                leaf.id for leaf in ast.walk(expression) if isinstance(leaf, ast.Name)
            )
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each top-level import the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    keep = exported(tree) | read_names(tree)
    offenders = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in keep:
                offenders.append((node.lineno, name))
    return offenders


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    offenders = [
        f"  {path}:{line}: {name}"
        for path in sorted(root.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    if offenders:
        print("top-level imports never read:", file=sys.stderr)
        for entry in offenders:
            print(entry, file=sys.stderr)
        return 1
    print("import lint ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
