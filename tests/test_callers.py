"""Every public top-level name in src/levylab has a caller outside tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "levylab"


def _used(node) -> set[str]:
    """Names, attributes and imported names referenced in code, not prose."""
    return {
        getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    }


def test_every_public_name_has_a_caller():
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "levybench").glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in files if p.name != "__init__.py"}
    used = {(p, i): _used(n) for p, tree in trees.items() for i, n in enumerate(tree.body)}
    orphans = []
    for path, i in used:
        node = trees[path].body[i]
        public = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_"
        if path.parent != SRC or not public:
            continue
        if not any(node.name in names for key, names in used.items() if key != (path, i)):
            orphans.append(f"{path.stem}.{node.name}")
    assert orphans == [], f"called only from tests: {orphans}"
