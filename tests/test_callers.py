"""Every public top-level name in src/levylab has a caller outside tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "levylab"

# Headline estimators of the abstract that still await their gated
# experiments; ROADMAP item 5 runs each from `levylab run` or deletes it.
PENDING = {
    "polarity_diagnostic_point",  # ROADMAP item 5: points are polar
    "polarity_diagnostic_H",  # ROADMAP item 5: the Cameron-Martin space is polar
    "solve_l1",  # ROADMAP item 5: Dirichlet data solved by controlled convergence
}


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
        if path.parent != SRC or not public or node.name in PENDING:
            continue
        if not any(node.name in names for key, names in used.items() if key != (path, i)):
            orphans.append(f"{path.stem}.{node.name}")
    assert orphans == [], f"called only from tests: {orphans}"
