"""No module in `src/renormforest` or `tests` imports a name that it never
references.  The check is static: it parses the modules and runs none of
them."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "renormforest").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))

# (module, name) pairs imported on purpose without a reference
KEPT = {
    # `perfbench/workloads.py` patches the name where `integrands` would
    # look it up, so the tracing wraps the program's own import of it
    ("integrands", "leaf_partitions"),
}


def unused_imports(path: Path) -> list[str]:
    """The names that a module's import statements bind and that no name
    in the module reads.  A package's `__init__` imports to re-export, so it
    has none."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in bound - read if (path.stem, name) not in KEPT)


def test_no_unused_imports():
    found = {p.relative_to(ROOT).as_posix(): unused_imports(p) for p in MODULES}
    assert {p: names for p, names in found.items() if names} == {}

