"""Every function and method in `src/renormforest` is an entry point (a
command, a name the benchmark drives, or a public tree-building entry) or
is referenced by name from code an entry point reaches, and every field of
a dataclass there is read somewhere there.  The checks are static:
they parse the modules and run none of them.  Last, every name the
benchmark's tracing patches still exists."""
import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "renormforest"

ENTRY_POINTS = {
    "cli.main",
    "workbench.Workbench.cmd_generate",
    "workbench.Workbench.cmd_renormalize",
    "workbench.Workbench.cmd_bphz",
    "workbench.Workbench.cmd_certify",
    "workbench.Workbench.cmd_project",
    "workbench.Workbench.cmd_decompose",
    "workbench.Workbench.cmd_export_dot",
    # called by the benchmark (perfbench/workloads.py)
    "workbench.parse_config",
    "workbench.report_emit",
    "rules.generate_trees",
    "hopf.counterterm_report",
    "integrands.chaos_classes",
    "trees.DecoratedTree.canonical_code",
    "trees.DecoratedTree.restrict",
    "trees.DecoratedTree.leaf_nodes",
    "powercount.Certifier.certify",
    # no command searches coalescence trees any more: only the benchmark's
    # tracing (and the tests' witness search) reaches this one
    "powercount.trees_containing",
    "forests.cut_enumerate",
    "forests.div_enumerate",
    "forests.all_forests",
    "forests.leaf_partitions",
    "multiscale.safe_projection",
    "multiscale.harvested_cuts",
    "multiscale.EdgeUniverse.random_assignment",
    "formal.FormalSum.keys",
    "formal.FormalSum.coeff",
    # public entries: tree building beside `noise` and `poly`
    "trees.integrate",
    "trees.tree_product",
}


def scan(tree: ast.Module):
    """The names referenced by the module's own statements (class bodies
    included, function bodies left out), and (qualified name, def name,
    names referenced in the body) of every module-level function and
    method."""
    top: set[str] = set()
    defs = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs.append((node.name, node.name, names_in(node)))
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    defs.append((f"{node.name}.{sub.name}", sub.name, names_in(sub)))
                else:
                    top |= names_in(sub)
            for deco in node.decorator_list + node.bases:
                top |= names_in(deco)
        else:
            top |= names_in(node)
    return top, defs


def names_in(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def unreached() -> list[str]:
    """Functions that no entry point, dunder method or module-level statement
    reaches through a chain of name references.  A name reaches every
    function of that name, so a method shadowed by a builtin's name (a set's
    `union`, say) counts as reached."""
    bodies: dict[str, tuple[str, set[str]]] = {}
    used: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        top, defs = scan(ast.parse(path.read_text(encoding="utf-8")))
        used |= top
        for qual, name, refs in defs:
            bodies[f"{path.stem}.{qual}"] = (name, refs)
    live = {q for q, (name, _) in bodies.items() if q in ENTRY_POINTS or name.startswith("__")}
    frontier = list(live)
    while frontier:
        used |= bodies[frontier.pop()][1]
        for q, (name, _) in bodies.items():
            if q not in live and name in used:
                live.add(q)
                frontier.append(q)
    return sorted(set(bodies) - live)


def test_every_function_is_reached_or_an_entry_point():
    assert unreached() == []


def test_entry_points_exist():
    defined = set()
    for path in PACKAGE.glob("*.py"):
        _, defs = scan(ast.parse(path.read_text(encoding="utf-8")))
        defined |= {f"{path.stem}.{qual}" for qual, _, _ in defs}
    assert ENTRY_POINTS <= defined


def is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def unread_fields() -> list[str]:
    """Dataclass fields of `src/renormforest` that no attribute read there
    names.  A name read anywhere counts for every field of that name."""
    fields = []
    read: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef) and is_dataclass(node):
                fields += [
                    (f"{path.stem}.{node.name}.{sub.target.id}", sub.target.id)
                    for sub in node.body
                    if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)
                ]
    return sorted(qual for qual, name in fields if name not in read)


def test_every_dataclass_field_is_read():
    assert unread_fields() == []


def load_benchmark_module(name: str):
    """A module of `perfbench/`, loaded by path (its dataclasses look the
    module up in `sys.modules`)."""
    qualified = f"perfbench_{name}"
    spec = importlib.util.spec_from_file_location(qualified, ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[qualified] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_patch_targets_exist():
    """`perfbench/run.py --trace 1` wraps program functions by name; a
    deleted or renamed one raises a KeyError there, and here first."""
    harness, workloads = load_benchmark_module("harness"), load_benchmark_module("workloads")
    tracer = harness.Tracer()
    try:
        workloads.install_tracing(tracer, workloads.load_program())
    finally:
        tracer.unpatch_all()
