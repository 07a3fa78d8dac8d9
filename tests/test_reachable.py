"""Every function and method in `src/renormforest` is an entry point (a
command, a name the benchmark drives, or a public tree-building or antipode
entry) or is referenced by name from code an entry point reaches.  The check
is static: it parses the modules and runs none of them."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "renormforest"

ENTRY_POINTS = {
    "cli.main",
    "workbench.Workbench.cmd_generate",
    "workbench.Workbench.cmd_renormalize",
    "workbench.Workbench.cmd_certify",
    "workbench.Workbench.cmd_project",
    "workbench.Workbench.cmd_decompose",
    "workbench.Workbench.cmd_export_dot",
    # called by the benchmark (perfbench/workloads.py)
    "workbench.parse_config",
    "workbench.report_emit",
    "rules.generate_trees",
    "hopf.counterterm_report",
    "hopf.bphz_expansion",
    "integrands.chaos_classes",
    "trees.DecoratedTree.canonical_code",
    "trees.DecoratedTree.restrict",
    "trees.DecoratedTree.leaf_nodes",
    "powercount.Certifier.certify",
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
    # public entries: the twisted antipodes that bphz_expansion runs, and
    # tree building beside `noise` and `poly`
    "hopf.antipode_minus",
    "hopf.antipode_plus",
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
