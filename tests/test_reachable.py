"""Every function and method in `src/renormforest` is an entry point (a
command, a name the benchmark drives, or a public tree-building entry) or
is referenced by name from code an entry point reaches, and every field of
a dataclass there is read somewhere there, and the count of defaulted
parameters there does not grow.  These checks are static:
they parse the modules and run none of them.  Last, every name the
benchmark's tracing patches still exists, the benchmark's canonical
requests still give their recorded outputs, and its certify span counts one
call per automorphism orbit."""
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
    # public entries: the extraction and the recentering coactions, summed;
    # the expansion reads their unsummed terms
    "hopf.delta_minus",
    "hopf.delta_plus",
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
    """The names and attribute names that `node` references.  A plain name
    that the node binds itself, as a parameter or an assigned local, refers
    to that binding and not to a function of the same name, so it is left
    out; attribute names are kept."""
    bound = {n.arg for n in ast.walk(node) if isinstance(n, ast.arg)} | {
        n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    }
    return {
        n.attr if isinstance(n, ast.Attribute) else n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) or (isinstance(n, ast.Name) and n.id not in bound)
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
    assert ENTRY_POINTS <= qualified_defs()


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


def defaulted_parameters() -> int:
    """The positional and keyword defaults of every `def` and `lambda` in
    `src/renormforest`, and the defaulted fields of its dataclasses."""
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and is_dataclass(node):
                count += sum(
                    isinstance(sub, ast.AnnAssign) and sub.value is not None for sub in node.body
                )
    return count


# the count of defaulted parameters may only fall
MAX_DEFAULTED_PARAMETERS = 27


def test_defaulted_parameters_do_not_grow():
    count = defaulted_parameters()
    assert count <= MAX_DEFAULTED_PARAMETERS, (
        f"{count} defaulted parameters in src/, above {MAX_DEFAULTED_PARAMETERS}: a default "
        "stays only where callers in src/ or perfbench/ need different values, and a change "
        "that raises the count says why in CHANGES.md"
    )


def referrers(name: str) -> set[str]:
    """The module-level functions and methods of `src/renormforest` whose
    bodies reference `name` (`scan`), and the modules whose own statements
    do."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        top, defs = scan(ast.parse(path.read_text(encoding="utf-8")))
        if name in top:
            out.add(path.stem)
        out |= {f"{path.stem}.{qual}" for qual, _, refs in defs if name in refs}
    return out


def test_per_tree_facts_are_table_lookups():
    """A partition's compatible divergences are looked up in the tree's
    partition table, whose scan `compatible_partition` is a test oracle; a
    certifier is built on one tree's analysis, with no input record naming
    the tree; and a basis tree is formatted once, in the pass that builds
    the id table, while `renormalize` formats the residuals outside the
    basis."""
    assert not {"compatible_partition", "CertificateInput"} & src_names()
    assert referrers("format_tree") == {
        "workbench.Workbench.name_map",
        "workbench.Workbench.cmd_renormalize",
    }


def test_one_selector_reads_the_rooted_subtrees():
    """Delta_+ and A_+ pick their recentering subtrees with one boundary
    test, and nothing else in `src/` scans a tree's rooted subtrees."""
    assert referrers("rooted_subtrees") == {"hopf._selected"}


def test_nothing_in_src_sums_the_extraction_coaction():
    """The expansion and the report walk the terms of Delta_- unsummed
    (`hopf._delta_minus_terms`); the summed `delta_minus` is a public
    entry that no function or method in `src/` calls."""
    assert referrers("delta_minus") == set()


def test_only_the_coalescence_trees_list_a_mask_bits():
    """The certifier reads each vertex subset's bounds from per-class
    tables and tests its connectivity with one mask closure, so only the
    enumerations of coalescence trees list a mask's bits; the split prune
    of the tests' witness search lives with that search."""
    assert referrers("bits") == {"powercount.enumerate_trees", "powercount.trees_containing"}
    assert "connected_split" not in src_names()


def test_the_certificate_weights_are_worked_out_in_one_place():
    """`Certifier._failures` builds each class's weights and sums every
    vertex subset's value in its one subset loop; the tagged list and the
    table of all 2^n partial sums it replaced are test oracles, and the
    second-cumulant gain is read there and by the margin hypothesis alone."""
    assert not {"wick_contributions", "_subset_tables"} & src_names()
    assert referrers("fict_gain") == {"powercount.Certifier._failures", "rules.higher_cum_check"}


def test_graft_is_the_one_canonical_tree_builder():
    """Every canonical tree is laid out by `trees.graft`: no second
    builder relabels a tree made otherwise, and only the graft copies a
    tree or reads its canonical preorder.  The canonical relabelling is a
    test oracle (`tree_oracle.relabel_canonical`)."""
    assert not {"relabel_canonical", "relabel"} & src_names()
    assert "trees.SubForest.empty" not in qualified_defs()
    assert referrers("_copy") == referrers("_canonical_preorder") == {"trees.graft"}


def test_the_bphz_value_types_keep_only_what_the_path_does():
    """A `FormalSum` is built once from its terms and only read, and
    defines no arithmetic.  An extended label o is the multi-index n_G +
    chi(e_G), stored as a `MultiIndex` like the node and edge labels: no
    Z^d (+) Z(L) label type, and no homogeneity of one, is left."""
    defs = qualified_defs()
    methods = {q.removeprefix("formal.FormalSum.") for q in defs if q.startswith("formal.FormalSum.")}
    assert methods == {"__init__", "items", "coeff", "keys", "is_zero", "__len__", "__eq__", "__repr__"}
    assert not any(q.startswith("scaling.ExtLabel") for q in defs)
    assert "hom_ext" not in src_names()


def qualified_defs() -> set[str]:
    """module.function and module.Class.method of every definition in
    `src/renormforest` (`scan`)."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        _, defs = scan(ast.parse(path.read_text(encoding="utf-8")))
        out |= {f"{path.stem}.{qual}" for qual, _, _ in defs}
    return out


def src_names() -> set[str]:
    """Every function, method and class that `src/renormforest` defines, and
    every name and attribute name it references."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.add(node.name)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.Name):
                out.add(node.id)
    return out


def test_certify_and_project_call_the_same_scale_rules():
    """The certifier decides a failing subset with the scale rules that
    `project` applies, not with a second copy of them as mask inequalities
    (kept in `tests/certify_oracle.py`)."""
    callers = {"workbench.Workbench.cmd_project", "powercount.Certifier._realizable"}
    assert referrers("harvested_cuts") == callers
    assert referrers("safe_projection") == callers
    assert not {"_interval_plan", "_witnessed"} & src_names()


# what a shape is under a type table is worked out in `trees` alone
SHAPE_FACT_NAMES = {"_shape", "_by_table", "_TableFacts"}


def shape_fact_readers() -> list[str]:
    """Each place in a module of `src/renormforest` other than `trees.py`
    that names a tree's shape, a shape's facts per table or their class,
    or calls `.facts(`."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "trees.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and isinstance(func, ast.Attribute) and func.attr == "facts":
                out.append(f"{path.name}:{node.lineno}: .facts(")
            name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
            if isinstance(node, (ast.Attribute, ast.Name, ast.alias)) and name in SHAPE_FACT_NAMES:
                out.append(f"{path.name}:{node.lineno}: {name}")
    return out


def test_only_trees_reads_the_shape_facts():
    assert shape_fact_readers() == []


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


def test_benchmark_certify_span_counts_one_call_per_orbit():
    """perfbench times `Certifier.certify` under the span
    `powercount.certify` by patching the class's attribute
    (`harness.Tracer.patch`), so a call site that moved off it would drop
    the span without an error.  Under the benchmark's own tracing, one warm
    `cmd_certify` calls it once per orbit: 7 times on phi4_3 T6, 5 times on
    KPZ T7, and 17 times over the ten trees the certify workload sends."""
    harness, workloads = load_benchmark_module("harness"), load_benchmark_module("workloads")
    prog = workloads.load_program()
    wbs = workloads.setup(prog)
    cases = [
        ([("phi4_3", "T6")], 7),
        ([("kpz", "T7")], 5),
        (workloads.make_workload("certify", prog, wbs).trees(), 17),
    ]
    got = []
    for trees, _ in cases:
        for model, tree_id in trees:
            wbs[model].cmd_certify(tree_id)
        tracer = harness.Tracer()
        try:
            workloads.install_tracing(tracer, prog)
            for model, tree_id in trees:
                wbs[model].cmd_certify(tree_id)
        finally:
            tracer.unpatch_all()
        got.append(tracer.counts.get("powercount.certify_calls", 0))
    assert got == [calls for _, calls in cases]


# The spans each workload reaches: the set-up's, which every workload pays,
# and each workload's own, among them those `perfbench/README.md` names.
# certify decides its failing subsets with the scale rules that project
# applies, so it reaches `multiscale.safe_projection` too.  No command
# searches coalescence trees, so `coalescence.trees_containing` reads 0 by
# design.
SETUP_SPANS = ("workbench.parse_config", "rules.generate_trees")
WORKLOAD_SPANS = {
    "certify": ("powercount.certify", "powercount.cut_enumerate", "multiscale.safe_projection"),
    "bphz": ("hopf.bphz_expansion", "hopf.counterterm_report"),
    "project": (
        "forests.div_enumerate",
        "forests.all_forests",
        "forests.leaf_partitions",
        "multiscale.safe_projection",
        "multiscale.harvested_cuts",
        "integrands.chaos_classes",
        "workbench.report_emit",
    ),
}
UNREACHED_SPANS = ("coalescence.trees_containing",)


def test_benchmark_canonical_requests_replay():
    """Every workload's canonical requests, the warm-up pass that
    `perfbench/run.py` checks, run through the program's current signatures
    under the benchmark's tracing and give the outputs recorded in
    `perfbench/expected.json`.  Each workload sets up afresh, so nothing it
    reads was computed by another, and every span it reaches records a call
    in its set-up or its pass: a call site that a refactor moves away from a
    traced name drops its span here, not silently."""
    harness, workloads = load_benchmark_module("harness"), load_benchmark_module("workloads")
    listed = set(SETUP_SPANS).union(*WORKLOAD_SPANS.values(), UNREACHED_SPANS)
    assert listed == set(workloads.SPANNED)
    prog = workloads.load_program()
    expected = workloads.load_expected()
    problems, silent = [], []
    for name in workloads.WORKLOADS:
        tracer = harness.Tracer()
        try:
            workloads.install_tracing(tracer, prog)
            wbs = workloads.setup(prog)
            problems += workloads.check_basis(wbs)
            silent += [f"setup: {s}" for s in SETUP_SPANS if not tracer.counts.get(s + "_calls")]
            requests = workloads.make_workload(name, prog, wbs).canonical()
            before = dict(tracer.counts)
            for req in requests:
                problems += workloads.check(req, workloads.execute(prog, wbs, req), expected)
            calls = {s: tracer.counts.get(s + "_calls", 0) - before.get(s + "_calls", 0)
                     for s in WORKLOAD_SPANS[name]}
            silent += [f"{name}: {s}" for s, n in calls.items() if not n]
        finally:
            tracer.unpatch_all()
    assert problems == []
    assert silent == []
