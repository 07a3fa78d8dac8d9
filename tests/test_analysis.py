"""The per-tree analysis against the direct enumerations it replaces, the
edge-weight omega of `div_enumerate` against the per-subtree zero-node
homogeneity, the BPHZ extractions and negative antipode built on it against
the edge-subset scan and tensor fold they replaced, on random decorated
trees, and reports that do not depend on what a Workbench has already
analysed."""
import itertools
import json
import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BPHZ_TERMS, KPZ, decorated_trees
from hopf_oracle import antipode_minus_fold, extraction_multisets
from renormforest.forests import (
    cut_enumerate,
    div_enumerate,
    irreducible_partition_exists,
    leaf_partitions,
)
from renormforest.hopf import _AntipodeMinus, delta_minus
from renormforest.multiscale import EdgeUniverse
from renormforest.powercount import TreeAnalysis
from renormforest.trees import zero_node_hom
from renormforest.workbench import Workbench, parse_config, report_emit

ROOT = Path(__file__).resolve().parent.parent
MODELS = sorted(BPHZ_TERMS)


def workbench(model: str) -> Workbench:
    return Workbench(parse_config((ROOT / "configs" / f"{model}.json").read_text(encoding="utf-8")))


def div_oracle(t, table, cum, effective):
    """`div_enumerate` as it was: omega from the per-subtree zero-node
    homogeneity."""
    out = []
    for sf in t.all_subtrees(table, min_true_nodes=1):
        w = -zero_node_hom(t, sf, table)
        if w <= 0:
            continue
        if effective and not irreducible_partition_exists(t, sf, cum):
            continue
        out.append((sf, w))
    return sorted(out, key=lambda p: p[0].sort_key())


def gaussian_classes_oracle(t, table, cum):
    """The (Wick set, leaf partition) loop `cmd_certify` and `chaos_classes`
    each ran."""
    leaves = sorted(t.leaf_nodes(table))
    out = []
    for r in range(len(leaves) + 1):
        for kept in itertools.combinations(leaves, r):
            rest = [u for u in leaves if u not in kept]
            for pi in leaf_partitions(t, table, cum, ground=rest):
                out.append((frozenset(kept), pi))
    return out


def test_analysis_equals_direct_enumerations():
    seen = 0
    for model in MODELS:
        wb = workbench(model)
        table, cum = wb.config.table, wb.config.cum
        for t in wb.basis():
            a = TreeAnalysis(t, table, cum)
            assert list(a.divergences) == div_oracle(t, table, cum, effective=True)
            assert list(a.all_divergences) == div_oracle(t, table, cum, effective=False)
            assert list(a.cuts) == cut_enumerate(t, table)
            assert list(a.gaussian_classes) == gaussian_classes_oracle(t, table, cum)
            seen += 1
    assert seen == sum(len(v) for v in BPHZ_TERMS.values())


def test_analysis_is_lazy():
    wb = workbench("phi4_3")
    a = wb.analysis(wb.tree_by_id("T6"))
    assert a is wb.analysis(wb.tree_by_id("T6"))
    assert vars(a).keys() == {"tree", "table", "cum", "max_div"}
    assert a.cuts is a.cuts
    assert vars(a).keys() == {"tree", "table", "cum", "max_div", "cuts"}


@settings(max_examples=60, deadline=None)
@given(decorated_trees())
def test_edge_weight_omega_equals_zero_node_hom(t):
    table = KPZ.table
    got = div_enumerate(t, table, effective=False)
    assert got == div_oracle(t, table, KPZ.cum, effective=False)
    for sf, w in got:
        assert w == -zero_node_hom(t, sf, table)


@settings(max_examples=25, deadline=None)
@given(decorated_trees())
def test_extractions_match_edge_subset_scan(t):
    """The random edge decorations lower the kernel edges' weights, so the
    candidates' omega, and with them the budgets for e_G, vary.  The oracle
    lists every connected edge set of the tree, not the divergent subtrees
    that `div_enumerate` lists."""
    for kw in ({}, {"proper": True}, {"vanishing": KPZ.cum}):
        got, want = extraction_multisets(t, KPZ.table, **kw)
        assert got == want, kw


@settings(max_examples=40, deadline=None)
@given(decorated_trees(max_edges=7), st.data())
def test_antipode_minus_matches_tensor_fold(t, data):
    """On a forest of X_- pieces extracted from a random tree (pieces whose
    node labels come from chi(e_G)), the product over the pieces equals the
    fold of tensor products.  The trees have at most seven edges and the forests at most four: with the
    random decorations' budgets a piece of five edges can have an antipode
    of 30 000 terms, which takes seconds on each side."""
    table = KPZ.table
    forests = sorted(
        {
            extracted
            for (extracted, _), _ in delta_minus(t, table).items()
            if sum(len(p.edge_items) for p in extracted) <= 4
        },
        # forests of several pieces first, where hypothesis draws most
        key=lambda f: (-len(f), repr([p.embedded_key() for p in f])),
    )
    forest = data.draw(st.sampled_from(forests))
    assert _AntipodeMinus(table).forest(forest) == antipode_minus_fold(forest, table)


# -- warm and cold reports -----------------------------------------------------

# certify and renormalize take seconds on phi4_3 T4-T6 and kpz T6/T7, and
# milliseconds on the trees before them
CHEAP = {"kpz": 6, "phi4_3": 4}


def project_docs(wb: Workbench, tree_id: str, rng: random.Random) -> list[str]:
    """One scale document per Gaussian class of the tree."""
    t = wb.tree_by_id(tree_id)
    docs = []
    for _, pi in TreeAnalysis(t, wb.config.table, wb.config.cum).gaussian_classes:
        eu = EdgeUniverse(t, wb.config.table, pi)
        scales = {}
        for (kind, data), n in eu.random_assignment(rng).items():
            key = f"star:{data}" if kind == "star" else f"{kind}:{data[0]},{data[1]}"
            scales[key] = n
        docs.append(json.dumps({"pi": sorted(sorted(b) for b in pi), "scales": scales}))
    return docs


def requests(model: str) -> list[tuple]:
    wb = workbench(model)
    rng = random.Random(3)
    out = [("generate",)]
    for i in range(len(wb.basis())):
        tid = f"T{i}"
        out += [("decompose", tid), ("export_dot", tid)]
        out += [("project", tid, doc) for doc in project_docs(wb, tid, rng)]
        if i < CHEAP[model]:
            out += [("certify", tid), ("renormalize", tid)]
        divs = wb.analysis(wb.tree_by_id(tid)).divergences
        if divs:
            out.append(("export_dot", f"{tid}:sigma:{len(divs) - 1}"))
    return out


def run(wb: Workbench, req: tuple) -> str:
    return report_emit(getattr(wb, "cmd_" + req[0])(*req[1:]))


def test_reports_do_not_depend_on_earlier_commands():
    """Each report on a fresh Workbench equals the same report from one
    Workbench that has already run every command, in the reverse order."""
    for model in MODELS:
        reqs = requests(model)
        warm = workbench(model)
        warm_out = {req: run(warm, req) for req in reversed(reqs)}
        for req in reqs:
            assert run(workbench(model), req) == warm_out[req], req
