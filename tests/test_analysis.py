"""The per-tree analysis against the direct enumerations it replaces, its
partition table against the per-request scan of leaf sets it replaced, the
edge-weight omega of `div_enumerate` against the per-subtree zero-node
homogeneity, the BPHZ extractions and negative antipode built on it against
the edge-subset scan and tensor fold they replaced, on random decorated
trees, and reports that do not depend on what a Workbench has already
analysed."""
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certify_oracle import div_universe
from conftest import (
    BPHZ_TERMS,
    CERTIFY_VARIANTS,
    KPZ,
    MAX_DIV,
    decorated_trees,
    project_doc,
    project_docs,
    variant_workbench,
)
from hopf_oracle import antipode_minus_fold, assert_extractions_match
from renormforest.forests import (
    cut_enumerate,
    div_enumerate,
    irreducible_partition_exists,
    leaf_partitions,
)
from renormforest.hopf import _AntipodeMinus, delta_minus
from renormforest.powercount import TreeAnalysis
from renormforest.rules import CumulantSet
from renormforest.trees import zero_node_hom
from renormforest.workbench import Workbench, _sf_str, parse_config, report_emit

ROOT = Path(__file__).resolve().parent.parent
MODELS = sorted(BPHZ_TERMS)


def workbench(model: str) -> Workbench:
    return Workbench(parse_config((ROOT / "configs" / f"{model}.json").read_text(encoding="utf-8")))


def div_oracle(t, table, cum, effective):
    """`div_enumerate` as it was: omega from the per-subtree zero-node
    homogeneity."""
    out = []
    for sf in t.all_subtrees():
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
            a = TreeAnalysis(t, table, cum, MAX_DIV)
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


# -- the partition table ---------------------------------------------------------


def assert_table_matches_scan(a: TreeAnalysis) -> int:
    """The partition table holds the partitions of the classes, in class
    order and nothing else, and each entry equals the scan of every leaf
    set against the partition (`certify_oracle.div_universe`, over
    `compatible_partition`) in members and order; the count of classes."""
    pis = [pi for _, pi in a.gaussian_classes]
    assert list(a.compatible) == pis
    for pi in pis:
        assert list(a.compatible[pi]) == div_universe(a, pi), pi
    return len(pis)


@pytest.mark.parametrize("model,classes", [("kpz", 32), ("phi4_3", 54)])
def test_partition_table_matches_the_scan_on_the_bases(model, classes):
    wb = workbench(model)
    assert sum(assert_table_matches_scan(wb.analysis(t)) for t in wb.basis()) == classes


@pytest.mark.parametrize("variant", CERTIFY_VARIANTS, ids=["/".join(v) for v in CERTIFY_VARIANTS])
def test_partition_table_matches_the_scan_on_variants(variant):
    wb = variant_workbench(*variant)
    assert sum(assert_table_matches_scan(wb.analysis(t)) for t in wb.basis())


# cumulants of the KPZ noise of arity two to four
EXPLICIT = CumulantSet(KPZ.table, "explicit", frozenset(("l",) * m for m in (2, 3, 4)))


@settings(max_examples=120, deadline=None)
@given(decorated_trees(max_edges=9))
def test_partition_table_matches_the_scan_on_random_trees(t):
    """Random KPZ-typed trees with derivative decorations on their kernel
    edges, every class under Gaussian cumulants and under explicit
    cumulants of arity two to four."""
    for cum in (KPZ.cum, EXPLICIT):
        assert assert_table_matches_scan(TreeAnalysis(t, KPZ.table, cum, MAX_DIV))


def set_partitions(items: list) -> list[list[list]]:
    """Every partition of `items` into blocks, singletons included."""
    if not items:
        return [[]]
    first, out = items[0], []
    for part in set_partitions(items[1:]):
        out.append([[first]] + part)
        out += [part[:i] + [[first] + part[i]] + part[i + 1 :] for i in range(len(part))]
    return out


def admissible_partitions(t, table, cum) -> list[frozenset]:
    """Every partition of a subset of the tree's leaves whose blocks the
    cumulant set admits, listed without the analysis."""
    leaves = sorted(t.leaf_nodes(table))
    out = []
    for r in range(len(leaves) + 1):
        for subset in itertools.combinations(leaves, r):
            for part in set_partitions(list(subset)):
                if all(cum.admits([t.leaf_type(u, table) for u in block]) for block in part):
                    out.append(frozenset(map(frozenset, part)))
    return out


def explicit_kpz() -> Workbench:
    config = json.loads((ROOT / "configs" / "kpz.json").read_text(encoding="utf-8"))
    config["cumulants"] = {"mode": "explicit", "blocks": [["l"] * m for m in (2, 3, 4)]}
    return Workbench(parse_config(json.dumps(config)))


@pytest.mark.parametrize("model", MODELS + ["kpz-explicit"])
def test_project_accepts_every_admissible_partition(model):
    """`project` looks every partition it accepts up in the partition
    table: each admissible partition of each leaf subset of every basis
    tree is the partition of one class, and its report lists the scan's
    divergences."""
    wb = explicit_kpz() if model == "kpz-explicit" else workbench(model)
    table, cum = wb.config.table, wb.config.cum
    rng = random.Random(7)
    accepted = classes = 0
    for i, t in enumerate(wb.basis()):
        analysis = wb.analysis(t)
        classes += len(analysis.gaussian_classes)
        for pi in admissible_partitions(t, table, cum):
            report = wb.cmd_project(f"T{i}", project_doc(wb, t, pi, rng))
            want = sorted(_sf_str(s) for s in div_universe(analysis, pi))
            assert report["divergent_subtrees"] == want, (i, pi)
            accepted += 1
    assert accepted == classes


@settings(max_examples=60, deadline=None)
@given(decorated_trees())
def test_edge_weight_omega_equals_zero_node_hom(t):
    table = KPZ.table
    got = div_enumerate(t, table)
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
        assert_extractions_match(t, KPZ.table, **kw)


@settings(max_examples=40, deadline=None)
@given(decorated_trees(max_edges=7), st.data())
def test_antipode_minus_matches_tensor_fold(t, data):
    """On a forest of X_- pieces extracted from a random tree (pieces whose
    node labels come from chi(e_G)), the product over the pieces equals the
    fold of tensor products.  The trees have at most seven edges and the forests at most four: with the
    random decorations' budgets a piece of five edges can have an antipode
    of 30 000 terms, which takes seconds on each side."""
    table = KPZ.table
    listed = div_enumerate(t, table)
    forests = sorted(
        {
            extracted
            for (extracted, _), _ in delta_minus(t, table, listed).items()
            if sum(len(p.edge_items) for p in extracted) <= 4
        },
        # forests of several pieces first, where hypothesis draws most
        key=lambda f: (-len(f), repr([p.embedded_key() for p in f])),
    )
    forest = data.draw(st.sampled_from(forests))
    assert _AntipodeMinus(table, listed, lambda p: p).forest(forest) == antipode_minus_fold(forest, table)


# -- warm and cold reports -----------------------------------------------------

# certify and renormalize take seconds on phi4_3 T4-T6 and kpz T6/T7, and
# milliseconds on the trees before them
CHEAP = {"kpz": 6, "phi4_3": 4}


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
