"""The certifier's per-subset decision (`Certifier._realizable`, the scale
rules of `multiscale` at one subset's scales) against the coalescence-tree
search it replaced (`certify_oracle.witness_search`): on every failing
vertex subset of every chaos class of the basis trees and of rougher-noise
variants, a subset is realized exactly when the search finds a realizable
tree containing it, and then the flat tree {full, subset} is realizable.
The decision's first form as mask inequalities (`certify_oracle.witnessed`
on `interval_plan`) is checked the same way on random plans, and against
the decision on every subset of the shipped bases and of random trees.
The search's plan, incremental feasibility and pruned enumeration are
checked in turn against their first implementation."""
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import certify_oracle as oracle
from certify_oracle import connected_split
from conftest import KPZ as KPZ_SETTING
from conftest import (
    BPHZ_TERMS,
    CERTIFY_VARIANTS,
    MAX_DIV,
    Phi4,
    certifier,
    decorated_trees,
    variant_workbench,
)
from coalescence_oracle import full_mask, popcount
from renormforest.forests import leaf_partitions
from renormforest.powercount import Analyses, Certifier, enumerate_trees, trees_containing
from renormforest.rules import CumulantSet
from renormforest.workbench import DEFAULT_CAPS, Workbench, parse_config

ROOT = Path(__file__).resolve().parent.parent
PHI4 = Phi4()
KPZ = Workbench(parse_config((ROOT / "configs" / "kpz.json").read_text(encoding="utf-8")))


def certificate(setting, t, wick, pi):
    """The certifier of a setting's tree and one of its chaos classes,
    (Wick set, partition)."""
    return certifier(setting, t), frozenset(wick), frozenset(frozenset(b) for b in pi)


def mask(*vs):
    return sum(1 << v for v in vs)


# chaos classes of at most six vertices in which the scale constraints rule
# some coalescence trees out: (setting, tree, Wick set, pairs, cuts, subtrees)
# with the plan's cut and subtree constraint counts
CASES = {
    "phi4-111-empty": (PHI4, PHI4.t111, [5], [(1, 3)], 0, 1),
    # 170 of 236 trees realizable
    "kpz-T3-wick": (KPZ.config, KPZ.tree_by_id("T3"), [1, 4], [], 1, 0),
    # 144 of 236
    "kpz-T3-pair": (KPZ.config, KPZ.tree_by_id("T3"), [], [(1, 4)], 1, 1),
    # 198 of 236
    "kpz-T4-pair": (KPZ.config, KPZ.tree_by_id("T4"), [], [(2, 4)], 0, 2),
    # 2 472 of 2 752
    "kpz-T5-wick-pair": (KPZ.config, KPZ.tree_by_id("T5"), [1], [(4, 6)], 0, 2),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_realizability_matches_oracle_on_every_tree(case):
    """The plan, looked up in each tree, realizes the same trees as the
    scale constraints rebuilt from the tree."""
    setting, t, wick, pi, n_cuts, n_subtrees = CASES[case]
    cert, wick, pi = certificate(setting, t, wick, pi)
    built = cert.build(pi)
    n = len(built.verts)
    assert 4 <= n <= 6
    plan = oracle.interval_plan(cert, pi, built)
    assert (len(plan[0]), len(plan[1])) == (n_cuts, n_subtrees)
    univ = oracle.div_universe(cert.analysis, pi)
    verdicts = set()
    for fam in enumerate_trees(n):
        got = oracle.plan_realizable(plan, fam)
        assert got == oracle.realizable(cert, pi, univ, fam), fam
        verdicts.add(got)
    assert True in verdicts
    assert False in verdicts


def test_cut_and_subtree_reach_the_plan():
    """KPZ T3 with its two leaves paired: the positive cut and the one
    divergence compatible with the pair each constrain the scales."""
    setting, t, wick, pi, _, _ = CASES["kpz-T3-pair"]
    cert, wick, pi = certificate(setting, t, wick, pi)
    cuts, subtrees = oracle.interval_plan(cert, pi, cert.build(pi))
    assert len(cuts) == 1
    assert len(subtrees) == 1


def compare_with_search(cert: Certifier, wick: frozenset, pi: frozenset) -> tuple[int, int]:
    """Decide every failing subset of the class both ways and check that
    `certify` reports the first witnessed one; (witnessed, refuted)."""
    built = cert.build(pi)
    _, failures = cert._failures(wick, pi, built)
    n = len(built.verts)
    masks = list(built.masks.values())
    plan = oracle.interval_plan(cert, pi, built)
    realizable = cert._realizable(pi, built)
    memo: dict = {}
    witnessed = []
    for violation in failures:
        a = violation[1]
        found = oracle.witness_search(n, masks, plan, a, memo)
        assert realizable(a) == (found is not None), violation
        if found is not None:
            assert a in found
            flat = frozenset({full_mask(n), a})
            assert oracle.plan_realizable(plan, flat)
            assert oracle.realizable(cert, pi, oracle.div_universe(cert.analysis, pi), flat)
            witnessed.append(violation)
    res = cert.certify(wick, pi)
    assert res["pass"] == (not witnessed)
    assert res.get("violation") == (witnessed[0] if witnessed else None)
    return len(witnessed), len(failures) - len(witnessed)


def compare_every_class(wb: Workbench, tree_id: str) -> tuple[int, int]:
    cert = Certifier(wb.analysis(wb.tree_by_id(tree_id)), wb.config.caps["max_coalescence_vertices"])
    witnessed = refuted = 0
    for wick, pi in cert.analysis.gaussian_classes:
        w, r = compare_with_search(cert, wick, pi)
        witnessed, refuted = witnessed + w, refuted + r
    return witnessed, refuted


# the failing subsets over all chaos classes of each basis tree; the search
# refutes every one of them, as the convergence theorem says
BASIS_FAILURES = {
    "kpz": (0, 0, 1, 2, 2, 4, 17, 11),
    "phi4_3": (0, 0, 1, 3, 19, 13, 39),
}
TREES = [(m, f"T{i}") for m in sorted(BPHZ_TERMS) for i in range(len(BPHZ_TERMS[m]))]


@pytest.fixture(scope="module")
def workbenches():
    return {
        m: Workbench(parse_config((ROOT / "configs" / f"{m}.json").read_text(encoding="utf-8")))
        for m in BPHZ_TERMS
    }


@pytest.mark.parametrize("model,tree_id", TREES, ids=[f"{m}-{t}" for m, t in TREES])
def test_local_decision_matches_search_on_basis_trees(workbenches, model, tree_id):
    got = compare_every_class(workbenches[model], tree_id)
    assert got == (0, BASIS_FAILURES[model][int(tree_id[1:])])


# (witnessed, refuted) failing subsets over every class of every basis tree
VARIANT_FAILURES = {
    ("phi4_3", "-251/100"): (0, 4),
    ("phi4_3", "-11/4"): (8, 17),
    ("phi4_3", "-3"): (32, 15),
    ("kpz", "-151/100"): (0, 9),
    ("kpz", "-7/4"): (7, 9),
    ("kpz", "-19/10"): (7, 9),
}


@pytest.mark.parametrize("variant", CERTIFY_VARIANTS, ids=["/".join(v) for v in CERTIFY_VARIANTS])
def test_local_decision_matches_search_on_variants(variant):
    wb = variant_workbench(*variant)
    witnessed = refuted = 0
    for i in range(len(wb.basis())):
        w, r = compare_every_class(wb, f"T{i}")
        witnessed, refuted = witnessed + w, refuted + r
    assert (witnessed, refuted) == VARIANT_FAILURES[variant]


def bad_noise_certificates():
    """Noise of homogeneity -3 makes phi4_3 supercritical: these classes
    fail, so the search has a witness to find."""
    bad = Phi4(xi_hom=Fraction(-3))
    lv = sorted(bad.t111.leaf_nodes(bad.table))
    yield certificate(bad, bad.t111, [lv[2]], [(lv[0], lv[1])])
    yield certificate(bad, bad.t111, [lv[0]], [(lv[1], lv[2])])
    lv = sorted(bad.t11.leaf_nodes(bad.table))
    yield certificate(bad, bad.t11, [], [(lv[0], lv[1])])


@pytest.mark.parametrize("index", range(3))
def test_certify_witness_matches_oracle(index):
    """The violation is the one the search's first implementation finds
    first, and every failing subset is decided as the search decides it."""
    cert, wick, pi = list(bad_noise_certificates())[index]
    witnessed, _ = compare_with_search(cert, wick, pi)
    assert witnessed
    res = cert.certify(wick, pi)
    assert not res["pass"]
    violation, fam = oracle.witness(cert, wick, pi)
    assert res["violation"] == violation
    assert violation[1] in fam


@st.composite
def plans(draw):
    """A multigraph on n <= 6 vertices and a plan of the shape
    `interval_plan` produces: a basepoint edge {0, v} to every other
    vertex; cuts whose basepoint pair {0, p} and edge pair {p, c} share p;
    divergences whose external masks meet the vertices their internal
    masks cover.  Every mask the plan names is an edge of the multigraph.
    Then a vertex subset of at least two vertices."""
    n = draw(st.integers(2, 6))
    true = st.integers(1, n - 1)
    edges = [mask(0, v) for v in range(1, n)]
    edges += draw(st.lists(st.sets(st.integers(0, n - 1), min_size=2, max_size=2).map(
        lambda p: mask(*p)), max_size=4))
    cuts = []
    if n >= 3:
        for p, c in draw(st.lists(st.tuples(true, true).filter(lambda e: e[0] != e[1]), max_size=3)):
            cuts.append((mask(0, p), mask(p, c)))
    subtrees, covers = [], []
    if n >= 3:
        for _ in range(draw(st.integers(0, 3))):
            ints = draw(st.lists(st.sets(true, min_size=2, max_size=2), min_size=1, max_size=3))
            cover = sorted(set().union(*ints))
            exts = draw(st.lists(
                st.tuples(st.sampled_from(cover), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]),
                min_size=1, max_size=3,
            ))
            subtrees.append((sorted({mask(*p) for p in ints}), sorted({mask(*e) for e in exts})))
            covers.append(mask(*cover))
    edges += [m for c in cuts for m in c]
    edges += [m for ints, exts in subtrees for m in ints + exts]
    # a subset that holds some divergence's internal masks now and then,
    # where the divergence can refute it
    a = draw(st.integers(0, full_mask(n))) | draw(st.sampled_from([0] + covers))
    assume(popcount(a) >= 2)
    return n, edges, (cuts, subtrees), a


@settings(max_examples=200, deadline=None)
@given(plans())
def test_local_decision_matches_search_on_random_plans(case):
    n, edges, plan, a = case
    found = oracle.witness_search(n, edges, plan, a, {})
    assert oracle.witnessed(plan, connected_split(edges), a) == (found is not None)
    if found is not None:
        assert oracle.plan_realizable(plan, frozenset({full_mask(n), a}))


@st.composite
def constraint_sets(draw):
    n = draw(st.integers(2, 5))
    trees = enumerate_trees(n)
    fam = trees[draw(st.integers(0, len(trees) - 1))]
    clusters = st.sampled_from(sorted(fam))
    atom = st.tuples(clusters, clusters)
    atoms = draw(st.lists(atom, max_size=5))
    disjunctions = draw(st.lists(st.lists(atom, min_size=1, max_size=3), max_size=4))
    return fam, atoms, disjunctions


@settings(max_examples=300, deadline=None)
@given(constraint_sets())
def test_incremental_feasibility_matches_kosaraju(case):
    fam, atoms, disjunctions = case
    got = oracle.incremental_feasible(fam, atoms, disjunctions)
    assert got == oracle.feasible(fam, set(atoms), disjunctions)


def test_feasibility_closes_every_row_that_reaches_a_new_edge():
    """Clusters 7 > 3 under the root 31, and 24 outside 7.  B <= X and
    X <= A each hold alone, but 3 <= 24 <= 7 < 3 is a cycle through the
    strict containment, visible only in the row of 3, which reaches 24."""
    fam = frozenset({31, 7, 3, 24})
    for atoms, disjunctions, want in [
        ([(3, 24)], [], True),
        ([(24, 7)], [], True),
        ([(3, 24), (24, 7)], [], False),
        ([(24, 7), (3, 24)], [], False),
        ([], [[(3, 24)], [(24, 7)]], False),
        ([], [[(3, 24)], [(24, 7), (7, 24)]], True),
    ]:
        assert oracle.incremental_feasible(fam, atoms, disjunctions) is want
        assert oracle.feasible(fam, set(atoms), disjunctions) is want


@st.composite
def pruned_searches(draw):
    n = draw(st.integers(2, 6))
    cluster = draw(st.integers(1, full_mask(n)).filter(lambda c: popcount(c) >= 2))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.sets(vertex, min_size=2, max_size=2), max_size=8))
    edges = [sum(1 << v for v in p) for p in pairs]
    return n, cluster, edges


@settings(max_examples=150, deadline=None)
@given(pruned_searches())
def test_pruned_trees_containing_matches_filtered_list(case):
    n, cluster, edges = case
    prune = connected_split(edges)
    got = list(trees_containing(n, cluster, prune))
    assert got == list(oracle.trees_containing(n, cluster, prune))
    assert list(trees_containing(n, cluster)) == list(oracle.trees_containing(n, cluster))


# (class, subset) pairs of the shipped bases by verdict: 14 252 in all
SAME_SCALES_VERDICTS = {
    "kpz": {True: 3315, False: 1984},
    "phi4_3": {True: 5320, False: 3633},
}


def decide_every_subset(cert: Certifier, pi: frozenset) -> dict[bool, int]:
    """Decide every vertex subset of at least two vertices both with the
    scale rules (`Certifier._realizable`) and with the first-written plan
    (`certify_oracle.witnessed`), which asserts that every compatible
    divergence has internal and external edges; the verdicts by count."""
    eu = cert.build(pi)
    plan = oracle.interval_plan(cert, pi, eu)
    connected = connected_split(eu.masks.values())
    realizable = cert._realizable(pi, eu)
    verdicts = {True: 0, False: 0}
    for a in range(1, 1 << len(eu.verts)):
        if popcount(a) < 2:
            continue
        got = realizable(a)
        assert got == oracle.witnessed(plan, connected, a), (pi, a)
        verdicts[got] += 1
    return verdicts


@pytest.mark.parametrize("model", ["kpz", "phi4_3"])
def test_certify_and_project_describe_the_same_scales(model):
    """The certifier's per-subset decision, which calls the scale rules
    that `project` applies, against those rules worked out again as mask
    inequalities.  For every chaos class of every basis tree and every
    vertex subset a of at least two vertices, a is realized under the
    scales n_a (1 on each edge inside a, 0 on every other edge) exactly
    when the plan witnesses it."""
    wb = Workbench(parse_config((ROOT / "configs" / f"{model}.json").read_text(encoding="utf-8")))
    verdicts = {True: 0, False: 0}
    for t in wb.basis():
        cert = Certifier(wb.analysis(t), wb.config.caps["max_coalescence_vertices"])
        for _, pi in cert.analysis.gaussian_classes:
            got = decide_every_subset(cert, pi)
            verdicts = {v: verdicts[v] + got[v] for v in verdicts}
    assert verdicts == SAME_SCALES_VERDICTS[model]


# cumulants of the KPZ noise of arity two to four
EXPLICIT = CumulantSet(KPZ_SETTING.table, "explicit", frozenset(("l",) * m for m in (2, 3, 4)))


@settings(max_examples=100, deadline=None)
@given(decorated_trees(max_edges=9), st.data())
def test_scale_rules_match_the_plan_on_random_trees(t, data):
    """On random KPZ-typed trees with derivative decorations on their
    kernel edges, under explicit cumulants of arity two to four, with a
    random Wick set and admissible partition of the other leaves: every
    vertex subset is decided by the scale rules as by the plan."""
    table = KPZ_SETTING.table
    leaves = sorted(t.leaf_nodes(table))
    wick = data.draw(st.sets(st.sampled_from(leaves)) if leaves else st.just(set()))
    pis = leaf_partitions(t, table, EXPLICIT, ground=[u for u in leaves if u not in wick])
    assume(pis)
    pi = data.draw(st.sampled_from(pis))
    cert = Certifier(Analyses(table, EXPLICIT, MAX_DIV)(t), DEFAULT_CAPS["max_coalescence_vertices"])
    decide_every_subset(cert, pi)
