"""The certificate search against its first implementation
(`certify_oracle`): the per-certificate plan, the incremental
feasibility check and the pruned enumeration of coalescence trees must give
the same realizability, the same trees in the same order and the same
witnesses."""
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import certify_oracle as oracle
from conftest import Phi4
from renormforest.coalescence import enumerate_trees, full_mask, popcount
from renormforest.powercount import (
    Certifier,
    CertificateInput,
    _feasible,
    connected_split,
    trees_containing,
)
from renormforest.workbench import Workbench, parse_config

PHI4 = Phi4()
KPZ = Workbench(
    parse_config(
        (Path(__file__).resolve().parent.parent / "configs" / "kpz.json").read_text(
            encoding="utf-8"
        )
    )
)


def certificate(t, wick, pi):
    return CertificateInput(
        tree=t, wick=frozenset(wick), pi=frozenset(frozenset(b) for b in pi)
    )


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
    setting, t, wick, pi, n_cuts, n_subtrees = CASES[case]
    ci = certificate(t, wick, pi)
    cert = Certifier(setting.table, setting.cum)
    built = cert.build(ci)
    n = len(built["verts"])
    assert 4 <= n <= 6
    plan = cert._interval_plan(ci, built)
    assert (len(plan[1]), len(plan[2])) == (n_cuts, n_subtrees)
    univ = oracle.div_universe(cert, ci)
    verdicts = set()
    for fam in enumerate_trees(n):
        got = cert._realizable(plan, fam)
        assert got == oracle.realizable(cert, ci, univ, fam), fam
        verdicts.add(got)
    assert True in verdicts
    assert False in verdicts


def test_cut_and_subtree_reach_the_plan():
    """KPZ T3 with its two leaves paired: the positive cut and the one
    divergence compatible with the pair each constrain the scales."""
    setting, t, wick, pi, _, _ = CASES["kpz-T3-pair"]
    ci = certificate(t, wick, pi)
    cert = Certifier(setting.table, setting.cum)
    _, cuts, subtrees = cert._interval_plan(ci, cert.build(ci))
    assert len(cuts) == 1
    assert len(subtrees) == 1


def bad_noise_certificates():
    """Noise of homogeneity -3 makes phi4_3 supercritical: these classes
    fail, so the search has a witness to find."""
    bad = Phi4(xi_hom=Fraction(-3))
    lv = sorted(bad.t111.leaf_nodes(bad.table))
    yield bad, certificate(bad.t111, [lv[2]], [(lv[0], lv[1])])
    yield bad, certificate(bad.t111, [lv[0]], [(lv[1], lv[2])])
    lv = sorted(bad.t11.leaf_nodes(bad.table))
    yield bad, certificate(bad.t11, [], [(lv[0], lv[1])])


@pytest.mark.parametrize("index", range(3))
def test_certify_witness_matches_oracle(index):
    bad, ci = list(bad_noise_certificates())[index]
    cert = Certifier(bad.table, bad.cum)
    res = cert.certify(ci)
    assert not res["pass"]
    assert (res["violation"], res["tree"]) == oracle.witness(cert, ci)


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
    assert _feasible(fam, atoms, disjunctions) == oracle.feasible(fam, atoms, disjunctions)


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
        assert _feasible(fam, atoms, disjunctions) is want
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
