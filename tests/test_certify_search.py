"""The certificate search against its first implementation
(`certify_oracle`): the per-certificate interval plan, the incremental
feasibility check and the pruned enumeration of coalescence trees must give
the same realizability, the same trees in the same order and the same
witnesses."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import certify_oracle as oracle
from conftest import Kpz, Phi4
from renormforest.coalescence import enumerate_trees, full_mask, popcount
from renormforest.forests import div_enumerate
from renormforest.powercount import (
    Certifier,
    CertificateInput,
    _feasible,
    connected_split,
    trees_containing,
)

PHI4, KPZ = Phi4(), Kpz()


def divergence(setting, t, nodes):
    """The power-counting divergence of t on the given node set."""
    for s, _ in div_enumerate(t, setting.table, setting.cum, effective=False):
        if s.nodes == frozenset(nodes):
            return s
    raise KeyError(nodes)


def certificate(setting, t, wick, pi, small=(), big=(), g_small=(), g_big=()):
    return CertificateInput(
        tree=t,
        wick=frozenset(wick),
        pi=frozenset(frozenset(b) for b in pi),
        m_small=frozenset(divergence(setting, t, s) for s in small),
        m_big=frozenset(divergence(setting, t, s) for s in big),
        g_small=frozenset(g_small),
        g_big=frozenset(g_big),
    )


# KPZ t211 has one positive cut, (0, 3); its leaves are 1, 4, 7 and 9
CUT = (0, 3)
CASES = {
    # the shape cmd_certify uses: an empty interval
    "phi4-111-empty": (PHI4, PHI4.t111, [6], [(2, 4)], {}),
    "kpz-211-contracted": (
        KPZ, KPZ.t211, [], [(1, 4), (7, 9)], {"big": [[3, 4, 5, 6, 7, 8]]}
    ),
    # m_small strictly inside m_big, the cut harvested (in g_big only)
    "kpz-211-harvested": (
        KPZ, KPZ.t211, [], [(1, 4), (7, 9)],
        {"small": [[0, 1, 2]], "big": [[0, 1, 2], [6, 7, 8, 9, 10]], "g_big": [CUT]},
    ),
    # the same interval with the cut plainly renormalized
    "kpz-211-unharvested": (
        KPZ, KPZ.t211, [], [(1, 7), (4, 9)],
        {
            "small": [[0, 1, 2]],
            "big": [[0, 1, 2], [6, 7, 8, 9, 10]],
            "g_small": [CUT],
            "g_big": [CUT],
        },
    ),
    "kpz-211-nested": (
        KPZ, KPZ.t211, [], [(1, 4), (7, 9)],
        {"small": [[6, 7, 8]], "big": [[6, 7, 8], [3, 6, 7, 8, 9, 10]], "g_big": [CUT]},
    ),
    # six quotient vertices, four subtree constraints
    "kpz-211-disjoint": (
        KPZ, KPZ.t211, [], [(1, 4), (7, 9)],
        {"big": [[0, 1, 2], [6, 7, 8]], "g_big": [CUT]},
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_realizability_matches_oracle_on_every_tree(case):
    setting, t, wick, pi, interval = CASES[case]
    ci = certificate(setting, t, wick, pi, **interval)
    cert = Certifier(setting.table, setting.cum)
    built = cert.build(ci)
    n = len(built["verts"])
    assert 4 <= n <= 6
    plan = cert._interval_plan(ci, built)
    univ = oracle.div_universe(cert, ci)
    verdicts = set()
    for fam in enumerate_trees(n):
        got = cert._realizable(plan, fam)
        assert got == oracle.realizable(cert, ci, built, univ, fam), fam
        verdicts.add(got)
    assert True in verdicts
    if interval:  # the interval's scale constraints rule some trees out
        assert False in verdicts


def test_harvested_cut_reaches_the_plan():
    setting, t, wick, pi, interval = CASES["kpz-211-harvested"]
    ci = certificate(setting, t, wick, pi, **interval)
    cert = Certifier(setting.table, setting.cum)
    _, cuts, subtrees = cert._interval_plan(ci, cert.build(ci))
    assert [harvested for _, _, harvested in cuts] == [True]
    assert subtrees


def bad_noise_certificates():
    """Noise of homogeneity -3 makes phi4_3 supercritical: these classes
    fail, so the search has a witness to find."""
    bad = Phi4(xi_hom=Fraction(-3))
    lv = sorted(bad.t111.leaf_nodes(bad.table))
    yield bad, certificate(bad, bad.t111, [lv[2]], [(lv[0], lv[1])])
    yield bad, certificate(bad, bad.t111, [lv[0]], [(lv[1], lv[2])])
    lv = sorted(bad.t11.leaf_nodes(bad.table))
    yield bad, certificate(bad, bad.t11, [], [(lv[0], lv[1])])


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
    edges = [("e", i, frozenset(p)) for i, p in enumerate(pairs)]
    return n, cluster, edges


@settings(max_examples=150, deadline=None)
@given(pruned_searches())
def test_pruned_trees_containing_matches_filtered_list(case):
    n, cluster, edges = case
    prune = connected_split(edges)
    got = list(trees_containing(n, cluster, prune))
    assert got == list(oracle.trees_containing(n, cluster, prune))
    assert list(trees_containing(n, cluster)) == list(oracle.trees_containing(n, cluster))
