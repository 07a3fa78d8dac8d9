import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forest_oracle as oracle
from conftest import KAPPA, KPZ, ROOT, analyses, colored_trees, decorated_trees, spine_subtrees, spine_tree
from forest_oracle import (
    block_pendant_reducible,
    cut_depth,
    cut_depth_sets,
    depth,
    down_tree,
    edge_le,
    min_cuts,
    sigma_positive,
    undecorated_forest_shape,
    up_tree,
)
from multiscale_oracle import Interval, is_interval_of
from renormforest.forests import (
    CapExceeded,
    _block_pendant_reducible,
    all_forests,
    cut_enumerate,
    div_enumerate,
    forest_parents,
    irreducible_partition_exists,
    is_forest_of_subtrees,
    nested_or_disjoint,
    sigma_negative,
)
from renormforest.rules import CumulantSet
from renormforest.trees import DecoratedTree, SubForest, subtree_omegas, zero_node_hom
from renormforest.workbench import DEFAULT_CAPS, Workbench, parse_config


def test_kpz_cut_set(kpz):
    cuts = cut_enumerate(kpz.t211, kpz.table)
    assert len(cuts) == 1
    (e, gamma) = cuts[0]
    assert gamma == 1
    assert e[0] == kpz.t211.root


def test_kpz_effective_divergences(kpz):
    """The effective set: the top cherry, the two-level chains, the mirror,
    and the tree itself; the noise-dropping pattern and odd counts are
    filtered by the vanishing rule."""
    t, table = kpz.t211, kpz.table
    divs = analyses(kpz)(t).divergences
    omegas = sorted(str(w) for _, w in divs)
    assert len(divs) == 5
    assert omegas.count(str(2 * KAPPA)) == 3
    assert str(1 + 2 * KAPPA) in omegas
    assert str(4 * KAPPA) in omegas
    full = div_enumerate(t, table)
    assert len(full) > len(divs)
    # the dropped-noise chain is power-counting divergent but ineffective
    fake = [
        s
        for s, w in full
        if w == 2 * KAPPA and not any(s == e for e, _ in divs)
    ]
    assert fake


def test_div_of_lone_noise(phi4):
    assert analyses(phi4)(phi4.xi).divergences == ()
    assert cut_enumerate(phi4.xi, phi4.table) == []


def test_pendant_rule(phi4):
    """Within the big tree: the double cherry survives (cross pairings are
    irreducible), the one-sided four-noise pattern does not."""
    t, table, cum = phi4.t131, phi4.table, phi4.cum
    full = div_enumerate(t, table)
    nine = [s for s, w in full if len(s.edges) == 9 and t.root in s.nodes]
    assert len(nine) == 5  # 3 balanced + 2 one-sided
    effective = [s for s in nine if irreducible_partition_exists(t, s, cum)]
    assert len(effective) == 3
    # one-sided: the root keeps a single noise branch
    dropped = [s for s in nine if s not in effective]
    for s in dropped:
        piece = t.restrict(s)
        root_noises = [u for u in piece.leaf_nodes(table) if piece.parent(u) == piece.root]
        assert len(root_noises) == 1


def test_spine_forest_listing(phi4):
    """All subsets of the six shaded subtrees that are forests: the paper's
    list, each forest once."""
    t = spine_tree(phi4.table)
    subs = spine_subtrees(t)
    names = sorted(subs)
    ok = []
    for r in range(7):
        for combo in itertools.combinations(names, r):
            if is_forest_of_subtrees([subs[n] for n in combo]):
                ok.append(combo)
    expected = [
        (),
        ("S1",), ("S2",), ("S3",), ("S4",), ("S5",), ("S6",),
        ("S1", "S2"), ("S1", "S3"), ("S1", "S4"),
        ("S2", "S3"), ("S2", "S5"), ("S3", "S5"), ("S3", "S6"),
        ("S4", "S5"),
        ("S1", "S2", "S3"), ("S2", "S3", "S5"),
    ]
    assert sorted(ok) == sorted(expected)
    assert len(ok) == 17


def test_spine_generations(phi4):
    """The worked depth example, read off the parent map."""
    t = spine_tree(phi4.table)
    subs = spine_subtrees(t)
    s1, s2, s3, s5 = subs["S1"], subs["S2"], subs["S3"], subs["S5"]
    f = frozenset({s1, s2, s3})
    assert forest_parents(f) == {s1: None, s2: s1, s3: s2}
    assert depth(f) == 3
    g = frozenset({s2, s3, s5})
    assert forest_parents(g) == {s2: None, s5: None, s3: s2}
    assert depth(g) == 2
    assert forest_parents(frozenset()) == {}


def test_sigma_negative_layers(phi4):
    t = spine_tree(phi4.table)
    subs = spine_subtrees(t)
    assert sigma_negative(t, frozenset()) == ()
    f = frozenset({subs["S1"], subs["S2"], subs["S3"]})
    sigma = sigma_negative(t, f)
    assert len(sigma) == 3  # one component per generation
    by_nodes = {piece.nodes: piece for piece in sigma}
    assert by_nodes[subs["S1"].nodes].hat1 == subs["S2"]
    assert by_nodes[subs["S2"].nodes].hat1 == subs["S3"]
    assert by_nodes[subs["S3"].nodes].hat1.is_empty()


def assert_divergences_match_scan(t: DecoratedTree, table) -> None:
    """`subtree_omegas`, read off the shape's label-free list with the
    tree's edge labels added, lists every subtree in `all_subtrees` order
    with omega = -|S^0_e|_s, and `div_enumerate` lists those of the
    per-call scan."""
    omegas = subtree_omegas(t, table)
    assert [sf for sf, _ in omegas] == t.all_subtrees()
    assert all(type(w) is Fraction and w == -zero_node_hom(t, sf, table) for sf, w in omegas)
    assert div_enumerate(t, table) == oracle.div_enumerate_scan(t, table)


@pytest.mark.parametrize("model", ["kpz", "phi4_3"])
def test_divergences_match_scan_on_basis_trees(model):
    wb = Workbench(parse_config((ROOT / "configs" / f"{model}.json").read_text(encoding="utf-8")))
    for t in wb.basis():
        assert_divergences_match_scan(t, wb.config.table)


@settings(max_examples=80, deadline=None)
@given(colored_trees(), st.booleans())
def test_divergences_match_scan_on_labelled_trees(t, bare_first):
    """A tree with edge and node labels and one without labels that shares
    its shape, read in either order: the shape's list holds no labels."""
    bare = t.with_(node_dec={}, edge_dec={})
    for tree in (bare, t) if bare_first else (t, bare):
        assert_divergences_match_scan(tree, KPZ.table)


def assert_parent_map_matches_oracle(t: DecoratedTree, forest: frozenset):
    """The parent map gives the scans' A_F, C_F, maximal members and
    generations, and sigma_F's pieces are the tuple-based construction's,
    sorted by `SubForest.sort_key`, each holding the color-1 components a
    scan of its color-1 forest finds, in order."""
    parents = forest_parents(forest)
    assert parents.keys() == forest
    levels: dict[int, set] = {}
    for s in forest:
        assert parents[s] == oracle.immediate_ancestor(forest, s)
        assert {c for c, p in parents.items() if p == s} == oracle.forest_children(forest, s)
        k, above = 0, parents[s]
        while above is not None:
            k, above = k + 1, parents[above]
        levels.setdefault(k, set()).add(s)
    assert {s for s, p in parents.items() if p is None} == oracle.forest_maximal(forest)
    assert [levels[k] for k in range(len(levels))] == oracle.depth_sets(forest)
    pieces = sigma_negative(t, forest)
    assert undecorated_forest_shape(pieces) == oracle.sigma_negative(t, forest)
    assert [SubForest(p.nodes, p.edge_set) for p in pieces] == sorted(forest, key=SubForest.sort_key)
    assert all(p.hat1_components() == p.subforest_components(p.hat1) for p in pieces)


@pytest.mark.parametrize("model", ["kpz", "phi4_3"])
def test_forest_parents_match_oracle_on_basis_forests(model):
    """Every forest of the effective divergences of every basis tree."""
    wb = Workbench(parse_config((ROOT / "configs" / f"{model}.json").read_text(encoding="utf-8")))
    for t in wb.basis():
        divs = [s for s, _ in wb.analysis(t).divergences]
        for forest in all_forests(divs, DEFAULT_CAPS["max_div"]):
            assert_parent_map_matches_oracle(t, forest)


@settings(max_examples=100, deadline=None)
@given(decorated_trees(), st.lists(st.integers(0, 10**6), max_size=8))
def test_forest_parents_match_oracle_on_drawn_forests(t, picks):
    """A forest drawn from the subtrees of a random tree: each pick joins
    when it is nested in or disjoint from every member so far."""
    subs = t.all_subtrees()
    forest: set[SubForest] = set()
    for i in picks:
        s = subs[i % len(subs)]
        if all(nested_or_disjoint(s, x) for x in forest):
            forest.add(s)
    assert_parent_map_matches_oracle(t, frozenset(forest))


def test_kpz_scenario_forests(kpz):
    """The seven admissible class patterns of the chain tree."""
    t, table = kpz.t211, kpz.table
    analysis = analyses(kpz)(t)
    effective = {s for s, _ in analysis.divergences}
    leaves = sorted(t.leaf_nodes(table))

    def hops(u):
        n = 0
        while u != t.root:
            u = t.parent(u)
            n += 1
        return n

    by_depth = sorted(leaves, key=hops)
    v1, v2, v3, v4 = by_depth[0], by_depth[1], *sorted(by_depth[2:])

    def f_pi(blocks):
        pi = frozenset(frozenset(b) for b in blocks)
        univ = [s for s in analysis.compatible[pi] if s in effective]
        return all_forests(univ, DEFAULT_CAPS["max_div"])

    assert len(f_pi([])) == 1
    assert len(f_pi([(v3, v4)])) == 2
    assert len(f_pi([(v1, v2)])) == 2
    assert len(f_pi([(v2, v3)])) == 2
    assert len(f_pi([(v2, v4)])) == 2
    assert len(f_pi([(v1, v4)])) == 1
    assert len(f_pi([(v1, v3)])) == 1
    assert len(f_pi([(v1, v4), (v2, v3)])) == 4
    assert len(f_pi([(v1, v3), (v2, v4)])) == 4
    assert len(f_pi([(v1, v2), (v3, v4)])) == 8


def test_up_down_trees(kpz):
    t, table = kpz.t211, kpz.table
    (e, _) = cut_enumerate(t, table)[0]
    up = up_tree(t, e)
    dn = down_tree(t, [e])
    assert up.edges & dn.edges == frozenset()
    assert up.edges | dn.edges == frozenset(x for x, _ in t.edge_items)
    assert e in up.edges
    # T_not>= and the dangling set depend only on the minimal cuts
    all_edges = [x for x, _ in t.edge_items]
    bigger = [x for x in all_edges if edge_le(t, e, x) and x != e][:1]
    assert down_tree(t, [e] + bigger) == dn
    assert min_cuts(t, [e] + bigger) == frozenset([e])


def test_cut_generations():
    """Tick-mark example: a cut set of depth three on a bare kernel tree."""
    from renormforest.scaling import ScalingSpec, TypeTable

    sc = ScalingSpec(2, (2, 1))
    table = TypeTable(sc, kernel_types={"t": Fraction(1)}, noise_types={"l": Fraction(-1)})
    edges = {}
    chain = [(0, 1), (1, 2), (2, 3), (3, 4)]
    side = [(0, 5), (1, 6), (2, 7), (3, 8)]
    for e in chain + side:
        edges[e] = "t"
    t = DecoratedTree(root=0, edges=edges, table=table)
    cuts = frozenset({(0, 1), (1, 2), (2, 3), (1, 6), (2, 7)})
    levels = cut_depth_sets(t, cuts)
    assert levels[0] == frozenset({(0, 1)})
    assert levels[1] == frozenset({(1, 2), (1, 6)})
    assert levels[2] == frozenset({(2, 3), (2, 7)})
    assert cut_depth(t, cuts) == 3
    sigma = sigma_positive(t, cuts, frozenset(), table)
    assert len(sigma) == 3


def test_sigma_positive_trivial(kpz):
    t, table = kpz.t211, kpz.table
    sigma = sigma_positive(t, frozenset(), frozenset(), table)
    assert len(sigma) == 1
    nodes, edges, hat1, hat2 = sigma[0]
    assert nodes == tuple(sorted(t.nodes))
    assert hat2 == (nodes, edges)


def test_interval_members():
    a, b, c = frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3})
    iv = Interval(a, c)
    assert b in iv
    assert len(iv.members()) == 4
    assert is_interval_of([a, b, c], [a, b, c]).small == a
    assert is_interval_of([a, b, c], [a, c]) is None


def test_forest_cap():
    subs = [
        SubForest(frozenset({i}), frozenset()) for i in range(20)
    ]
    with pytest.raises(CapExceeded):
        all_forests(subs, cap=10)


@settings(max_examples=150, deadline=None)
@given(decorated_trees(max_edges=9))
def test_pendant_reducible_matches_oracle(t):
    """On random KPZ-typed trees, under cumulants of arity two to four:
    every block of every admissible partition of every subtree's leaves is
    pendant-reducible exactly when the first-written check says so."""
    table = KPZ.table
    cum = CumulantSet(table, "explicit", frozenset(("l",) * m for m in (2, 3, 4)))
    for s in t.all_subtrees():
        leaves = sorted(t.leaves_of(s, table))
        for part in cum.partitions_of(["l"] * len(leaves)):
            for block in part:
                b = [leaves[i] for i in block]
                assert _block_pendant_reducible(t, s, b, table) == block_pendant_reducible(t, s, b, table)
