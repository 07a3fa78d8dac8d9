import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import KAPPA, KPZ, analyses, decorated_trees, spine_subtrees, spine_tree
from forest_oracle import (
    block_pendant_reducible,
    cut_depth,
    cut_depth_sets,
    depth,
    down_tree,
    edge_le,
    min_cuts,
    sigma_positive,
    up_tree,
)
from multiscale_oracle import Interval, is_interval_of
from renormforest.forests import (
    CapExceeded,
    _block_pendant_reducible,
    all_forests,
    cut_enumerate,
    depth_sets,
    div_enumerate,
    forests_compatible_with,
    irreducible_partition_exists,
    is_forest_of_subtrees,
    sigma_negative,
)
from renormforest.rules import CumulantSet
from renormforest.trees import DecoratedTree, SubForest
from renormforest.workbench import DEFAULT_CAPS


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
    """The worked depth example."""
    t = spine_tree(phi4.table)
    subs = spine_subtrees(t)
    f = frozenset({subs["S1"], subs["S2"], subs["S3"]})
    d = depth_sets(f)
    assert d == [
        frozenset({subs["S1"]}),
        frozenset({subs["S2"]}),
        frozenset({subs["S3"]}),
    ]
    assert depth(f) == 3
    g = frozenset({subs["S2"], subs["S3"], subs["S5"]})
    dg = depth_sets(g)
    assert dg == [frozenset({subs["S2"], subs["S5"]}), frozenset({subs["S3"]})]
    assert depth(g) == 2


def test_sigma_negative_layers(phi4):
    t = spine_tree(phi4.table)
    subs = spine_subtrees(t)
    assert sigma_negative(t, frozenset()) == ()
    f = frozenset({subs["S1"], subs["S2"], subs["S3"]})
    sigma = sigma_negative(t, f)
    assert len(sigma) == 3  # one component per generation
    by_nodes = {piece[0]: piece for piece in sigma}
    s1 = by_nodes[tuple(sorted(subs["S1"].nodes))]
    assert s1[2] == (tuple(sorted(subs["S2"].nodes)), tuple(sorted(subs["S2"].edges)))
    s2 = by_nodes[tuple(sorted(subs["S2"].nodes))]
    assert s2[2] == (tuple(sorted(subs["S3"].nodes)), tuple(sorted(subs["S3"].edges)))
    s3 = by_nodes[tuple(sorted(subs["S3"].nodes))]
    assert s3[2] == ((), ())


def test_kpz_scenario_forests(kpz):
    """The seven admissible class patterns of the chain tree."""
    t, table = kpz.t211, kpz.table
    univ = [s for s, _ in analyses(kpz)(t).divergences]
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
        return forests_compatible_with(t, table, univ, pi, DEFAULT_CAPS["max_div"])

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
