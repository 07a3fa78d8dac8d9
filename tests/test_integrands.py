import random

from conftest import KAPPA
from renormforest.forests import (
    compatible_partition,
    cut_enumerate,
    div_enumerate,
    forests_compatible_with,
    leaf_partitions,
    omega,
)
from renormforest.integrands import (
    STAR,
    build_W,
    chaos_classes,
    chaos_decomposition,
    collapse_map,
    derivative_set,
    interval_expansion_check,
    taylor_op,
)
from renormforest.multiscale import EdgeUniverse, reorganize
from renormforest.powercount import TreeAnalysis


def test_derivative_set_examples(kpz, phi4):
    t, table, cum = kpz.t211, kpz.table, kpz.cum
    divs = div_enumerate(t, table, cum)
    cherry = [s for s, w in divs if w == 1 + 2 * KAPPA][0]
    ders = derivative_set(t, cherry, table)
    # omega = 1 + 2k: the zero jet plus one spatial derivative per inner node
    assert len(ders) == 3
    degrees = sorted(sum(k.sdeg(table.scaling) for k in d.values()) for d in ders)
    assert degrees == [0, 1, 1]
    # a non-divergent subtree has an empty jet
    chain = [
        s
        for s in t.all_subtrees(table, min_true_nodes=2)
        if omega(t, s, table) <= 0
    ][0]
    assert derivative_set(t, chain, table) == []  # the jet operator is zero
    op = taylor_op(t, cherry, table)
    assert op.order_count == 3


def test_collapse_fixes_outside(kpz):
    t, table, cum = kpz.t211, kpz.table, kpz.cum
    cherry = [s for s, w in div_enumerate(t, table, cum) if w == 1 + 2 * KAPPA][0]
    piece = t.restrict(cherry)
    inner = piece.true_nodes(table) - {piece.root}
    variables = sorted(t.true_nodes(table)) + [STAR]
    cmap = collapse_map(t, cherry, table, variables)
    for v in variables:
        if v in inner:
            assert cmap[v] == piece.root
        else:
            assert cmap[v] == v


def test_chaos_classes_211(kpz):
    classes = chaos_classes(TreeAnalysis(kpz.t211, kpz.table, kpz.cum))
    assert len(classes) == 10
    by_wick = {}
    for c in classes:
        by_wick.setdefault(len(c.wick), []).append(len(c.forests))
    assert sorted(by_wick[0]) == [4, 4, 8]
    assert sorted(by_wick[2]) == [1, 1, 2, 2, 2, 2]
    assert by_wick[4] == [1]


def test_raw_integrand(kpz):
    """Wick everything: all kernels, no cumulant blocks, no levels."""
    t, table = kpz.t211, kpz.table
    wick = frozenset(t.leaf_nodes(table))
    w = build_W(t, table, frozenset(), wick, frozenset(), frozenset())
    assert w.nodes == ()
    assert w.cu_blocks == ()
    assert len(w.ring) == len(t.kernel_edges(table))
    assert all(f[0] == "ker" for f in w.ring)
    assert set(w.free_vars) == set(wick) | {t.root, STAR}


def test_free_variables_invariant(kpz):
    t, table, cum = kpz.t211, kpz.table, kpz.cum
    for entry in chaos_decomposition(t, table, cum)[:40]:
        w = entry["integrand"]
        assert set(w.free_vars) == set(entry["wick"]) | {t.root, STAR}


def test_decomposition_iso_stability(kpz):
    t, table, cum = kpz.t211, kpz.table, kpz.cum
    total = len(chaos_decomposition(t, table, cum))
    ren = {u: u + 50 for u in t.nodes}
    t2 = t.relabel(ren)
    assert len(chaos_decomposition(t2, table, cum)) == total


def test_h_nesting_structure(phi4):
    """A nested forest gives nested levels with the right kernels at each."""
    t, table, cum = phi4.t131, phi4.table, phi4.cum
    divs = div_enumerate(t, table, cum)
    nine = [s for s, w in divs if len(s.edges) == 9][0]
    inner_cherry = [
        s for s, w in divs if len(s.edges) == 4 and s.nodes < nine.nodes
    ][0]
    lv = sorted(t.leaf_nodes(table))
    pi_blocks = []
    for s in (inner_cherry, nine):
        pass
    # pair up the nine-tree's leaves: the inner cherry pair and the rest
    nine_leaves = sorted(t.restrict(nine).leaf_nodes(table))
    cherry_leaves = sorted(t.restrict(inner_cherry).leaf_nodes(table))
    others = [u for u in nine_leaves if u not in cherry_leaves]
    pi = frozenset({frozenset(cherry_leaves), frozenset(others)})
    wick = frozenset(u for u in lv if u not in nine_leaves)
    w = build_W(t, table, pi, wick, frozenset({nine, inner_cherry}), frozenset())
    assert len(w.nodes) == 1
    top = w.nodes[0]
    assert top.taylor == "-Y"
    assert len(top.children) == 1
    assert top.children[0].subtree[0] == tuple(sorted(inner_cherry.nodes))
    # the inner cherry's own pair is integrated at the child level
    assert top.children[0].cu_blocks == (tuple(cherry_leaves),)
    assert (tuple(others),) == top.cu_blocks


def test_order_independence(phi4):
    t, table, cum = phi4.t131, phi4.table, phi4.cum
    divs = [s for s, _ in div_enumerate(t, table, cum)]
    cherries = [s for s in divs if len(s.edges) == 4]
    pair = [c for c in cherries if t.root in c.nodes][:1] + [
        c for c in cherries if t.root not in c.nodes
    ][:1]
    lv = sorted(t.leaf_nodes(table))
    pi = frozenset(
        {
            frozenset(t.restrict(pair[0]).leaf_nodes(table)),
            frozenset(t.restrict(pair[1]).leaf_nodes(table)),
        }
    )
    wick = frozenset(u for u in lv if not any(u in b for b in pi))
    a = build_W(t, table, pi, wick, frozenset(pair), frozenset())
    b = build_W(t, table, pi, wick, frozenset(reversed(pair)), frozenset())
    assert a == b


def test_interval_expansion_singletons(phi4):
    t, table, cum = phi4.t111, phi4.table, phi4.cum
    lv = sorted(t.leaf_nodes(table))
    pi = frozenset({frozenset(lv[:2])})
    divs = [
        s
        for s, _ in div_enumerate(t, table, cum)
        if compatible_partition(t, table, frozenset([s]), pi)
    ]
    cherry = divs[0]
    res = interval_expansion_check(
        t, table, pi, frozenset({lv[2]}),
        frozenset({cherry}), frozenset({cherry}), frozenset(), frozenset(),
    )
    assert res["pass"] and res["terms"] == 1


def test_interval_expansion_111(phi4):
    t, table, cum = phi4.t111, phi4.table, phi4.cum
    lv = sorted(t.leaf_nodes(table))
    pi = frozenset({frozenset(lv[:2])})
    divs = [
        s
        for s, _ in div_enumerate(t, table, cum)
        if compatible_partition(t, table, frozenset([s]), pi)
    ]
    res = interval_expansion_check(
        t, table, pi, frozenset({lv[2]}),
        frozenset(), frozenset({divs[0]}), frozenset(), frozenset(),
    )
    assert res["pass"] and res["terms"] == 2


def test_interval_expansion_211(kpz):
    t, table, cum = kpz.t211, kpz.table, kpz.cum
    (e, _) = cut_enumerate(t, table)[0]
    divs = div_enumerate(t, table, cum)
    s3 = [
        s
        for s, w in divs
        if w == 2 * KAPPA and e not in s.edges and t.root not in s.nodes
    ][0]
    s3_leaves = sorted(t.restrict(s3).leaf_nodes(table))
    pi = frozenset({frozenset(s3_leaves)})
    wick = frozenset(u for u in t.leaf_nodes(table) if u not in s3_leaves)
    res = interval_expansion_check(
        t, table, pi, wick, frozenset(), frozenset({s3}), frozenset(), frozenset({e})
    )
    assert res["pass"] and res["terms"] == 4


def test_interval_expansion_from_fibers(phi4, kpz):
    """Intervals drawn from the safe-projection reorganization expand
    correctly."""
    rng = random.Random(12)
    checked = 0
    for setting, tree in ((kpz, kpz.t211), (phi4, phi4.t111)):
        table, cum = setting.table, setting.cum
        leaves = sorted(tree.leaf_nodes(table))
        for pi in leaf_partitions(tree, table, cum, ground=leaves[: len(leaves) - len(leaves) % 2]):
            wick = frozenset(u for u in leaves if not any(u in b for b in pi))
            eu = EdgeUniverse(tree, table, pi)
            univ = [s for s, _ in div_enumerate(tree, table, cum, effective=False)]
            compat = forests_compatible_with(tree, table, univ, pi)
            cuts = [e for e, _ in cut_enumerate(tree, table)]
            for _ in range(4):
                n = eu.random_assignment(rng, 0, 32)
                out = reorganize(eu, compat, cuts, n)
                for fib in list(out["fibers"].values())[:3]:
                    res = interval_expansion_check(
                        tree, table, pi, wick,
                        frozenset(fib.forests.small), frozenset(fib.forests.big),
                        frozenset(fib.cuts.small), frozenset(fib.cuts.big),
                    )
                    assert res["pass"]
                    checked += 1
            break
    assert checked >= 8
