import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KPZ, ROOT, analyses, decorated_trees
from multiscale_oracle import (
    TagScan,
    dangerous_extension,
    exhaustive_path_scales,
    external_tags,
    is_interval_of,
    reorganize,
    tag_set_int_ext,
)
from renormforest.forests import (
    all_forests,
    cut_enumerate,
    div_enumerate,
    forest_parents,
    leaf_partitions,
    nested_or_disjoint,
)
from renormforest.multiscale import (
    STAR,
    EdgeUniverse,
    harvested_cuts,
    int_ext,
    internal_tags,
    path_scale,
    safe_projection,
)
from renormforest.trees import StructureError
from renormforest.workbench import DEFAULT_CAPS, Workbench, parse_config


def compatible_forests(setting, t, pi):
    """F_pi: the forests over every divergent subtree of `t`, effective or
    not, that the partition admits."""
    return all_forests(analyses(setting)(t).compatible[pi], DEFAULT_CAPS["max_div"])


def _setup(kpz, pi_blocks=None):
    t, table = kpz.t211, kpz.table
    leaves = sorted(t.leaf_nodes(table))

    def hops(u):
        n = 0
        while u != t.root:
            u = t.parent(u)
            n += 1
        return n

    by_depth = sorted(leaves, key=hops)
    v1, v2 = by_depth[0], by_depth[1]
    v3, v4 = sorted(by_depth[2:])
    if pi_blocks is None:
        pi_blocks = [(v3, v4)]
    pi = frozenset(frozenset(b) for b in pi_blocks)
    eu = EdgeUniverse(t, table, pi)
    univ = [s for s, _ in div_enumerate(t, table)]
    compat = compatible_forests(kpz, t, pi)
    return t, table, eu, univ, compat, (v1, v2, v3, v4)


def assert_matches_tag_scan(t, table, pi):
    """The universe's tag order and endpoint masks, and its mask-based
    internal and external edges of every subtree, equal the tag scan's."""
    eu, scan = EdgeUniverse(t, table, pi), TagScan(t, table, pi)
    assert list(eu.tags) == scan.all_tags()
    assert eu.verts == (STAR, *sorted(t.true_nodes(table)))
    for tag in eu.tags:
        assert eu.masks[tag] == sum(1 << eu.verts.index(v) for v in scan.endpoints(tag))
    for s in t.all_subtrees():
        assert internal_tags(eu, s) == scan.internal_tags(s)
        assert external_tags(eu, s) == scan.external_tags(s)


@pytest.mark.parametrize("model", ["kpz", "phi4_3"])
def test_edge_sets_match_tag_scan_on_basis_trees(model):
    """Every basis tree, every admissible leaf partition of every Wick set,
    every subtree."""
    wb = Workbench(parse_config((ROOT / "configs" / f"{model}.json").read_text(encoding="utf-8")))
    for t in wb.basis():
        for pi in dict.fromkeys(pi for _, pi in wb.analysis(t).gaussian_classes):
            assert_matches_tag_scan(t, wb.config.table, pi)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_edge_sets_match_tag_scan_on_random_trees(data):
    t = data.draw(decorated_trees())
    leaves = sorted(t.leaf_nodes(KPZ.table))
    paired = data.draw(st.lists(st.sampled_from(leaves), unique=True) if leaves else st.just([]))
    pis = leaf_partitions(t, KPZ.table, KPZ.cum, ground=paired)
    pi = data.draw(st.sampled_from(pis)) if pis else frozenset()
    assert_matches_tag_scan(t, KPZ.table, pi)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_int_ext_matches_tag_sets_on_random_forests(data):
    """On random trees and partitions, every member of a random forest of
    subtrees (divergent or not) gets the scales that the set algebra on
    tag sets gives, or the same error where that raises: a subtree whose
    children hold all its internal edges, or whose parent holds none of
    its external ones."""
    t = data.draw(decorated_trees(max_edges=8))
    leaves = sorted(t.leaf_nodes(KPZ.table))
    paired = data.draw(st.lists(st.sampled_from(leaves), unique=True) if leaves else st.just([]))
    pis = leaf_partitions(t, KPZ.table, KPZ.cum, ground=paired)
    pi = data.draw(st.sampled_from(pis)) if pis else frozenset()
    eu = EdgeUniverse(t, KPZ.table, pi)
    forest: list = []
    for s in data.draw(st.lists(st.sampled_from(t.all_subtrees()), min_size=1, max_size=4)):
        if all(nested_or_disjoint(s, x) and s != x for x in forest):
            forest.append(s)
    parents = forest_parents(frozenset(forest))
    n = eu.random_assignment(random.Random(data.draw(st.integers(0, 2**32))), 0, 9)
    for s in forest:
        try:
            want = tag_set_int_ext(eu, s, parents, n)
        except StructureError as err:
            with pytest.raises(StructureError, match=re.escape(str(err))):
                int_ext(eu, s, parents, n)
        else:
            assert int_ext(eu, s, parents, n) == want


def test_int_ext_constant(kpz):
    t, table, eu, univ, compat, _ = _setup(kpz)
    s = [x for x in univ if len(x.edges) == 4][0]
    n = {tag: 7 for tag in eu.tags}
    assert int_ext(eu, s, forest_parents(frozenset({s})), n) == (7, 7)


def test_int_ext_dangerous(kpz):
    """Internal scales 9,9,8 against externals at most 5."""
    t, table, eu, univ, compat, (v1, v2, v3, v4) = _setup(kpz, None)
    # S3: the two-level chain with leaves v2, v3
    s3 = [
        s
        for s in univ
        if len(s.edges) == 5
        and kpz.t211.root not in s.nodes
        and {v2, v3} <= s.nodes
        and v4 not in s.nodes
    ][0]
    eu = EdgeUniverse(t, table, frozenset({frozenset({v2, v3})}))
    internal = sorted(e for e in t.restrict(s3).kernel_edges(table))
    n = {tag: 5 for tag in eu.tags}
    n[("K", internal[0])] = 9
    n[("K", internal[1])] = 9
    n[("K", internal[2])] = 8
    n[("pi", tuple(sorted((v2, v3))))] = 9
    i, e = int_ext(eu, s3, forest_parents(frozenset({s3})), n)
    assert (i, e) == (8, 5)
    assert safe_projection(eu, frozenset({s3}), n) == frozenset()


def test_int_ext_nested_exclusion(kpz):
    """A child's internal edges leave the parent's internal set."""
    t, table, eu, univ, compat, (v1, v2, v3, v4) = _setup(kpz)
    cherry = [s for s in univ if {v3, v4} <= s.nodes and len(s.edges) == 5][0]
    bigger = [
        s for s in univ if cherry.nodes < s.nodes and nested_or_disjoint(s, cherry)
    ]
    s_big = min(bigger, key=lambda s: len(s.nodes))
    n = {tag: 3 for tag in eu.tags}
    for e in t.restrict(cherry).kernel_edges(table):
        n[("K", e)] = 50
    i_alone, _ = int_ext(eu, s_big, forest_parents(frozenset({s_big})), n)
    i_nested, _ = int_ext(eu, s_big, forest_parents(frozenset({s_big, cherry})), n)
    assert i_alone == 3
    assert i_nested == 3 or i_nested >= i_alone
    # make every non-child edge high: the child's edges no longer count
    n2 = {tag: 50 for tag in eu.tags}
    for e in t.restrict(cherry).kernel_edges(table):
        n2[("K", e)] = 1
    n2[("pi", tuple(sorted((v3, v4))))] = 1
    i2_alone, _ = int_ext(eu, s_big, forest_parents(frozenset({s_big})), n2)
    i2_nested, _ = int_ext(eu, s_big, forest_parents(frozenset({s_big, cherry})), n2)
    assert i2_alone == 1
    assert i2_nested == 50


def test_constant_scales_all_safe(kpz):
    t, table, eu, univ, compat, _ = _setup(kpz)
    n = {tag: 11 for tag in eu.tags}
    for f in compat:
        assert safe_projection(eu, f, n) == f


def test_path_scale_examples(kpz):
    t, table, eu, univ, compat, _ = _setup(kpz)
    rng = random.Random(5)
    n = eu.random_assignment(rng, 0, 9)
    verts = sorted(t.true_nodes(table)) + [STAR]
    want = exhaustive_path_scales(eu, frozenset(), n)
    for _ in range(6):
        u, v = rng.sample(verts, 2)
        assert path_scale(eu, u, v, frozenset(), n) == want[frozenset({u, v})]
    # two parallel routes: the wide one wins
    u = sorted(t.true_nodes(table))[0]
    n2 = {tag: 0 for tag in eu.tags}
    n2[("star", u)] = 9
    got = path_scale(eu, STAR, u, frozenset(), n2)
    assert got == 9


def test_path_scale_monotone_in_forest(kpz):
    t, table, eu, univ, compat, _ = _setup(kpz)
    rng = random.Random(17)
    chains = [f for f in compat if len(f) == 2]
    verts = sorted(t.true_nodes(table))
    for f in chains:
        smaller = frozenset([next(iter(f))])
        for _ in range(5):
            n = eu.random_assignment(rng, 0, 20)
            u, v = rng.sample(verts, 2)
            assert path_scale(eu, u, v, f, n) >= path_scale(eu, u, v, smaller, n)


def random_setting(rng, phi4, kpz):
    setting = rng.choice([phi4, kpz])
    t = rng.choice(
        [phi4.t111, phi4.t131] if setting is phi4 else [kpz.t211]
    )
    table, cum = setting.table, setting.cum
    leaves = sorted(t.leaf_nodes(table))
    parts = leaf_partitions(t, table, cum, ground=leaves)
    subsets = []
    for r in range(0, len(leaves) + 1, 2):
        for kept in [tuple(rng.sample(leaves, r))]:
            rest = [u for u in leaves if u not in kept]
            ps = leaf_partitions(t, table, cum, ground=rest)
            if ps:
                subsets.append(rng.choice(ps))
    pi = rng.choice(subsets) if subsets else frozenset()
    return setting, t, table, pi


def test_path_scale_matches_exhaustive_under_forests(phi4, kpz):
    """The widest-path search against the subset enumeration, under a
    non-empty compatible forest, on every vertex pair, among them the two
    pairs `harvested_cuts` compares for each cut avoiding the forest.  The
    enumeration doubles with each tag, so universes stay at 14 tags."""
    rng = random.Random(20261019)
    draws = 0
    while draws < 30:
        setting, t, table, pi = random_setting(rng, phi4, kpz)
        eu = EdgeUniverse(t, table, pi)
        if len(eu.tags) > 14:
            continue
        compat = [f for f in compatible_forests(setting, t, pi) if f]
        if not compat:
            continue
        f = frozenset(rng.choice(compat))
        n = eu.random_assignment(rng, 0, 9)
        want = exhaustive_path_scales(eu, f, n)
        for pair, scale in want.items():
            assert path_scale(eu, *sorted(pair, key=str), f, n) == scale
        draws += 1


def test_property_suite(phi4, kpz):
    """The randomized battery: projection idempotence, interval pullbacks
    with the dangerous extension as maximum, invariance of the scales,
    harvested cuts compatible with the projection, and the exact fiber
    cover, over 500 draws."""
    rng = random.Random(20260809)
    draws = 0
    while draws < 500:
        setting, t, table, pi = random_setting(rng, phi4, kpz)
        eu = EdgeUniverse(t, table, pi)
        univ = [s for s, _ in div_enumerate(t, table)]
        compat = compatible_forests(setting, t, pi)
        cuts = [e for e, _ in cut_enumerate(t, table)]
        n = eu.random_assignment(rng, 0, 64)
        f = frozenset(rng.choice(compat))
        safe = safe_projection(eu, f, n)
        # idempotence
        assert safe_projection(eu, safe, n) == safe
        # invariance: scales computed in F and in P[F] agree member-wise (a
        # member of F outside P[F] is read in P[F] + {S})
        parents = forest_parents(f)
        for s in f:
            assert int_ext(eu, s, parents, n) == int_ext(eu, s, forest_parents(safe | {s}), n)
        # pullback is the interval up to the dangerous extension
        compat_univ = [s for s in univ if s in {x for g in compat for x in g}]
        g_ext = dangerous_extension(eu, safe, compat_univ, n)
        fiber = [
            x for x in compat if safe_projection(eu, x, n) == safe
        ]
        iv = is_interval_of(compat, fiber)
        assert iv is not None and iv.small == safe
        assert iv.big == frozenset(safe | g_ext)
        # the harvested cuts avoid the forest by construction
        harv = harvested_cuts(eu, f, cuts, n)
        used = {e for s in f for e in s.edges}
        assert not (harv & used)
        # exact fiber cover of all admissible pairs
        reorganize(eu, compat, cuts, n)
        draws += 1
    assert draws >= 500


def test_reorganize_trivial(phi4):
    t = phi4.xi
    eu = EdgeUniverse(t, phi4.table, frozenset())
    out = reorganize(eu, [frozenset()], [], {tag: 0 for tag in eu.tags})
    assert out["pairs"] == 1
    assert len(out["fibers"]) == 1


def test_reorganize_kpz_counts(kpz):
    t, table, eu0, univ, compat0, (v1, v2, v3, v4) = _setup(kpz)
    pi = frozenset({frozenset({v2, v3})})
    eu = EdgeUniverse(t, table, pi)
    compat = compatible_forests(kpz, t, pi)
    cuts = [e for e, _ in cut_enumerate(t, table)]
    rng = random.Random(99)
    for _ in range(100):
        n = eu.random_assignment(rng, 0, 64)
        out = reorganize(eu, compat, cuts, n)
        total = sum(
            sum(1 for f in compat if f in fib.forests) * len(fib.cuts.members())
            for fib in out["fibers"].values()
        )
        assert total == out["pairs"]


def test_reorganize_phi4_cover(phi4):
    t, table = phi4.t131, phi4.table
    leaves = sorted(t.leaf_nodes(table))
    pi = frozenset({frozenset(leaves[1:3]), frozenset(leaves[3:5])})
    eu = EdgeUniverse(t, table, pi)
    compat = compatible_forests(phi4, t, pi)
    cuts = [e for e, _ in cut_enumerate(t, table)]
    rng = random.Random(7)
    for _ in range(10):
        n = eu.random_assignment(rng, 0, 64)
        reorganize(eu, compat, cuts, n)


def test_int_ext_structural_error(phi4):
    t = phi4.xi
    eu = EdgeUniverse(t, phi4.table, frozenset())
    from renormforest.trees import SubForest

    lone = SubForest(frozenset({t.root}), frozenset())
    with pytest.raises(StructureError):
        int_ext(eu, lone, forest_parents(frozenset({lone})), {tag: 0 for tag in eu.tags})
