import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_oracle
from conftest import (
    BPHZ_TERMS,
    KAPPA,
    KPZ,
    colored_trees,
    decorated_trees,
    multiindices,
    spine_subtrees,
    spine_tree,
)
from renormforest.scaling import MultiIndex, ZERO_EXT, ZERO_MI
from renormforest.trees import (
    DecoratedTree,
    StructureError,
    SubForest,
    integrate,
    noise,
    poly,
    tree_product,
)
from renormforest.workbench import Workbench, parse_config
from tree_oracle import code, embedded_key, relabel_canonical, scan

ROOT = Path(__file__).resolve().parent.parent


def test_homogeneity_examples(phi4, kpz):
    assert phi4.t1.homogeneity(phi4.table) == Fraction(-1, 2) - KAPPA
    assert poly().homogeneity(phi4.table) == 0
    # the two-noise branch pair of the chain tree
    cherry = tree_product(kpz.il, kpz.il)
    assert cherry.homogeneity(kpz.table) == -1 - 2 * KAPPA


def test_build_ops(phi4):
    # unit of the tree product
    assert tree_product(poly(), phi4.t1).canonical_code() == phi4.t1.canonical_code()
    # integrate attaches one kernel edge above the noise
    t = integrate("I", ZERO_MI, noise("Xi"), phi4.table)
    assert len(t.kernel_edges(phi4.table)) == 1
    assert len(t.noise_edges(phi4.table)) == 1
    # triple product has three kernel edges from one root
    assert len(phi4.t111.kernel_edges(phi4.table)) == 3
    assert all(e[0] == phi4.t111.root for e in phi4.t111.kernel_edges(phi4.table))
    with pytest.raises(ValueError):
        integrate("Xi", ZERO_MI, poly(), phi4.table)


def test_product_merges_root_labels(phi4):
    a = poly(MultiIndex({0: 1}))
    b = poly(MultiIndex({1: 2}))
    ab = tree_product(a, b)
    assert ab.node_dec(ab.root) == MultiIndex({0: 1, 1: 2})


def test_homogeneity_additive(phi4):
    rng = random.Random(7)
    pool = [phi4.t1, phi4.t11, phi4.t111, phi4.xi, poly(MultiIndex({2: 1}))]
    for _ in range(25):
        a, b = rng.choice(pool), rng.choice(pool)
        assert tree_product(a, b).homogeneity(phi4.table) == a.homogeneity(
            phi4.table
        ) + b.homogeneity(phi4.table)


def test_integrate_shifts_homogeneity(phi4):
    rng = random.Random(11)
    pool = [phi4.t1, phi4.t11, phi4.xi]
    ks = [ZERO_MI, MultiIndex({1: 1}), MultiIndex({0: 1})]
    for _ in range(20):
        tau, k = rng.choice(pool), rng.choice(ks)
        got = integrate("I", k, tau, phi4.table).homogeneity(phi4.table)
        want = tau.homogeneity(phi4.table) + 2 - k.sdeg(phi4.scaling)
        assert got == want


def test_modes_agree_without_coloring(phi4):
    for t in (phi4.t1, phi4.t111, phi4.t131):
        plain = t.homogeneity(phi4.table, "plain")
        assert t.homogeneity(phi4.table, "minus") == plain
        assert t.homogeneity(phi4.table, "plus") == plain


def test_canonical_form_invariance(phi4):
    t = phi4.t131
    ren = {u: u + 100 for u in t.nodes}
    assert t.relabel(ren).canonical_code() == t.canonical_code()
    # reordering the product factors makes no difference
    other = tree_product(
        integrate("I", ZERO_MI, phi4.t111, phi4.table), phi4.t1, phi4.t1
    )
    assert other.canonical_code() == t.canonical_code()
    assert phi4.t11.canonical_code() != phi4.t111.canonical_code()


def test_embedded_vs_erased(phi4):
    """Mirror subtrees of the spine: distinct as embedded i-trees, equal
    once the embedding is erased."""
    t = spine_tree(phi4.table)
    subs = spine_subtrees(t)
    s3, s4 = subs["S3"], subs["S4"]
    p3, p4 = t.restrict(s3), t.restrict(s4)
    assert p3.embedded_key() != p4.embedded_key()
    assert p3.canonical_code() == p4.canonical_code()


def test_subforest_algebra(phi4):
    t = spine_tree(phi4.table)
    with pytest.raises(StructureError):
        t.subforest_components(SubForest(frozenset({0}), frozenset({(0, 1)})))


def test_all_subtrees_contains_worked_subtrees(kpz):
    """Every shaded subtree of the chain-tree walkthrough appears in the
    exhaustive enumeration."""
    t = kpz.t211
    table = kpz.table
    got = {s.sort_key() for s in t.all_subtrees(table)}
    divs_expected = 0
    # the top cherry: one node with both noise branches
    leaves = sorted(t.leaf_nodes(table))
    for s in t.all_subtrees(table):
        piece = t.restrict(s)
        if (
            len(piece.kernel_edges(table)) == 2
            and len(piece.leaf_nodes(table)) == 2
            and len(piece.true_nodes(table)) == 3
        ):
            divs_expected += 1
    assert divs_expected >= 1
    assert t.full_subforest().sort_key() in got


def assert_all_subtrees_match_oracle(t: DecoratedTree, table):
    for min_true_nodes in (1, 2):
        got = t.all_subtrees(table, min_true_nodes)
        assert got == tree_oracle.all_subtrees(t, table, min_true_nodes), min_true_nodes


def test_all_subtrees_matches_oracle_on_basis_trees():
    """The same list in the same order as the bitmask growth, on the 15
    basis trees of both models."""
    seen = 0
    for model in sorted(BPHZ_TERMS):
        text = (ROOT / "configs" / f"{model}.json").read_text(encoding="utf-8")
        wb = Workbench(parse_config(text))
        for t in wb.basis():
            assert_all_subtrees_match_oracle(t, wb.config.table)
            seen += 1
    assert seen == 15


@settings(max_examples=60, deadline=None)
@given(decorated_trees())
def test_all_subtrees_matches_oracle_on_random_trees(t):
    assert_all_subtrees_match_oracle(t, KPZ.table)


def test_disappearing_noises(kpz):
    """A leaf node of the ambient tree can be a noise-free true node of a
    subtree when its noise edge is left out."""
    t = kpz.t211
    table = kpz.table
    found = False
    for s in t.all_subtrees(table):
        piece = t.restrict(s)
        ambient_leaves = t.leaf_nodes(table)
        for u in piece.true_nodes(table):
            if u in ambient_leaves and u not in piece.leaf_nodes(table):
                found = True
    assert found


def test_noise_structure_checks(phi4):
    with pytest.raises(StructureError):  # noise edge must be maximal
        DecoratedTree(root=0, edges={(0, 1): "Xi", (1, 2): "I"}, table=phi4.table)
    with pytest.raises(StructureError):  # one noise edge per parent
        DecoratedTree(
            root=0, edges={(0, 1): "Xi", (0, 2): "Xi"}, table=phi4.table
        )


def test_contract_colored(phi4):
    """Collapsing a color-1 cherry of the triple tree leaves one branch."""
    t = phi4.t111
    table = phi4.table
    cherries = [
        s
        for s in t.all_subtrees(table, min_true_nodes=2)
        if len(t.restrict(s).leaf_nodes(table)) == 2
        and t.root in s.nodes
        and len(s.edges) == 4
    ]
    colored = t.with_(hat1=cherries[0])
    contracted = colored.contract_colored(table)
    assert contracted.canonical_code() == phi4.t1.canonical_code()


# -- the per-tree indexes against linear scans and recursion --------------------


def assert_indexes_match_scans(t: DecoratedTree):
    for u in t.nodes | {max(t.nodes) + 1}:
        assert t.node_dec(u) == scan(t.node_dec_items, u, ZERO_MI)
        assert t.o_label(u) == scan(t.o_label_items, u, ZERO_EXT)
    for e, ty in t.edge_items:
        assert t.edge_type(e) == ty
        assert t.edge_dec(e) == scan(t.edge_dec_items, e, ZERO_MI)
    assert t.canonical_code() == code(t, t.root)
    relabelled = relabel_canonical(t)
    assert t.relabel_canonical() == relabelled
    assert t.relabel_canonical().canonical_code() == code(relabelled, relabelled.root)


@settings(max_examples=80, deadline=None)
@given(colored_trees(), st.data())
def test_indexed_tree_matches_scans(t, data):
    """A random `with_` edit of a random colored tree: the dict lookups,
    the bottom-up AHU codes and the embedded key agree with linear scans,
    recursion and a key built from the arguments; `==`, equal keys and
    equal hashes agree; the tree edited from is unchanged; and a coloring
    that overlaps, or an o label off the color-1 forest, still raises."""
    table = KPZ.table
    other = data.draw(colored_trees(base=t))
    parts = {
        "node_dec": dict(other.node_dec_items),
        "edge_dec": {e: data.draw(multiindices()) for e in t.kernel_edges(table)},
        "hat1": other.hat1,
        "hat2": other.hat2,
        "o_label": dict(other.o_label_items),
    }
    edit = {k: parts[k] for k in data.draw(st.sets(st.sampled_from(sorted(parts))))}
    args = {
        "node_dec": dict(t.node_dec_items),
        "edge_dec": dict(t.edge_dec_items),
        "hat1": t.hat1,
        "hat2": t.hat2,
        "o_label": dict(t.o_label_items),
        **edit,
    }
    key = t.embedded_key()
    if args["hat1"].nodes & args["hat2"].nodes or not args["o_label"].keys() <= args["hat1"].nodes:
        with pytest.raises(StructureError):
            t.with_(**edit)
        return
    edited = t.with_(**edit)
    fresh = DecoratedTree(t.root, t.edges, **args)
    assert t.embedded_key() == key
    assert edited.embedded_key() == embedded_key(t.root, t.edges, **args)
    for tree in (t, edited, fresh):
        assert_indexes_match_scans(tree)
    trees = (t, edited, fresh, other)
    for a, b in itertools.combinations(trees, 2):
        same = a.embedded_key() == b.embedded_key()
        assert (a == b) == same == (hash(a) == hash(b))
    assert edited == fresh
    # a second parent for a node is refused, with the edges replaced
    if len(t.nodes) > 1:
        c = max(t.nodes - {t.root})
        x = min(t.nodes - {t.parent(c)})
        with pytest.raises(StructureError):
            edited.with_(edges={**edited.edges, (x, c): "t"})
