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
from renormforest import trees
from renormforest.forests import div_enumerate
from renormforest.hopf import delta_minus
from renormforest.scaling import MultiIndex, ZERO_MI
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
from hopf_oracle import connected_edge_sets, plus_homogeneity
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
    """Without a coloring, |.|_+ (the oracle's) and |.|_- (which
    `hopf.in_X_minus` reads only on uncolored trees) are |.|_s."""
    for t in (phi4.t1, phi4.t111, phi4.t131):
        assert plus_homogeneity(t, phi4.table) == t.homogeneity(phi4.table)


def test_canonical_form_invariance(phi4):
    t = phi4.t131
    ren = {u: u + 100 for u in t.nodes}
    assert tree_oracle.relabel(t, ren).canonical_code() == t.canonical_code()
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
    with pytest.raises(StructureError):  # nodes of the tree, an edge that is not
        t.subforest_components(SubForest(frozenset({0, 2}), frozenset({(0, 2)})))


def test_all_subtrees_contains_worked_subtrees(kpz):
    """Every shaded subtree of the chain-tree walkthrough appears in the
    exhaustive enumeration."""
    t = kpz.t211
    table = kpz.table
    got = {s.sort_key() for s in t.all_subtrees()}
    divs_expected = 0
    # the top cherry: one node with both noise branches
    for s in t.all_subtrees():
        piece = t.restrict(s)
        if (
            len(piece.kernel_edges(table)) == 2
            and len(piece.leaf_nodes(table)) == 2
            and len(piece.true_nodes(table)) == 3
        ):
            divs_expected += 1
    assert divs_expected >= 1
    assert SubForest(t.nodes, t.edge_set).sort_key() in got


def assert_all_subtrees_match_oracle(t: DecoratedTree, table):
    """The oracle's list with no filter, which is also its list of the
    subtrees with a true node (a fictitious node has no child), and the
    subtrees with two true nodes, which the hypotheses check."""
    got = t.all_subtrees()
    assert got == tree_oracle.all_subtrees(t, table, 0) == tree_oracle.all_subtrees(t, table, 1)
    fict = t.fictitious_nodes(table)
    two = [s for s in got if len(s.nodes - fict) >= 2]
    assert two == tree_oracle.all_subtrees(t, table, 2)


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


def test_homogeneity_matches_scan_on_basis_trees():
    """The shape's label-free sum with the labels added, against the
    per-call sum, on the 15 basis trees of both models and every piece of
    each."""
    for model in sorted(BPHZ_TERMS):
        text = (ROOT / "configs" / f"{model}.json").read_text(encoding="utf-8")
        wb = Workbench(parse_config(text))
        table = wb.config.table
        for t in wb.basis():
            for piece in [t] + [t.restrict(s) for s in t.all_subtrees()]:
                assert piece.homogeneity(table) == tree_oracle.homogeneity(piece, table)


@settings(max_examples=80, deadline=None)
@given(colored_trees(), st.booleans())
def test_homogeneity_matches_scan_on_labelled_trees(t, bare_first):
    """Edge labels, and node labels on true and fictitious nodes, on a tree
    and one without labels that shares its shape, read in either order."""
    table = KPZ.table
    bare = t.with_(node_dec={}, edge_dec={})
    for tree in (bare, t) if bare_first else (t, bare):
        h = tree.homogeneity(table)
        assert type(h) is Fraction and h == tree_oracle.homogeneity(tree, table)


def test_disappearing_noises(kpz):
    """A leaf node of the ambient tree can be a noise-free true node of a
    subtree when its noise edge is left out."""
    t = kpz.t211
    table = kpz.table
    found = False
    for s in t.all_subtrees():
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
        for s in t.all_subtrees()
        if len(t.restrict(s).leaf_nodes(table)) == 2
        and t.root in s.nodes
        and len(s.edges) == 4
    ]
    colored = t.with_(hat1=cherries[0])
    contracted = colored.contract_colored(table)
    assert contracted.canonical_code() == phi4.t1.canonical_code()


# -- the per-tree indexes against linear scans and recursion --------------------


def assert_indexes_match_scans(t: DecoratedTree, table):
    types = tree_oracle.leaf_types(t, table)
    assert t.true_nodes(table) == tree_oracle.true_nodes(t, table)
    assert t.leaf_nodes(table) == set(types)
    for u in t.nodes | {max(t.nodes) + 1}:
        assert t.node_dec(u) == scan(t.node_dec_items, u, ZERO_MI)
        assert t.o_label(u) == scan(t.o_label_items, u, ZERO_MI)
        if u in types:
            assert t.leaf_type(u, table) == types[u]
        else:
            with pytest.raises(KeyError, match=f"node {u} carries no noise edge"):
                t.leaf_type(u, table)
    for e, ty in t.edge_items:
        assert t.edge_type(e) == ty
        assert t.edge_dec(e) == scan(t.edge_dec_items, e, ZERO_MI)
    assert t.canonical_code() == code(t, t.root)
    relabelled = relabel_canonical(t)
    assert code(relabelled, relabelled.root) == t.canonical_code()
    if not t.has_coloring():  # a graft drops colorings and o labels
        assert_graft_of_one_tree_is_canonical(t)


@settings(max_examples=80, deadline=None)
@given(colored_trees(), st.data())
def test_indexed_tree_matches_scans(t, data):
    """A random `with_` edit of a random colored tree: the dict lookups,
    the true nodes, the leaves and their noise types, the bottom-up AHU
    codes and the embedded key agree with linear scans,
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
        assert_indexes_match_scans(tree, table)
    trees = (t, edited, fresh, other)
    for a, b in itertools.combinations(trees, 2):
        same = a.embedded_key() == b.embedded_key()
        assert (a == b) == same == (hash(a) == hash(b))
    assert edited == fresh
    # a second parent for a node is refused
    if len(t.nodes) > 1:
        c = max(t.nodes - {t.root})
        x = min(t.nodes - {t.parent(c)})
        with pytest.raises(StructureError):
            DecoratedTree(edited.root, {**edited.edges, (x, c): "t"}, **args)


# -- the shape a tree shares with its `with_` copies ----------------------------


def shape_facts(t: DecoratedTree, table) -> tuple:
    return (
        t.top_down(),
        t.nodes,
        t.edge_set,
        t.kernel_edges(table),
        t.noise_edges(table),
        t.fictitious_nodes(table),
        t.rooted_subtrees(table),
    )


def rooted_subtrees_oracle(t: DecoratedTree, table) -> set:
    """(nodes, edges, boundary) of every subtree that holds the root and
    every noise edge of its nodes, from every connected edge set; the
    boundary is the kernel edges outside it whose parent lies in it."""
    noise = {e for e, ty in t.edge_items if table.is_noise(ty)}
    out = set()
    for edges in itertools.chain([frozenset()], connected_edge_sets(t)):
        ends = frozenset(itertools.chain.from_iterable(edges))
        if edges and t.root not in ends:
            continue
        nodes = ends | {t.root}
        if any(e not in edges for e in noise if e[0] in nodes):
            continue
        boundary = tuple(
            e for e, ty in t.edge_items if table.is_kernel(ty) and e not in edges and e[0] in nodes
        )
        out.add((nodes, edges, boundary))
    return out


@settings(max_examples=80, deadline=None)
@given(colored_trees(), st.data())
def test_shape_facts_of_a_copy_match_a_fresh_tree(t, data):
    """A random `with_` edit of a random colored tree, whose shape has or
    has not worked out its facts first: the copy's `top_down`, node and
    edge sets, kernel and noise edges, fictitious nodes and rooted subtrees
    equal those of a freshly built equal tree and those of scans, and its
    color-1 components are `subforest_components` of its color-1 forest."""
    table = KPZ.table
    if data.draw(st.booleans()):
        shape_facts(t, table)
    other = data.draw(colored_trees(base=t))
    parts = {
        "node_dec": {"node_dec": dict(other.node_dec_items)},
        "edge_dec": {"edge_dec": {e: data.draw(multiindices()) for e in t.kernel_edges(table)}},
        "coloring": {"hat1": other.hat1, "hat2": other.hat2, "o_label": dict(other.o_label_items)},
    }
    edit = {}
    for name in data.draw(st.sets(st.sampled_from(sorted(parts)))):
        edit.update(parts[name])
    edited = t.with_(**edit)
    fresh = DecoratedTree(
        t.root,
        t.edges,
        **{
            "node_dec": dict(t.node_dec_items),
            "edge_dec": dict(t.edge_dec_items),
            "hat1": t.hat1,
            "hat2": t.hat2,
            "o_label": dict(t.o_label_items),
            **edit,
        },
        table=table,
    )
    assert edited == fresh
    assert shape_facts(edited, table) == shape_facts(fresh, table)
    order = edited.top_down()
    assert sorted(order) == sorted(fresh.nodes)
    assert all(order.index(p) < order.index(c) for (p, c), _ in fresh.edge_items)
    assert edited.edge_set == frozenset(fresh.edges)
    assert edited.kernel_edges(table) == tuple(e for e, ty in fresh.edge_items if ty == "t")
    assert edited.noise_edges(table) == tuple(e for e, ty in fresh.edge_items if ty == "l")
    assert edited.fictitious_nodes(table) == frozenset(c for (_, c), ty in fresh.edge_items if ty == "l")
    rooted = [(s.nodes, s.edges, b) for s, b in edited.rooted_subtrees(table)]
    assert len(set(rooted)) == len(rooted)
    assert set(rooted) == rooted_subtrees_oracle(fresh, table)
    assert edited.hat1_components() == fresh.subforest_components(fresh.hat1)


STRAY_COLORINGS = {
    "hat1-off-the-tree": ("hat1", SubForest(frozenset({7}), frozenset({(7, 8)}))),
    "hat2-node-off-the-tree": ("hat2", SubForest(frozenset({9}), frozenset())),
    "hat1-edge-off-the-tree": ("hat1", SubForest(frozenset({1}), frozenset({(5, 6)}))),
    "hat2-edge-leaves-its-nodes": ("hat2", SubForest(frozenset({0}), frozenset({(0, 1)}))),
}


@pytest.mark.parametrize("case", sorted(STRAY_COLORINGS))
def test_colorings_stay_inside_the_tree(case):
    """A coloring whose nodes or edges are not the tree's, or whose edges
    leave its own nodes, is refused when the tree is built and by
    `with_`."""
    name, coloring = STRAY_COLORINGS[case]
    edges = {(0, 1): "t", (1, 2): "l"}
    with pytest.raises(StructureError):
        DecoratedTree(0, edges, **{name: coloring})
    with pytest.raises(StructureError):
        DecoratedTree(0, edges).with_(**{name: coloring})


@pytest.mark.parametrize(
    "edges",
    [{(0, 1): "t", (2, 3): "t"}, {(1, 0): "t"}],
    ids=["disconnected", "edge-into-root"],
)
def test_with_checks_an_unchecked_shape(edges):
    """A malformed shape is refused when the tree is built, so no `with_`
    copy of it is ever made."""
    with pytest.raises(StructureError):
        DecoratedTree(root=0, edges=edges)


def test_shape_facts_are_kept_per_table(phi4):
    """One shape read under KPZ's table and under phi4_3's, in turn and
    through two trees that share it: each table gets its own kernel and
    noise edges, fictitious nodes, rooted subtrees, subtree omegas (in
    `all_subtrees` order, by node set: (0, 1), (0, 1, 2), (0, 1, 2, 3), the
    whole tree, (0, 1, 3), (0, 1, 3, 4), (0, 3), (0, 3, 4), (1, 2) and
    (3, 4)), each omega that of `zero_node_hom`, homogeneity and up-tree
    table, to both of which `copy` adds the 2 of its node label.  The tree
    mixes both tables' types, and an edge of a type the table does not know
    is neither kernel nor noise, so it counts for nothing: in the omegas,
    the homogeneity and the up-tree table alike."""
    kpz, phi = KPZ.table, phi4.table
    t = DecoratedTree(root=0, edges={(0, 1): "t", (1, 2): "l", (0, 3): "I", (3, 4): "Xi"})
    copy = t.with_(node_dec={1: MultiIndex({0: 1})})
    f = Fraction
    want = {
        "kpz": (
            ((0, 1),), ((1, 2),), {2}, [({0}, set(), ((0, 1),)), ({0, 1, 2}, {(0, 1), (1, 2)}, ())],
            [-1, f(51, 100), f(51, 100), f(51, 100), -1, -1, 0, 0, f(151, 100), 0],
            {(0, 1): f(-51, 100), (1, 2): f(-151, 100), (0, 3): 0, (3, 4): 0},
        ),
        "phi": (
            ((0, 3),), ((3, 4),), {4}, [({0}, set(), ((0, 3),)), ({0, 3, 4}, {(0, 3), (3, 4)}, ())],
            [0, 0, -2, f(51, 100), -2, f(51, 100), -2, f(51, 100), 0, f(251, 100)],
            {(0, 1): 0, (1, 2): 0, (0, 3): f(-51, 100), (3, 4): f(-251, 100)},
        ),
    }
    tables = {"kpz": kpz, "phi": phi}
    for tree, name in ((t, "kpz"), (copy, "phi"), (copy, "kpz"), (t, "phi")):
        table = tables[name]
        kernel, noise_edges, fictitious, rooted, omegas, up = want[name]
        assert tree.kernel_edges(table) == kernel
        assert tree.noise_edges(table) == noise_edges
        assert tree.fictitious_nodes(table) == fictitious
        assert [(s.nodes, s.edges, b) for s, b in tree.rooted_subtrees(table)] == rooted
        assert trees.subtree_omegas(tree, table) == list(zip(t.all_subtrees(), omegas))
        assert trees.subtree_omegas(tree, table) == [
            (s, -trees.zero_node_hom(tree, s, table)) for s in t.all_subtrees()
        ]
        # a subtree of omega 0 is not divergent
        want_div = [(s, w) for s, w in zip(t.all_subtrees(), omegas) if w > 0]
        assert trees.divergent_subtrees(tree, table) == want_div
        assert tree.homogeneity(table) == f(-51, 100) + (2 if tree is copy else 0)
        assert trees.up_hom_table(tree, table) == {**up, (0, 1): up[(0, 1)] + (2 if tree is copy else 0)}


# -- every copy through `graft` and `restrict` ---------------------------------------


@st.composite
def labelled_trees(draw, max_edges: int = 5):
    """A `decorated_trees` tree with random node labels, on its root too."""
    t = draw(decorated_trees(max_edges))
    nodes = draw(st.sets(st.sampled_from(sorted(t.nodes))))
    return t.with_(node_dec={u: draw(multiindices()) for u in nodes})


@settings(max_examples=80, deadline=None)
@given(st.lists(labelled_trees(), max_size=3), multiindices())
def test_graft_matches_the_hand_written_copies(factors, k):
    """`integrate` and `tree_product`, one `graft` each, build the trees
    that the hand-written copies they replaced build, compared by embedded
    key: the planted tree of each factor, the product of all of them (its
    root label the sum of theirs), and the planted product."""
    table = KPZ.table
    for t in factors:
        want = tree_oracle.integrate("t", k, t, table)
        assert integrate("t", k, t, table).embedded_key() == want.embedded_key()
    product = tree_product(*factors)
    assert product.embedded_key() == tree_oracle.tree_product(*factors).embedded_key()
    want = tree_oracle.integrate("t", k, product, table)
    assert integrate("t", k, product, table).embedded_key() == want.embedded_key()


def assert_canonical_layout(t: DecoratedTree):
    """The codes `graft` hands its tree are the codes recomputed on it, and
    the tree is its own canonical relabelling."""
    assert t.canonical_code() == code(t, t.root)
    assert relabel_canonical(t).embedded_key() == t.embedded_key()


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(labelled_trees(), colored_trees(max_edges=5)), max_size=3), multiindices())
def test_graft_lays_out_the_canonical_labelling(factors, k):
    """`integrate` and `tree_product` of labelled and colored trees, and
    the planted product: the colorings and o labels, which the graft drops,
    are erased from the codes it reads off the branches."""
    table = KPZ.table
    for t in factors:
        assert_canonical_layout(integrate("t", k, t, table))
    product = tree_product(*factors)
    assert_canonical_layout(product)
    assert_canonical_layout(integrate("t", k, product, table))


def test_graft_lays_out_the_canonical_labelling_on_basis_trees():
    """Every basis tree of both models, each planted under a kernel edge
    of its model, and every product of two of them."""
    for model in sorted(BPHZ_TERMS):
        text = (ROOT / "configs" / f"{model}.json").read_text(encoding="utf-8")
        wb = Workbench(parse_config(text))
        table, basis = wb.config.table, wb.basis()
        (kernel,) = table.kernel_types
        for t in basis:
            assert_canonical_layout(t)
            assert_canonical_layout(integrate(kernel, MultiIndex({0: 1}), t, table))
        for a, b in itertools.combinations_with_replacement(basis, 2):
            assert_canonical_layout(tree_product(a, b))


def assert_graft_of_one_tree_is_canonical(t: DecoratedTree):
    """`tree_product` of one uncolored tree, a graft of its root's branches,
    is the tree that the oracle's recursion relabels canonically: equal
    embedded keys, and equal canonical codes, the graft's handed over and
    the oracle's recomputed."""
    got, want = tree_product(t), relabel_canonical(t)
    assert got.embedded_key() == want.embedded_key()
    assert got.canonical_code() == code(want, want.root) == t.canonical_code()


@settings(max_examples=150, deadline=None)
@given(decorated_trees(max_edges=9), st.data())
def test_graft_of_one_tree_is_its_canonical_relabelling(t, data):
    """`graft` is the one builder of canonical trees: on random KPZ-typed
    trees with derivative decorations on their kernel edges and node labels
    on a random set of their true nodes, a graft of one tree is the tree in
    its canonical labelling."""
    labelled = data.draw(st.sets(st.sampled_from(sorted(t.true_nodes(KPZ.table)))))
    t = t.with_(node_dec={u: data.draw(multiindices()) for u in sorted(labelled)})
    assert_graft_of_one_tree_is_canonical(t)


def test_graft_of_one_tree_is_canonical_on_the_extraction_terms():
    """Every contracted remainder, which the counterterm report builds
    again by one graft as a residual, and every extracted piece of Delta_-
    on every basis tree of both models, under the tree's effective and
    under all its divergent subtrees."""
    checked = 0
    for model in sorted(BPHZ_TERMS):
        text = (ROOT / "configs" / f"{model}.json").read_text(encoding="utf-8")
        wb = Workbench(parse_config(text))
        table = wb.config.table
        for t in wb.basis():
            for candidates in (wb.analysis(t).divergences, div_enumerate(t, table)):
                for extracted, remainder in delta_minus(t, table, candidates).keys():
                    for piece in (remainder.contract_colored(table), *extracted):
                        assert_graft_of_one_tree_is_canonical(piece)
                        checked += 1
    assert checked == 2624


@settings(max_examples=80, deadline=None)
@given(colored_trees(), st.data())
def test_copy_matches_the_hand_written_copies(t, data):
    """`restrict` carries the node and edge labels, the coloring and the o
    labels as the hand-written copy it replaced did, compared by embedded
    key, on every subtree and every single node of the tree under a random
    renaming (`tree_oracle.relabel`).  The leaves of each subtree are those
    of its restriction."""
    table = KPZ.table
    ids = sorted(t.nodes)
    ren = dict(zip(ids, data.draw(st.permutations([u + 1000 for u in ids]))))
    t = tree_oracle.relabel(t, ren)
    singles = [SubForest(frozenset({u}), frozenset()) for u in sorted(t.nodes)]
    for s in t.all_subtrees() + singles:
        piece = t.restrict(s)
        assert piece.embedded_key() == tree_oracle.restrict(t, s).embedded_key()
        assert t.leaves_of(s, table) == piece.leaf_nodes(table)


# the eager fields, then those worked out on their first read
TABLE_FACTS = (
    "kernel", "noise", "fictitious", "true", "leaf_types", "leaves", "homs",
    "hom", "up", "rooted", "divergent",
)


def table_facts(t: DecoratedTree, table) -> dict:
    """Every fact of the tree's `_TableFacts`, the eager ones and those
    worked out on their first read."""
    facts = t._shape.facts(table)
    out = {name: getattr(facts, name) for name in TABLE_FACTS}
    assert vars(facts).keys() - {"shape"} == set(TABLE_FACTS)
    return out


def assert_same_tree(piece: DecoratedTree, fresh: DecoratedTree, table):
    assert piece.embedded_key() == fresh.embedded_key()
    assert piece == fresh and hash(piece) == hash(fresh)
    assert piece.canonical_code() == fresh.canonical_code()
    assert table_facts(piece, table) == table_facts(fresh, table)
    assert trees.subtree_omegas(piece, table) == trees.subtree_omegas(fresh, table)


@settings(max_examples=80, deadline=None)
@given(colored_trees(), st.data())
def test_restrict_matches_a_fresh_build(t, data):
    """Restricted to every subtree and to every rooted subtree, a random
    colored tree with node, edge and o labels, or a random `with_` copy of
    it that shares its sub-shapes, gives the tree a fresh build of the
    restriction gives: the same embedded key, `==`, hash, canonical code
    and facts under the type table.  So does a restriction of a drawn
    piece to each of the piece's own subtrees, whose sub-shapes are those
    of the ambient tree."""
    table = KPZ.table
    if data.draw(st.booleans()):
        t = t.with_(node_dec=dict(data.draw(colored_trees(base=t)).node_dec_items))
    subtrees = t.all_subtrees() + [s for s, _ in t.rooted_subtrees(table)]
    for s in subtrees:
        assert_same_tree(t.restrict(s), tree_oracle.restrict(t, s), table)
    piece = t.restrict(data.draw(st.sampled_from(subtrees)))
    for s in piece.all_subtrees():
        assert_same_tree(piece.restrict(s), tree_oracle.restrict(piece, s), table)


@settings(max_examples=80, deadline=None)
@given(colored_trees(), st.data())
def test_up_hom_table_matches_one_bottom_up_pass(t, data):
    """The up-tree table of a random colored tree with node, edge and o
    labels, and of its restriction to a drawn subtree, equals the one
    bottom-up pass over its labels, edge by edge; a caller that changes
    the table it was handed changes no later table."""
    table = KPZ.table
    piece = t.restrict(data.draw(st.sampled_from(t.all_subtrees()))) if t.edge_items else t
    for tree in (t, piece):
        up = trees.up_hom_table(tree, table)
        assert up == tree_oracle.up_hom_table(tree, table)
        for e in up:
            up[e] += 1
        assert trees.up_hom_table(tree, table) == tree_oracle.up_hom_table(tree, table)


@settings(max_examples=60, deadline=None)
@given(colored_trees())
def test_equal_trees_hash_equal(t):
    """A tree, its `with_` copies that keep its labels, its restriction to
    its own full subforest and a tree rebuilt from its items compare equal,
    with equal hashes: the hash reads the shape's, which `with_` shares and
    which a restriction and a rebuild make anew."""
    rebuilt = DecoratedTree(
        t.root, t.edges, dict(t.node_dec_items), dict(t.edge_dec_items), t.hat1, t.hat2, dict(t.o_label_items)
    )
    copies = [
        t.with_(),
        t.with_(node_dec=dict(t.node_dec_items), edge_dec=dict(t.edge_dec_items), o_label=dict(t.o_label_items)),
        t.with_(hat1=t.hat1_components(), hat2=t.hat2),
        t.restrict(SubForest(t.nodes, t.edge_set)),
        rebuilt,
    ]
    for copy in copies:
        assert copy == t and hash(copy) == hash(t)
    assert rebuilt._shape is not t._shape


def test_restrictions_share_one_sub_shape(phi4):
    """One subforest restricted from two `with_` copies of a tree, and from
    a piece of it that holds the subforest, has one shape, built once; a
    piece that does not hold it refuses it."""
    t = spine_tree(phi4.table)
    subs = spine_subtrees(t)
    big, small = subs["S2"], subs["S3"]  # S3 lies inside S2
    copy = t.with_(node_dec={1: MultiIndex({0: 1})})
    shape = t.restrict(small)._shape
    assert copy.restrict(small)._shape is shape
    assert t.restrict(big).restrict(small)._shape is shape
    with pytest.raises(StructureError):
        t.restrict(small).restrict(big)


def test_with_normalizes_only_the_labels_passed(monkeypatch):
    """A `with_` copy shares the labels it keeps with the tree it is made
    from and normalizes only those it is passed; a label it does not know
    is refused."""
    calls = []
    normalized = trees._normalized

    def counted(labels, key):
        calls.append(labels)
        return normalized(labels, key)

    k = MultiIndex({0: 1})
    t = DecoratedTree(0, {(0, 1): "t", (1, 2): "l"}, edge_dec={(0, 1): k}, table=KPZ.table)
    monkeypatch.setattr(trees, "_normalized", counted)
    copy = t.with_(node_dec={1: k})
    assert len(calls) == 1
    assert copy.edge_dec_items is t.edge_dec_items and copy.o_label_items is t.o_label_items
    assert copy == DecoratedTree(0, t.edges, {1: k}, {(0, 1): k})
    with pytest.raises(TypeError):
        t.with_(node_labels={})


def assert_group_matches_brute_force(t: DecoratedTree):
    """The swaps that `trees.automorphism_swaps` reads off the codes
    generate exactly the brute-force automorphisms."""
    found = tree_oracle.automorphisms(t)
    order = sorted(t.nodes)
    got = tree_oracle.closure(t.nodes, trees.automorphism_swaps(t))
    assert got == {tuple(g[u] for u in order) for g in found}


def test_automorphisms_match_brute_force_on_basis_trees():
    seen = 0
    for model in sorted(BPHZ_TERMS):
        text = (ROOT / "configs" / f"{model}.json").read_text(encoding="utf-8")
        for t in Workbench(parse_config(text)).basis():
            assert_group_matches_brute_force(t)
            seen += 1
    assert seen == 15


@settings(max_examples=100, deadline=None)
@given(colored_trees(max_edges=7), st.booleans())
def test_automorphisms_match_brute_force_on_random_trees(t, bare):
    """Trees of at most 8 nodes, labelled and colored, or bare, which have
    more automorphisms."""
    if bare:
        t = DecoratedTree(root=t.root, edges=t.edges)
    assert_group_matches_brute_force(t)


# S(tau): the order of the automorphism group of basis trees, by hand.  In
# phi4_3 (T2 = I(Xi)^2, T3 = I(Xi)^3, T4 = I(I(Xi)^2) I(Xi)^2 and
# T6 = I(I(Xi)^3) I(Xi)^2) the planted I(Xi) at one node are permuted
# freely; in KPZ T7 = t(t(l)^2) t(t(l)^2) the two halves are swapped, and
# the two leaves of each.
SYMMETRY_FACTORS = {
    ("phi4_3", "T2"): 2,
    ("phi4_3", "T3"): 6,
    ("phi4_3", "T4"): 2 * 2,
    ("phi4_3", "T6"): 6 * 2,
    ("kpz", "T7"): 2 * 2 * 2,
}


def test_symmetry_factors_of_basis_trees():
    for (model, tree_id), want in SYMMETRY_FACTORS.items():
        text = (ROOT / "configs" / f"{model}.json").read_text(encoding="utf-8")
        t = Workbench(parse_config(text)).tree_by_id(tree_id)
        group = tree_oracle.closure(t.nodes, trees.automorphism_swaps(t))
        assert len(group) == len(tree_oracle.automorphisms(t)) == want
