import hashlib
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hopf_oracle
from conftest import (
    BPHZ_TERMS,
    KPZ,
    MAX_DIV,
    analyses,
    colored_trees,
    decorated_trees,
    multiindices,
)
from forest_oracle import (
    depth,
    down_tree,
    forests_with_max,
    membership,
    sigma_positive,
    undecorated_forest_shape,
    up_tree,
)
from formal_oracle import stored_exactly
from generation_oracle import conforms
from hopf_oracle import (
    assert_extractions_match,
    map_keys,
    probe_headrooms,
    recentered_plus_hom,
    recentered_up_hom,
    recentering_cases,
    sorted_pieces,
    strictly_inside,
    tensor,
)
from renormforest import forests as fo
from renormforest import hopf, trees
from renormforest.forests import cut_enumerate, div_enumerate, sigma_negative
from renormforest.formal import FormalSum
from renormforest.hopf import (
    _AntipodeMinus,
    _AntipodePlus,
    _bare_constant_key,
    _extraction_decorations,
    _extractions,
    bphz_expansion,
    counterterm_report,
    delta_minus,
    delta_plus,
    in_X_minus,
    in_X_plus,
)
from renormforest.powercount import TreeAnalysis
from renormforest.rules import CumulantSet
from renormforest.scaling import MultiIndex, ZERO_MI, multiindices_below
from renormforest.trees import (
    EMPTY_SUBFOREST,
    DecoratedTree,
    SubForest,
    _boundary,
    _Shape,
    integrate,
    poly,
    tree_product,
    up_hom_table,
)
from renormforest.workbench import Workbench, parse_config
from tree_oracle import relabel_canonical

ROOT = Path(__file__).resolve().parent.parent
TREES = [(m, f"T{i}") for m in sorted(BPHZ_TERMS) for i in range(len(BPHZ_TERMS[m]))]


def cherry_subtrees(t, table):
    return [
        s
        for s in t.all_subtrees()
        if len(t.restrict(s).leaf_nodes(table)) == 2
        and len(t.restrict(s).kernel_edges(table)) == 2
        and len(s.edges) == 4
    ]


def test_membership(phi4):
    t = phi4.t111
    table = phi4.table
    cherry = cherry_subtrees(t, table)[0]
    piece = t.restrict(cherry)
    assert in_X_minus(piece, table)
    assert not in_X_minus(piece.with_(node_dec={piece.root: MultiIndex({0: 1})}), table)
    full = SubForest(t.nodes, t.edge_set)
    assert membership(t.with_(hat2=full), table)["in_X_plus"]


def test_x_plus_dangling(kpz):
    t = kpz.t211
    table = kpz.table
    e = cut_enumerate(t, table)[0][0]
    base = down_tree(t, [e])
    up = up_hom_table(t, table)
    assert in_X_plus(t.with_(hat2=base), table, up)
    # coloring just the root leaves a negative dangling tree
    root_only = SubForest(frozenset({t.root}), frozenset())
    assert not in_X_plus(t.with_(hat2=root_only), table, up)


def test_expansion_pieces_refuse_trees_outside_their_domain(kpz):
    """Each guard raises: Delta_-, the expansion and the report on a
    colored tree (color 2 at the root, or color 1 alone, which overlaps no
    color 2 and would be expanded without the guard), Delta_+ on a tree
    with color 2, A_- on pieces outside X_- (homogeneity 0, a root label, a
    coloring), and A_+ on pieces without color 2 (the bare node among
    them, which has no uncolored edge either) and on a piece whose dangling
    tree is not positive."""
    t, table = kpz.t211, kpz.table
    root_only = SubForest(frozenset({t.root}), frozenset())
    colored = t.with_(hat2=root_only)
    listed = div_enumerate(t, table)
    color1_only = t.with_(hat1=listed[0][0])
    for tree in (colored, color1_only):
        with pytest.raises(ValueError, match="uncolored"):
            delta_minus(tree, table, listed)
        with pytest.raises(ValueError, match="uncolored"):
            bphz_expansion(tree, table)
        with pytest.raises(ValueError, match="uncolored"):
            counterterm_report(tree, table, kpz.cum, listed)
    with pytest.raises(ValueError, match="color <= 1"):
        delta_plus(colored, table)
    outside_minus = (
        poly(),
        kpz.il.with_(node_dec={kpz.il.root: MultiIndex({0: 1})}),
        kpz.il.with_(hat1=SubForest(frozenset({1, 2}), frozenset({(1, 2)}))),
    )
    for piece in outside_minus:
        with pytest.raises(ValueError, match="outside X_-"):
            _AntipodeMinus(table, [], lambda p: p).tree(piece)
    # the root of t(l) colored 2 leaves the dangling tree t(l) of
    # homogeneity -1/2 - kappa
    il_root = kpz.il.with_(hat2=SubForest(frozenset({kpz.il.root}), frozenset()))
    for piece in (poly(), kpz.il, t, il_root, colored):
        with pytest.raises(ValueError, match="outside X_\\+"):
            _AntipodePlus(table).run(piece)


def test_delta_minus_unit(phi4):
    dm = delta_minus(phi4.xi, phi4.table, div_enumerate(phi4.xi, phi4.table))
    # only the empty extraction survives the projection for a lone noise?
    # no: the noise itself is extractable; the unit term is always present
    keys = dict(dm.items())
    assert ((), phi4.xi) in keys


def test_delta_minus_triple_filtered(phi4):
    """With the vanishing filter only the unit and the three single-cherry
    extractions are materialized, each with coefficient 1 and no boundary
    decorations; they share one iso class."""
    t = phi4.t111
    dm = delta_minus(t, phi4.table, candidates=analyses(phi4)(t).divergences)
    terms = list(dm.items())
    assert len(terms) == 4
    nontrivial = [(k, c) for k, c in terms if k[0]]
    assert len(nontrivial) == 3
    classes = set()
    for (extracted, remainder), coeff in nontrivial:
        assert coeff == 1
        assert len(extracted) == 1
        piece = extracted[0]
        assert piece.node_dec_items == ()  # no chi e_G labels survive
        classes.add(piece.canonical_code())
        assert remainder.hat1 == SubForest(piece.nodes, piece.edge_set)
    assert len(classes) == 1
    assert classes == {phi4.t11.canonical_code()}


def test_delta_minus_triple_faithful(phi4):
    """Unfiltered, the coaction extracts every subforest with negative
    components: lone noises, planted noises, cherries, their disjoint
    products, and the full tree."""
    t = phi4.t111
    dm = delta_minus(t, phi4.table, div_enumerate(t, phi4.table))
    assert len(dm) == 27
    sizes = sorted(
        tuple(sorted(len(p.edge_items) for p in k[0])) for k, _ in dm.items()
    )
    assert (1,) in sizes          # a lone noise
    assert (2,) in sizes          # a planted noise
    assert (1, 1, 1) in sizes     # three disjoint noises
    assert (6,) in sizes          # the full tree
    assert (1, 4) in sizes        # cherry next to a noise


def test_delta_minus_131_forest_extraction(phi4):
    t = phi4.t131
    dm = delta_minus(t, phi4.table, candidates=analyses(phi4)(t).divergences)
    shapes = sorted(
        tuple(sorted(len(p.edge_items) for p in k[0])) for k, _ in dm.items()
    )
    assert (4, 4) in shapes  # the two-cherry forest
    assert (9,) in shapes    # the four-noise subtree
    assert (4,) in shapes


E1 = MultiIndex({1: 1})
# the KPZ cherry under one kernel edge: node 1 carries the planted noises at
# nodes 2 and 3, and S is the cherry without the edge (0, 1)
CHERRY = {(0, 1): "t", (1, 2): "t", (1, 3): "t", (2, 102): "l", (3, 103): "l"}
CHERRY_S = frozenset({(1, 2), (1, 3), (2, 102), (3, 103)})


def o_labelled_terms(t: DecoratedTree, table) -> list:
    """The (pieces, remainder, coefficient) of the terms of Delta_- on t
    whose remainder carries an o label."""
    dm = delta_minus(t, table, div_enumerate(t, table))
    return [(pieces, rem, coeff) for (pieces, rem), coeff in dm.items() if rem.o_label_items]


def up_entries(t: DecoratedTree, table) -> tuple:
    up = up_hom_table(t, table)
    return up[(1, 2)], up[(0, 1)]


def test_o_label_of_a_node_label_by_hand(kpz):
    """On the cherry with the label e_1 on node 2, one term of Delta_-
    carries an o label: it extracts S (omega = -(2 - 2(3/2 + kappa)) =
    51/50, node labels dropped) with n_G = {2: e_1}, so the remainder keeps no
    node label and o(2) = e_1.  Its up-tree table adds |o(2)|_s = 1 to the
    entries below node 2: on (1, 2), 1 - 3/2 - kappa + 1 = 49/100, and on
    (0, 1), 49/100 + 1 + (1 - 3/2 - kappa) = 49/50."""
    table = kpz.table
    t = DecoratedTree(0, CHERRY, node_dec={2: E1}, table=table)
    assert (SubForest(frozenset({1, 2, 3, 102, 103}), CHERRY_S), Fraction(51, 50)) in div_enumerate(t, table)
    [(pieces, rem, coeff)] = o_labelled_terms(t, table)
    assert coeff == 1
    assert [p.edge_set for p in pieces] == [CHERRY_S] and pieces[0].node_dec_items == ((2, E1),)
    assert rem.hat1.edges == CHERRY_S
    assert rem.node_dec_items == () and rem.edge_dec_items == ()
    assert rem.o_label_items == ((2, E1),) and rem.o_label(2) == E1
    assert up_entries(rem, table) == (Fraction(49, 100), Fraction(49, 50))
    assert up_entries(rem.with_(o_label={}), table) == (Fraction(-51, 100), Fraction(-1, 50))


def test_o_label_of_an_edge_decoration_by_hand(kpz):
    """On the unlabelled cherry with a planted noise (2, 4), (4, 104) added
    at node 2, two terms of Delta_- carry an o label: both extract S, the
    second with the noise (4, 104) beside it, and both take e_G = {(2, 4):
    e_1}, so o(2) = chi(e_G)(2) = e_1 while n_G is zero.  The remainder's
    edge (2, 4) carries e_1, which lowers the entries below node 2 by 1, and
    o(2) raises them by 1 again: -51/50 on (1, 2) and -53/100 on (0, 1),
    against -101/50 and -153/100 without o."""
    table = kpz.table
    t = DecoratedTree(0, {**CHERRY, (2, 4): "t", (4, 104): "l"}, table=table)
    terms = o_labelled_terms(t, table)
    assert sorted(sorted(len(p.edge_set) for p in pieces) for pieces, _, _ in terms) == [[1, 4], [4]]
    for pieces, rem, coeff in terms:
        assert coeff == 1
        assert CHERRY_S in [p.edge_set for p in pieces]
        assert rem.node_dec_items == () and rem.edge_dec_items == (((2, 4), E1),)
        assert rem.o_label_items == ((2, E1),)
        assert up_entries(rem, table) == (Fraction(-51, 50), Fraction(-53, 100))
        assert up_entries(rem.with_(o_label={}), table) == (Fraction(-101, 50), Fraction(-153, 100))


def test_antipode_minus_base_and_cherry(phi4):
    """The empty forest maps to itself.  A cherry maps to its bare term
    -cherry and to 11 terms that extract its lone and planted noises: the
    antipode extracts every divergent subtree, vanishing constants
    included."""
    anti_minus = _AntipodeMinus(phi4.table, div_enumerate(phi4.t111, phi4.table), lambda p: p)
    assert anti_minus.forest(()) == FormalSum([(((),), 1)])
    cherry_piece = phi4.t111.restrict(cherry_subtrees(phi4.t111, phi4.table)[0])
    out = anti_minus.forest((cherry_piece,))
    assert len(out) == 12
    assert out.coeff(((cherry_piece,),)) == -1


def test_antipode_minus_multiplicative(phi4):
    """The recursion agrees with per-component multiplication on a forest."""
    t = phi4.t131
    table = phi4.table
    cherries = cherry_subtrees(t, table)
    pair = [c for c in cherries if t.root in c.nodes][:1] + [
        c for c in cherries if t.root not in c.nodes
    ][:1]
    pieces = tuple(t.restrict(s) for s in pair)
    listed = div_enumerate(t, table)
    both = _AntipodeMinus(table, listed, lambda p: p).forest(pieces)
    a = _AntipodeMinus(table, listed, lambda p: p).forest((pieces[0],))
    b = _AntipodeMinus(table, listed, lambda p: p).forest((pieces[1],))
    merged = map_keys(tensor(a, b), lambda k: (sorted_pieces(k[0] + k[1]),))
    assert both == merged


@pytest.fixture(scope="module")
def workbenches():
    return {
        m: Workbench(parse_config((ROOT / "configs" / f"{m}.json").read_text(encoding="utf-8")))
        for m in BPHZ_TERMS
    }


def assert_listed_antipode_matches_per_piece(t, table, forests):
    """A_- reading each piece's divergent subtrees off the full list of `t`
    equals the oracle that lists them anew for each piece, on every forest
    of `forests`; and for every piece the oracle's recursion visits, the
    entries of the list inside the piece are `div_enumerate` of the piece,
    in the same order."""
    listed = div_enumerate(t, table)
    anti_minus = _AntipodeMinus(table, listed, lambda p: p)
    oracle = hopf_oracle.AntipodeMinusPerPiece(table)
    for forest in forests:
        assert anti_minus.forest(forest) == oracle.forest(forest)
    for piece in oracle.memo:
        assert [(c, w) for c, w in listed if c.edges <= piece.edge_set] == div_enumerate(piece, table)


@settings(max_examples=40, deadline=None)
@given(decorated_trees(max_edges=7), st.data())
def test_listed_antipode_matches_per_piece_listing(t, data):
    """One forest that Delta_- extracts from a random tree, drawn as in
    `test_antipode_minus_matches_tensor_fold`: forests of at most four edges
    in all, from trees of at most seven.  Checking every piece of at most
    four edges instead took 75 s on one drawn tree of ten edges, whose 701
    such pieces carry the random decorations' budgets."""
    table = KPZ.table
    forests = sorted(
        {
            extracted
            for (extracted, _), _ in delta_minus(t, table, div_enumerate(t, table)).items()
            if sum(len(p.edge_items) for p in extracted) <= 4
        },
        key=lambda f: (-len(f), repr([p.embedded_key() for p in f])),
    )
    assert_listed_antipode_matches_per_piece(t, table, [data.draw(st.sampled_from(forests))])


@pytest.mark.parametrize("model,tree_id", TREES, ids=[f"{m}-{t}" for m, t in TREES])
def test_listed_antipode_matches_per_piece_listing_on_basis_trees(workbenches, model, tree_id):
    """Every forest that the expansion of a basis tree extracts."""
    wb = workbenches[model]
    t, table = wb.tree_by_id(tree_id), wb.config.table
    dm = delta_minus(t, table, div_enumerate(t, table))
    forests = {extracted for (extracted, _), _ in dm.items()}
    assert_listed_antipode_matches_per_piece(t, table, forests)


def test_expansion_lists_divergences_and_rooted_subtrees_once(workbenches, monkeypatch):
    """On a freshly built copy of KPZ T5, whose shape has worked out
    nothing yet, `bphz_expansion` lists the tree's divergent subtrees once
    (`all_subtrees` calls `rooted_edge_sets` once per node, on every edge)
    and its rooted subtrees once (one call on the kernel edges, at the
    root), however many pieces the antipodes and Delta_+ visit."""
    wb = workbenches["kpz"]
    table, basis = wb.config.table, wb.tree_by_id("T5")
    t = DecoratedTree(
        basis.root, basis.edges, dict(basis.node_dec_items), dict(basis.edge_dec_items), table=table
    )
    div_calls, rooted_calls = [], []
    div_enumerate, rooted_edge_sets = fo.div_enumerate, _Shape.rooted_edge_sets

    def counted_div_enumerate(tree, *args):
        div_calls.append(tree)
        return div_enumerate(tree, *args)

    def counted_rooted_edge_sets(shape, r, edges):
        rooted_calls.append((r, edges))
        return rooted_edge_sets(shape, r, edges)

    monkeypatch.setattr(fo, "div_enumerate", counted_div_enumerate)
    monkeypatch.setattr(_Shape, "rooted_edge_sets", counted_rooted_edge_sets)
    assert len(bphz_expansion(t, table)) == BPHZ_TERMS["kpz"][5]
    assert div_calls == [t]
    kernel = frozenset(t.kernel_edges(table))
    assert kernel != t.edge_set
    assert [r for r, edges in rooted_calls if edges == kernel] == [t.root]
    assert [edges for _, edges in rooted_calls].count(t.edge_set) == len(t.nodes)
    assert len(rooted_calls) == len(t.nodes) + 1


def test_expansion_extracts_from_the_tree_once(workbenches, monkeypatch):
    """On a freshly built copy of KPZ T5, `bphz_expansion` runs
    `_extractions` on the tree once, for Delta_-, and reads A_-(T) off its
    terms; and `_recenterings` never restricts a piece to its whole
    subforest, whose restriction is the piece itself."""
    wb = workbenches["kpz"]
    table, basis = wb.config.table, wb.tree_by_id("T5")
    t = DecoratedTree(
        basis.root, basis.edges, dict(basis.node_dec_items), dict(basis.edge_dec_items), table=table
    )
    extracted_from, whole = [], []
    extractions, restrict = hopf._extractions, DecoratedTree.restrict

    def counted_extractions(tree, *args):
        extracted_from.append(tree)
        return extractions(tree, *args)

    def counted_restrict(tree, sf):
        if sys._getframe(1).f_code is hopf._recenterings.__code__ and sf.edges == tree.edge_set:
            whole.append(sf)
        return restrict(tree, sf)

    monkeypatch.setattr(hopf, "_extractions", counted_extractions)
    monkeypatch.setattr(DecoratedTree, "restrict", counted_restrict)
    assert len(bphz_expansion(t, table)) == BPHZ_TERMS["kpz"][5]
    assert extracted_from.count(t) == 1
    assert whole == []


def test_expansion_builds_each_restricted_shape_once(workbenches, monkeypatch):
    """On a freshly built copy of KPZ T5, `bphz_expansion` builds one shape
    per distinct subforest that it restricts the tree or a piece of it to,
    however many pieces restrict it: every piece of Delta_-, A_-, Delta_+
    and A_+ shares the sub-shape of its subforest."""
    wb = workbenches["kpz"]
    table, basis = wb.config.table, wb.tree_by_id("T5")
    t = DecoratedTree(
        basis.root, basis.edges, dict(basis.node_dec_items), dict(basis.edge_dec_items), table=table
    )
    built, restricted = [], []
    shape_init, restrict = trees._Shape.__init__, DecoratedTree.restrict

    def counted_init(shape, *args):
        built.append(args[0])
        shape_init(shape, *args)

    def counted_restrict(tree, sf):
        restricted.append(sf)
        return restrict(tree, sf)

    monkeypatch.setattr(trees._Shape, "__init__", counted_init)
    monkeypatch.setattr(DecoratedTree, "restrict", counted_restrict)
    assert len(bphz_expansion(t, table)) == BPHZ_TERMS["kpz"][5]
    assert len(restricted) > len(set(restricted))
    assert len(built) == len(set(restricted))


@pytest.mark.parametrize("model,tree_id", TREES, ids=[f"{m}-{t}" for m, t in TREES])
def test_extractions_match_edge_subset_scan(workbenches, model, tree_id):
    """The extractions built from the listed divergent subtrees are those
    built from every connected edge set of the tree, family by family:
    plain, proper, and from the effective ones against the oracle's
    vanishing filter."""
    wb = workbenches[model]
    t, table, cum = wb.tree_by_id(tree_id), wb.config.table, wb.config.cum
    for kw in ({}, {"proper": True}, {"vanishing": cum}):
        assert_extractions_match(t, table, **kw)
    a = wb.analysis(t)
    for candidates in (a.all_divergences, strictly_inside(a.all_divergences, t), a.divergences):
        # the empty forest comes first
        assert next(_extractions(t, table, candidates))[1] == [], len(candidates)


def handed_down(tree: DecoratedTree) -> DecoratedTree:
    """`tree`, once it is shown to hold the color-1 components its
    extraction or recentering handed it, without a scan, and that they are
    those a scan of its color-1 forest finds, in order."""
    assert tree._hat1_comps is not None
    assert tree.hat1_components() == tree.subforest_components(tree.hat1)
    return tree


def delta_minus_remainders(t: DecoratedTree, table) -> FormalSum:
    """Delta_- on `t`, each remainder and each remainder of Delta_+ on it
    checked by `handed_down`."""
    dm = delta_minus(t, table, div_enumerate(t, table))
    for (_, remainder), _ in dm.items():
        for (_, recentered), _ in delta_plus(handed_down(remainder), table).items():
            handed_down(recentered)
    return dm


@pytest.mark.parametrize("model,tree_id", TREES, ids=[f"{m}-{t}" for m, t in TREES])
def test_components_handed_down_match_scan_on_basis_trees(workbenches, model, tree_id):
    """Every remainder of Delta_- and of Delta_+ on it, and every residual
    of A_- on each extracted piece."""
    t, table = workbenches[model].tree_by_id(tree_id), workbenches[model].config.table
    anti_minus = _AntipodeMinus(table, div_enumerate(t, table), handed_down)
    for (extracted, _), _ in delta_minus_remainders(t, table).items():
        for piece in extracted:
            anti_minus.tree(piece)


@settings(max_examples=60, deadline=None)
@given(decorated_trees(max_edges=7))
def test_components_handed_down_match_scan_on_drawn_trees(t):
    """Trees with edge labels, so that the extractions and recenterings
    carry decorations."""
    delta_minus_remainders(t, KPZ.table)


def test_extraction_decorations_match_budget_recursion():
    """On random trees with random node labels on their true nodes, the
    product of node and edge choices gives, for every divergent subtree,
    the rows of the budget recursion it replaced, in the same order and with
    equal coefficients.  The count of rows carrying node labels and edge
    labels shows both kinds of slot were reached."""
    table = KPZ.table
    reached = {"node": 0, "edge": 0}

    @settings(max_examples=150, deadline=None)
    @given(decorated_trees(max_edges=8), st.data())
    def check(t, data):
        labelled = data.draw(st.sets(st.sampled_from(sorted(t.true_nodes(table)))))
        t = t.with_(node_dec={u: data.draw(multiindices(2)) for u in labelled})
        for c, omega in div_enumerate(t, table):
            boundary = _boundary(t.kernel_edges(table), c)
            rows = list(_extraction_decorations(t, table, c, omega, boundary))
            assert rows == list(hopf_oracle.extraction_decorations(t, table, c, omega, boundary))
            reached["node"] += sum(1 for nd, _, _ in rows if nd)
            reached["edge"] += sum(1 for _, ed, _ in rows if ed)

    check()
    assert reached["node"] and reached["edge"], reached


# -- recentering bounds against probe trees ------------------------------------------


def assert_headroom_matches_probe(piece, s, table):
    """The piece's up-tree table on S's boundary edges equals the probe's
    headroom, for every split of S's node labels: both skip S when an entry
    is not positive."""
    boundary = _boundary(piece.kernel_edges(table), s)
    want = hopf_oracle.up_headroom(boundary, up_hom_table(piece, table))
    assert all(h == want for h in probe_headrooms(piece, s, table))


def assert_x_plus_matches_probe(piece, table):
    """X_+ membership, the bounds on the f decorations at the foot of the
    dangling trees and the positive antipode's recentered subtrees equal
    their probe-based versions (the subtrees meeting every dangling tree,
    kept where each boundary edge has a positive entry)."""
    assert in_X_plus(piece, table, up_hom_table(piece, table)) == hopf_oracle.in_X_plus(piece, table)
    f_slots = sorted(_boundary(piece.kernel_edges(table), piece.hat2))
    probe = {e: recentered_plus_hom(piece, up_tree(piece, e), table) for e in f_slots}
    up = up_hom_table(piece, table)
    assert {e: up[e] for e in f_slots} == probe
    kernel = piece.kernel_edges(table)
    probed = [(s, _boundary(kernel, s)) for s in hopf_oracle.abar2(piece, table)]
    assert _AntipodePlus(table)._abar2(piece, f_slots, up) == hopf_oracle.positive(up, probed)


def test_recentering_bounds_match_probe_trees(workbenches):
    """Every (piece, S) that the expansions of the basis trees reach,
    phi4_3 T6 left out for time."""
    cases, colored = 0, set()
    for model, tree_id in TREES:
        if (model, tree_id) == ("phi4_3", "T6"):
            continue
        wb = workbenches[model]
        table = wb.config.table
        for piece, s in recentering_cases(wb.tree_by_id(tree_id), table):
            assert_headroom_matches_probe(piece, s, table)
            if piece.hat2.nodes and piece not in colored:
                colored.add(piece)
                assert_x_plus_matches_probe(piece, table)
            cases += 1
    assert (cases, len(colored)) == (4743, 73)


@settings(max_examples=60, deadline=None)
@given(colored_trees())
def test_recentering_bounds_match_probe_on_random_trees(piece):
    """On a random colored tree: the headroom of every admissible rooted
    subtree S (holding the color-2 part, if any), X_+ membership, and, on
    the uncolored tree, the up-tree table and the positive cuts."""
    table = KPZ.table
    if piece.hat2.nodes:
        assert_x_plus_matches_probe(piece, table)
    for s, _ in hopf_oracle.admissible_rooted(piece, table):
        if piece.hat2.nodes <= s.nodes and piece.hat2.edges <= s.edges:
            assert_headroom_matches_probe(piece, s, table)
    plain = piece.with_(hat1=EMPTY_SUBFOREST, hat2=EMPTY_SUBFOREST, o_label={})
    up = up_hom_table(plain, table)
    assert up == {e: recentered_up_hom(plain, e, table) for e, _ in plain.edge_items}
    assert cut_enumerate(plain, table) == hopf_oracle.cut_enumerate(plain, table)


# -- recentering subtrees against their own filters -----------------------------------


def assert_selection_matches_filters(piece, table) -> tuple[int, int, int]:
    """Delta_+'s recentering subtrees, with their boundaries, on the piece
    without its color 2, and, where it has color 2, the positive
    antipode's, are the lists that the old filters give, in order.
    Returns how many rooted subtrees A_2 and positivity rejected for
    Delta_+, and how many the positive antipode picked."""
    up = up_hom_table(piece, table)
    plain = piece.with_(hat2=EMPTY_SUBFOREST)
    picked = hopf._selected(plain, table, up)
    assert picked == hopf_oracle.delta_plus_subtrees(plain, table)
    admissible = hopf_oracle.admissible_rooted(plain, table)
    picked_plus = []
    if piece.hat2.nodes:
        f_slots = sorted(_boundary(piece.kernel_edges(table), piece.hat2))
        picked_plus = _AntipodePlus(table)._abar2(piece, f_slots, up)
        assert picked_plus == hopf_oracle.antipode_plus_subtrees(piece, table, f_slots)
    rooted = plain.rooted_subtrees(table)
    return len(rooted) - len(admissible), len(admissible) - len(picked), len(picked_plus)


def test_recentering_selection_matches_filters_on_random_trees():
    """On random colored trees: the rejections by A_2 and by positivity,
    and the positive antipode's picks, were all reached."""
    table = KPZ.table
    reached = [0, 0, 0]

    @settings(max_examples=150, deadline=None)
    @given(colored_trees())
    def check(piece):
        for i, n in enumerate(assert_selection_matches_filters(piece, table)):
            reached[i] += n

    check()
    assert all(reached), reached


def assert_recentered_subtrees_hold_color2(piece, subtrees) -> int:
    """Each S of `subtrees` holds the piece's color-2 part, nodes and
    edges, so that S is the color-2 part after recentering
    (`hopf._plus_colored`).  Returns how many S there are."""
    for s, _ in subtrees:
        assert piece.hat2.nodes <= s.nodes and piece.hat2.edges <= s.edges
    return len(subtrees)


def test_recentered_subtrees_hold_the_color2_part_on_basis_trees(workbenches, monkeypatch):
    """On every piece that the expansions of the basis trees recenter,
    each S that `_recenterings` is given holds the piece's color-2 part;
    the positive antipode recenters pieces with color 2 among them."""
    seen = []
    recenterings = hopf._recenterings

    def recording(piece, table, up, subtrees):
        subtrees = list(subtrees)
        seen.append((piece, subtrees))
        return recenterings(piece, table, up, subtrees)

    monkeypatch.setattr(hopf, "_recenterings", recording)
    for model, tree_id in TREES:
        wb = workbenches[model]
        terms = bphz_expansion(wb.tree_by_id(tree_id), wb.config.table)
        assert len(terms) == BPHZ_TERMS[model][int(tree_id[1:])]
    for piece, subtrees in seen:
        assert_recentered_subtrees_hold_color2(piece, subtrees)
    assert sum(len(subtrees) for piece, subtrees in seen if piece.hat2.nodes) > 0


def test_recentered_subtrees_hold_the_color2_part_on_random_trees():
    """On random colored trees, drawn as for the selection filters: each S
    that the positive antipode picks (`_abar2`) holds the piece's color-2
    part, and some draws pick one."""
    table = KPZ.table
    reached = [0]

    @settings(max_examples=150, deadline=None)
    @given(colored_trees())
    def check(piece):
        if piece.hat2.nodes:
            up = up_hom_table(piece, table)
            f_slots = sorted(_boundary(piece.kernel_edges(table), piece.hat2))
            picked = _AntipodePlus(table)._abar2(piece, f_slots, up)
            reached[0] += assert_recentered_subtrees_hold_color2(piece, picked)

    check()
    assert reached[0], reached


def test_recentering_selection_matches_filters_on_basis_trees(workbenches):
    """On every piece that the expansions of the basis trees recenter: each
    remainder of Delta_- and each piece the positive antipode runs on."""
    for model, tree_id in TREES:
        wb = workbenches[model]
        table = wb.config.table
        for piece in dict.fromkeys(p for p, _ in recentering_cases(wb.tree_by_id(tree_id), table)):
            assert_selection_matches_filters(piece, table)


@pytest.mark.parametrize("model,tree_id,remainders", [("kpz", "T5", 34), ("phi4_3", "T3", 27)])
def test_delta_plus_selects_the_whole_tree_on_each_remainder(workbenches, model, tree_id, remainders):
    """On the workload's largest requests, Delta_+ picks one rooted
    subtree on each remainder of Delta_-: the whole tree."""
    wb = workbenches[model]
    t, table = wb.tree_by_id(tree_id), wb.config.table
    whole = SubForest(t.nodes, t.edge_set)
    rows = delta_minus(t, table, div_enumerate(t, table)).keys()
    assert len(rows) == remainders
    for _, remainder in rows:
        picked = hopf._selected(remainder, table, up_hom_table(remainder, table))
        assert [s for s, _ in picked] == [whole]


# t(l) with the label 3 in the second coordinate on the kernel edge's top
# node and the root colored 2: recentering around the whole tree splits that
# label between two pieces of one forest, with the same root and edges, so
# the forest's sort reaches the labels
SPLIT_LABEL = DecoratedTree(
    root=0,
    edges={(0, 1): "t", (1, 101): "l"},
    node_dec={1: MultiIndex({1: 3})},
    hat2=SubForest(frozenset({0}), frozenset()),
    table=KPZ.table,
)


# a color-2 root with a label, and with a noise l whose fictitious node has
# a label too, which the color-2 labels n^ leave out; below it the chain
# t(t) with the label 3 on its top, which leaves room for edge labels of
# coefficient 1/2 and 1/6 on the chain's upper edge
HAT2_LABELS = DecoratedTree(
    root=0,
    edges={(0, 100): "l", (0, 1): "t", (1, 2): "t"},
    node_dec={0: MultiIndex({0: 1}), 100: MultiIndex({1: 1}), 2: MultiIndex({1: 3})},
    hat2=SubForest(frozenset({0, 100}), frozenset({(0, 100)})),
    table=KPZ.table,
)


@settings(max_examples=60, deadline=None)
@given(colored_trees(max_label=1))
@example(SPLIT_LABEL)
def test_delta_plus_matches_own_loop(piece):
    """Delta_+, on the loop it shares with the positive antipode, equals its
    own loop on random trees of color <= 1, whose node labels and extended
    labels the basis trees never carry.  Drawn node labels have entries at
    most 1 (with entries up to 2, one Delta_+ of six edges had 140 400
    terms), so the binomial splits come from the label 3 of `SPLIT_LABEL`."""
    piece = piece.with_(hat2=EMPTY_SUBFOREST)
    assert delta_plus(piece, KPZ.table) == hopf_oracle.delta_plus_loop(piece, KPZ.table)


@settings(max_examples=60, deadline=None)
@given(colored_trees(max_label=1), st.data())
@example(SPLIT_LABEL, None)
@example(HAT2_LABELS, None)
def test_antipode_plus_matches_own_loop(piece, data):
    """The positive antipode, on the loop it shares with Delta_+, equals its
    own loop on a piece of X_+ with random node labels, color-2 labels n^
    and extended labels: the drawn piece when it lies in X_+, else a
    remainder of Delta_+ of the drawn tree without its color 2.

    The antipode has no cap on its terms, and their number grows with the
    edge labels that the up-tree table leaves room for: on a piece whose
    edges admit 4, 4, 9, 1 and 1 labels it has 373 248 terms (20 s with the
    oracle), and one with about 4 000 labellings ran for minutes.  So
    pieces whose edges admit more than 100 labellings in all are left out.
    Every piece the antipode runs on in the expansions of the basis trees
    (phi4_3 T6 left out for time) admits one: its table stays below 1."""
    table = KPZ.table
    if not (piece.hat2.nodes and in_X_plus(piece, table, up_hom_table(piece, table))):
        dp = delta_plus(piece.with_(hat2=EMPTY_SUBFOREST), table)
        remainders = sorted((r for _, r in dp.keys()), key=lambda r: repr(r.embedded_key()))
        piece = data.draw(st.sampled_from(remainders))
    up = up_hom_table(piece, table).values()
    assume(math.prod(max(1, len(multiindices_below(table.scaling, h))) for h in up) <= 100)
    assert _AntipodePlus(table).run(piece) == hopf_oracle.AntipodePlusLoop(table).run(piece)


def test_antipode_plus_signs_only_true_node_labels():
    """The color-2 labels n^ sit on true nodes, so a label on a fictitious
    node gives A_+ no sign: A_+ of `HAT2_LABELS` equals A_+ of the same
    piece without the label on the noise's node 100, term by term once that
    label is stripped from the output pieces that carry it."""
    table = KPZ.table

    def strip(p: DecoratedTree) -> DecoratedTree:
        return p.with_(node_dec={u: k for u, k in p.node_dec_items if u != 100})

    out = _AntipodePlus(table).run(HAT2_LABELS)
    assert len(out) == 612
    stripped = FormalSum(((sorted_pieces(map(strip, forest)),), c) for (forest,), c in out.items())
    assert stripped == _AntipodePlus(table).run(strip(HAT2_LABELS))


def expectation_antipode(table, cum, listed):
    """A_- with E Pi applied to each residual, as the counterterm report
    builds it: sums over sorted tuples of expectation symbols."""
    return _AntipodeMinus(table, listed, lambda p: _bare_constant_key(p, table, cum))


def test_antipode_nested_four_noise(phi4):
    """Two-level recursion on the four-noise subtree: E Pi A_- of it, A_-
    extracting the effective divergent subtrees, gives the bare symbol, two
    single-cherry corrections, and the double-cherry correction with
    alternating signs."""
    t = phi4.t131
    table = phi4.table
    divergences = analyses(phi4)(t).divergences
    four = [s for s, w in divergences if len(s.edges) == 9 and t.root in s.nodes][0]
    piece = t.restrict(four)
    expansion = expectation_antipode(table, phi4.cum, divergences).tree(piece)
    assert len(expansion) == 4
    by_len = {}
    for (key,), coeff in expansion.items():
        by_len.setdefault(len(key), []).append(coeff)
    # -C[four] + C[<11>]C[chain] + C[<11>]C[branch] - C[<11>]^2 C[edge]
    assert by_len[1] == [-1]
    assert sorted(by_len[2]) == [1, 1]
    assert by_len[3] == [-1]


def test_negative_forest_expansion(phi4, kpz):
    """Projecting the antipode's output onto the layered i-forests of the
    forests with prescribed maximal members is the identity."""
    for setting, tree in ((phi4, phi4.t111), (kpz, kpz.t211)):
        table = setting.table
        divs = [s for s, _ in div_enumerate(tree, table)]
        for f_max in [frozenset([divs[-1]])] + [
            frozenset([s]) for s in divs if len(s.edges) >= 4
        ][:2]:
            if depth(f_max) > 1:
                continue
            pieces = tuple(
                tree.restrict(s) for s in sorted(f_max, key=lambda s: s.sort_key())
            )
            if not all(in_X_minus(p, table) for p in pieces):
                continue
            out = _AntipodeMinus(table, div_enumerate(tree, table), lambda p: p).forest(pieces)
            allowed = {
                undecorated_forest_shape(sigma_negative(tree, g)): g
                for g in forests_with_max(divs, f_max)
            }
            for (forest_key,), coeff in out.items():
                shape = undecorated_forest_shape(forest_key)
                assert shape in allowed, shape


def test_delta_plus_trivial_and_cut(phi4, kpz):
    # a planted noise has a negative dangling branch: only the full
    # recentering survives
    dp = delta_plus(phi4.t1, phi4.table)
    assert sorted(len(l.edge_items) for (l, r), _ in dp.items()) == [2]
    # the double integration's root branch is positive, so the root-only
    # extraction survives alongside the full one, with one decorated variant
    # per spatial direction below the Taylor ceiling
    t10 = integrate("I", ZERO_MI, phi4.t1, phi4.table)
    dp10 = delta_plus(t10, phi4.table)
    assert sorted(len(l.edge_items) for (l, r), _ in dp10.items()) == [0, 0, 0, 0, 3]
    decorated = [
        (l, r)
        for (l, r), _ in dp10.items()
        if not l.node_dec(l.root).is_zero()
    ]
    assert len(decorated) == 3
    for l, r in decorated:
        assert l.node_dec(l.root).sdeg(phi4.scaling) == 1
    # the chain tree has exactly one genuine cut extraction
    t, table = kpz.t211, kpz.table
    e = cut_enumerate(t, table)[0][0]
    base = down_tree(t, [e])
    dp = delta_plus(t, table)
    hits = [
        (l, r)
        for (l, r), _ in dp.items()
        if frozenset(x for x, _ in l.edge_items) == base.edges
    ]
    assert len(hits) == 1
    left, right = hits[0]
    assert right.hat2.edges == base.edges
    assert len(dp) == 2  # the cut extraction and the full recentering


def test_delta_plus_binomial(phi4):
    """A decorated root splits binomially across the slots."""
    n = MultiIndex({1: 2})
    t = poly(n)
    dp = delta_plus(t, phi4.table)
    total = Fraction(0)
    for (left, right), coeff in dp.items():
        k = left.node_dec(left.root)
        assert coeff == math.comb(2, k.get(1))
        total += coeff
    assert total == 2 ** 2


def test_antipode_plus_base(phi4):
    t = phi4.t11
    full = SubForest(t.nodes, t.edge_set)
    colored = t.with_(hat2=full, node_dec={t.root: MultiIndex({1: 1})})
    out = _AntipodePlus(phi4.table).run(colored)
    ((pieces,), coeff) = next(iter(out.items()))
    assert coeff == -1  # (-1)^{|n|}
    assert pieces[0].o_label_items == ()


def test_antipode_plus_single_cut_shape(kpz):
    t, table = kpz.t211, kpz.table
    e = cut_enumerate(t, table)[0][0]
    base = down_tree(t, [e])
    out = _AntipodePlus(table).run(t.with_(hat2=base))
    assert len(out) == 1
    ((pieces,), coeff) = next(iter(out.items()))
    assert coeff == -1
    shape = _strip_trivial(undecorated_forest_shape(pieces), t)
    assert shape == sigma_positive(t, frozenset([e]), frozenset(), table)


def _strip_trivial(shape, t):
    """Drop fully-2-colored copies of the whole tree (the recursion's
    evaluation-neutral tail)."""
    full_nodes = tuple(sorted(t.nodes))
    full_edges = tuple(sorted(e for e, _ in t.edge_items))
    out = tuple(
        p
        for p in shape
        if not (p[0] == full_nodes and p[3] == (full_nodes, full_edges))
    )
    return out if out else shape


def test_positive_cut_expansion_depth2():
    """On a three-level chain with two nested cuts, the antipode's terms are
    exactly the cut sets with the prescribed minimal layer."""
    from conftest import Kpz

    kpz = Kpz()
    table = kpz.table
    t = tree_product(
        kpz.il,
        integrate(
            "t",
            ZERO_MI,
            tree_product(
                kpz.il,
                integrate(
                    "t",
                    ZERO_MI,
                    tree_product(
                        kpz.il,
                        integrate(
                            "t", ZERO_MI, tree_product(kpz.il, kpz.il), table
                        ),
                    ),
                    table,
                ),
            ),
            table,
        ),
    )
    cuts = [e for e, _ in cut_enumerate(t, table)]
    assert len(cuts) == 2
    e0 = min(cuts, key=lambda e: len(down_tree(t, [e]).edges))
    e1 = [e for e in cuts if e != e0][0]
    base = down_tree(t, [e0])
    out = _AntipodePlus(table).run(t.with_(hat2=base))
    fiber = {
        sigma_positive(t, frozenset(c), frozenset(), table): c
        for c in (frozenset([e0]), frozenset([e0, e1]))
    }
    seen = set()
    for (pieces,), coeff in out.items():
        shape = _strip_trivial(undecorated_forest_shape(pieces), t)
        assert shape in fiber
        seen.add(shape)
    assert seen == set(fiber)


def test_bphz_expansion_smoke(phi4):
    bp = bphz_expansion(phi4.t111, phi4.table)
    assert len(bp) > 0
    for (left, mid, right), coeff in bp.items():
        for p in left:
            assert p.node_dec(p.root).is_zero() or p.hat1.nodes
        assert all(isinstance(x, tuple) for x in (left, right))
    # slot filters: left components came from X_-; right from X_+ recursion
    dm = delta_minus(phi4.t111, phi4.table, div_enumerate(phi4.t111, phi4.table))
    assert len(bp) >= len(dm)


def report(setting, t):
    """The counterterm report of `t`, extracted from its effective
    divergent subtrees."""
    return counterterm_report(t, setting.table, setting.cum, analyses(setting)(t).divergences)


def test_report_111(phi4):
    rep = report(phi4, phi4.t111)
    assert len(rep.monomials) == 1
    m = rep.monomials[0]
    assert m.coefficient == -3
    assert len(m.constants) == 1 and m.constants[0].startswith("C[")
    assert m.residual.canonical_code() == phi4.t1.canonical_code()


def test_report_131(phi4):
    rep = report(phi4, phi4.t131)
    assert len(rep.monomials) == 4
    t10 = integrate("I", ZERO_MI, phi4.t1, phi4.table)
    t30 = integrate("I", ZERO_MI, phi4.t111, phi4.table)
    t12 = tree_product(t10, phi4.t1, phi4.t1)
    rows = {
        (m.coefficient, m.residual.canonical_code(), len(m.constants)): m
        for m in rep.monomials
    }
    assert (Fraction(3), t10.canonical_code(), 2) in rows
    assert (Fraction(-1), t30.canonical_code(), 1) in rows
    assert (Fraction(-3), t12.canonical_code(), 1) in rows
    assert (Fraction(-3), phi4.t1.canonical_code(), 1) in rows
    nested = rows[(Fraction(-3), phi4.t1.canonical_code(), 1)]
    assert nested.constants[0].startswith("C'[")
    plain = rows[(Fraction(-1), t30.canonical_code(), 1)]
    assert plain.constants[0].startswith("C[")


def test_report_xi(phi4):
    rep = report(phi4, phi4.xi)
    assert rep.monomials == ()


def cumulants_to_four(table):
    """Explicit cumulants of the one noise type of `table`: its pairs,
    triples and quadruples (both models meet the bound on each at kappa =
    1/100)."""
    (noise,) = table.noise_types
    return CumulantSet(table, "explicit", frozenset((noise,) * m for m in (2, 3, 4)))


def assert_constants_match_own_recursion(t, table, cum):
    """For every piece that Delta_- extracts from the effective divergent
    subtrees of `t`, the report's constant E Pi A_- (A_- extracting the
    same list) equals the constant of the oracle's own recursion, which
    lists each piece's divergent subtrees anew and zeroes the vanishing
    ones; and the report equals the one built from the oracle's constants.
    Returns the number of pieces whose tree-valued A_- has more than one
    forest."""
    divergences = TreeAnalysis(t, table, cum, MAX_DIV).divergences
    anti_minus = _AntipodeMinus(table, divergences, lambda p: p)
    expectation = expectation_antipode(table, cum, divergences)
    oracle = hopf_oracle.RenormalizedConstant(table, cum)
    nested = 0
    dm = delta_minus(t, table, divergences)
    for piece in {p for (extracted, _), _ in dm.items() for p in extracted}:
        constant = FormalSum((key, c) for (key,), c in expectation.tree(piece).items())
        assert constant == oracle.of(piece)
        nested += len(anti_minus.tree(piece)) > 1
    want = hopf_oracle.counterterm_report(t, table, cum, divergences)
    assert counterterm_report(t, table, cum, divergences) == want
    return nested


def test_constants_match_own_recursion_on_basis_trees(workbenches):
    """Every basis tree, under its model's Gaussian cumulants and under
    cumulants up to arity four.  The comparison reaches pieces whose A_-
    extracts a proper subtree, more of them under the higher cumulants: per
    model, cumulant set and tree, the number of such pieces."""
    got = {}
    for model, wb in sorted(workbenches.items()):
        table = wb.config.table
        for name, cum in (("gaussian", wb.config.cum), ("to four", cumulants_to_four(table))):
            got[model, name] = [
                assert_constants_match_own_recursion(t, table, cum) for t in wb.basis()
            ]
    assert got == {
        ("kpz", "gaussian"): [0, 0, 0, 0, 0, 0, 1, 1],
        ("kpz", "to four"): [0, 0, 0, 0, 0, 1, 2, 1],
        ("phi4_3", "gaussian"): [0, 0, 0, 0, 1, 0, 3],
        ("phi4_3", "to four"): [0, 0, 0, 1, 1, 2, 7],
    }


@settings(max_examples=40, deadline=None)
@given(decorated_trees(max_edges=7))
def test_constants_match_own_recursion(t):
    """On a random tree, whose edge decorations change which subtrees are
    divergent and leave room for decorations of the extracted pieces, under
    KPZ's Gaussian cumulants and under cumulants up to arity four.

    A tree is checked under a cumulant set where its Delta_- from the
    effective subtrees has at most 30 terms.  The bound protects the
    oracles' time, not the report's: the tree-valued A_- that counts the
    nested pieces and the oracle's own recursion grow with the decorations'
    budgets (one piece's tree-valued A_- can have 31 815 forests, see
    `test_report_on_decorated_tree_pinned`).  With the bound at 200, 40
    trees at hypothesis seed 2 took 20.1 s, of which the reports took
    2.3 s; with the bound at 30, 40 trees took 1.5-4.2 s at seeds 0-2."""
    for cum in (KPZ.cum, cumulants_to_four(KPZ.table)):
        divergences = TreeAnalysis(t, KPZ.table, cum, MAX_DIV).divergences
        if len(delta_minus(t, KPZ.table, divergences)) <= 30:
            assert_constants_match_own_recursion(t, KPZ.table, cum)


# a KPZ-typed tree of seven edges: kernel edges 0 -> 1, 1 -> 2 and 1 -> 3,
# each decorated (1, 1), which leaves the extracted pieces room for many
# decorations, and a noise l at each of the nodes 0-3
DECORATED_FORK = DecoratedTree(
    root=0,
    edges={
        (0, 1): "t", (1, 2): "t", (1, 3): "t",
        (0, 100): "l", (1, 101): "l", (2, 102): "l", (3, 103): "l",
    },
    edge_dec={e: MultiIndex({0: 1, 1: 1}) for e in ((0, 1), (1, 2), (1, 3))},
    table=KPZ.table,
)


@settings(max_examples=40, deadline=None)
@given(decorated_trees(max_edges=7), st.booleans())
@example(DECORATED_FORK, True)
def test_report_matches_per_row_grouping(t, to_four):
    """The report, which walks Delta_- unsummed and relabels only the term
    that opens a group, equals monomial by monomial the one grouped over
    the summed Delta_- with each row's residual relabelled, under KPZ's
    Gaussian cumulants or cumulants up to arity four.  A drawn tree is
    checked where its Delta_- from the effective subtrees has at most 60
    terms, a bound on the draws' time.  `DECORATED_FORK` has 194 such
    terms under arity four and is checked all the same: an explicit
    example that fails `assume` would be skipped without a word."""
    table = KPZ.table
    cum = cumulants_to_four(table) if to_four else KPZ.cum
    divergences = TreeAnalysis(t, table, cum, MAX_DIV).divergences
    assume(t == DECORATED_FORK or len(delta_minus(t, table, divergences)) <= 60)
    got = counterterm_report(t, table, cum, divergences).monomials
    want = hopf_oracle.counterterm_report_per_row(t, table, cum, divergences).monomials
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_report_on_decorated_tree_pinned():
    """The report of `DECORATED_FORK` under cumulants up to arity four,
    pinned as the sha256 of its (coefficient, constants, residual code)
    rows.  The first pin, 101 rows, was recorded on the code that built
    each piece's tree-valued A_- before applying E Pi to it: there, one
    piece's A_- had 31 815 forests that E Pi maps to 717 symbol keys, and
    the report took about 20 s.  With E Pi applied inside the recursion no
    memoized sum holds more than those 717 terms.  Once a block's span
    stopped taking a kernel edge out of its leaves, two of the tree's 20
    effective divergences dropped out (`test_a_span_hangs_beside_a_kernel_edge_out_of_its_join`),
    and the pin, now 100 rows, was recorded again from
    `hopf_oracle.counterterm_report_per_row` on the 18 divergences that
    `forest_oracle.block_pendant_reducible` leaves."""
    table, cum = KPZ.table, cumulants_to_four(KPZ.table)
    t = DECORATED_FORK
    divergences = TreeAnalysis(t, table, cum, MAX_DIV).divergences
    rows = [
        (str(m.coefficient), m.constants, repr(m.residual.canonical_code()))
        for m in counterterm_report(t, table, cum, divergences).monomials
    ]
    assert len(rows) == 100
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "7cdf2fbb6981513de9a41c53efbb657d62ef64e1d59e43440d3dae0017687a62"
    expectation = expectation_antipode(table, cum, divergences)
    for (extracted, _), _ in delta_minus(t, table, divergences).items():
        expectation.forest(extracted)
    assert max(len(s) for s in expectation.memo.values()) <= 717


def test_a_span_hangs_beside_a_kernel_edge_out_of_its_join():
    """Under cumulants up to arity four, the divergent subtrees of
    `DECORATED_FORK` on {(1,2),(1,3),(1,101),(2,102)} and on
    {(1,2),(1,3),(1,101),(3,103)} are not effective.  Their only admissible
    partition pairs the noises at nodes 1 and 2 (or 1 and 3), whose join is
    node 1: the block's span, those two noise edges and the path between
    them, hangs at the join beside the kernel edge (1,3) (or (1,2)), so by
    translation invariance its constant vanishes.  A span that takes the
    kernel edges out of node 1 too is the whole subtree, and keeps both."""
    table, cum = KPZ.table, cumulants_to_four(KPZ.table)
    t = DECORATED_FORK
    divergent = {s.edges for s, _ in div_enumerate(t, table)}
    effective = {s.edges for s, _ in TreeAnalysis(t, table, cum, MAX_DIV).divergences}
    for edges in ({(1, 2), (1, 3), (1, 101), (2, 102)}, {(1, 2), (1, 3), (1, 101), (3, 103)}):
        assert frozenset(edges) in divergent - effective
    assert len(effective) == 18


def test_reports_key_each_residual_once(workbenches, monkeypatch):
    """E Pi maps each residual tree of A_-'s recursion to its symbol once:
    the 15 Gaussian reports make 36 `_bare_constant_key` calls.  Applied to
    A_-'s output forests, E Pi made 60, one per forest a residual appears
    in."""
    calls = []
    bare_constant_key = hopf._bare_constant_key

    def counted(piece, table, cum):
        calls.append(piece)
        return bare_constant_key(piece, table, cum)

    monkeypatch.setattr(hopf, "_bare_constant_key", counted)
    for model, tree_id in TREES:
        workbenches[model].cmd_renormalize(tree_id)
    assert len(calls) == 36


def test_report_lists_no_divergences(workbenches, monkeypatch):
    """On a freshly built copy of phi4_3 T3, whose shape has worked out
    nothing yet, `counterterm_report` given the tree's effective divergent
    subtrees lists none itself: A_- reads each piece's off that list.  The
    report is the one of the basis tree."""
    wb = workbenches["phi4_3"]
    table, cum, basis = wb.config.table, wb.config.cum, wb.tree_by_id("T3")
    want = counterterm_report(basis, table, cum, wb.analysis(basis).divergences)
    t = DecoratedTree(
        basis.root, basis.edges, dict(basis.node_dec_items), dict(basis.edge_dec_items), table=table
    )
    divergences = TreeAnalysis(t, table, cum, MAX_DIV).divergences
    calls = []
    div_enumerate = fo.div_enumerate

    def counted_div_enumerate(tree, *args, **kwargs):
        calls.append(tree)
        return div_enumerate(tree, *args, **kwargs)

    monkeypatch.setattr(fo, "div_enumerate", counted_div_enumerate)
    got = counterterm_report(t, table, cum, divergences)
    assert calls == []
    assert len(got.monomials) == 1 and got == want


def test_coaction_outputs_reconform(phi4):
    """Completeness probe: the plain shapes appearing in coaction outputs
    conform to the generating rule."""
    dm = delta_minus(phi4.t111, phi4.table, candidates=analyses(phi4)(phi4.t111).divergences)
    for (extracted, remainder), _ in dm.items():
        for p in extracted:
            assert conforms(phi4.rule, relabel_canonical(p))
        contracted = relabel_canonical(remainder.contract_colored(phi4.table))
        assert conforms(phi4.rule, contracted)


# t(l t(l)) with no decorations: extracting the subtree on (0, 1), (0, 100)
# and (1, 101) leaves the boundary edge (1, 2) the label k of two derivatives
# in the second coordinate, with k! = 2, so coefficients of 1/2 occur
HALF_TREE = DecoratedTree(
    root=0, edges={(0, 1): "t", (0, 100): "l", (1, 2): "t", (1, 101): "l"}, table=KPZ.table
)


@settings(max_examples=40, deadline=None)
@given(decorated_trees(max_edges=7))
@example(HALF_TREE)
def test_coefficients_are_int_or_proper_fraction(t):
    """Delta_-, Delta_+ on each of its remainders and the full expansion.
    The expansion grows much faster than Delta_-: a drawn tree whose Delta_-
    has 300 terms expands to 2.5 million terms in over a minute.  So the
    expansion is built where Delta_- has at most 60 terms (about 0.3 s)."""
    table = KPZ.table
    dm = delta_minus(t, table, div_enumerate(t, table))
    sums = [dm] + [delta_plus(remainder, table) for (_, remainder), _ in dm.items()]
    if len(dm) <= 60:
        sums.append(bphz_expansion(t, table))
    for s in sums:
        assert all(stored_exactly(c) for _, c in s.items())


@settings(max_examples=40, deadline=None)
@given(decorated_trees(max_edges=7))
@example(HALF_TREE)
def test_expansion_matches_own_recursion(t):
    """The expansion, which reads A_-(T) of the tree off its own Delta_-,
    equals the one whose A_-(T) goes through its own recursion.  HALF_TREE's
    boundary decorations give remainders with o labels, which A_-(T) drops.
    The expansion is built where Delta_- has at most 60 terms, as in
    `test_coefficients_are_int_or_proper_fraction`."""
    table = KPZ.table
    assume(len(delta_minus(t, table, div_enumerate(t, table))) <= 60)
    assert bphz_expansion(t, table) == hopf_oracle.bphz_expansion(t, table)


def test_expansion_with_half_coefficients():
    bp = bphz_expansion(HALF_TREE, KPZ.table)
    assert len(bp) == 116
    assert {c for _, c in bp.items()} == {1, -1, Fraction(1, 2), Fraction(-1, 2)}
    assert any(type(c) is Fraction for _, c in bp.items())
