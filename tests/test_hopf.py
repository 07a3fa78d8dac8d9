import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hopf_oracle
from conftest import BPHZ_TERMS, KPZ, colored_trees, decorated_trees
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
    extraction_multisets,
    map_keys,
    probe_headrooms,
    recentered_plus_hom,
    recentered_up_hom,
    recentering_cases,
    tensor,
)
from renormforest.forests import cut_enumerate, div_enumerate, sigma_negative
from renormforest.formal import FormalSum
from renormforest.hopf import (
    _admissible_rooted,
    _AntipodeMinus,
    _AntipodePlus,
    _boundary,
    _dangle_headroom,
    _extractions,
    bphz_expansion,
    counterterm_report,
    delta_minus,
    delta_plus,
    in_X_minus,
    in_X_plus,
    sorted_pieces,
)
from renormforest.scaling import MultiIndex, ZERO_MI, multiindices_below
from renormforest.trees import (
    EMPTY_SUBFOREST,
    DecoratedTree,
    SubForest,
    integrate,
    poly,
    tree_product,
    up_hom_table,
)
from renormforest.workbench import Workbench, parse_config

ROOT = Path(__file__).resolve().parent.parent
TREES = [(m, f"T{i}") for m in sorted(BPHZ_TERMS) for i in range(len(BPHZ_TERMS[m]))]


def cherry_subtrees(t, table):
    return [
        s
        for s in t.all_subtrees(table, min_true_nodes=2)
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
    full = t.full_subforest()
    assert membership(t.with_(hat2=full), table)["in_X_plus"]


def test_x_plus_dangling(kpz):
    t = kpz.t211
    table = kpz.table
    e = cut_enumerate(t, table)[0][0]
    base = down_tree(t, [e])
    colored = t.with_(hat2=base)
    assert in_X_plus(colored, table)
    # coloring just the root leaves a negative dangling tree
    root_only = SubForest(frozenset({t.root}), frozenset())
    assert not in_X_plus(t.with_(hat2=root_only), table)


def test_delta_minus_unit(phi4):
    dm = delta_minus(phi4.xi, phi4.table)
    # only the empty extraction survives the projection for a lone noise?
    # no: the noise itself is extractable; the unit term is always present
    keys = dict(dm.items())
    assert ((), phi4.xi) in keys


def test_delta_minus_triple_filtered(phi4):
    """With the vanishing filter only the unit and the three single-cherry
    extractions are materialized, each with coefficient 1 and no boundary
    decorations; they share one iso class."""
    t = phi4.t111
    dm = delta_minus(t, phi4.table, candidates=div_enumerate(t, phi4.table, phi4.cum))
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
        classes.add(piece.relabel_canonical().canonical_code())
        assert remainder.hat1 == piece.full_subforest()
    assert len(classes) == 1
    assert classes == {phi4.t11.canonical_code()}


def test_delta_minus_triple_faithful(phi4):
    """Unfiltered, the coaction extracts every subforest with negative
    components: lone noises, planted noises, cherries, their disjoint
    products, and the full tree."""
    t = phi4.t111
    dm = delta_minus(t, phi4.table)
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
    dm = delta_minus(t, phi4.table, candidates=div_enumerate(t, phi4.table, phi4.cum))
    shapes = sorted(
        tuple(sorted(len(p.edge_items) for p in k[0])) for k, _ in dm.items()
    )
    assert (4, 4) in shapes  # the two-cherry forest
    assert (9,) in shapes    # the four-noise subtree
    assert (4,) in shapes


def test_antipode_minus_base_and_cherry(phi4):
    """The empty forest maps to itself.  A cherry maps to its bare term
    -cherry and to 11 terms that extract its lone and planted noises: the
    antipode extracts every divergent subtree, vanishing constants
    included."""
    assert _AntipodeMinus(phi4.table).forest(()) == FormalSum.single(((),))
    cherry_piece = phi4.t111.restrict(cherry_subtrees(phi4.t111, phi4.table)[0])
    out = _AntipodeMinus(phi4.table).forest((cherry_piece,))
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
    both = _AntipodeMinus(table).forest(pieces)
    a = _AntipodeMinus(table).forest((pieces[0],))
    b = _AntipodeMinus(table).forest((pieces[1],))
    merged = map_keys(tensor(a, b), lambda k: (sorted_pieces(k[0] + k[1]),))
    assert both == merged


@pytest.fixture(scope="module")
def workbenches():
    return {
        m: Workbench(parse_config((ROOT / "configs" / f"{m}.json").read_text(encoding="utf-8")))
        for m in BPHZ_TERMS
    }


@pytest.mark.parametrize("model,tree_id", TREES, ids=[f"{m}-{t}" for m, t in TREES])
def test_extractions_match_edge_subset_scan(workbenches, model, tree_id):
    """The extractions built from the listed divergent subtrees are those
    built from every connected edge set of the tree, as a multiset of (G,
    coefficient, pieces, n_G, e_G): plain, proper, and from the effective
    ones against the oracle's vanishing filter."""
    wb = workbenches[model]
    t, table, cum = wb.tree_by_id(tree_id), wb.config.table, wb.config.cum
    for kw in ({}, {"proper": True}, {"vanishing": cum}):
        got, want = extraction_multisets(t, table, **kw)
        assert got == want, kw
    for kw in ({}, {"proper": True}, {"candidates": div_enumerate(t, table, cum)}):
        assert next(_extractions(t, table, **kw))[2] == [], kw  # the empty forest comes first


# -- recentering bounds against probe trees ------------------------------------------


def assert_headroom_matches_probe(piece, s, table):
    """The headroom of S's boundary edges from the piece's up-tree table
    equals the probe's, for every split of S's node labels."""
    want = _dangle_headroom(_boundary(piece, s.nodes, s.edges, table), up_hom_table(piece, table))
    assert all(h == want for h in probe_headrooms(piece, s, table))


def assert_x_plus_matches_probe(piece, table):
    """X_+ membership, the bounds on the f decorations at the foot of the
    dangling trees and the positive antipode's recentered subtrees equal
    their probe-based versions."""
    assert in_X_plus(piece, table) == hopf_oracle.in_X_plus(piece, table)
    f_slots = sorted(_boundary(piece, piece.hat2.nodes, piece.hat2.edges, table))
    probe = {e: recentered_plus_hom(piece, up_tree(piece, e), table) for e in f_slots}
    got = _dangle_headroom(f_slots, up_hom_table(piece, table))
    assert got == (probe if all(h > 0 for h in probe.values()) else None)
    assert list(_AntipodePlus(table)._abar2(piece, f_slots)) == hopf_oracle.abar2(piece, table)


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
    for s in _admissible_rooted(piece, table):
        if piece.hat2.nodes <= s.nodes and piece.hat2.edges <= s.edges:
            assert_headroom_matches_probe(piece, s, table)
    plain = piece.with_(hat1=EMPTY_SUBFOREST, hat2=EMPTY_SUBFOREST, o_label={})
    up = up_hom_table(plain, table)
    assert up == {e: recentered_up_hom(plain, e, table) for e, _ in plain.edge_items}
    assert cut_enumerate(plain, table) == hopf_oracle.cut_enumerate(plain, table)


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
    if not (piece.hat2.nodes and in_X_plus(piece, table)):
        dp = delta_plus(piece.with_(hat2=EMPTY_SUBFOREST), table)
        remainders = sorted((r for _, r in dp.keys()), key=lambda r: repr(r.embedded_key()))
        piece = data.draw(st.sampled_from(remainders))
    up = up_hom_table(piece, table).values()
    assume(math.prod(max(1, len(multiindices_below(table.scaling, h))) for h in up) <= 100)
    assert _AntipodePlus(table).run(piece) == hopf_oracle.AntipodePlusLoop(table).run(piece)


def test_antipode_nested_four_noise(phi4):
    """Two-level recursion on the four-noise subtree: expanding the
    expectations gives the bare symbol, two single-cherry corrections, and
    the double-cherry correction with alternating signs."""
    from renormforest.hopf import _RenormalizedConstant

    t = phi4.t131
    table = phi4.table
    four = [
        s
        for s, w in div_enumerate(t, table, phi4.cum)
        if len(s.edges) == 9 and t.root in s.nodes
    ][0]
    piece = t.restrict(four)
    rc = _RenormalizedConstant(table, phi4.cum)
    expansion = rc.of(piece)
    coeffs = sorted(expansion.items(), key=lambda kv: len(kv[0][0]))
    by_len = {}
    for key, coeff in expansion.items():
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
        divs = [s for s, _ in div_enumerate(tree, table, setting.cum, effective=False)]
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
            out = _AntipodeMinus(table).forest(pieces)
            allowed = {
                sigma_negative(tree, g): g for g in forests_with_max(divs, f_max)
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
    full = t.full_subforest()
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
    dm = delta_minus(phi4.t111, phi4.table)
    assert len(bp) >= len(dm)


def test_report_111(phi4):
    rep = counterterm_report(phi4.t111, phi4.table, phi4.cum)
    assert len(rep.monomials) == 1
    m = rep.monomials[0]
    assert m.coefficient == -3
    assert len(m.constants) == 1 and m.constants[0].startswith("C[")
    assert m.residual.canonical_code() == phi4.t1.canonical_code()


def test_report_131(phi4):
    rep = counterterm_report(phi4.t131, phi4.table, phi4.cum)
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
    rep = counterterm_report(phi4.xi, phi4.table, phi4.cum)
    assert rep.monomials == ()


def test_coaction_outputs_reconform(phi4):
    """Completeness probe: the plain shapes appearing in coaction outputs
    conform to the generating rule."""
    dm = delta_minus(phi4.t111, phi4.table, candidates=div_enumerate(phi4.t111, phi4.table, phi4.cum))
    for (extracted, remainder), _ in dm.items():
        for p in extracted:
            assert conforms(phi4.rule, p.relabel_canonical())
        contracted = remainder.contract_colored(phi4.table).relabel_canonical()
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
    dm = delta_minus(t, table)
    sums = [dm] + [delta_plus(remainder, table) for (_, remainder), _ in dm.items()]
    if len(dm) <= 60:
        sums.append(bphz_expansion(t, table))
    for s in sums:
        assert all(stored_exactly(c) for _, c in s.items())


def test_expansion_with_half_coefficients():
    bp = bphz_expansion(HALF_TREE, KPZ.table)
    assert len(bp) == 116
    assert {c for _, c in bp.items()} == {1, -1, Fraction(1, 2), Fraction(-1, 2)}
    assert any(type(c) is Fraction for _, c in bp.items())
