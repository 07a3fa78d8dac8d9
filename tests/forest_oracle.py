"""Test-only reference constructions for forests of subtrees and for the
twisted antipodes of `hopf`.

The scans below (`forest_children`, `forest_maximal`, `depth_sets`,
`immediate_ancestor`) and the tuple-based `sigma_negative` are how `forests`
and `multiscale` first worked out C_F, the maximal members, the generations,
A_F and the layered i-forest sigma_F, each by scanning the forest; the
tests compare `forests.forest_parents` and `forests.sigma_negative` against
them.  The negative antipode of a forest of divergences is a sum over the
forests with the same maximal members, each seen through its layered
i-forest; the positive antipode of a tree with one cut is a sum over the
cut sets with that minimal layer, each seen through the positive cutting
construction `sigma_positive` below.  No command builds these families, so
they live here, where the tests of `hopf._AntipodeMinus` and
`hopf._AntipodePlus` compare the antipodes' output shapes against them.
`div_enumerate_scan` is `forests.div_enumerate` as it summed every subtree's
omega anew on each call, before it read the shape's list
(`trees.subtree_omegas`).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from renormforest.forests import CutSet, ForestOfSubtrees, all_forests, subtree_lt
from renormforest.hopf import in_X_minus, in_X_plus
from renormforest.scaling import TypeTable
from tree_oracle import restrict
from renormforest.trees import (
    EMPTY_SUBFOREST,
    DecoratedTree,
    EdgeKey,
    StructureError,
    SubForest,
    up_hom_table,
    zero_node_hom,
)
from renormforest.workbench import DEFAULT_CAPS


def div_enumerate_scan(t: DecoratedTree, table: TypeTable) -> list[tuple[SubForest, Fraction]]:
    """The subtrees with omega > 0, in `all_subtrees` order, each omega
    summed from the labelled edge weights."""
    weight = {e: table.hom(ty) - t.edge_dec(e).sdeg(table.scaling) for e, ty in t.edge_items}
    out = []
    for sf in t.all_subtrees():
        w = -sum((weight[e] for e in sf.edges), Fraction(0))
        if w > 0:
            out.append((sf, w))
    return out


def up_tree(t: DecoratedTree, e: EdgeKey) -> SubForest:
    """T_>=(e): the subtree of everything at or above the edge e."""
    nodes = {e[0], e[1]}
    stack = [e[1]]
    edges = {e}
    while stack:
        u = stack.pop()
        for f in t.children(u):
            edges.add(f)
            nodes.add(f[1])
            stack.append(f[1])
    return SubForest(frozenset(nodes), frozenset(edges))


def dangling_trees(t: DecoratedTree, base: SubForest, table: TypeTable) -> list[SubForest]:
    """T(T, base): the up-trees hanging off the base subtree."""
    out = []
    for e in t.kernel_edges(table):
        if e[0] in base.nodes and e[1] not in base.nodes:
            out.append(up_tree(t, e))
    return out


def membership(piece: DecoratedTree, table: TypeTable) -> dict:
    return {
        "in_X_minus": in_X_minus(piece, table),
        "in_X_plus": in_X_plus(piece, table, up_hom_table(piece, table)),
    }


def undecorated_piece(
    sf: SubForest, hat1: SubForest = EMPTY_SUBFOREST, hat2: SubForest = EMPTY_SUBFOREST
) -> tuple:
    """A piece of an i-forest as sorted tuples: its nodes, its edges and
    the sort keys of its color-1 and color-2 parts."""
    return (tuple(sorted(sf.nodes)), tuple(sorted(sf.edges)), hat1.sort_key(), hat2.sort_key())


def undecorated_forest_shape(pieces: Sequence[DecoratedTree]) -> tuple:
    """The underlying undecorated colored i-forest of a slot entry, in the
    same format as the sigma constructions."""
    out = []
    for p in pieces:
        out.append(
            (
                tuple(sorted(p.nodes)),
                tuple(sorted(e for e, _ in p.edge_items)),
                p.hat1.sort_key(),
                p.hat2.sort_key(),
            )
        )
    return tuple(sorted(out))


# -- forests of subtrees by scanning -------------------------------------------------


def forest_children(forest: ForestOfSubtrees, s: SubForest) -> frozenset:
    """C_F(S): maximal members strictly below S."""
    below = [x for x in forest if subtree_lt(x, s)]
    return frozenset(
        x for x in below if not any(x != y and subtree_lt(x, y) for y in below)
    )


def forest_maximal(forest: ForestOfSubtrees) -> frozenset:
    return frozenset(
        x for x in forest if not any(x != y and subtree_lt(x, y) for y in forest)
    )


def depth_sets(forest: ForestOfSubtrees) -> list[frozenset]:
    """[D_1, D_2, ...]: generations of the forest, maximal members first."""
    out = []
    level = forest_maximal(forest)
    while level:
        out.append(level)
        nxt: set[SubForest] = set()
        for s in level:
            nxt |= forest_children(forest, s)
        level = frozenset(nxt)
    return out


def immediate_ancestor(forest: ForestOfSubtrees, s: SubForest) -> Optional[SubForest]:
    """A_F(S): the minimal member strictly above S; None encodes the whole
    ambient universe."""
    above = [x for x in forest if subtree_lt(s, x)]
    if not above:
        return None
    return min(above, key=lambda x: (len(x.nodes), x.sort_key()))


def _union_subforests(sfs: Iterable[SubForest]) -> SubForest:
    nodes: set[int] = set()
    edges: set[EdgeKey] = set()
    for s in sfs:
        nodes |= s.nodes
        edges |= s.edges
    return SubForest(frozenset(nodes), frozenset(edges))


def sigma_negative(t: DecoratedTree, forest: ForestOfSubtrees) -> tuple:
    """The layered i-forest sigma_F: for k = depth..1 the components of
    D_k(F), each colored by [D_{k+1}(F)]_1.  Returned as a sorted tuple of
    undecorated pieces; the empty forest gives ()."""
    levels = depth_sets(forest)
    pieces: list[tuple] = []
    for k, level in enumerate(levels):
        below = levels[k + 1] if k + 1 < len(levels) else frozenset()
        paint = _union_subforests(below)
        for s in sorted(level, key=lambda x: x.sort_key()):
            pieces.append(
                undecorated_piece(
                    s,
                    hat1=SubForest(paint.nodes & s.nodes, paint.edges & s.edges),
                )
            )
    return tuple(sorted(pieces))


# -- forests with prescribed maximal members ----------------------------------------


def depth(forest: ForestOfSubtrees) -> int:
    return len(depth_sets(forest))


def forests_with_max(
    universe: Sequence[SubForest], maximal: ForestOfSubtrees
) -> list[ForestOfSubtrees]:
    """F[F0]: forests whose set of maximal members is exactly `maximal`
    (empty unless `maximal` has depth <= 1)."""
    if maximal and depth(maximal) > 1:
        return []
    inside = [
        s
        for s in universe
        if any(subtree_lt(s, m) for m in maximal)
    ]
    out = []
    for g in all_forests(inside, DEFAULT_CAPS["max_div"]):
        cand = frozenset(maximal | g)
        if forest_maximal(cand) == frozenset(maximal):
            out.append(cand)
    return out


# -- the positive cutting construction ----------------------------------------------


def down_tree(t: DecoratedTree, cuts: Iterable[EdgeKey]) -> SubForest:
    """T_not>=[C]: everything below or incomparable to the minimal cuts."""
    removed_edges: set[EdgeKey] = set()
    removed_nodes: set[int] = set()
    for e in min_cuts(t, cuts):
        sf = up_tree(t, e)
        removed_edges |= sf.edges
        removed_nodes |= sf.nodes - {e[0]}
    edges = frozenset(e for e, _ in t.edge_items if e not in removed_edges)
    nodes = frozenset(t.nodes - removed_nodes)
    return SubForest(nodes, edges)


def edge_le(t: DecoratedTree, e: EdgeKey, f: EdgeKey) -> bool:
    """e <= f iff e lies on the path from f's child to the root."""
    v: Optional[int] = f[1]
    while v is not None:
        p = t.parent(v)
        if p is not None and (p, v) == e:
            return True
        v = p
    return False


def min_cuts(t: DecoratedTree, cuts: Iterable[EdgeKey]) -> frozenset[EdgeKey]:
    cs = set(cuts)
    return frozenset(
        e for e in cs if not any(f != e and edge_le(t, f, e) for f in cs)
    )


def cut_children(t: DecoratedTree, cuts: CutSet, e: EdgeKey) -> frozenset[EdgeKey]:
    above = [f for f in cuts if f != e and edge_le(t, e, f)]
    return frozenset(
        f for f in above if not any(g != f and edge_le(t, g, f) for g in above)
    )


def cut_depth_sets(t: DecoratedTree, cuts: CutSet) -> list[frozenset[EdgeKey]]:
    out = []
    level = min_cuts(t, cuts)
    while level:
        out.append(level)
        nxt: set[EdgeKey] = set()
        for e in level:
            nxt |= cut_children(t, cuts, e)
        level = frozenset(nxt)
    return out


def cut_depth(t: DecoratedTree, cuts: CutSet) -> int:
    return len(cut_depth_sets(t, cuts))


def forest_under_cuts(
    t: DecoratedTree, forest: ForestOfSubtrees, cuts: Iterable[EdgeKey], table: TypeTable
) -> frozenset:
    """F[C]: members lying inside some dangling tree of T_not>=[C]."""
    base = down_tree(t, cuts)
    dangle = dangling_trees(t, base, table)
    return frozenset(
        s for s in forest if any(s.nodes <= d.nodes and s.edges <= d.edges for d in dangle)
    )


def forest_between_cuts(
    t: DecoratedTree,
    forest: ForestOfSubtrees,
    cuts: Iterable[EdgeKey],
    deeper: Iterable[EdgeKey],
    table: TypeTable,
) -> frozenset:
    """F[C, D]: members of F[C] contained in T_not>=[D]."""
    low = down_tree(t, deeper)
    return frozenset(
        s
        for s in forest_under_cuts(t, forest, cuts, table)
        if s.nodes <= low.nodes and s.edges <= low.edges
    )


def sigma_positive(
    t: DecoratedTree, cuts: CutSet, forest: ForestOfSubtrees, table: TypeTable
) -> tuple:
    """The i-forest sigma_{C,F} of the positive cutting construction."""
    for s in forest:
        if set(cuts) & s.edges:
            raise StructureError("forest must avoid the cut set")
    if not cuts:
        full = SubForest(t.nodes, t.edge_set)
        return (undecorated_piece(full, hat2=full),)
    levels = cut_depth_sets(t, cuts)
    k = len(levels)
    pieces = []
    for j in range(1, k + 1):
        d_j = levels[j - 1]
        d_next = levels[j] if j < k else frozenset()
        ambient_j = down_tree(t, d_next)
        hat2 = down_tree(t, d_j)
        paint1 = _union_subforests(forest_between_cuts(t, forest, d_j, d_next, table))
        pieces.append(
            undecorated_piece(
                ambient_j,
                hat1=SubForest(
                    paint1.nodes & ambient_j.nodes, paint1.edges & ambient_j.edges
                ),
                hat2=SubForest(hat2.nodes & ambient_j.nodes, hat2.edges & ambient_j.edges),
            )
        )
    return tuple(sorted(pieces))


# -- pendant-reducible blocks -------------------------------------------------------


def span_of_block(t: DecoratedTree, sf: SubForest, leaves: Sequence[int], table: TypeTable) -> SubForest:
    """The span of a block as `forests` first built it: the path of each
    leaf up inside `sf` to the join, and the edges of `sf` out of a leaf
    that are noise edges."""
    paths: list[list[int]] = []
    for u in leaves:
        path = [u]
        v = u
        while True:
            p = t.parent(v)
            if p is None or v not in sf.nodes or (p, v) not in sf.edges:
                break
            path.append(p)
            v = p
        paths.append(path)
    common = set(paths[0])
    for p in paths[1:]:
        common &= set(p)
    lca = next(v for v in paths[0] if v in common)
    nodes: set[int] = set()
    for path in paths:
        for v in path:
            nodes.add(v)
            if v == lca:
                break
    edges = {e for e in sf.edges if e[0] in nodes and e[1] in nodes}
    out_of_leaves = {e for e in sf.edges if e[0] in set(leaves) and table.is_noise(t.edge_type(e))}
    nodes.update(c for _, c in out_of_leaves)
    return SubForest(frozenset(nodes), frozenset(edges | out_of_leaves))


def block_pendant_reducible(
    t: DecoratedTree, sf: SubForest, block: Sequence[int], table: TypeTable
) -> bool:
    """`forests._block_pendant_reducible` as first written: the span
    restricted to a tree to read its leaves, and its root looked up."""
    span = span_of_block(t, sf, block, table)
    if span.edges == sf.edges:
        return False
    if restrict(t, span).leaf_nodes(table) != frozenset(block):
        return False
    interior = span.nodes - {t.subtree_root(span)}
    if any(e[0] in interior for e in sf.edges - span.edges):
        return False
    return zero_node_hom(t, span, table) < 0
