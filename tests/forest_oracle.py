"""Test-only reference constructions for the twisted antipodes of `hopf`.

The negative antipode of a forest of divergences is a sum over the forests
with the same maximal members, each seen through its layered i-forest
`forests.sigma_negative`; the positive antipode of a tree with one cut is a
sum over the cut sets with that minimal layer, each seen through the
positive cutting construction `sigma_positive` below.  No command builds
these families, so they live here, where the tests of `hopf._AntipodeMinus`
and `hopf._AntipodePlus` compare the antipodes' output shapes against them.
"""
from __future__ import annotations

from typing import Iterable, Optional, Sequence

from renormforest.forests import (
    CutSet,
    ForestOfSubtrees,
    _union_subforests,
    all_forests,
    depth_sets,
    forest_maximal,
    subtree_lt,
    undecorated_piece,
)
from renormforest.hopf import in_X_minus, in_X_plus
from renormforest.scaling import TypeTable
from renormforest.trees import DecoratedTree, EdgeKey, StructureError, SubForest


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
    return {"in_X_minus": in_X_minus(piece, table), "in_X_plus": in_X_plus(piece, table)}


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
    for g in all_forests(inside):
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
        full = t.full_subforest()
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
