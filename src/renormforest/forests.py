"""Divergent subtrees, positive cuts, forests of subtrees, the layered
i-forests of the negative twisted antipode, and the leaf partitions that
forests must be compatible with."""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .rules import CumulantSet
from .scaling import TypeTable
from .trees import EMPTY_SUBFOREST, DecoratedTree, EdgeKey, SubForest, up_hom_table, zero_node_hom

ForestOfSubtrees = frozenset  # frozenset[SubForest], pairwise nested-or-disjoint
CutSet = frozenset  # frozenset[EdgeKey], subset of the positive cuts


class CapExceeded(RuntimeError):
    """An exhaustive enumeration would exceed a configured cap."""


# -- effective divergences -----------------------------------------------------
#
# A power-counting divergent subtree whose renormalization constant vanishes
# identically never contributes a counterterm.  The constant vanishes when no
# admissible full partition of the subtree's noises exists (parity/typing,
# including the vanishing first moment of a lone noise), and also when every
# admissible partition contains a block whose noises sit in a pendant
# sub-branch: by translation invariance the pendant factor is a constant, so
# the subtraction of that block's own counterterm cancels the term exactly.
# Filtering on this criterion reproduces the worked renormalization tables.


def _block_pendant_reducible(
    t: DecoratedTree, sf: SubForest, block: Sequence[int], table: TypeTable
) -> bool:
    """The block's span, the connected subtree of `sf` joining the block's
    leaves with every edge of `sf` out of them (their noise edges, and a
    kernel edge out of one of them too), is a proper part of `sf`, no other
    edge of `sf` leaves the span below the join, and the span's zero-label
    homogeneity is negative."""
    top = t.subtree_root(sf)
    paths = []
    for u in block:
        path = [u]
        while path[-1] != top:
            path.append(t.parent(path[-1]))
        paths.append(path)
    common = set(paths[0]).intersection(*paths[1:])
    # each path runs deepest-first, so the first common node is the join
    join = next(v for v in paths[0] if v in common)
    below = {v for path in paths for v in path[: path.index(join)]}
    out_of_leaves = [e for e in sf.edges if e[0] in block]
    interior = below.union(c for _, c in out_of_leaves)
    edges = frozenset({(t.parent(v), v) for v in below}.union(out_of_leaves))
    return (
        edges != sf.edges
        and not any(p in interior for p, _ in sf.edges - edges)
        and zero_node_hom(t, SubForest(frozenset(interior | {join}), edges), table) < 0
    )


def irreducible_partition_exists(
    t: DecoratedTree, sf: SubForest, cum: CumulantSet
) -> bool:
    """True when some admissible full partition of the subtree's noises has
    no pendant-reducible block (see module comment)."""
    table = cum.table
    leaves = sorted(t.leaves_of(sf, table))
    return bool(leaves) and any(
        not any(_block_pendant_reducible(t, sf, [leaves[i] for i in block], table) for block in part)
        for part in cum.partitions_of([t.leaf_type(u, table) for u in leaves])
    )


def div_enumerate(
    t: DecoratedTree, table: TypeTable, cap: int = 4096
) -> list[tuple[SubForest, Fraction]]:
    """Superficially divergent subtrees with their omega > 0, sorted like
    `all_subtrees`.  Those whose renormalization constant vanishes
    identically are listed too; `irreducible_partition_exists` tells them
    apart."""
    weight = {
        e: table.hom(ty) - t.edge_dec(e).sdeg(table.scaling) for e, ty in t.edge_items
    }
    out = []
    for sf in t.all_subtrees():
        w = -sum((weight[e] for e in sf.edges), Fraction(0))
        if w > 0:
            out.append((sf, w))
    if len(out) > cap:
        raise CapExceeded(f"|Div| = {len(out)} exceeds the cap {cap}")
    return out


# -- positive cuts -------------------------------------------------------------


def cut_enumerate(t: DecoratedTree, table: TypeTable) -> list[tuple[EdgeKey, int]]:
    """Positive cuts with their Taylor order gamma(e): the kernel edges
    whose up-tree T_>=(e), root label dropped, has positive |.|_+."""
    up = up_hom_table(t, table)
    out = []
    for e in t.kernel_edges(table):
        h = up[e]
        if h > 0:
            out.append((e, math.ceil(h)))
    return sorted(out)


# -- forests of subtrees --------------------------------------------------------


def nested_or_disjoint(a: SubForest, b: SubForest) -> bool:
    return (
        a.nodes <= b.nodes
        or b.nodes <= a.nodes
        or not (a.nodes & b.nodes)
    )


def is_forest_of_subtrees(trees: Iterable[SubForest]) -> bool:
    ts = list(trees)
    return all(
        nested_or_disjoint(a, b) for a, b in itertools.combinations(ts, 2)
    )


def subtree_lt(a: SubForest, b: SubForest) -> bool:
    return a != b and a.nodes <= b.nodes


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


def all_forests(universe: Sequence[SubForest], cap: int) -> list[ForestOfSubtrees]:
    """Every subset of `universe` that is a forest of subtrees."""
    uni = sorted(universe, key=lambda s: s.sort_key())
    n = len(uni)
    ok = [[nested_or_disjoint(uni[i], uni[j]) for j in range(n)] for i in range(n)]
    out: list[ForestOfSubtrees] = []

    def rec(i: int, acc: list[int]):
        if len(out) > cap:
            raise CapExceeded(f"forest enumeration exceeded the cap {cap}")
        if i == n:
            out.append(frozenset(uni[j] for j in acc))
            return
        rec(i + 1, acc)
        if all(ok[j][i] for j in acc):
            acc.append(i)
            rec(i + 1, acc)
            acc.pop()

    rec(0, [])
    return out


# -- partitions of the noises ---------------------------------------------------


def leaf_partitions(
    t: DecoratedTree,
    table: TypeTable,
    cum: CumulantSet,
    ground: Iterable[int],
) -> list[frozenset[frozenset[int]]]:
    """Admissible full partitions of the given leaf nodes into cumulant
    blocks (no singletons)."""
    leaves = sorted(ground)
    types = [t.leaf_type(u, table) for u in leaves]
    out = []
    for part in cum.partitions_of(types):
        out.append(frozenset(frozenset(leaves[i] for i in block) for block in part))
    return out


def compatible_partition(t: DecoratedTree, table: TypeTable, s: SubForest, pi: frozenset) -> bool:
    """A subtree and a partition are compatible when the subtree's leaf set
    is a union of blocks (a forest is compatible when each member is)."""
    ls = t.leaves_of(s, table)
    return ls <= set().union(*pi) and all(b <= ls for b in pi if b & ls)


def forests_compatible_with(
    t: DecoratedTree,
    table: TypeTable,
    universe: Sequence[SubForest],
    pi: frozenset,
    cap: int,
) -> list[ForestOfSubtrees]:
    """F_pi over the given divergent-subtree universe, at most `cap`
    forests (`all_forests`)."""
    keep = [
        s
        for s in universe
        if compatible_partition(t, table, s, pi)
    ]
    return all_forests(keep, cap)


# -- sigma constructions ---------------------------------------------------------


def _union_subforests(sfs: Iterable[SubForest]) -> SubForest:
    nodes: set[int] = set()
    edges: set[EdgeKey] = set()
    for s in sfs:
        nodes |= s.nodes
        edges |= s.edges
    return SubForest(frozenset(nodes), frozenset(edges))


UndecoratedPiece = tuple  # (nodes, edges, hat1 key, hat2 key), sorted tuples


def undecorated_piece(sf: SubForest, hat1: SubForest) -> UndecoratedPiece:
    """The piece of a layered i-forest, which has no color 2."""
    return (
        tuple(sorted(sf.nodes)),
        tuple(sorted(sf.edges)),
        hat1.sort_key(),
        EMPTY_SUBFOREST.sort_key(),
    )


def sigma_negative(t: DecoratedTree, forest: ForestOfSubtrees) -> tuple:
    """The layered i-forest sigma_F: for k = depth..1 the components of
    D_k(F), each colored by [D_{k+1}(F)]_1.  Returned as a sorted tuple of
    undecorated pieces; the empty forest gives ()."""
    levels = depth_sets(forest)
    pieces: list[UndecoratedPiece] = []
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


def cuts_avoiding(cuts: Sequence[EdgeKey], forest: ForestOfSubtrees) -> list[EdgeKey]:
    """C_F: the positive cuts not lying in any member of the forest."""
    used: set[EdgeKey] = set()
    for s in forest:
        used |= s.edges
    return [e for e in cuts if e not in used]
