"""Divergent subtrees, positive cuts, forests of subtrees and their parent
map (`forest_parents`: A_F, and through it C_F and the maximal members),
the layered i-forests of the negative twisted antipode, and the leaf
partitions that forests must be compatible with.  Which divergences a
partition admits is a per-tree table, `powercount.TreeAnalysis.compatible`,
built once from each divergence's leaf set."""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .rules import CumulantSet
from .scaling import TypeTable
from .trees import DecoratedTree, EdgeKey, SubForest, divergent_subtrees, up_hom_table, zero_node_hom

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
    leaves with their noise edges, is a proper part of `sf`, no other edge
    of `sf` leaves the span below the join, and the span's zero-label
    homogeneity is negative.  A kernel edge out of a leaf is no part of the
    span: out of the join it hangs beside the span, and out of a leaf below
    the join it leaves the span there."""
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
    noises = [e for e in t.noise_edges(table) if e[0] in block]
    interior = below.union(c for _, c in noises)
    edges = frozenset({(t.parent(v), v) for v in below}.union(noises))
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
    `all_subtrees` (`trees.divergent_subtrees`, which reads every
    subtree's omega off the shape).  Those whose renormalization constant
    vanishes identically are listed too; `irreducible_partition_exists`
    tells them apart."""
    out = divergent_subtrees(t, table)
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


def forest_parents(forest: ForestOfSubtrees) -> dict[SubForest, Optional[SubForest]]:
    """A_F as a map: each member to the smallest member strictly above it,
    None for a maximal member.  C_F(S) is the members whose parent is S.
    The members strictly above one member contain it, so they form a chain:
    visited largest first, the last of them visited is the parent."""
    parents: dict[SubForest, Optional[SubForest]] = {}
    seen: list[SubForest] = []
    for s in sorted(forest, key=lambda x: (-len(x.nodes), x.sort_key())):
        parents[s] = next((a for a in reversed(seen) if subtree_lt(s, a)), None)
        seen.append(s)
    return parents


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


# -- sigma constructions ---------------------------------------------------------


def sigma_negative(t: DecoratedTree, forest: ForestOfSubtrees) -> tuple[DecoratedTree, ...]:
    """The layered i-forest sigma_F: each member S as a piece of its own,
    colored by [C_F(S)]_1.  The generations of F are disjoint, and the next
    generation inside S is exactly C_F(S), so its members are the piece's
    color-1 components, handed to it in `sort_key` order (which, for
    disjoint subtrees, is the order of their smallest nodes).  Sorted by
    `SubForest.sort_key`; the empty forest gives ()."""
    parents = forest_parents(forest)
    pieces = []
    for s in sorted(forest, key=SubForest.sort_key):
        kids = sorted((c for c, p in parents.items() if p == s), key=SubForest.sort_key)
        pieces.append(t.restrict(s).with_(hat1=kids))
    return tuple(pieces)


def cuts_avoiding(cuts: Sequence[EdgeKey], forest: ForestOfSubtrees) -> list[EdgeKey]:
    """C_F: the positive cuts not lying in any member of the forest."""
    used: set[EdgeKey] = set()
    for s in forest:
        used |= s.edges
    return [e for e in cuts if e not in used]
