"""Scale assignments on the edge universe, internal/external scales read
off a forest's parent map (`forests.forest_parents`), the safe-forest
projection, path scales, and the harvested-cut rule.

The edge universe of a chaos class is the multigraph K(T) + E_pi + E_star
on the basepoint `STAR` and the tree's true nodes, encoded once per class:
`verts` lists `STAR` and then the true nodes in order, `index` gives each
vertex's position there, `tags` lists the edge tags (kernel, then cumulant,
then basepoint edges, each group sorted), and `masks` maps each tag to the
bitmask of its endpoints' positions.  The certifier's vertex subsets and
the scale rules here read the same encoding: for a connected subtree S,
whose true nodes N(S) never include `STAR`, E^int(S) is the tags with both
ends in N(S) and E^ext(S) those with exactly one, one mask test per tag.

`project` applies the rules to a forest at given scales; the certifier
(`powercount.Certifier`) calls them at the 0/1 scales of one vertex subset
to decide whether a coalescence tree through it is realizable."""
from __future__ import annotations

import itertools
import random
from typing import Iterable, Mapping, Optional, Sequence

from .forests import CutSet, ForestOfSubtrees, cuts_avoiding, forest_parents
from .scaling import TypeTable
from .trees import DecoratedTree, EdgeKey, StructureError, SubForest

STAR = "*"
# Scales run over 0..SCALE_RANGE: the bound `project` checks (the
# `scale_range` cap's default) and the range `random_assignment` draws from.
SCALE_RANGE = 64

# Edge tags: ("K", (p, c)) kernel edge, ("pi", (u, v)) cumulant edge within a
# block, ("star", u) basepoint edge.  Tagging keeps duplicated node pairs
# distinguishable.
EdgeTag = tuple


class EdgeUniverse:
    """K(T) + E_pi + E_star for a tree and a partition of (some of) its
    noises, with its vertex order and endpoint masks."""

    def __init__(self, tree: DecoratedTree, table: TypeTable, pi: frozenset[frozenset[int]]):
        true = sorted(tree.true_nodes(table))
        self.verts = (STAR, *true)
        self.index = {v: i for i, v in enumerate(self.verts)}
        pairs = (("pi", p) for block in pi for p in itertools.combinations(sorted(block), 2))
        self.tags = (
            *(("K", e) for e in sorted(tree.kernel_edges(table))),
            *sorted(pairs),
            *(("star", u) for u in true),
        )
        self.masks = {tag: self.node_mask(self.endpoints(tag)) for tag in self.tags}

    @staticmethod
    def endpoints(tag: EdgeTag) -> frozenset:
        kind, data = tag
        if kind == "star":
            return frozenset({STAR, data})
        return frozenset(data)

    def node_mask(self, nodes: Iterable) -> int:
        """The bitmask of the vertices among the distinct `nodes`; a
        fictitious node is no vertex and adds nothing."""
        return sum(1 << self.index[v] for v in nodes if v in self.index)

    def random_assignment(self, rng: random.Random, lo: int = 0, hi: int = SCALE_RANGE) -> dict:
        return {tag: rng.randint(lo, hi) for tag in self.tags}


def internal_tags(eu: EdgeUniverse, s: SubForest) -> frozenset[EdgeTag]:
    """E^int(S): the tags with both ends in N(S), that is the kernel edges
    of S and the cumulant edges within N(S)."""
    inside = eu.node_mask(s.nodes)
    return frozenset(tag for tag, m in eu.masks.items() if m & inside == m)


def int_ext(
    eu: EdgeUniverse,
    s: SubForest,
    parents: Mapping[SubForest, Optional[SubForest]],
    n: Mapping[EdgeTag, int],
) -> tuple[int, int]:
    """(int_F(S), ext_F(S)) for a member S of a forest F, given F's parent
    map (`forest_parents`): the least scale of S's internal edges outside
    its children C_F(S), the members whose parent is S, and the greatest
    scale of its external edges inside its parent A_F(S), which for a
    maximal member is the whole edge universe.  For a compatible subtree S
    outside F, pass the map of F + {S}.

    One pass over the tags reads each endpoint mask against the masks of
    N(S), of the children and of the parent (-1, every vertex, for a
    maximal member)."""
    inside = eu.node_mask(s.nodes)
    kids = [eu.node_mask(c.nodes) for c, p in parents.items() if p == s]
    anc = parents[s]
    outer = -1 if anc is None else eu.node_mask(anc.nodes)
    internal, external = [], []
    for tag, m in eu.masks.items():
        if m & inside == m:
            if not any(m & k == m for k in kids):
                internal.append(n[tag])
        elif m & inside and m & outer == m:
            external.append(n[tag])
    if not internal:
        raise StructureError("no internal edges left for the subtree")
    if not external:
        raise StructureError("no external edges for the subtree")
    return min(internal), max(external)


def safe_projection(
    eu: EdgeUniverse, forest: ForestOfSubtrees, n: Mapping[EdgeTag, int]
) -> ForestOfSubtrees:
    """P^n[F]: the members whose internal scale does not exceed their
    external scale (computed mod F, on F's parent map built once)."""
    parents = forest_parents(forest)
    safe = []
    for s in forest:
        i, e = int_ext(eu, s, parents, n)
        if i <= e:
            safe.append(s)
    return frozenset(safe)


INF = float("inf")


def path_scale(
    eu: EdgeUniverse,
    u,
    v,
    forest: ForestOfSubtrees,
    n: Mapping[EdgeTag, int],
) -> float:
    """n_F(u, v): the best bottleneck over connecting edge sets, where edges
    internal to the forest cost nothing (treated as infinitely high)."""
    internal: set[EdgeTag] = set()
    for s in forest:
        internal |= internal_tags(eu, s)
    weight = {tag: (INF if tag in internal else n[tag]) for tag in eu.tags}
    # widest-path: maximize the minimum edge weight along the path
    best = {u: INF}
    frontier = [u]
    while frontier:
        nxt: list = []
        for a in frontier:
            for tag, w in weight.items():
                pts = eu.endpoints(tag)
                if a in pts:
                    for b in pts:
                        if b == a:
                            continue
                        cand = min(best[a], w)
                        if cand > best.get(b, -1):
                            best[b] = cand
                            nxt.append(b)
        frontier = nxt
    if v not in best:
        raise StructureError(f"vertices {u!r}, {v!r} not connected in the edge universe")
    return best[v]


def harvested_cuts(
    eu: EdgeUniverse,
    forest: ForestOfSubtrees,
    cuts: Sequence[EdgeKey],
    n: Mapping[EdgeTag, int],
) -> CutSet:
    """G^n(F): positive cuts outside F whose kernel would beat the best
    route to the basepoint, restricted to the cuts avoiding the forest."""
    out = set()
    for e in cuts_avoiding(cuts, forest):
        if path_scale(eu, STAR, e[0], forest, n) > path_scale(eu, e[0], e[1], forest, n):
            out.add(e)
    return frozenset(out)
