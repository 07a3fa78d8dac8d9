"""Scale assignments on the edge universe, internal/external scales read
off a forest's parent map (`forests.forest_parents`), the safe-forest
projection, path scales, and the harvested-cut rule."""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .forests import CutSet, ForestOfSubtrees, cuts_avoiding, forest_parents
from .scaling import TypeTable
from .trees import DecoratedTree, EdgeKey, StructureError, SubForest

STAR = "*"

# Edge tags: ("K", (p, c)) kernel edge, ("pi", (u, v)) cumulant edge within a
# block, ("star", u) basepoint edge.  Tagging keeps duplicated node pairs
# distinguishable.
EdgeTag = tuple


@dataclass(frozen=True)
class EdgeUniverse:
    """K(T) + E_pi + E_star for a tree and a partition of (some of) its
    noises."""

    tree: DecoratedTree
    table: TypeTable
    pi: frozenset[frozenset[int]]

    def kernel_tags(self) -> list[EdgeTag]:
        return [("K", e) for e in sorted(self.tree.kernel_edges(self.table))]

    def pi_tags(self) -> list[EdgeTag]:
        out = []
        for block in self.pi:
            for a, b in itertools.combinations(sorted(block), 2):
                out.append(("pi", (a, b)))
        return sorted(out)

    def star_tags(self) -> list[EdgeTag]:
        return [("star", u) for u in sorted(self.tree.true_nodes(self.table))]

    def all_tags(self) -> list[EdgeTag]:
        return self.kernel_tags() + self.pi_tags() + self.star_tags()

    def endpoints(self, tag: EdgeTag) -> frozenset:
        kind, data = tag
        if kind == "K":
            return frozenset(data)
        if kind == "pi":
            return frozenset(data)
        return frozenset({STAR, data})

    def random_assignment(self, rng: random.Random, lo: int = 0, hi: int = 64) -> dict:
        return {tag: rng.randint(lo, hi) for tag in self.all_tags()}


def _true_nodes(eu: EdgeUniverse, s: SubForest) -> frozenset[int]:
    """N(S): the nodes of S except the fictitious ends of noise edges."""
    return s.nodes - eu.tree.fictitious_nodes(eu.table)


def internal_tags(eu: EdgeUniverse, s: SubForest) -> frozenset[EdgeTag]:
    """E^int(S): kernel edges of S plus cumulant edges within N(S)."""
    true = _true_nodes(eu, s)
    # an edge of S is a kernel edge exactly when its child is a true node
    out = {("K", e) for e in s.edges if e[1] in true}
    for tag in eu.pi_tags():
        a, b = tag[1]
        if a in true and b in true:
            out.add(tag)
    return frozenset(out)


def incident_tags(eu: EdgeUniverse, s: SubForest) -> frozenset[EdgeTag]:
    true = _true_nodes(eu, s)
    out = set()
    for tag in eu.all_tags():
        if eu.endpoints(tag) & true:
            out.add(tag)
    return frozenset(out)


def external_tags(eu: EdgeUniverse, s: SubForest) -> frozenset[EdgeTag]:
    return incident_tags(eu, s) - internal_tags(eu, s)


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
    outside F, pass the map of F + {S}."""
    internal = internal_tags(eu, s)
    for child, parent in parents.items():
        if parent == s:
            internal = internal - internal_tags(eu, child)
    if not internal:
        raise StructureError("no internal edges left for the subtree")
    anc = parents[s]
    if anc is None:
        anc_internal = frozenset(eu.all_tags())
    else:
        anc_internal = internal_tags(eu, anc)
    ext = external_tags(eu, s) & anc_internal
    if not ext:
        raise StructureError("no external edges for the subtree")
    return (
        min(n[tag] for tag in internal),
        max(n[tag] for tag in ext),
    )


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
    weight = {tag: (INF if tag in internal else n[tag]) for tag in eu.all_tags()}
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
