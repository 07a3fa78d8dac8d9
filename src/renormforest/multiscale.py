"""Scale assignments on the edge universe, internal/external scales, the
safe-forest projection, path scales, the harvested-cut rule, and the
reorganization of (forest, cut set) sums into interval fibers."""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .forests import (
    CutSet,
    ForestOfSubtrees,
    Interval,
    forest_children,
    is_interval_of,
    nested_or_disjoint,
    projection_pullback,
    subtree_lt,
)
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


def internal_tags(eu: EdgeUniverse, s: SubForest) -> frozenset[EdgeTag]:
    """E^int(S): kernel edges of S plus cumulant edges within N(S)."""
    piece = eu.tree.restrict(s)
    true = piece.true_nodes(eu.table)
    out = {("K", e) for e in piece.kernel_edges(eu.table)}
    for tag in eu.pi_tags():
        a, b = tag[1]
        if a in true and b in true:
            out.add(tag)
    return frozenset(out)


def incident_tags(eu: EdgeUniverse, s: SubForest) -> frozenset[EdgeTag]:
    true = eu.tree.restrict(s).true_nodes(eu.table)
    out = set()
    for tag in eu.all_tags():
        if eu.endpoints(tag) & true:
            out.add(tag)
    return frozenset(out)


def external_tags(eu: EdgeUniverse, s: SubForest) -> frozenset[EdgeTag]:
    return incident_tags(eu, s) - internal_tags(eu, s)


def immediate_ancestor(forest: ForestOfSubtrees, s: SubForest) -> Optional[SubForest]:
    """A_F(S): the minimal member strictly above S; None encodes the whole
    ambient universe."""
    above = [x for x in forest if subtree_lt(s, x)]
    if not above:
        return None
    return min(above, key=lambda x: (len(x.nodes), x.sort_key()))


def int_ext(
    eu: EdgeUniverse,
    s: SubForest,
    forest: ForestOfSubtrees,
    n: Mapping[EdgeTag, int],
) -> tuple[int, int]:
    """(int_F(S), ext_F(S)) for a member (or compatible subtree) S."""
    internal = internal_tags(eu, s)
    for child in forest_children(forest, s):
        internal = internal - internal_tags(eu, child)
    if not internal:
        raise StructureError("no internal edges left for the subtree")
    anc = immediate_ancestor(forest, s)
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
    external scale (computed mod F)."""
    return frozenset(
        s for s in forest if int_ext(eu, s, forest, n)[0] <= int_ext(eu, s, forest, n)[1]
    )


def dangerous_extension(
    eu: EdgeUniverse,
    safe: ForestOfSubtrees,
    universe: Sequence[SubForest],
    n: Mapping[EdgeTag, int],
) -> frozenset:
    """G: the divergent subtrees compatible with the safe forest that are
    dangerous relative to it; the pullback of P^n at the safe forest is
    exactly [safe, safe + G]."""
    out = set()
    for s in universe:
        if s in safe:
            continue
        if not all(nested_or_disjoint(s, x) for x in safe):
            continue
        i, e = int_ext(eu, s, frozenset(safe | {s}), n)
        if i > e:
            out.add(s)
    return frozenset(out)


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
    used: set[EdgeKey] = set()
    for s in forest:
        used |= s.edges
    out = set()
    for e in cuts:
        if e in used:
            continue
        if path_scale(eu, STAR, e[0], forest, n) > path_scale(eu, e[0], e[1], forest, n):
            out.add(e)
    return frozenset(out)


def exhaustive_path_scale(
    eu: EdgeUniverse, u, v, forest: ForestOfSubtrees, n: Mapping[EdgeTag, int]
) -> float:
    """Literal subset-enumeration oracle for the path scale."""
    internal: set[EdgeTag] = set()
    for s in forest:
        internal |= internal_tags(eu, s)
    tags = eu.all_tags()
    best = -1.0
    for r in range(1, len(tags) + 1):
        for combo in itertools.combinations(tags, r):
            # connectivity of u, v through the chosen edges
            reach = {u}
            grown = True
            while grown:
                grown = False
                for tag in combo:
                    pts = eu.endpoints(tag)
                    if pts & reach and not pts <= reach:
                        reach |= pts
                        grown = True
            if v not in reach:
                continue
            vals = [n[tag] for tag in combo if tag not in internal]
            score = INF if not vals else min(vals)
            best = max(best, score)
    return best


# -- reorganization into interval fibers ------------------------------------------


@dataclass(frozen=True)
class Fiber:
    forests: Interval
    cuts: Interval


def reorganize(
    eu: EdgeUniverse,
    family: Sequence[ForestOfSubtrees],
    cuts: Sequence[EdgeKey],
    n: Mapping[EdgeTag, int],
) -> dict:
    """Split all admissible (forest, cut set) pairs into M x G fibers for
    the safe projection and the harvested-cut rule at the given scales; the
    cover is verified by exact counting."""
    family = [frozenset(f) for f in family]

    def P(f: frozenset) -> frozenset:
        return safe_projection(eu, f, n)

    pairs = []
    for f in family:
        used: set[EdgeKey] = set()
        for s in f:
            used |= s.edges
        free = [e for e in cuts if e not in used]
        for r in range(len(free) + 1):
            for combo in itertools.combinations(free, r):
                pairs.append((f, frozenset(combo)))

    fibers: dict[tuple, Fiber] = {}
    assignment: dict[tuple, tuple] = {}
    for f, c in pairs:
        target = P(f)
        fiber_members = projection_pullback(P, family, target, c)
        iv = is_interval_of(family, fiber_members)
        if iv is None:
            raise StructureError("safe projection fiber is not an interval")
        harvested = harvested_cuts(eu, iv.big, cuts, n)
        small_cuts = c - harvested
        giv = Interval(small_cuts, small_cuts | harvested)
        key = (
            tuple(sorted(iv.small, key=lambda s: s.sort_key())),
            tuple(sorted(iv.big, key=lambda s: s.sort_key())),
            tuple(sorted(giv.small)),
            tuple(sorted(giv.big)),
        )
        fibers.setdefault(key, Fiber(iv, giv))
        assignment[(f, c)] = key

    # exact-cover check: every fiber's M x G product must consist of
    # admissible pairs assigned to that very fiber
    total = 0
    for key, fib in fibers.items():
        for f in (x for x in family if x in fib.forests):
            for c in fib.cuts.members():
                if assignment.get((f, c)) != key:
                    raise StructureError("interval fibers do not cover the pairs exactly")
                total += 1
    if total != len(pairs):
        raise StructureError(
            f"fiber cover counted {total} pairs, expected {len(pairs)}"
        )
    return {"fibers": fibers, "assignment": assignment, "pairs": len(pairs)}
