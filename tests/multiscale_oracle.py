"""Test-only oracles for `multiscale`.

- `TagScan` is the edge universe as first written: tag lists rebuilt and
  every tag scanned on each call, a subtree's internal edges read from its
  own edges.  It checks the tag order and vertex masks of `EdgeUniverse`
  and the mask-based `internal_tags` and `external_tags`.
- `external_tags` and `tag_set_int_ext` are the internal and external
  scales as `multiscale.int_ext` first read them, by set algebra on the
  tag sets of a subtree, its children and its parent; they check the
  one-pass mask reading of `int_ext`, and `external_tags` gives the
  certifier's first-written plan (`certify_oracle.interval_plan`) its
  external edges.
- `exhaustive_path_scales` enumerates every edge set; it checks the
  widest-path search of `path_scale` on every vertex pair.
- `dangerous_extension` names the largest forest in the fibre of the safe
  projection over a safe forest, and `is_interval_of` checks that a fibre is
  the interval between the two.
- `reorganize` splits every admissible (forest, cut set) pair into the
  fibres of the safe projection and the harvested-cut rule at fixed scales,
  and raises unless the fibres cover the pairs exactly.

Together they check the identities `safe_projection` and `harvested_cuts`
are built on.  Their cost is exponential in the number of edges or pairs, so
keep the cases small.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from renormforest.forests import ForestOfSubtrees, forest_parents, nested_or_disjoint
from renormforest.multiscale import (
    INF,
    STAR,
    EdgeTag,
    EdgeUniverse,
    harvested_cuts,
    int_ext,
    internal_tags,
    safe_projection,
)
from renormforest.scaling import TypeTable
from renormforest.trees import DecoratedTree, EdgeKey, StructureError, SubForest


@dataclass(frozen=True)
class TagScan:
    """K(T) + E_pi + E_star for a tree and a partition of (some of) its
    noises, its tags listed and scanned anew on every call."""

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
        if kind == "star":
            return frozenset({STAR, data})
        return frozenset(data)

    def true_nodes(self, s: SubForest) -> frozenset[int]:
        """N(S): the nodes of S except the fictitious ends of noise edges."""
        return s.nodes - self.tree.fictitious_nodes(self.table)

    def internal_tags(self, s: SubForest) -> frozenset[EdgeTag]:
        """E^int(S): kernel edges of S plus cumulant edges within N(S)."""
        true = self.true_nodes(s)
        # an edge of S is a kernel edge exactly when its child is a true node
        out = {("K", e) for e in s.edges if e[1] in true}
        for tag in self.pi_tags():
            a, b = tag[1]
            if a in true and b in true:
                out.add(tag)
        return frozenset(out)

    def incident_tags(self, s: SubForest) -> frozenset[EdgeTag]:
        true = self.true_nodes(s)
        return frozenset(tag for tag in self.all_tags() if self.endpoints(tag) & true)

    def external_tags(self, s: SubForest) -> frozenset[EdgeTag]:
        return self.incident_tags(s) - self.internal_tags(s)


def external_tags(eu: EdgeUniverse, s: SubForest) -> frozenset[EdgeTag]:
    """E^ext(S): the tags with exactly one end in N(S)."""
    inside = eu.node_mask(s.nodes)
    return frozenset(tag for tag, m in eu.masks.items() if m & inside and m & inside != m)


def tag_set_int_ext(
    eu: EdgeUniverse,
    s: SubForest,
    parents: Mapping[SubForest, Optional[SubForest]],
    n: Mapping[EdgeTag, int],
) -> tuple[int, int]:
    """(int_F(S), ext_F(S)) by set algebra: S's internal tags less each
    child's, and its external tags within its parent's internal tags (all
    tags for a maximal member)."""
    internal = internal_tags(eu, s)
    for child, parent in parents.items():
        if parent == s:
            internal = internal - internal_tags(eu, child)
    if not internal:
        raise StructureError("no internal edges left for the subtree")
    anc = parents[s]
    if anc is None:
        anc_internal = frozenset(eu.tags)
    else:
        anc_internal = internal_tags(eu, anc)
    ext = external_tags(eu, s) & anc_internal
    if not ext:
        raise StructureError("no external edges for the subtree")
    return (
        min(n[tag] for tag in internal),
        max(n[tag] for tag in ext),
    )


def exhaustive_path_scales(
    eu: EdgeUniverse, forest: ForestOfSubtrees, n: Mapping[EdgeTag, int]
) -> dict[frozenset, float]:
    """Literal subset-enumeration oracle for the path scale of every pair
    of vertices, keyed by the pair: the best, over the edge sets that
    connect the pair, of the set's least scale, with edges internal to the
    forest at infinity, and -1 when no edge set connects it.  Each edge set
    is split into its components (as vertex masks), and each component
    keeps the best score of the sets it is a component of."""
    internal: set[EdgeTag] = set()
    for s in forest:
        internal |= internal_tags(eu, s)
    masks = [eu.masks[tag] for tag in eu.tags]
    vals = [INF if tag in internal else n[tag] for tag in eu.tags]
    best_of: dict[int, float] = {}
    for r in range(1, len(masks) + 1):
        for combo in itertools.combinations(range(len(masks)), r):
            score = min(vals[i] for i in combo)
            comps: list[int] = []
            for i in combo:
                merged, rest = masks[i], []
                for c in comps:
                    if c & merged:
                        merged |= c
                    else:
                        rest.append(c)
                comps = rest + [merged]
            for c in comps:
                if best_of.get(c, -1.0) < score:
                    best_of[c] = score
    out = {}
    for a, b in itertools.combinations(range(len(eu.verts)), 2):
        pair = 1 << a | 1 << b
        scores = [score for c, score in best_of.items() if c & pair == pair]
        out[frozenset({eu.verts[a], eu.verts[b]})] = max(scores, default=-1.0)
    return out


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
        i, e = int_ext(eu, s, forest_parents(safe | {s}), n)
        if i > e:
            out.add(s)
    return frozenset(out)


# -- intervals and the reorganization into fibres -----------------------------------


@dataclass(frozen=True)
class Interval:
    """An order interval [small, big] in a family of sets-with-inclusion."""

    small: frozenset
    big: frozenset

    def __post_init__(self):
        if not self.small <= self.big:
            raise ValueError("interval needs small <= big")

    @property
    def delta(self) -> frozenset:
        return self.big - self.small

    def __contains__(self, x: frozenset) -> bool:
        return self.small <= x <= self.big

    def members(self) -> list[frozenset]:
        extra = sorted(self.delta, key=repr)
        out = []
        for r in range(len(extra) + 1):
            for combo in itertools.combinations(extra, r):
                out.append(frozenset(self.small | set(combo)))
        return out


def is_interval_of(family: Sequence[frozenset], subset: Iterable[frozenset]) -> Optional[Interval]:
    """If `subset` is a nonempty interval of the inclusion-ordered family,
    return it; otherwise None."""
    elems = list(subset)
    if not elems:
        return None
    small = min(elems, key=len)
    big = max(elems, key=len)
    if not all(small <= x <= big for x in elems):
        return None
    iv = Interval(small, big)
    fam = set(family)
    members = {x for x in fam if x in iv}
    if members != set(elems):
        return None
    return iv


def projection_pullback(
    P: Callable[[frozenset], frozenset],
    family: Sequence[frozenset],
    target: frozenset,
    cuts: Optional[Iterable[EdgeKey]] = None,
) -> list[frozenset]:
    """P^{-1}_C[target]: the fiber of P over `target`, optionally restricted
    to forests avoiding the cut set."""
    cs = set(cuts or ())

    def avoids(forest: frozenset) -> bool:
        return all(not (cs & s.edges) for s in forest)

    return [f for f in family if P(f) == target and avoids(f)]


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
