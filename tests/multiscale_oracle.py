"""Test-only oracles for `multiscale`.

- `exhaustive_path_scale` enumerates every connecting edge set; it checks the
  widest-path search of `path_scale`.
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
    EdgeTag,
    EdgeUniverse,
    harvested_cuts,
    int_ext,
    internal_tags,
    safe_projection,
)
from renormforest.trees import EdgeKey, StructureError, SubForest


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
