"""Coalescence trees: the hierarchies recording how configuration points
merge as the observation scale shrinks.

A coalescence tree on n vertices is stored as a frozenset of integer
bitmasks (the leaf-descendant sets of the internal nodes): any laminar
family of subsets of size >= 2 containing the full set is such a tree, the
children of a cluster being its maximal proper sub-clusters together with
its uncovered single vertices.  The poset has the root (full set) minimal.

The module holds the bitmask helpers of the certificate, its vertex cap, and
the enumeration of the trees on a vertex set, which only the tests' witness
search and the benchmark's tracing reach.
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional

from .forests import CapExceeded

Cluster = int  # bitmask over vertex indices
Family = frozenset  # frozenset[Cluster], laminar, contains the full mask


def popcount(x: int) -> int:
    return x.bit_count()


def bits(x: int) -> list[int]:
    out = []
    i = 0
    while x:
        if x & 1:
            out.append(i)
        x >>= 1
        i += 1
    return out


def full_mask(n: int) -> int:
    return (1 << n) - 1


def _set_partitions(items: list[int]) -> Iterable[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield [[first]] + part


def enumerate_trees(n: int, cap: int = 9, prune: Optional[Callable[[int, list[int]], bool]] = None) -> list[Family]:
    """All coalescence trees on n vertices (the full multifurcating family).

    `prune(cluster, blocks)` may reject a cluster split early (used to keep
    only trees realizable by a multigraph).  Counts grow super-exponentially,
    so the vertex count is capped.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    if n > cap:
        raise CapExceeded(
            f"{n} vertices exceeds the cap {cap}; the tree count grows like "
            "the ordered-partition numbers (660032 already at 9 vertices)"
        )
    memo: dict[int, list[Family]] = {}

    def rec(cluster: int) -> list[Family]:
        if cluster in memo:
            return memo[cluster]
        vs = bits(cluster)
        out: list[Family] = []
        for part in _set_partitions(vs):
            if len(part) < 2:
                continue
            blocks = [sum(1 << v for v in blk) for blk in part]
            if prune is not None and not prune(cluster, blocks):
                continue
            sub_lists = []
            for b in blocks:
                if popcount(b) >= 2:
                    sub_lists.append(rec(b))
                else:
                    sub_lists.append([frozenset()])
            for combo in itertools.product(*sub_lists):
                fam = frozenset({cluster}).union(*combo)
                out.append(fam)
        memo[cluster] = out
        return out

    return rec(full_mask(n))
