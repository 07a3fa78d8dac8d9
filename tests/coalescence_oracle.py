"""Test-only helpers on coalescence trees (frozensets of cluster bitmasks,
as in `renormforest.powercount`).

- `Cluster`, `popcount` and `full_mask` name a cluster bitmask, count its
  vertices and give the mask of all n vertices;
- `build_coalescence` builds the labelled tree of a multigraph under a scale
  assignment, the input of the worked examples;
- `join`, `strict_join` and `ancestor` find the cluster where a set of
  vertices joins, the lookups of the tests' witness search
  (`certify_oracle`);
- `children_blocks`, `grand_ancestor` and `restrict_tree` walk a tree the
  slow way, cluster by cluster; `certify_oracle` rebuilds the certificate's
  homogeneity on each tree with them.
"""
from __future__ import annotations

from typing import Mapping, Sequence

from renormforest.powercount import Family, bits

Cluster = int  # bitmask over vertex indices


def popcount(x: int) -> int:
    return x.bit_count()


def full_mask(n: int) -> int:
    return (1 << n) - 1


def join(fam: Family, mask: int) -> Cluster:
    """f^: the smallest cluster containing the mask (the deepest common
    proper ancestor of its vertices)."""
    best = None
    for c in fam:
        if (c & mask) == mask and (best is None or popcount(c) < popcount(best)):
            best = c
    if best is None:
        raise ValueError("mask not contained in the vertex set")
    return best


def strict_join(fam: Family, mask: int) -> Cluster:
    """The smallest cluster *strictly* containing the mask; for a single
    vertex this is its parent cluster, for a set it agrees with join unless
    the set is itself a cluster."""
    best = None
    for c in fam:
        if (c & mask) == mask and c != mask and (best is None or popcount(c) < popcount(best)):
            best = c
    if best is None:
        raise ValueError("mask has no proper ancestor")
    return best


def ancestor(fam: Family, mask: int) -> Cluster:
    """f^(up): deepest internal node containing all of mask, with singleton
    masks bumped to their parent (a leaf is not an internal node)."""
    c = join(fam, mask)
    if c == mask and popcount(mask) == 1:
        return strict_join(fam, mask)
    return c


def children_blocks(fam: Family, cluster: Cluster) -> list[Cluster]:
    """The partition of a cluster given by its maximal proper sub-clusters
    and its uncovered single vertices."""
    subs = [c for c in fam if c != cluster and (c & cluster) == c]
    maximal = [c for c in subs if not any(c != d and (c & d) == c for d in subs)]
    covered = 0
    for c in maximal:
        covered |= c
    singles = [1 << v for v in bits(cluster & ~covered)]
    return sorted(maximal + singles)


def grand_ancestor(fam: Family, root: Cluster, mask: int) -> Cluster:
    """f^(Up): the parent of f^(up), or the root when f^(up) is the root."""
    a = ancestor(fam, mask)
    if a == root:
        return a
    return strict_join(fam, a)


def restrict_tree(fam: Family, bmask: int) -> tuple[Family, dict[Cluster, Cluster]]:
    """The restriction of a coalescence tree to a subset of its leaves,
    together with the injection of its internal nodes into the original
    tree's (a restricted cluster maps to the smallest original cluster
    inducing it)."""
    if popcount(bmask) < 2:
        raise ValueError("restriction needs at least two leaves")
    fam_b = frozenset(c & bmask for c in fam if popcount(c & bmask) >= 2)
    iota: dict[Cluster, Cluster] = {}
    for c in fam_b:
        iota[c] = join(fam, c)
    return fam_b, iota


def labelings_consistent(fam: Family, lab: Mapping[Cluster, int]) -> bool:
    for c in fam:
        for d in fam:
            if c != d and (d & c) == d and popcount(d) < popcount(c):
                # d below c in the tree (strictly smaller cluster)
                if not lab[d] > lab[c]:
                    return False
    return True


def build_coalescence(
    n: int, edges: Sequence[tuple[frozenset[int], int]]
) -> tuple[Family, dict[Cluster, int]]:
    """The labeled coalescence tree of a connected multigraph under a scale
    assignment: clusters are the connected components of the high-scale
    subgraphs, labeled by the largest threshold at which they appear."""
    thresholds = sorted({s for _, s in edges}, reverse=True)
    clusters: dict[Cluster, int] = {}
    for r in thresholds:
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for pair, s in edges:
            if s >= r:
                a, b = sorted(pair)
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        comps: dict[int, int] = {}
        for v in range(n):
            root = find(v)
            comps[root] = comps.get(root, 0) | (1 << v)
        for mask in comps.values():
            if popcount(mask) >= 2 and mask not in clusters:
                clusters[mask] = r
    full = full_mask(n)
    if full not in clusters:
        raise ValueError("multigraph is not connected")
    return frozenset(clusters), clusters
