"""Coalescence trees: the hierarchies recording how configuration points
merge as the observation scale shrinks.

A coalescence tree on n vertices is stored as a frozenset of integer
bitmasks (the leaf-descendant sets of the internal nodes): any laminar
family of subsets of size >= 2 containing the full set is such a tree, the
children of a cluster being its maximal proper sub-clusters together with
its uncovered single vertices.  The poset has the root (full set) minimal.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence

Cluster = int  # bitmask over vertex indices
Family = frozenset  # frozenset[Cluster], laminar, contains the full mask


class CoalescenceCap(RuntimeError):
    pass


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
        raise CoalescenceCap(
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


def grand_ancestor(fam: Family, root: Cluster, mask: int) -> Cluster:
    """f^(Up): the parent of f^(up), or the root when f^(up) is the root."""
    a = ancestor(fam, mask)
    if a == root:
        return a
    return strict_join(fam, a)


def descendants(fam: Family, cluster: Cluster) -> list[Cluster]:
    """Internal nodes at or above (deeper than) the given one."""
    return [c for c in fam if (c & cluster) == c]


def not_descendants(fam: Family, cluster: Cluster) -> list[Cluster]:
    return [c for c in fam if (c & cluster) != c]


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


# -- total homogeneities -----------------------------------------------------------


class TotalHomogeneity:
    """A rational weight on the internal nodes of every coalescence tree of
    a fixed vertex set, represented functionally."""

    def __init__(self, fn: Callable[[Family], dict[Cluster, Fraction]], label: str = ""):
        self._fn = fn
        self.label = label
        self._cache: dict[Family, dict[Cluster, Fraction]] = {}

    def on(self, fam: Family) -> dict[Cluster, Fraction]:
        if fam not in self._cache:
            raw = self._fn(fam)
            self._cache[fam] = {c: Fraction(v) for c, v in raw.items() if v}
        return self._cache[fam]

    def value(self, fam: Family, cluster: Cluster) -> Fraction:
        return self.on(fam).get(cluster, Fraction(0))

    def __add__(self, other: "TotalHomogeneity") -> "TotalHomogeneity":
        def fn(fam: Family) -> dict[Cluster, Fraction]:
            out = dict(self.on(fam))
            for c, v in other.on(fam).items():
                out[c] = out.get(c, Fraction(0)) + v
            return out

        return TotalHomogeneity(fn, f"({self.label}+{other.label})")

    def __rmul__(self, scalar) -> "TotalHomogeneity":
        s = Fraction(scalar)

        def fn(fam: Family) -> dict[Cluster, Fraction]:
            return {c: s * v for c, v in self.on(fam).items()}

        return TotalHomogeneity(fn, f"{scalar}*{self.label}")

    def pair(self, fam: Family, lab: Mapping[Cluster, int]) -> Fraction:
        return sum((v * lab[c] for c, v in self.on(fam).items()), Fraction(0))

    def total(self, fam: Family) -> Fraction:
        return sum(self.on(fam).values(), Fraction(0))


def zero_hom() -> TotalHomogeneity:
    return TotalHomogeneity(lambda fam: {}, "0")


def const_at_root(n: int, value: Fraction) -> TotalHomogeneity:
    full = full_mask(n)
    return TotalHomogeneity(lambda fam: {full: Fraction(value)}, f"root({value})")


def delta_up(mask: int) -> TotalHomogeneity:
    def fn(fam: Family) -> dict[Cluster, Fraction]:
        return {ancestor(fam, mask): Fraction(1)}

    return TotalHomogeneity(fn, f"d^[{mask:b}]")


def delta_upup(n: int, mask: int) -> TotalHomogeneity:
    full = full_mask(n)

    def fn(fam: Family) -> dict[Cluster, Fraction]:
        return {grand_ancestor(fam, full, mask): Fraction(1)}

    return TotalHomogeneity(fn, f"d^^[{mask:b}]")


def derive(sc_abs: Mapping[int, int], hom: TotalHomogeneity) -> TotalHomogeneity:
    """D^k: add |k_v|_s at each decorated vertex's ancestor."""
    out = hom
    for v, deg in sc_abs.items():
        if deg:
            out = out + Fraction(deg) * delta_up(1 << v)
    return out


def order_of(
    hom: TotalHomogeneity, trees: Sequence[Family], abs_s: int, n: int
) -> Fraction:
    """The common value of sum(hom) - (|V|-1)|s| across the trees; raises
    when it is not constant."""
    vals = {hom.total(fam) - (n - 1) * abs_s for fam in trees}
    if len(vals) != 1:
        raise ValueError(f"total homogeneity is not of uniform order: {sorted(vals)}")
    return vals.pop()


def subdivergence_free(
    hom: TotalHomogeneity,
    trees: Sequence[Family],
    abs_s: int,
    n: int,
    within: Optional[int] = None,
) -> dict:
    """For every tree and every non-root internal node with leaves inside
    `within`, the partial sums stay below (|L_a|-1)|s|."""
    full = full_mask(n)
    scope = full if within is None else within
    for fam in trees:
        vals = hom.on(fam)
        for a in fam:
            if a == full or (a & scope) != a:
                continue
            partial = sum(
                (vals.get(b, Fraction(0)) for b in descendants(fam, a)), Fraction(0)
            )
            if not partial < (popcount(a) - 1) * abs_s:
                return {"pass": False, "tree": fam, "node": a, "value": partial}
    return {"pass": True}


# -- geometric scale sums -------------------------------------------------------------


def _effective(hom: TotalHomogeneity, fam: Family, abs_s: int) -> dict[Cluster, Fraction]:
    """Per-node weight with the integration volume absorbed: the summed
    label weights become hom(a) - |s|(#children(a)-1)."""
    out = {}
    for a in fam:
        out[a] = hom.value(fam, a) - abs_s * (len(children_blocks(fam, a)) - 1)
    return out


def scale_sum(
    hom: TotalHomogeneity,
    trees: Sequence[Family],
    abs_s: int,
    n: int,
    mode: str,
    r: int,
) -> dict:
    """Sum over labeled coalescence trees of 2^(<hom, s> - |s| * volume),
    over labels with min > r (mode '>r', needs order < 0) or root label <= r
    (mode '<=r', needs order > 0), evaluated by nested geometric series.

    Every partial sum E(a) over proper nodes must be negative
    (subdivergence-freeness); the returned value is exact as nested
    geometric series, so the truncation error is zero.
    """
    if mode not in (">r", "<=r"):
        raise ValueError("mode must be '>r' or '<=r'")
    alpha = order_of(hom, trees, abs_s, n)
    if mode == ">r" and not alpha < 0:
        raise ValueError("mode '>r' needs negative order")
    if mode == "<=r" and not alpha > 0:
        raise ValueError("mode '<=r' needs positive order")
    full = full_mask(n)
    total = 0.0
    for fam in trees:
        eff = _effective(hom, fam, abs_s)
        factor = 1.0
        ok = True
        for a in fam:
            e_a = sum(eff[b] for b in descendants(fam, a))
            x = 2.0 ** float(e_a)
            if a == full:
                if mode == ">r":
                    factor *= x ** (r + 1) / (1.0 - x)
                else:
                    factor *= (x ** (r + 1) - 1.0) / (x - 1.0)
            else:
                if x >= 1.0:
                    raise ValueError(
                        f"scale sum diverges at node {a:b}: partial order {e_a} >= 0"
                    )
                factor *= x / (1.0 - x)
            ok = ok and x != 1.0
        total += factor
    return {"value": total, "order": alpha, "truncation_bound": 0.0}


def scale_sum_bruteforce(
    hom: TotalHomogeneity,
    trees: Sequence[Family],
    abs_s: int,
    n: int,
    mode: str,
    r: int,
    max_label: int,
) -> dict:
    """Direct enumeration oracle over labelings with labels <= max_label,
    with a geometric tail bound on the truncation."""
    full = full_mask(n)
    total = 0.0
    for fam in trees:
        eff = _effective(hom, fam, abs_s)
        clusters = sorted(fam, key=popcount, reverse=True)
        lows = {}
        for lab in itertools.product(range(0, max_label + 1), repeat=len(clusters)):
            assign = dict(zip(clusters, lab))
            if not labelings_consistent(fam, assign):
                continue
            if mode == ">r" and assign[full] <= r:
                continue
            if mode == "<=r" and assign[full] > r:
                continue
            expo = sum((eff[c] * assign[c] for c in clusters), Fraction(0))
            total += 2.0 ** float(expo)
    # crude tail estimate: each omitted label sits beyond max_label where
    # every remaining geometric ratio is at most 1/2 per unit
    tail = 2.0 ** float(-(max_label))
    return {"value": total, "truncation_bound": tail * max(1, len(trees))}
