"""Divergent subtrees, positive cuts, forests of subtrees, sigma
constructions, partitions, intervals, and forest-projection machinery."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .rules import CumulantSet
from .scaling import TypeTable
from .trees import DecoratedTree, EdgeKey, StructureError, SubForest, zero_node_hom

ForestOfSubtrees = frozenset  # frozenset[SubForest], pairwise nested-or-disjoint
CutSet = frozenset  # frozenset[EdgeKey], subset of the positive cuts


class CapExceeded(RuntimeError):
    """An exhaustive enumeration would exceed a configured cap."""


def omega(t: DecoratedTree, sf: SubForest, table: TypeTable) -> Fraction:
    """Degree of divergence: omega(S) = -|S^0_e|_s."""
    return -zero_node_hom(t, sf, table)


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


def _span_of_block(t: DecoratedTree, sf: SubForest, leaves: Sequence[int]) -> SubForest:
    """Minimal connected subtree of the subtree `sf` containing the noise
    edges of the given leaf nodes."""
    piece_nodes = sf.nodes
    paths: list[list[int]] = []
    for u in leaves:
        path = [u]
        v = u
        while True:
            p = t.parent(v)
            if p is None or v not in piece_nodes or (p, v) not in sf.edges:
                break
            path.append(p)
            v = p
        paths.append(path)
    common = set(paths[0])
    for p in paths[1:]:
        common &= set(p)
    # each path runs deepest-first, so the first common node is the join
    lca = next(v for v in paths[0] if v in common)
    nodes: set[int] = set()
    for path in paths:
        for v in path:
            nodes.add(v)
            if v == lca:
                break
    nodes.add(lca)
    edges = {e for e in sf.edges if e[0] in nodes and e[1] in nodes}
    noise_edges = {e for e in sf.edges if e[0] in set(leaves)}
    for p, c in noise_edges:
        nodes.add(c)
    edges |= noise_edges
    return SubForest(frozenset(nodes), frozenset(edges))


def _block_pendant_reducible(
    t: DecoratedTree, sf: SubForest, block: Sequence[int], table: TypeTable
) -> bool:
    span = _span_of_block(t, sf, block)
    if span.edges == sf.edges:
        return False
    piece = t.restrict(span)
    span_leaves = piece.leaf_nodes(table)
    if span_leaves != frozenset(block):
        return False
    root = t.subtree_root(span)
    interior = span.nodes - {root}
    for e in sf.edges - span.edges:
        if e[0] in interior:
            return False
    return zero_node_hom(t, span, table) < 0


def irreducible_partition_exists(
    t: DecoratedTree, sf: SubForest, cum: CumulantSet
) -> bool:
    """True when some admissible full partition of the subtree's noises has
    no pendant-reducible block (see module comment)."""
    table = cum.table
    piece = t.restrict(sf)
    leaves = sorted(piece.leaf_nodes(table))
    types = [piece.leaf_type(u, table) for u in leaves]
    if not leaves:
        return False
    for part in cum.partitions_of(types):
        if not any(
            _block_pendant_reducible(t, sf, [leaves[i] for i in block], table)
            for block in part
        ):
            return True
    return False


def div_enumerate(
    t: DecoratedTree,
    table: TypeTable,
    cum: Optional[CumulantSet] = None,
    effective: bool = True,
    cap: int = 4096,
) -> list[tuple[SubForest, Fraction]]:
    """Superficially divergent subtrees with their omega.

    With `effective=True` (the default, requires `cum`) subtrees whose
    renormalization constant vanishes identically are dropped; this is the
    ground set used by the forest machinery.
    """
    if effective and cum is None:
        raise ValueError("effective enumeration needs the cumulant set")
    weight = {
        e: table.hom(ty) - t.edge_dec(e).sdeg(table.scaling) for e, ty in t.edge_items
    }
    out = []
    for sf in t.all_subtrees(table, min_true_nodes=1):
        w = -sum((weight[e] for e in sf.edges), Fraction(0))
        if w <= 0:
            continue
        if effective and not irreducible_partition_exists(t, sf, cum):
            continue
        out.append((sf, w))
    if len(out) > cap:
        raise CapExceeded(f"|Div| = {len(out)} exceeds the cap {cap}")
    return sorted(out, key=lambda p: p[0].sort_key())


# -- positive cuts -------------------------------------------------------------


def up_tree(t: DecoratedTree, e: EdgeKey) -> SubForest:
    """T_>=(e): the subtree of everything at or above the edge e."""
    nodes = {e[0], e[1]}
    stack = [e[1]]
    edges = {e}
    while stack:
        u = stack.pop()
        for f in t.children(u):
            edges.add(f)
            nodes.add(f[1])
            stack.append(f[1])
    return SubForest(frozenset(nodes), frozenset(edges))


def down_tree(t: DecoratedTree, cuts: Iterable[EdgeKey]) -> SubForest:
    """T_not>=[C]: everything below or incomparable to the minimal cuts."""
    removed_edges: set[EdgeKey] = set()
    removed_nodes: set[int] = set()
    for e in min_cuts(t, cuts):
        sf = up_tree(t, e)
        removed_edges |= sf.edges
        removed_nodes |= sf.nodes - {e[0]}
    edges = frozenset(e for e, _ in t.edge_items if e not in removed_edges)
    nodes = frozenset(t.nodes - removed_nodes)
    return SubForest(nodes, edges)


def edge_le(t: DecoratedTree, e: EdgeKey, f: EdgeKey) -> bool:
    """e <= f iff e lies on the path from f's child to the root."""
    v: Optional[int] = f[1]
    while v is not None:
        p = t.parent(v)
        if p is not None and (p, v) == e:
            return True
        v = p
    return False


def min_cuts(t: DecoratedTree, cuts: Iterable[EdgeKey]) -> frozenset[EdgeKey]:
    cs = set(cuts)
    return frozenset(
        e for e in cs if not any(f != e and edge_le(t, f, e) for f in cs)
    )


def recentered_up_hom(t: DecoratedTree, e: EdgeKey, table: TypeTable) -> Fraction:
    """|P~(T_>=(e), 0)^n_e|_+ : homogeneity of the up-tree with the root's
    node label suppressed."""
    sf = up_tree(t, e)
    piece = t.restrict(sf)
    total = piece.homogeneity(table, "plus")
    total -= Fraction(piece.node_dec(piece.root).sdeg(table.scaling))
    return total


def cut_enumerate(t: DecoratedTree, table: TypeTable) -> list[tuple[EdgeKey, int]]:
    """Positive cuts with their Taylor order gamma(e)."""
    out = []
    for e in t.kernel_edges(table):
        h = recentered_up_hom(t, e, table)
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


def depth(forest: ForestOfSubtrees) -> int:
    return len(depth_sets(forest))


def branch(forest: ForestOfSubtrees, s: SubForest) -> frozenset:
    return frozenset(x for x in forest if x == s or subtree_lt(x, s))


def all_forests(universe: Sequence[SubForest], cap: int = 200000) -> list[ForestOfSubtrees]:
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


def forests_with_max(
    universe: Sequence[SubForest], maximal: ForestOfSubtrees
) -> list[ForestOfSubtrees]:
    """F[F0]: forests whose set of maximal members is exactly `maximal`
    (empty unless `maximal` has depth <= 1)."""
    if maximal and depth(maximal) > 1:
        return []
    inside = [
        s
        for s in universe
        if any(subtree_lt(s, m) for m in maximal)
    ]
    out = []
    for g in all_forests(inside):
        cand = frozenset(maximal | g)
        if forest_maximal(cand) == frozenset(maximal):
            out.append(cand)
    return out


def forests_strictly_below(
    universe: Sequence[SubForest], forest: ForestOfSubtrees
) -> list[ForestOfSubtrees]:
    """F_<[F0]: depth <= 1 forests all of whose members sit strictly inside
    a member of F0."""
    inside = [s for s in universe if any(subtree_lt(s, m) for m in forest)]
    return [
        g
        for g in all_forests(inside)
        if depth(g) <= 1
    ]


# -- partitions of the noises ---------------------------------------------------


def leaf_partitions(
    t: DecoratedTree,
    table: TypeTable,
    cum: CumulantSet,
    ground: Optional[Iterable[int]] = None,
) -> list[frozenset[frozenset[int]]]:
    """Admissible full partitions of the given leaf nodes into cumulant
    blocks (no singletons)."""
    leaves = sorted(t.leaf_nodes(table) if ground is None else ground)
    types = [t.leaf_type(u, table) for u in leaves]
    out = []
    for part in cum.partitions_of(types):
        out.append(frozenset(frozenset(leaves[i] for i in block) for block in part))
    return out


def compatible_partition(
    t: DecoratedTree, table: TypeTable, forest: ForestOfSubtrees, pi: frozenset
) -> bool:
    """A forest and a partition are compatible when each member's leaf set
    is a union of blocks."""
    covered: set[int] = set()
    for b in pi:
        covered |= set(b)
    noise = set(t.noise_edges(table))
    for s in forest:
        ls = {p for p, c in s.edges & noise}  # the leaves of the piece s
        if not ls <= covered:
            return False
        for b in pi:
            if set(b) & ls and not set(b) <= ls:
                return False
    return True


def forests_compatible_with(
    t: DecoratedTree,
    table: TypeTable,
    universe: Sequence[SubForest],
    pi: frozenset,
) -> list[ForestOfSubtrees]:
    """F_pi over the given divergent-subtree universe."""
    keep = [
        s
        for s in universe
        if compatible_partition(t, table, frozenset([s]), pi)
    ]
    return all_forests(keep)


# -- sigma constructions ---------------------------------------------------------


def _union_subforests(sfs: Iterable[SubForest]) -> SubForest:
    nodes: set[int] = set()
    edges: set[EdgeKey] = set()
    for s in sfs:
        nodes |= s.nodes
        edges |= s.edges
    return SubForest(frozenset(nodes), frozenset(edges))


UndecoratedPiece = tuple  # (nodes, edges, hat1 key, hat2 key), sorted tuples


def undecorated_piece(
    sf: SubForest, hat1: SubForest = None, hat2: SubForest = None
) -> UndecoratedPiece:
    h1 = hat1 or SubForest.empty()
    h2 = hat2 or SubForest.empty()
    return (
        tuple(sorted(sf.nodes)),
        tuple(sorted(sf.edges)),
        h1.sort_key(),
        h2.sort_key(),
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


def cut_children(t: DecoratedTree, cuts: CutSet, e: EdgeKey) -> frozenset[EdgeKey]:
    above = [f for f in cuts if f != e and edge_le(t, e, f)]
    return frozenset(
        f for f in above if not any(g != f and edge_le(t, g, f) for g in above)
    )


def cut_depth_sets(t: DecoratedTree, cuts: CutSet) -> list[frozenset[EdgeKey]]:
    out = []
    level = min_cuts(t, cuts)
    while level:
        out.append(level)
        nxt: set[EdgeKey] = set()
        for e in level:
            nxt |= cut_children(t, cuts, e)
        level = frozenset(nxt)
    return out


def cut_depth(t: DecoratedTree, cuts: CutSet) -> int:
    return len(cut_depth_sets(t, cuts))


def dangling_trees(t: DecoratedTree, base: SubForest, table: TypeTable) -> list[SubForest]:
    """T(T, base): the up-trees hanging off the base subtree."""
    out = []
    for e in t.kernel_edges(table):
        if e[0] in base.nodes and e[1] not in base.nodes:
            out.append(up_tree(t, e))
    return out


def cuts_avoiding(t: DecoratedTree, cuts: Sequence[EdgeKey], forest: ForestOfSubtrees) -> list[EdgeKey]:
    """C_F: the positive cuts not lying in any member of the forest."""
    used: set[EdgeKey] = set()
    for s in forest:
        used |= s.edges
    return [e for e in cuts if e not in used]


def forest_under_cuts(
    t: DecoratedTree, forest: ForestOfSubtrees, cuts: Iterable[EdgeKey], table: TypeTable
) -> frozenset:
    """F[C]: members lying inside some dangling tree of T_not>=[C]."""
    base = down_tree(t, cuts)
    dangle = dangling_trees(t, base, table)
    return frozenset(
        s for s in forest if any(s.nodes <= d.nodes and s.edges <= d.edges for d in dangle)
    )


def forest_between_cuts(
    t: DecoratedTree,
    forest: ForestOfSubtrees,
    cuts: Iterable[EdgeKey],
    deeper: Iterable[EdgeKey],
    table: TypeTable,
) -> frozenset:
    """F[C, D]: members of F[C] contained in T_not>=[D]."""
    low = down_tree(t, deeper)
    return frozenset(
        s
        for s in forest_under_cuts(t, forest, cuts, table)
        if s.nodes <= low.nodes and s.edges <= low.edges
    )


def sigma_positive(
    t: DecoratedTree, cuts: CutSet, forest: ForestOfSubtrees, table: TypeTable
) -> tuple:
    """The i-forest sigma_{C,F} of the positive cutting construction."""
    for s in forest:
        if set(cuts) & s.edges:
            raise StructureError("forest must avoid the cut set")
    if not cuts:
        full = t.full_subforest()
        return (undecorated_piece(full, hat2=full),)
    levels = cut_depth_sets(t, cuts)
    k = len(levels)
    pieces = []
    for j in range(1, k + 1):
        d_j = levels[j - 1]
        d_next = levels[j] if j < k else frozenset()
        ambient_j = down_tree(t, d_next)
        hat2 = down_tree(t, d_j)
        paint1 = _union_subforests(forest_between_cuts(t, forest, d_j, d_next, table))
        pieces.append(
            undecorated_piece(
                ambient_j,
                hat1=SubForest(
                    paint1.nodes & ambient_j.nodes, paint1.edges & ambient_j.edges
                ),
                hat2=SubForest(hat2.nodes & ambient_j.nodes, hat2.edges & ambient_j.edges),
            )
        )
    return tuple(sorted(pieces))


# -- intervals and forest projections --------------------------------------------


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


def cuts_away_from(interval_big: frozenset, all_cuts: Sequence[EdgeKey]) -> CutSet:
    """C_M: the positive cuts outside the maximal members of b(M)."""
    used: set[EdgeKey] = set()
    for s in forest_maximal(interval_big):
        used |= s.edges
    return frozenset(e for e in all_cuts if e not in used)


class IntervalMachinery:
    """Exhaustive interval bookkeeping for a forest projection P over family
    F_pi and a set of positive cuts, with an optional cut rule G."""

    def __init__(
        self,
        P: Callable[[frozenset], frozenset],
        family: Sequence[frozenset],
        all_cuts: Sequence[EdgeKey],
        G: Optional[Callable[[frozenset], frozenset]] = None,
    ):
        self.P = P
        self.family = [frozenset(f) for f in family]
        self.all_cuts = sorted(all_cuts)
        self.G = G

    def admissible_pairs(self) -> list[tuple[frozenset, CutSet]]:
        """All (forest, cut set) pairs with the cut set avoiding the forest."""
        out = []
        for f in self.family:
            used: set[EdgeKey] = set()
            for s in f:
                used |= s.edges
            free = [e for e in self.all_cuts if e not in used]
            for r in range(len(free) + 1):
                for combo in itertools.combinations(free, r):
                    out.append((f, frozenset(combo)))
        return out

    def pullback(self, target: frozenset, cuts: Iterable[EdgeKey] = ()) -> list[frozenset]:
        return projection_pullback(self.P, self.family, target, cuts)

    def interval_of(self, target: frozenset, cuts: Iterable[EdgeKey] = ()) -> Optional[Interval]:
        return is_interval_of(self.family, self.pullback(target, cuts))

    def cutsets_generating(self, iv: Interval) -> list[CutSet]:
        """frak-C^P(M): the cut sets C with P^{-1}_C[s(M)] = M."""
        want = {frozenset(x) for x in self.family if x in iv}
        out = []
        for r in range(len(self.all_cuts) + 1):
            for combo in itertools.combinations(self.all_cuts, r):
                fiber = self.pullback(iv.small, combo)
                if {frozenset(x) for x in fiber} == want:
                    out.append(frozenset(combo))
        return out

    def intervals(self) -> list[Interval]:
        """frak-M^P: all intervals arising as some P^{-1}_C fiber."""
        seen: dict[tuple, Interval] = {}
        for r in range(len(self.all_cuts) + 1):
            for combo in itertools.combinations(self.all_cuts, r):
                for target in self.family:
                    fiber = self.pullback(target, combo)
                    if not fiber:
                        continue
                    iv = is_interval_of(self.family, fiber)
                    if iv is not None and iv.small == target:
                        seen[(tuple(sorted(iv.small, key=repr)), tuple(sorted(iv.big, key=repr)))] = iv
        return list(seen.values())

    def max_cut_check(self) -> dict:
        """The unique maximal generating cut set of M is C_M."""
        for iv in self.intervals():
            gen = self.cutsets_generating(iv)
            if not gen:
                continue
            maximal = [c for c in gen if not any(c < d for d in gen)]
            expect = cuts_away_from(iv.big, self.all_cuts)
            if maximal != [expect]:
                return {"pass": False, "interval": iv, "maximal": maximal, "expect": expect}
        return {"pass": True}

    def compatibility_check(self) -> dict:
        """For every harvested edge, toggling it never changes membership in
        frak-C^P(M)."""
        if self.G is None:
            raise ValueError("no cut rule supplied")
        for iv in self.intervals():
            gen = set(self.cutsets_generating(iv))
            for e in self.G(iv.big):
                for c in gen:
                    if ((c | {e}) in gen) != ((c - {e}) in gen):
                        return {"pass": False, "interval": iv, "edge": e, "cutset": c}
        return {"pass": True}

    def cut_intervals(self, iv: Interval) -> list[Interval]:
        """frak-G^P_G(M): the partition of frak-C^P(M) into intervals
        [C, C + G(b(M))] over C disjoint from the harvested set."""
        if self.G is None:
            raise ValueError("no cut rule supplied")
        harvested = frozenset(self.G(iv.big))
        gen = set(self.cutsets_generating(iv))
        out = []
        for c in sorted(gen, key=lambda x: (len(x), sorted(x))):
            if c & harvested:
                continue
            out.append(Interval(c, c | harvested))
        return out

    def sumcuts_check(self) -> dict:
        """The fibered intervals exactly cover all admissible pairs."""
        pairs = self.admissible_pairs()
        covered: dict = {}
        for iv in self.intervals():
            for giv in self.cut_intervals(iv):
                for f in [x for x in self.family if x in iv]:
                    for c in giv.members():
                        key = (f, c)
                        covered[key] = covered.get(key, 0) + 1
        want = {(f, c): 1 for f, c in pairs}
        if covered != want:
            once = {k for k, v in covered.items() if v == 1}
            missing = sorted(set(want) - once, key=repr)[:3]
            extra = sorted({k for k, v in covered.items() if v != 1}, key=repr)[:3]
            return {"pass": False, "missing": missing, "multiple": extra,
                    "covered": sum(covered.values()), "expected": len(want)}
        return {"pass": True, "count": len(want)}
