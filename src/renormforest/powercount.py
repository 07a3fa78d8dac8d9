"""The per-tree analysis with the convergence theorem's hypotheses, the
power-counting certifier of the single-tree moment bounds, and the
coalescence trees it reasons about.

`TreeAnalysis` derives each fact of a tree that no scale changes, once; the
certifier built on it, `project` and `integrands.chaos_classes` look a leaf
partition's compatible divergences up in its partition table (`compatible`).

A tree automorphism maps each chaos class onto a class whose multigraph is
the same up to vertex names, and neither the inequalities nor the scale
rules read a vertex name, so a class's verdict and alpha are those of its
orbit's representative (`TreeAnalysis.representatives`).  The certifier
proves each representative once, and a class whose representative fails
is certified itself, because its violation is the first failing subset in
its own subset order, which no automorphism keeps.

The certificate puts each cumulant block's weight at the cluster where the
block's vertices join; the closed forms of the cumulant homogeneity are in
`rules`.  A failing vertex subset is decided under the scale rules of
`multiscale`, the ones `project` applies.

A coalescence tree is a frozenset of cluster bitmasks (`Family`): a laminar
family of vertex subsets of size >= 2 holding the full set, the children of
a cluster being its maximal proper sub-clusters and its uncovered single
vertices.  The poset has the root (full set) minimal.  The split prune the
tests' witness search passes to the enumerations lives with that search."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Optional

from . import forests as fo
from . import multiscale as ms
from .forests import cut_enumerate
from .rules import CumulantSet, fict_gain, higher_cum_check, margin, subtree_hypotheses
from .scaling import TypeTable
from .trees import DecoratedTree, EdgeKey, SubForest, automorphism_swaps

Family = frozenset  # frozenset[int] of cluster bitmasks, laminar, contains the full mask


# -- the per-tree analysis -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TreeAnalysis:
    """The power-counting facts of one tree that every command reads: its
    divergent subtrees with their omega, listed once under the cap
    `max_div`, each with its leaf set, and the effective ones among them
    (nonvanishing counterterm), its positive cuts with their Taylor order
    gamma, its Gaussian chaos classes (Wick set, leaf partition) with the
    representative of each class's automorphism orbit, and the convergence
    theorem's hypotheses on its subtrees that fail.

    They depend only on the tree, the type table and the cumulant set, not on
    scales.  Each is computed on first use and then kept; none is computed
    on construction."""

    tree: DecoratedTree
    table: TypeTable
    cum: CumulantSet
    max_div: int

    @cached_property
    def all_divergences(self) -> tuple[tuple[SubForest, Fraction], ...]:
        return tuple(fo.div_enumerate(self.tree, self.table, cap=self.max_div))

    @cached_property
    def divergences(self) -> tuple[tuple[SubForest, Fraction], ...]:
        return tuple(
            d for d in self.all_divergences
            if fo.irreducible_partition_exists(self.tree, d[0], self.cum)
        )

    @cached_property
    def compatible(self) -> dict[frozenset, tuple[SubForest, ...]]:
        """The partition table: the divergent subtrees, effective or not, that
        each leaf partition of `gaussian_classes` admits, in `all_divergences`
        order.  S is compatible when its leaf set is a union of blocks; one
        pass reads each leaf set once.  A partition `project` accepts is an
        admissible partition of some leaves, so it is a class's partition."""
        t, table = self.tree, self.table
        block_of = {pi: {u: b for b in pi for u in b} for _, pi in self.gaussian_classes}
        members: dict[frozenset, list[SubForest]] = {pi: [] for pi in block_of}
        for s, _ in self.all_divergences:
            leaves = t.leaves_of(s, table)
            for pi, blocks in block_of.items():
                if all(u in blocks and blocks[u] <= leaves for u in leaves):
                    members[pi].append(s)
        return {pi: tuple(ss) for pi, ss in members.items()}

    @cached_property
    def cuts(self) -> tuple[tuple[EdgeKey, int], ...]:
        return tuple(cut_enumerate(self.tree, self.table))

    @cached_property
    def gaussian_classes(self) -> tuple[tuple[frozenset[int], frozenset], ...]:
        """Every (Wick set, admissible partition of the other leaves), by
        Wick-set size, then in combination and partition order."""
        t, table = self.tree, self.table
        leaves = sorted(t.leaf_nodes(table))
        out = []
        for r in range(len(leaves) + 1):
            for kept in itertools.combinations(leaves, r):
                rest = [u for u in leaves if u not in kept]
                for pi in fo.leaf_partitions(t, table, self.cum, ground=rest):
                    out.append((frozenset(kept), pi))
        return tuple(out)

    @cached_property
    def representatives(self) -> tuple[int, ...]:
        """For each class of `gaussian_classes`, the index of its orbit's
        representative under the tree's automorphisms
        (`trees.automorphism_swaps`): the least index among the class's images.
        Each orbit is walked from its least index through the group's
        swaps, so the choice reads indices only, never set order."""
        classes = self.gaussian_classes
        index = {c: i for i, c in enumerate(classes)}
        swaps = automorphism_swaps(self.tree)
        reps: list[Optional[int]] = [None] * len(classes)
        for i, c in enumerate(classes):
            if reps[i] is not None:
                continue
            reps[i], stack = i, [c]
            while stack:
                wick, pi = stack.pop()
                for g in swaps:
                    image = (
                        frozenset(g.get(u, u) for u in wick),
                        frozenset(frozenset(g.get(u, u) for u in b) for b in pi),
                    )
                    j = index[image]
                    if reps[j] is None:
                        reps[j] = i
                        stack.append(image)
        return tuple(reps)

    @cached_property
    def failed_hypotheses(self) -> tuple[str, ...]:
        """The names of the theorem's per-tree hypotheses that fail, from
        `rules.subtree_hypotheses`: subtree power counting
        ("super_regularity") and, for Gaussian noise, the three subtree
        bullets ("theorem_conditions")."""
        failed = subtree_hypotheses(self.tree, self.cum)
        return tuple(name for name, subtrees in failed.items() if subtrees)


class Analyses:
    """One TreeAnalysis per tree, made on first request, and the hypotheses
    on the cumulant set, checked on first request."""

    def __init__(self, table: TypeTable, cum: CumulantSet, max_div: int):
        self.table, self.cum, self.max_div = table, cum, max_div
        self._by_tree: dict[DecoratedTree, TreeAnalysis] = {}

    def __call__(self, t: DecoratedTree) -> TreeAnalysis:
        a = self._by_tree.get(t)
        if a is None:
            a = self._by_tree[t] = TreeAnalysis(t, self.table, self.cum, self.max_div)
        return a

    @cached_property
    def failed_cumulant_hypotheses(self) -> tuple[str, ...]:
        """The names of the hypotheses on the cumulant set that fail: the
        margin that leaves only second cumulants to renormalize
        ("higher_cum_check").  The consistency of the root-concentrated
        cumulant homogeneity follows from the noise homogeneities being
        negative and from the arity bound of `CumulantSet`, so it is not
        checked here."""
        return () if higher_cum_check(self.cum) else ("higher_cum_check",)


# -- the certifier -------------------------------------------------------------------


class Certifier:
    """Certifies one tree's chaos classes (Wick set, partition `pi` of the
    other leaves into cumulant blocks), built on the tree's analysis.  Reads
    the multigraph K(T) + E_pi + E_star of a class from
    `multiscale.EdgeUniverse` and builds the total homogeneity of the
    single-tree moment bound, then checks the integrability and large-scale
    decay inequalities on every vertex subset that some realizable
    coalescence tree contains: one whose scales keep every compatible
    divergence its own safe projection and harvest no positive cut
    (`multiscale`).  One loop over the subsets reads all their bounds.

    Vertex subsets are bitmasks over the universe's `verts`: bit 0 is the
    basepoint, then the true nodes in order, so a reported `cluster_mask`
    names its vertices by these positions.  Every edge enters through its
    endpoint mask in the universe's `masks`.

    `certify_classes` certifies the tree's classes one automorphism orbit
    at a time: the weights, bounds and scale rules read the multigraph up to
    vertex names, so a class has its representative's verdict and alpha;
    a class whose representative fails is certified itself, for its own
    violation row."""

    def __init__(self, analysis: TreeAnalysis, vertex_cap: int):
        self.analysis, self.vertex_cap = analysis, vertex_cap
        self.tree, self.table, self.cum = analysis.tree, analysis.table, analysis.cum

    # ---- construction of the multigraph

    def build(self, pi: frozenset) -> ms.EdgeUniverse:
        """The class's edge universe, within the vertex cap."""
        eu = ms.EdgeUniverse(self.tree, self.table, pi)
        if len(eu.verts) > self.vertex_cap:
            raise fo.CapExceeded(
                f"quotient vertex count {len(eu.verts)} exceeds the cap {self.vertex_cap}"
            )
        return eu

    # ---- the scale rules at one cluster

    def _realizable(self, pi: frozenset, eu: ms.EdgeUniverse) -> Callable[[int], bool]:
        """The predicate on vertex subsets `a`: does some coalescence tree
        through `a` have scales under which every compatible divergence is
        its own safe projection (`multiscale.safe_projection`) and no
        positive cut is harvested (`multiscale.harvested_cuts`)?

        Clusters are ranked so that ranks strictly increase into smaller
        clusters, an edge sits at the deepest cluster that holds its
        endpoints, and ties between edge scales are resolved favorably (the
        bounded in-window jitter of individual edge scales).  In a tree
        through `a`, an edge inside `a` sits at or below `a` and one that
        leaves `a` strictly above it.  So a cut whose basepoint edge lies
        inside `a` and whose own edge does not, or a divergence whose
        internal edges lie inside `a` and whose external edges all leave
        it, fails in every such tree.  Otherwise the flat tree {full, a}
        passes, each edge sitting at `a` or at the root: its scales n_a, 1
        on the edges inside `a` and 0 elsewhere, are the ones checked here.
        It is a coalescence tree of the multigraph exactly when the edges
        inside `a` connect it (`connected`).  Every compatible divergence has
        internal edges (a block or a kernel edge) and external ones (a
        basepoint edge), so its scales are defined."""
        cuts = [e for e, _ in self.analysis.cuts]
        # the scale rules need every power-counting divergence: a subtree
        # with a vanishing counterterm still gets its scale-local Taylor
        # reorganization, so the universe here is the full one
        alone = [frozenset({s}) for s in self.analysis.compatible[pi]]
        masks = list(eu.masks.values())

        def realizable(a: int) -> bool:
            n_a = {tag: int(m & a == m) for tag, m in eu.masks.items()}
            return (
                connected(masks, a)
                and all(ms.safe_projection(eu, f, n_a) == f for f in alone)
                and not ms.harvested_cuts(eu, frozenset(), cuts, n_a)
            )

        return realizable

    # ---- hypothesis checks

    def _failures(self, wick: frozenset[int], pi: frozenset, eu: ms.EdgeUniverse):
        """The order alpha and the vertex subsets that violate the
        integrability or the large-scale decay inequality, as (kind, subset,
        value, bound) in subset order.  A subset's value sums the weights
        whose masks it holds (-|n_u|_s per node label, -|t(B)|_s per block
        B, |s| - |t| + |k|_s per kernel edge), less f(B) when it is B's own
        mask.  Each weight sits at the cluster where its mask joins, so the
        partial sums below a node depend only on the node's leaf set, and one
        check per vertex subset decides the certificate.  Its bounds read its
        size and its Wick part w only: `hom[w]` sums the homogeneities of
        those noises and `types[w]` is their sorted type multiset, each grown
        one Wick vertex at a time.  A margin is worked out once per multiset
        of a subset of at least two vertices without the basepoint, which
        holds its Wick part and any of the `others` true vertices."""
        t, n, table, masks = self.tree, len(eu.verts), self.table, eu.masks
        scaling = table.scaling
        abs_s = scaling.abs_s
        ups: list[tuple[int, Fraction]] = []
        gains: dict[int, Fraction] = {}
        for u in eu.verts[1:]:
            d = t.node_dec(u).sdeg(scaling)
            if d:
                ups.append((masks[("star", u)], Fraction(-d)))
        for block in pi:
            leaves = sorted(block)
            block_types = tuple(t.leaf_type(u, table) for u in leaves)
            mask = eu.node_mask(leaves)
            ups.append((mask, -sum((table.hom(x) for x in block_types), Fraction(0))))
            gains[mask] = Fraction(fict_gain(table, block_types))
        for e in t.kernel_edges(table):
            h = Fraction(abs_s) - table.hom(t.edge_type(e)) + t.edge_dec(e).sdeg(scaling)
            ups.append((masks[("K", e)], h))
        total = sum((h for _, h in ups), Fraction(0))

        wick_mask, hom, types = 0, {0: Fraction(0)}, {0: ()}
        for u in sorted(wick):
            bit, x = 1 << eu.index[u], t.leaf_type(u, table)
            wick_mask |= bit
            for w in list(hom):
                hom[w | bit] = hom[w] + table.hom(x)
                types[w | bit] = tuple(sorted(types[w] + (x,)))
        others, pool = n - 1 - len(wick), sorted(set(types[wick_mask]))
        multisets = {types[w] for w in types if w.bit_count() + others >= 2}
        margins = {ts: margin(self.cum, pool, ts) for ts in multisets}
        star_rho = masks[("star", t.root)]

        alpha = total - (n - 1) * abs_s
        full = (1 << n) - 1
        failures = []
        for a in range(1, full + 1):
            k = a.bit_count()
            if k < 2:
                continue
            value = Fraction(0)
            for m, h in ups:
                if (m & a) == m:
                    value += h
            if a in gains:
                value -= gains[a]
            w = a & wick_mask
            rhs = abs_s * (k - 1) + hom[w]
            if not a & 1:
                rhs += margins[types[w]]
            if not value < rhs:
                failures.append(("integrability", a, value, rhs))
                continue
            if (a & star_rho) == star_rho and a != full:
                out = total - value
                rhs2 = abs_s * (n - k) + hom[wick_mask ^ w]
                if not out > rhs2:
                    failures.append(("decay", a, out, rhs2))
        return alpha, failures

    def certify(self, wick: frozenset[int], pi: frozenset) -> dict:
        """Check the integrability and large-scale decay inequalities; a
        violated node only fails the certificate when some realizable
        coalescence tree contains it.

        The inequalities are evaluated per vertex subset (`_failures`),
        and each failing subset, in subset order, is decided at its own
        cluster under the scale rules that `project` applies
        (`_realizable`); the first one that some realizable tree contains
        is the violation.
        """
        eu = self.build(pi)
        alpha, failures = self._failures(wick, pi, eu)
        if not failures:
            return {"pass": True, "alpha": alpha, "failing_subsets": 0}
        realizable = self._realizable(pi, eu)
        for violation in failures:
            if realizable(violation[1]):
                return {"pass": False, "alpha": alpha, "violation": violation}
        return {
            "pass": True,
            "alpha": alpha,
            "failing_subsets": len(failures),
            "pruned_violations": len(failures),
        }

    def certify_classes(self) -> list[dict]:
        """`certify` of every class of `gaussian_classes`, in order, with one
        certificate per automorphism orbit: a class whose representative
        (`TreeAnalysis.representatives`, which comes first in its orbit)
        passes gets the representative's result, and any other class is
        certified itself."""
        out: list[dict] = []
        for (wick, pi), r in zip(self.analysis.gaussian_classes, self.analysis.representatives):
            out.append(out[r] if r < len(out) and out[r]["pass"] else self.certify(wick, pi))
        return out


def connected(masks: Iterable[int], a: int) -> bool:
    """Do the multigraph's edges (given by their endpoint masks) that lie
    inside the vertex subset `a` connect it?  The reach of its lowest vertex
    grows through those edges until nothing new is reached."""
    inside = [m for m in masks if (m & a) == m]
    reach, last = a & -a, 0
    while reach != last:
        last = reach
        for m in inside:
            if m & reach:
                reach |= m
    return reach == a


# -- coalescence trees ------------------------------------------------------------


def bits(x: int) -> list[int]:
    out = []
    i = 0
    while x:
        if x & 1:
            out.append(i)
        x >>= 1
        i += 1
    return out


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
        raise fo.CapExceeded(
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
                if b.bit_count() >= 2:
                    sub_lists.append(rec(b))
                else:
                    sub_lists.append([frozenset()])
            for combo in itertools.product(*sub_lists):
                fam = frozenset({cluster}).union(*combo)
                out.append(fam)
        memo[cluster] = out
        return out

    return rec((1 << n) - 1)


def trees_containing(
    n: int,
    cluster: int,
    prune: Optional[Callable[[int, list[int]], bool]] = None,
    cap: int = 9,
) -> Iterable[Family]:
    """Coalescence trees on n vertices that contain the given cluster.  No
    command searches them: `Certifier._realizable` decides a subset at its
    own cluster, and the search is kept for the benchmark's tracing and as
    the tests' witness search, whose connectivity prune lives with it.

    The trees are assembled from a tree inside the cluster and a tree on the
    quotient (the cluster as one vertex), outer trees in the outer loop.

    `prune(cluster, blocks)` is lifted into both enumerations, so a split is
    rejected before any family is built on it.  This is exact: in the
    assembled family the children of an inner node are its expanded inner
    children, and those of an outer node are its expanded outer blocks, the
    cluster itself being a member.  The result is therefore the subsequence
    of the unpruned trees all of whose clusters pass `prune` with their
    `children_blocks`, in the same order.
    """
    if cluster.bit_count() < 2:
        raise ValueError("a cluster needs at least two vertices")
    full = (1 << n) - 1

    def enumerate_expanded(pieces: list[int]) -> list[Family]:
        def expand(mask: int) -> int:
            out = 0
            for i in bits(mask):
                out |= pieces[i]
            return out

        def lifted(c: int, blocks: list[int]) -> bool:
            return prune(expand(c), sorted(expand(b) for b in blocks))

        fams = enumerate_trees(len(pieces), cap=cap, prune=lifted if prune else None)
        return [frozenset(expand(c) for c in fam) for fam in fams]

    inner = enumerate_expanded([1 << v for v in bits(cluster)])
    if cluster == full:
        yield from inner
        return
    outer = enumerate_expanded([cluster] + [1 << v for v in bits(full & ~cluster)])
    for fout in outer:
        for fin in inner:
            yield fout | fin | {cluster}
