"""The per-tree analysis with the convergence theorem's hypotheses, and the
power-counting certifier of the single-tree moment bounds.

The certificate puts one "up" entry per cumulant block at the cluster where
the block's vertices join; the closed forms of the cumulant homogeneity are
in `rules`."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Optional

from . import forests as fo
from .coalescence import Family, bits, enumerate_trees, full_mask, popcount
from . import multiscale as ms
from .forests import cut_enumerate, compatible_partition
from .rules import CumulantSet, fict_gain, higher_cum_check, margin, subtree_hypotheses
from .scaling import TypeTable
from .trees import DecoratedTree, EdgeKey, SubForest


# -- the per-tree analysis -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TreeAnalysis:
    """The power-counting facts of one tree that every command reads: its
    divergent subtrees with their omega, listed once under the cap
    `max_div`, and the effective ones among them (nonvanishing counterterm),
    its positive cuts with their Taylor order gamma, its Gaussian chaos
    classes (Wick set, leaf partition) and the convergence theorem's
    hypotheses on its subtrees that fail.

    They depend only on the tree, the type table and the cumulant set, not on
    a partition or on scales.  Each is computed on first use and then kept;
    none is computed on construction."""

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


@dataclass(frozen=True)
class CertificateInput:
    """One chaos class of one tree: the noises kept in the Wick product and
    the partition of the other leaves into cumulant blocks."""

    tree: DecoratedTree
    wick: frozenset[int]  # L~: noises kept in the Wick product
    pi: frozenset[frozenset[int]]


class Certifier:
    """Reads the multigraph K(T) + E_pi + E_star of a chaos class from
    `multiscale.EdgeUniverse` and builds the total homogeneity of the
    single-tree moment bound, then checks the integrability and large-scale
    decay inequalities on every vertex subset that some realizable
    coalescence tree contains.

    Vertex subsets are bitmasks over the universe's `verts`: bit 0 is the
    basepoint, then the true nodes in order, so a reported `cluster_mask`
    names its vertices by these positions.  Every edge enters through its
    endpoint mask in the universe's `masks`."""

    def __init__(self, analysis: Analyses, vertex_cap: int):
        self.analysis = analysis
        self.table, self.cum = analysis.table, analysis.cum
        self.vertex_cap = vertex_cap

    # ---- construction of the multigraph

    def build(self, ci: CertificateInput) -> ms.EdgeUniverse:
        """The class's edge universe, within the vertex cap."""
        eu = ms.EdgeUniverse(ci.tree, self.table, ci.pi)
        if len(eu.verts) > self.vertex_cap:
            raise fo.CapExceeded(
                f"quotient vertex count {len(eu.verts)} exceeds the cap {self.vertex_cap}"
            )
        return eu

    def wick_contributions(self, ci: CertificateInput, eu: ms.EdgeUniverse) -> list:
        """Flat description of the moment integrand's total homogeneity:
        node polynomial weights, cumulant weights, the second-cumulant
        renormalization gain, and kernel growth.

        Each entry is ("up", mask, value), placed at the deepest cluster that
        holds the mask, or ("fict", mask, value); `_subset_tables` sums them
        per vertex subset.  Each cumulant block B of the partition puts
        -|t(B)|_s at the cluster where its vertices join.
        """
        t, table, masks = ci.tree, self.table, eu.masks
        abs_s = table.scaling.abs_s
        parts: list = []
        for u in eu.verts[1:]:
            d = t.node_dec(u).sdeg(table.scaling)
            if d:
                parts.append(("up", masks[("star", u)], Fraction(-d)))
        for block in ci.pi:
            leaves = sorted(block)
            types = tuple(t.leaf_type(u, table) for u in leaves)
            mask = eu.node_mask(leaves)
            parts.append(("up", mask, -sum((table.hom(x) for x in types), Fraction(0))))
            f = fict_gain(table, types)
            if f > 0:
                parts.append(("fict", mask, Fraction(f)))
        for e in t.kernel_edges(table):
            h = Fraction(abs_s) - table.hom(t.edge_type(e)) + t.edge_dec(e).sdeg(table.scaling)
            parts.append(("up", masks[("K", e)], h))
        return parts

    # ---- the scale constraints of a coalescence tree

    def _interval_plan(self, ci: CertificateInput, eu: ms.EdgeUniverse):
        """The scale-order constraints on every labeled coalescence tree,
        reduced to vertex masks.  A mask joins at the deepest cluster that
        holds it (a single vertex at its parent), and a labeling ranks the
        clusters so that ranks strictly increase into smaller clusters:

        - `cuts`: per positive cut e = (p, c), (star_pair, edge_pair), the
          masks of the basepoint edge of p and of e itself.  Every cut must
          lie outside G^n(F).  A kernel route can never beat the join of its
          endpoints and the basepoint route never drops below its direct
          edge, so this puts the basepoint join at or below the edge join.
        - `subtrees`: per divergence compatible with the partition that has
          internal and external edges (`multiscale.internal_tags`,
          `external_tags`), (internal masks, external masks): some internal
          join must sit at or above some external one.  The internal masks
          cover the divergence's true nodes, so every external mask meets
          them.

        Comparisons sit at the cluster-rank level with ties resolved
        favorably, reflecting the bounded in-window jitter of individual
        edge scales."""
        t, table, masks = ci.tree, self.table, eu.masks
        analysis = self.analysis(t)
        cuts = [(masks[("star", e[0])], masks[("K", e)]) for e, _ in analysis.cuts]
        # the scale machinery needs every power-counting divergence: a
        # subtree with a vanishing counterterm still gets its scale-local
        # Taylor reorganization, so the universe here is the full one
        subtrees = []
        for s, _ in analysis.all_divergences:
            if not compatible_partition(t, table, s, ci.pi):
                continue
            ints = sorted({masks[tag] for tag in ms.internal_tags(eu, s)})
            exts = sorted({masks[tag] for tag in ms.external_tags(eu, s)})
            if ints and exts:
                subtrees.append((ints, exts))
        return cuts, subtrees

    @staticmethod
    def _witnessed(plan, connected: Callable[[int, list[int]], bool], a: int) -> bool:
        """Does some coalescence tree that contains the vertex subset `a`
        satisfy the plan?  In such a tree a mask inside `a` joins at or
        below `a`, and a mask that meets `a` and leaves it joins strictly
        above `a`.  So a cut whose basepoint pair lies inside `a` and whose
        edge pair does not, or a divergence whose internal masks all lie
        inside `a` and whose external masks (which then all meet `a`) all
        leave it, forces a cluster's rank to or below that of a cluster
        strictly inside it: no tree containing `a` is realizable.
        Otherwise the flat tree {full, a}, the coarsest one through `a`,
        satisfies the plan, since every mask joins at `a` or at the root;
        it is a coalescence tree of the multigraph exactly when `a` is
        connected (`connected_split`)."""
        cuts, subtrees = plan

        def inside(m: int) -> bool:
            return (m & a) == m

        return (
            connected(a, [1 << v for v in bits(a)])
            and not any(inside(star) and not inside(edge) for star, edge in cuts)
            and not any(
                all(map(inside, ints)) and not any(map(inside, exts))
                for ints, exts in subtrees
            )
        )

    # ---- hypothesis checks

    def _subset_tables(self, ci: CertificateInput, eu: ms.EdgeUniverse):
        """Per-subset data for the inequality checks.  Every entry sits at
        the cluster where its mask joins, so the partial sums below a node
        depend only on the node's leaf set, and the whole certificate
        reduces to one check per vertex subset."""
        n = len(eu.verts)
        parts = self.wick_contributions(ci, eu)
        ups: list[tuple[int, Fraction]] = []
        ficts: dict[int, Fraction] = {}
        for kind, mask, value in parts:
            if kind == "up":
                ups.append((mask, value))
            else:
                ficts[mask] = ficts.get(mask, Fraction(0)) + value
        total = sum((v for _, v in ups), Fraction(0))
        base: dict[int, Fraction] = {}
        for a in range(1, 1 << n):
            acc = Fraction(0)
            for m, v in ups:
                if (m & a) == m:
                    acc += v
            if a in ficts:
                acc -= ficts[a]
            base[a] = acc
        return base, total

    def _failures(self, ci: CertificateInput, eu: ms.EdgeUniverse):
        """The order alpha and the vertex subsets that violate the
        integrability or the large-scale decay inequality, as (kind, subset,
        value, bound) in subset order."""
        n = len(eu.verts)
        abs_s = self.table.scaling.abs_s
        types_of = {eu.index[u]: ci.tree.leaf_type(u, self.table) for u in sorted(ci.wick)}
        wick_idx = set(types_of)
        star_rho = eu.masks[("star", ci.tree.root)]
        pool = sorted({types_of[i] for i in wick_idx})
        brackets: dict[tuple, Fraction] = {}

        base, total = self._subset_tables(ci, eu)
        alpha = total - (n - 1) * abs_s
        full = full_mask(n)
        failures = []
        for a in range(1, full + 1):
            if popcount(a) < 2:
                continue
            ext_types = tuple(sorted(types_of[i] for i in bits(a) if i in wick_idx))
            rhs = abs_s * (popcount(a) - 1) + sum(
                (self.table.hom(x) for x in ext_types), Fraction(0)
            )
            if not a & 1:
                if ext_types not in brackets:
                    brackets[ext_types] = margin(self.cum, pool, ext_types)
                rhs += brackets[ext_types]
            if not base[a] < rhs:
                failures.append(("integrability", a, base[a], rhs))
                continue
            if (a & star_rho) == star_rho and a != full:
                out = total - base[a]
                rest_types = tuple(
                    sorted(types_of[i] for i in wick_idx if not (a >> i) & 1)
                )
                rhs2 = abs_s * (n - popcount(a)) + sum(
                    (self.table.hom(x) for x in rest_types), Fraction(0)
                )
                if not out > rhs2:
                    failures.append(("decay", a, out, rhs2))
        return alpha, failures

    def certify(self, ci: CertificateInput) -> dict:
        """Check the integrability and large-scale decay inequalities; a
        violated node only fails the certificate when some realizable
        coalescence tree contains it.

        The inequalities are evaluated per vertex subset (`_subset_tables`),
        and each failing subset, in subset order, is decided at its own
        cluster (`_witnessed`); the first one that some realizable tree
        contains is the violation.
        """
        eu = self.build(ci)
        alpha, failures = self._failures(ci, eu)
        if not failures:
            return {"pass": True, "alpha": alpha, "failing_subsets": 0}
        plan = self._interval_plan(ci, eu)
        connected = connected_split(eu.masks.values())
        for violation in failures:
            if self._witnessed(plan, connected, violation[1]):
                return {"pass": False, "alpha": alpha, "violation": violation}
        return {
            "pass": True,
            "alpha": alpha,
            "failing_subsets": len(failures),
            "pruned_violations": len(failures),
        }


def connected_split(edge_masks: Iterable[int]) -> Callable[[int, list[int]], bool]:
    """A cluster may split into blocks only when the multigraph's edges
    (given by their endpoint masks) inside the cluster connect the blocks,
    as in the coalescence tree of a connected multigraph.  With the
    cluster's single vertices as blocks this says that the cluster is
    connected."""
    edge_masks = list(edge_masks)

    def prune(cluster: int, blocks: list[int]) -> bool:
        parent = list(range(len(blocks)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for m in edge_masks:
            if (m & cluster) != m:
                continue
            touched = [i for i, b in enumerate(blocks) if m & b]
            for j in touched[1:]:
                parent[find(j)] = find(touched[0])
        return len({find(i) for i in range(len(blocks))}) == 1

    return prune


def trees_containing(
    n: int,
    cluster: int,
    prune: Optional[Callable[[int, list[int]], bool]] = None,
    cap: int = 9,
) -> Iterable[Family]:
    """Coalescence trees on n vertices that contain the given cluster.  No
    command searches them: `Certifier._witnessed` decides a subset at its
    own cluster, and the search is kept for the benchmark's tracing and as
    the tests' witness search.

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
    if popcount(cluster) < 2:
        raise ValueError("a cluster needs at least two vertices")
    full = full_mask(n)

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
