"""Symbolic integrands: kernel/cumulant/power factors, Taylor operators,
the nested counterterm recursion, the chaos decomposition, and the
interval-sum expansion identity.

Integrands are canonical nested structures with exact data; no numerical
evaluation happens here.  Single-scale slices attach uniformly to both
sides of every identity we test, so they are not materialized as factors.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .forests import (
    CutSet,
    ForestOfSubtrees,
    compatible_partition,
    cut_enumerate,
    cuts_avoiding,
    forest_children,
    forest_maximal,
    forests_compatible_with,
    omega,
)
from .forests import leaf_partitions  # noqa: F401  (perfbench wraps this name)
from .powercount import TreeAnalysis
from .rules import CumulantSet
from .scaling import MultiIndex, TypeTable, multiindices_below
from .trees import DecoratedTree, EdgeKey, SubForest

STAR = "*"


# -- Taylor operators ---------------------------------------------------------------


def derivative_set(t: DecoratedTree, sf: SubForest, table: TypeTable) -> list[dict[int, MultiIndex]]:
    """Der(S): multi-indices supported on the integrated nodes of a
    divergent subtree with total s-degree below omega(S)."""
    w = omega(t, sf, table)
    piece = t.restrict(sf)
    inner = sorted(piece.true_nodes(table) - {piece.root})
    out: list[dict[int, MultiIndex]] = []

    def rec(idx: int, remaining: Fraction, acc: dict):
        if idx == len(inner):
            out.append(dict(acc))
            return
        u = inner[idx]
        for k in multiindices_below(table.scaling, remaining):
            if not k.is_zero():
                acc[u] = k
            rec(idx + 1, remaining - k.sdeg(table.scaling), acc)
            acc.pop(u, None)

    if w > 0:
        rec(0, w, {})
    return out


@dataclass(frozen=True)
class TaylorOp:
    """The jet operator of a divergent subtree: sum over Der(S) of
    (x - Coll(x))^k / k! times the k-derivative at the collapsed point."""

    subtree: tuple
    collapse_to: int
    terms: tuple  # ((node, multiindex-entries) sorted, factorial) per k

    @property
    def order_count(self) -> int:
        return len(self.terms)


def taylor_op(t: DecoratedTree, sf: SubForest, table: TypeTable) -> TaylorOp:
    piece = t.restrict(sf)
    ders = derivative_set(t, sf, table)
    terms = []
    for k in ders:
        key = tuple(sorted((u, mi.entries) for u, mi in k.items()))
        fact = 1
        for mi in k.values():
            fact *= mi.factorial()
        terms.append((key, fact))
    return TaylorOp(
        subtree=(tuple(sorted(sf.nodes)), tuple(sorted(sf.edges))),
        collapse_to=piece.root,
        terms=tuple(sorted(terms)),
    )


def collapse_map(t: DecoratedTree, sf: SubForest, table: TypeTable, variables: Iterable) -> dict:
    """Coll_S: fix every coordinate outside the integrated nodes of S."""
    piece = t.restrict(sf)
    inner = piece.true_nodes(table) - {piece.root}
    return {v: (piece.root if v in inner else v) for v in variables}


# -- nested integrand structure --------------------------------------------------------


@dataclass(frozen=True)
class HNode:
    """One level of the counterterm recursion: the subtree, its Taylor
    marker, the cumulant blocks and kernels integrated at this level, the
    factors its own jet acts on, and the nested levels.

    `interior` lists the integration variables the level's jet collapses;
    canonicalization re-places factors by variable contact (a factor with no
    interior contact commutes out of the level), which is the factorization
    rule the nested operators obey."""

    subtree: tuple
    taylor: str  # "-Y" | "Id-Y"
    cu_blocks: tuple
    ring: tuple
    payload: tuple
    children: tuple
    interior: tuple = ()


@dataclass(frozen=True)
class Integrand:
    """A chaos-class integrand: free variables, outer factors, and the
    nested renormalization levels."""

    free_vars: tuple
    integrated: tuple
    cu_blocks: tuple
    ring: tuple
    powers: tuple
    wick: tuple
    nodes: tuple

    def canonical(self) -> "Integrand":
        bubbled: list = []
        nodes = []
        for n in self.nodes:
            n2, up = _normalize_node(n)
            nodes.append(n2)
            bubbled.extend(up)
        ring = list(self.ring)
        powers = list(self.powers)
        for f in bubbled:
            (powers if f[0] == "pow" else ring).append(f)
        return Integrand(
            free_vars=tuple(sorted(self.free_vars, key=str)),
            integrated=tuple(sorted(self.integrated, key=str)),
            cu_blocks=tuple(sorted(self.cu_blocks)),
            ring=tuple(sorted(ring)),
            powers=tuple(sorted(powers)),
            wick=tuple(sorted(self.wick)),
            nodes=tuple(sorted(nodes, key=lambda n: n.subtree)),
        )


def _factor_vars(f: tuple) -> frozenset:
    if f[0] in ("ker", "rker", "kerhat"):
        e = f[1]
        return frozenset(e)
    if f[0] == "pow":
        return frozenset({f[1]})
    return frozenset()


def _normalize_node(node: HNode) -> tuple[HNode, list]:
    interior = frozenset(node.interior)
    ring: list = []
    payload: list = []
    bubbled: list = []
    for f in node.payload:
        (payload if _factor_vars(f) & interior else bubbled).append(f)
    for f in node.ring:
        (ring if _factor_vars(f) & interior else bubbled).append(f)
    children = []
    for c in node.children:
        c2, up = _normalize_node(c)
        children.append(c2)
        for f in up:
            (ring if _factor_vars(f) & interior else bubbled).append(f)
    return (
        HNode(
            subtree=node.subtree,
            taylor=node.taylor,
            cu_blocks=tuple(sorted(node.cu_blocks)),
            ring=tuple(sorted(ring)),
            payload=tuple(sorted(payload)),
            children=tuple(sorted(children, key=lambda n: n.subtree)),
            interior=tuple(sorted(node.interior)),
        ),
        bubbled,
    )


def _sf_key(sf: SubForest) -> tuple:
    return (tuple(sorted(sf.nodes)), tuple(sorted(sf.edges)))


def _kernel_factor(e: EdgeKey, cut_kind: Optional[str], gamma: Optional[int]) -> tuple:
    if cut_kind is None:
        return ("ker", e)
    if cut_kind == "rker":
        return ("rker", e, gamma)
    return ("kerhat", e, gamma)


def build_W(
    t: DecoratedTree,
    table: TypeTable,
    pi: frozenset[frozenset[int]],
    wick: frozenset[int],
    forest: ForestOfSubtrees,
    cuts: CutSet,
    taylor_marks: Optional[dict] = None,
    cut_marks: Optional[dict] = None,
) -> Integrand:
    """The integrand of one (forest, cut set) summand of a chaos class.

    `taylor_marks` / `cut_marks` override the default "-Y" / "rker" tags
    (used by the interval form, where some levels carry Id-Y and some cut
    edges the combined kernel)."""
    if not compatible_partition(t, table, forest, pi):
        raise ValueError("forest is not compatible with the partition")
    gamma = dict(cut_enumerate(t, table))
    for e in cuts:
        if e not in gamma:
            raise ValueError(f"{e} is not a positive cut")
        if any(e in s.edges for s in forest):
            raise ValueError("cut set must avoid the forest")
    taylor_marks = taylor_marks or {}
    cut_marks = cut_marks or {}
    maximal = forest_maximal(forest)

    def kfac(e: EdgeKey) -> tuple:
        if e in cuts:
            return _kernel_factor(e, cut_marks.get(e, "rker"), gamma[e])
        return _kernel_factor(e, None, None)

    def down_edges(s: SubForest) -> list[EdgeKey]:
        return [
            e
            for e in t.kernel_edges(table)
            if e[0] in s.nodes and e[1] not in s.nodes
        ]

    def blocks_within(leaves: frozenset[int]) -> tuple:
        return tuple(
            sorted(tuple(sorted(b)) for b in pi if set(b) <= leaves)
        )

    def node_of(s: SubForest) -> HNode:
        piece = t.restrict(s)
        kids = forest_children(forest, s)
        child_true = set()
        child_leaves = set()
        child_kernels: set[EdgeKey] = set()
        child_down: set[EdgeKey] = set()
        for c in kids:
            cp = t.restrict(c)
            child_true |= set(cp.true_nodes(table)) - {cp.root}
            child_leaves |= set(cp.leaf_nodes(table))
            child_kernels |= set(cp.kernel_edges(table))
            child_down |= set(down_edges(c))
        ring = [
            kfac(e)
            for e in piece.kernel_edges(table)
            if e not in child_kernels and e not in child_down
        ]
        own_leaves = frozenset(piece.leaf_nodes(table)) - child_leaves
        payload_children = {}
        for c in kids:
            payload_children[c] = [
                kfac(e) for e in down_edges(c) if e in piece.kernel_edges(table)
            ]
        return HNode(
            subtree=_sf_key(s),
            taylor=taylor_marks.get(s, "-Y"),
            cu_blocks=blocks_within(own_leaves),
            ring=tuple(ring),
            payload=(),
            children=tuple(
                HNode(
                    subtree=n.subtree,
                    taylor=n.taylor,
                    cu_blocks=n.cu_blocks,
                    ring=n.ring,
                    payload=tuple(payload_children[c]),
                    children=n.children,
                    interior=n.interior,
                )
                for c, n in ((c, node_of(c)) for c in kids)
            ),
            interior=tuple(sorted(piece.true_nodes(table) - {piece.root})),
        )

    all_true = set(t.true_nodes(table))
    forest_inner = set()
    forest_leaves = set()
    forest_kernels: set[EdgeKey] = set()
    forest_down: set[EdgeKey] = set()
    for s in maximal:
        piece = t.restrict(s)
        forest_inner |= set(piece.true_nodes(table)) - {piece.root}
        forest_leaves |= set(piece.leaf_nodes(table))
        forest_kernels |= set(piece.kernel_edges(table))
        forest_down |= set(down_edges(s))
    outer_kernels = [
        e
        for e in t.kernel_edges(table)
        if e not in forest_kernels and e not in forest_down
    ]
    outer_leaves = frozenset(t.leaf_nodes(table)) - forest_leaves
    outer_nodes = sorted((all_true - {t.root}) - forest_inner)
    powers = tuple(
        ("pow", u, STAR, t.node_dec(u).entries)
        for u in sorted(all_true - forest_inner)
        if not t.node_dec(u).is_zero()
    )
    top_nodes = []
    for s in sorted(maximal, key=lambda x: x.sort_key()):
        n = node_of(s)
        piece = t.restrict(s)
        payload = [kfac(e) for e in down_edges(s)] + [
            ("pow", u, STAR, t.node_dec(u).entries)
            for u in sorted(piece.true_nodes(table) - {piece.root})
            if not t.node_dec(u).is_zero()
        ]
        top_nodes.append(
            HNode(
                subtree=n.subtree,
                taylor=n.taylor,
                cu_blocks=n.cu_blocks,
                ring=n.ring,
                payload=tuple(payload),
                children=n.children,
                interior=n.interior,
            )
        )
    return Integrand(
        free_vars=tuple(sorted(wick)) + (t.root, STAR),
        integrated=tuple(
            u for u in sorted(all_true - {t.root}) if u not in wick
        ),
        cu_blocks=tuple(
            sorted(tuple(sorted(b)) for b in pi if set(b) <= outer_leaves)
        ),
        ring=tuple(kfac(e) for e in outer_kernels),
        powers=powers,
        wick=tuple(sorted(wick)),
        nodes=tuple(top_nodes),
    ).canonical()


# -- chaos decomposition -----------------------------------------------------------------


@dataclass(frozen=True)
class ChaosClass:
    wick: frozenset[int]
    pi: frozenset[frozenset[int]]
    forests: tuple
    cut_sets_per_forest: tuple


def chaos_classes(analysis: TreeAnalysis) -> list[ChaosClass]:
    """All (Wick set, partition) classes of `analysis.tree` with their
    compatible forests and admissible cut sets; a class's summands are the
    (forest, cuts) pairs."""
    t, table = analysis.tree, analysis.table
    univ = [s for s, _ in analysis.divergences]
    all_cuts = [e for e, _ in analysis.cuts]
    out = []
    for wick, pi in analysis.gaussian_classes:
        forests = forests_compatible_with(t, table, univ, pi)
        cut_sets = []
        for f in forests:
            free = cuts_avoiding(t, all_cuts, f)
            cut_sets.append(
                tuple(
                    frozenset(c)
                    for rr in range(len(free) + 1)
                    for c in itertools.combinations(free, rr)
                )
            )
        out.append(
            ChaosClass(
                wick=wick,
                pi=pi,
                forests=tuple(forests),
                cut_sets_per_forest=tuple(cut_sets),
            )
        )
    return out


def chaos_decomposition(t: DecoratedTree, table: TypeTable, cum: CumulantSet) -> list[dict]:
    """One entry per summand of the renormalized chaos expansion."""
    out = []
    for cls in chaos_classes(TreeAnalysis(t, table, cum)):
        for f, csets in zip(cls.forests, cls.cut_sets_per_forest):
            for c in csets:
                out.append(
                    {
                        "wick": cls.wick,
                        "pi": cls.pi,
                        "forest": f,
                        "cuts": c,
                        "integrand": build_W(t, table, cls.pi, cls.wick, f, c),
                    }
                )
    return out


# -- interval form and the expansion identity -----------------------------------------------


def build_interval_W(
    t: DecoratedTree,
    table: TypeTable,
    pi: frozenset[frozenset[int]],
    wick: frozenset[int],
    m_small: frozenset[SubForest],
    m_big: frozenset[SubForest],
    g_small: frozenset[EdgeKey],
    g_big: frozenset[EdgeKey],
) -> Integrand:
    """The partially resummed integrand of an interval of forests and an
    interval of cuts: fully renormalized levels on s(M), remainder levels on
    delta(M), recentered kernels on s(G) and combined kernels on delta(G)."""
    taylor_marks = {s: ("-Y" if s in m_small else "Id-Y") for s in m_big}
    cut_marks = {}
    for e in g_big:
        cut_marks[e] = "rker" if e in g_small else "kerhat"
    return build_W(
        t,
        table,
        pi,
        wick,
        frozenset(m_big),
        frozenset(g_big),
        taylor_marks=taylor_marks,
        cut_marks=cut_marks,
    )


def _dissolve(parent_fields: dict, child: HNode) -> dict:
    """Remove an Id-chosen level: its cumulants, kernels and payload merge
    into the enclosing level and its children move up; the canonical
    normalization then re-places every factor by variable contact."""
    parent_fields["cu_blocks"] = tuple(parent_fields["cu_blocks"]) + tuple(child.cu_blocks)
    parent_fields["ring"] = (
        tuple(parent_fields["ring"]) + tuple(child.ring) + tuple(child.payload)
    )
    parent_fields["children"] = tuple(parent_fields["children"]) + tuple(child.children)
    return parent_fields


def _select(node: HNode, keep: frozenset, rker_edges: frozenset) -> list[HNode]:
    """Resolve the markers of one level: returns the level itself (with the
    choice applied to its subtree below) or, when dissolved, its lifted
    children; the caller absorbs the returned payload/ring adjustments."""
    new_children: list[HNode] = []
    fields = {
        "cu_blocks": node.cu_blocks,
        "ring": _resolve_cuts(node.ring, rker_edges),
        "children": (),
    }
    for c in node.children:
        for resolved in _select(c, keep, rker_edges):
            if resolved.taylor == "dissolved":
                fields = _dissolve(fields, resolved)
            else:
                new_children.append(resolved)
    fields["children"] = tuple(fields["children"]) + tuple(new_children)
    taylor = node.taylor
    if taylor == "Id-Y":
        taylor = "-Y" if node.subtree in keep else "dissolved"
    return [
        HNode(
            subtree=node.subtree,
            taylor=taylor,
            cu_blocks=tuple(fields["cu_blocks"]),
            ring=tuple(fields["ring"]),
            payload=_resolve_cuts(node.payload, rker_edges),
            children=tuple(fields["children"]),
            interior=node.interior,
        )
    ]


def _resolve_cuts(factors: tuple, rker_edges: frozenset) -> tuple:
    out = []
    for f in factors:
        if f[0] == "kerhat":
            _, e, gamma = f
            out.append(("rker", e, gamma) if e in rker_edges else ("ker", e))
        else:
            out.append(f)
    return tuple(out)


def expand_choice(
    interval_integrand: Integrand,
    chosen_subtrees: frozenset,
    chosen_cuts: frozenset,
) -> Integrand:
    """One binomial expansion term of the interval integrand: pick -Y on the
    chosen remainder levels (Id elsewhere) and the recentered kernel on the
    chosen combined edges (the plain kernel elsewhere)."""
    keep = frozenset(
        (tuple(sorted(s.nodes)), tuple(sorted(s.edges)))
        if isinstance(s, SubForest)
        else s
        for s in chosen_subtrees
    )
    outer = {
        "cu_blocks": interval_integrand.cu_blocks,
        "ring": _resolve_cuts(interval_integrand.ring, chosen_cuts),
        "children": (),
    }
    tops: list[HNode] = []
    for nd in interval_integrand.nodes:
        for resolved in _select(nd, keep, chosen_cuts):
            if resolved.taylor == "dissolved":
                outer = _dissolve(outer, resolved)
            else:
                tops.append(resolved)
    tops.extend(outer["children"])
    powers = list(interval_integrand.powers)
    ring = []
    for f in outer["ring"]:
        (powers if f[0] == "pow" else ring).append(f)
    return Integrand(
        free_vars=interval_integrand.free_vars,
        integrated=interval_integrand.integrated,
        cu_blocks=tuple(outer["cu_blocks"]),
        ring=tuple(ring),
        powers=tuple(powers),
        wick=interval_integrand.wick,
        nodes=tuple(tops),
    ).canonical()


def interval_expansion_check(
    t: DecoratedTree,
    table: TypeTable,
    pi: frozenset[frozenset[int]],
    wick: frozenset[int],
    m_small: frozenset[SubForest],
    m_big: frozenset[SubForest],
    g_small: frozenset[EdgeKey],
    g_big: frozenset[EdgeKey],
) -> dict:
    """Verify that expanding every remainder marker and combined kernel of
    the interval integrand reproduces, term by term, the plainly built
    integrands of the interval's (forest, cut set) pairs.

    The integrated-variable sets are compared as derived data; a mismatch
    pinpoints a bookkeeping error in the level partitions."""
    iv = build_interval_W(t, table, pi, wick, m_small, m_big, g_small, g_big)
    delta_m = sorted(frozenset(m_big) - frozenset(m_small), key=lambda s: s.sort_key())
    delta_g = sorted(frozenset(g_big) - frozenset(g_small))
    for r in range(len(delta_m) + 1):
        for extra in itertools.combinations(delta_m, r):
            for rr in range(len(delta_g) + 1):
                for extra_cuts in itertools.combinations(delta_g, rr):
                    forest = frozenset(m_small) | set(extra)
                    cuts = frozenset(g_small) | set(extra_cuts)
                    lhs = expand_choice(
                        iv,
                        frozenset(m_small) | set(extra),
                        frozenset(g_small) | set(extra_cuts),
                    )
                    rhs = build_W(t, table, pi, wick, forest, cuts)
                    if lhs != rhs:
                        return {
                            "pass": False,
                            "forest": forest,
                            "cuts": cuts,
                            "lhs": lhs,
                            "rhs": rhs,
                        }
    return {"pass": True, "terms": 2 ** (len(delta_m) + len(delta_g))}
