"""The linear scans and recursive canonical forms that the per-tree indexes
of `DecoratedTree` replaced, and the bitmask growth of connected edge sets
that its rooted edge-set recursion replaced, kept as test oracles."""
from __future__ import annotations

import itertools
from typing import Mapping

from renormforest.scaling import TypeTable, ZERO_EXT, ZERO_MI
from renormforest.trees import DecoratedTree, EdgeKey, SubForest


def scan(items, key, default=None):
    """The value of `key` among (key, value) pairs, by a linear scan."""
    for k, v in items:
        if k == key:
            return v
    return default


def _edge_code(t: DecoratedTree, e: EdgeKey) -> tuple:
    return (
        scan(t.edge_items, e),
        scan(t.edge_dec_items, e, ZERO_MI).entries,
        t.color_of_edge(e),
        code(t, e[1]),
    )


def code(t: DecoratedTree, u: int) -> tuple:
    """The AHU code of node u, by recursion over its children."""
    o = scan(t.o_label_items, u, ZERO_EXT)
    return (
        scan(t.node_dec_items, u, ZERO_MI).entries,
        t.color_of_node(u),
        (o.zd, o.types),
        tuple(sorted(_edge_code(t, e) for e in t.children(u))),
    )


def relabel_canonical(t: DecoratedTree) -> DecoratedTree:
    order: list[int] = []

    def visit(u: int):
        order.append(u)
        for e in sorted(t.children(u), key=lambda e: _edge_code(t, e)):
            visit(e[1])

    visit(t.root)
    return t.relabel({u: i for i, u in enumerate(order)})


def embedded_key(
    root: int,
    edges: Mapping,
    node_dec: Mapping,
    edge_dec: Mapping,
    hat1: SubForest,
    hat2: SubForest,
    o_label: Mapping,
) -> tuple:
    """The literal key of the tree the constructor builds from these
    arguments: every mapping sorted, zero labels dropped."""

    def labels(m: Mapping) -> tuple:
        return tuple(sorted((k, v) for k, v in m.items() if not v.is_zero()))

    def sub(s: SubForest) -> tuple:
        return (tuple(sorted(s.nodes)), tuple(sorted(s.edges)))

    return (
        "emb",
        root,
        tuple(sorted(edges.items())),
        labels(node_dec),
        labels(edge_dec),
        sub(hat1),
        sub(hat2),
        labels(o_label),
    )


def all_subtrees(t: DecoratedTree, table: TypeTable, min_true_nodes: int = 1) -> list[SubForest]:
    """`DecoratedTree.all_subtrees` as it was: connected edge sets grown
    edge by edge over an edge adjacency, as bitmasks with a seen set, and
    deduplicated before they are sorted."""
    out: list[SubForest] = []
    edge_list = [e for e, _ in t.edge_items]
    n = len(edge_list)
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for i, e in enumerate(edge_list):
        for j, f in enumerate(edge_list):
            if i != j and (set(e) & set(f)):
                adj[i].add(j)
    seen_masks: set[int] = set()

    def grow(mask: int, frontier: set[int], min_new: int):
        if mask in seen_masks:
            return
        seen_masks.add(mask)
        sel = [edge_list[i] for i in range(n) if mask >> i & 1]
        nodes = frozenset(itertools.chain.from_iterable(sel))
        sf = SubForest(nodes, frozenset(sel))
        fict = {c for (p, c) in sel if table.is_noise(t.edge_type((p, c)))}
        if len(nodes - fict) >= min_true_nodes:
            out.append(sf)
        for j in sorted(frontier):
            if j < min_new:
                continue
            grow(mask | (1 << j), (frontier | adj[j]) - {j}, min_new)

    for i in range(n):
        grow(1 << i, adj[i] - set(range(i + 1)), i + 1)
    uniq = {sf.sort_key(): sf for sf in out}
    return [uniq[k] for k in sorted(uniq)]
