"""The linear scans and recursive canonical forms that the per-tree indexes
of `DecoratedTree` replaced, kept as test oracles."""
from __future__ import annotations

from typing import Mapping

from renormforest.scaling import ZERO_EXT, ZERO_MI
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
