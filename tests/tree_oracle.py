"""The linear scans and recursive canonical forms that the per-tree indexes
of `DecoratedTree` replaced (node and edge labels, AHU codes, true nodes,
leaves and their noise types), the bitmask growth of connected edge sets that
its rooted edge-set recursion replaced, the hand-written copies (`relabel`,
`restrict`, `integrate`, `tree_product` and the generator's `assemble`) that
`trees.graft` and `DecoratedTree.restrict` replaced (`restrict` builds a
fresh tree, shape and all, where `DecoratedTree.restrict` shares one shape
per subforest), the canonical relabelling (`relabel_canonical`) that
`trees.graft` lays out in one build, the one bottom-up pass over the labels
that `trees.up_hom_table` replaced with a label-free table per shape, and
the per-call `Fraction` sum over every edge and true node that
`DecoratedTree.homogeneity` replaced with a label-free sum per shape, kept
as test oracles.  `automorphisms` finds a tree's automorphisms by brute
force, where `trees.automorphisms` reads them off the AHU codes, and
`closure` lists the group that a set of permutations generates.  Nothing
here calls `DecoratedTree`'s copy primitive."""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Sequence

from renormforest.scaling import MultiIndex, TypeTable, ZERO_MI
from renormforest.trees import DecoratedTree, EdgeKey, SubForest, poly


def scan(items, key, default=None):
    """The value of `key` among (key, value) pairs, by a linear scan."""
    for k, v in items:
        if k == key:
            return v
    return default


def true_nodes(t: DecoratedTree, table: TypeTable) -> set[int]:
    """N(T): the nodes that are no child of a noise edge, by a scan."""
    return {u for u in t.nodes if not any(c == u and table.is_noise(ty) for (_, c), ty in t.edge_items)}


def leaf_types(t: DecoratedTree, table: TypeTable) -> dict[int, str]:
    """The type of the first noise edge under each node that has one, by a
    scan of the node's children."""
    out = {}
    for u in t.nodes:
        for e in t.children(u):
            if table.is_noise(t.edge_type(e)):
                out[u] = t.edge_type(e)
                break
    return out


def _edge_code(t: DecoratedTree, e: EdgeKey) -> tuple:
    return (
        scan(t.edge_items, e),
        scan(t.edge_dec_items, e, ZERO_MI).entries,
        t.color_of_edge(e),
        code(t, e[1]),
    )


def code(t: DecoratedTree, u: int) -> tuple:
    """The AHU code of node u, by recursion over its children.  The o label
    sits in an (entries, ()) slot, the layout of the codes `src/` keeps."""
    return (
        scan(t.node_dec_items, u, ZERO_MI).entries,
        t.color_of_node(u),
        (scan(t.o_label_items, u, ZERO_MI).entries, ()),
        tuple(sorted(_edge_code(t, e) for e in t.children(u))),
    )


def relabel_canonical(t: DecoratedTree) -> DecoratedTree:
    """The tree under node ids 0..n-1 in preorder, each node's children in
    the order of their edge codes (`_edge_code`), by recursion: the
    canonical labelling of its iso class."""
    order: list[int] = []

    def visit(u: int):
        order.append(u)
        for e in sorted(t.children(u), key=lambda e: _edge_code(t, e)):
            visit(e[1])

    visit(t.root)
    return relabel(t, {u: i for i, u in enumerate(order)})


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


# -- the hand-written copies ---------------------------------------------------


def relabel(t: DecoratedTree, ren: Mapping[int, int]) -> DecoratedTree:
    return DecoratedTree(
        root=ren[t.root],
        edges={(ren[p], ren[c]): ty for (p, c), ty in t.edge_items},
        node_dec={ren[u]: k for u, k in t.node_dec_items},
        edge_dec={(ren[p], ren[c]): k for (p, c), k in t.edge_dec_items},
        hat1=SubForest(
            frozenset(ren[u] for u in t.hat1.nodes),
            frozenset((ren[p], ren[c]) for p, c in t.hat1.edges),
        ),
        hat2=SubForest(
            frozenset(ren[u] for u in t.hat2.nodes),
            frozenset((ren[p], ren[c]) for p, c in t.hat2.edges),
        ),
        o_label={ren[u]: v for u, v in t.o_label_items},
    )


def restrict(t: DecoratedTree, sf: SubForest) -> DecoratedTree:
    return DecoratedTree(
        root=t.subtree_root(sf),
        edges={e: ty for e, ty in t.edge_items if e in sf.edges},
        node_dec={u: k for u, k in t.node_dec_items if u in sf.nodes},
        edge_dec={e: k for e, k in t.edge_dec_items if e in sf.edges},
        hat1=SubForest(t.hat1.nodes & sf.nodes, t.hat1.edges & sf.edges),
        hat2=SubForest(t.hat2.nodes & sf.nodes, t.hat2.edges & sf.edges),
        o_label={u: v for u, v in t.o_label_items if u in sf.nodes},
    )


def up_hom_table(t: DecoratedTree, table: TypeTable) -> dict[EdgeKey, Fraction]:
    """|T_>=(e)|_+ with the labels n and o of its root dropped, for every
    edge e, by one bottom-up pass over the tree and its labels."""
    scaling = table.scaling
    fict = t.fictitious_nodes(table)
    above: dict[int, Fraction] = {}
    out: dict[EdgeKey, Fraction] = {}
    for u in reversed(t.top_down()):
        h = Fraction(0)
        if u not in fict:
            k, o = t.node_dec(u), t.o_label(u)
            if not k.is_zero():
                h += k.sdeg(scaling)
            if not o.is_zero():
                h += o.sdeg(scaling)
        for e in t.children(u):
            w = above[e[1]] + table.hom(t.edge_type(e))
            k = t.edge_dec(e)
            if not k.is_zero():
                w -= k.sdeg(scaling)
            out[e] = w
            h += w
        above[u] = h
    return out


def homogeneity(t: DecoratedTree, table: TypeTable) -> Fraction:
    """|.|_s summed anew: every edge with its label, and the node label of
    every true node."""
    total = Fraction(0)
    for e, ty in t.edge_items:
        total += table.hom(ty) - Fraction(t.edge_dec(e).sdeg(table.scaling))
    for u in true_nodes(t, table):
        total += Fraction(t.node_dec(u).sdeg(table.scaling))
    return total


def shift_ids(t: DecoratedTree, offset: int) -> DecoratedTree:
    return relabel(t, {u: u + offset for u in t.nodes})


def integrate(name: str, k: MultiIndex, tree: DecoratedTree, table: TypeTable) -> DecoratedTree:
    if not table.is_kernel(name):
        raise ValueError(f"cannot integrate against non-kernel type {name!r}")
    shifted = shift_ids(tree, 1)
    edges = dict(shifted.edges)
    edges[(0, shifted.root)] = name
    edec = {e: shifted.edge_dec(e) for e, _ in shifted.edge_items}
    if not k.is_zero():
        edec[(0, shifted.root)] = k
    out = DecoratedTree(
        root=0,
        edges=edges,
        node_dec={u: kk for u, kk in shifted.node_dec_items},
        edge_dec=edec,
    )
    return relabel_canonical(out)


def tree_product(*trees: DecoratedTree) -> DecoratedTree:
    if not trees:
        return poly()
    acc = trees[0]
    for t in trees[1:]:
        other = shift_ids(t, max(acc.nodes) + 1)
        edges = dict(acc.edges)
        ndec = {u: k for u, k in acc.node_dec_items}
        edec = {e: k for e, k in acc.edge_dec_items}
        ren = {other.root: acc.root}
        for u in other.nodes:
            ren.setdefault(u, u)
        for (p, c), ty in other.edges.items():
            edges[(ren[p], ren[c])] = ty
            k = other.edge_dec((p, c))
            if not k.is_zero():
                edec[(ren[p], ren[c])] = k
        for u, k in other.node_dec_items:
            tgt = ren[u]
            ndec[tgt] = ndec.get(tgt, ZERO_MI) + k
        acc = DecoratedTree(root=acc.root, edges=edges, node_dec=ndec, edge_dec=edec)
    return relabel_canonical(acc)


def assemble(
    label: MultiIndex,
    noise_entries: Sequence[tuple[str, MultiIndex]],
    kernel_entries: Sequence[tuple[str, MultiIndex]],
    subs: Sequence[DecoratedTree],
) -> DecoratedTree:
    """The tree of a root with node label `label`, one noise edge per noise
    entry and one kernel edge per kernel entry down to its planted subtree."""
    edges: dict[tuple[int, int], str] = {}
    edec: dict[tuple[int, int], MultiIndex] = {}
    ndec: dict[int, MultiIndex] = {}
    if not label.is_zero():
        ndec[0] = label
    nxt = 1
    for name, k in noise_entries:
        edges[(0, nxt)] = name
        if not k.is_zero():
            edec[(0, nxt)] = k
        nxt += 1
    for (name, k), sub in zip(kernel_entries, subs):
        shifted = shift_ids(sub, nxt)
        edges[(0, shifted.root)] = name
        if not k.is_zero():
            edec[(0, shifted.root)] = k
        for e, t in shifted.edge_items:
            edges[e] = t
            kk = shifted.edge_dec(e)
            if not kk.is_zero():
                edec[e] = kk
        for u, kk in shifted.node_dec_items:
            ndec[u] = kk
        nxt = max(shifted.nodes) + 1
    out = DecoratedTree(root=0, edges=edges, node_dec=ndec, edge_dec=edec)
    return relabel_canonical(out)


# -- automorphisms ---------------------------------------------------------------


def automorphisms(t: DecoratedTree) -> list[dict[int, int]]:
    """Every node permutation that keeps the root, each edge with its type
    and label, and each node's label, color and o label, by brute force:
    every permutation of the nodes within each depth (an automorphism keeps
    the root and every parent, hence every depth), checked edge by edge and
    node by node.  Each is given on every node."""
    depth = {t.root: 0}
    for u in t.top_down()[1:]:
        depth[u] = depth[t.parent(u)] + 1
    levels = [sorted(u for u in t.nodes if depth[u] == d) for d in range(max(depth.values()) + 1)]
    types, edec = dict(t.edge_items), dict(t.edge_dec_items)
    ndec, olabel = dict(t.node_dec_items), dict(t.o_label_items)

    def node_labels(u: int) -> tuple:
        return ndec.get(u, ZERO_MI).entries, t.color_of_node(u), olabel.get(u, ZERO_MI).entries

    def edge_labels(e: EdgeKey) -> tuple:
        return types.get(e), edec.get(e, ZERO_MI).entries, t.color_of_edge(e)

    out = []
    for images in itertools.product(*(itertools.permutations(level) for level in levels)):
        g = {u: v for level, image in zip(levels, images) for u, v in zip(level, image)}
        if all(node_labels(u) == node_labels(g[u]) for u in t.nodes) and all(
            edge_labels(e) == edge_labels((g[e[0]], g[e[1]])) for e in types
        ):
            out.append(g)
    return out


def closure(nodes: frozenset[int], generators: Sequence[Mapping[int, int]]) -> set[tuple]:
    """The group that node permutations generate, each element as its
    images of the sorted nodes; a generator leaves the nodes it does not
    name fixed."""
    order = sorted(nodes)
    at = {u: i for i, u in enumerate(order)}
    gens = [tuple(g.get(u, u) for u in order) for g in generators]
    seen = {tuple(order)}
    frontier = list(seen)
    while frontier:
        h = frontier.pop()
        for g in gens:
            gh = tuple(g[at[v]] for v in h)
            if gh not in seen:
                seen.add(gh)
                frontier.append(gh)
    return seen
