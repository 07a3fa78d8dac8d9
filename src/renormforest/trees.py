"""Decorated typed rooted trees, colorings, subforests, canonical forms.

A `DecoratedTree` is immutable.  Node ids are opaque integers; within a fixed
ambient tree, subtrees and i-forest components are referenced through the
ambient's ids, so two components are "the same embedded object" exactly when
their node/edge sets and decorations coincide literally.  Isomorphism of
abstract (embedding-erased) trees is decided by an AHU-style canonical code.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional

from .scaling import ExtLabel, MultiIndex, TypeTable, ZERO_EXT, ZERO_MI

EdgeKey = tuple[int, int]
_ZERO = Fraction(0)


@dataclass(frozen=True)
class SubForest:
    """A subforest of a fixed ambient tree, by node/edge reference."""

    nodes: frozenset[int]
    edges: frozenset[EdgeKey]

    @classmethod
    def empty(cls) -> "SubForest":
        return cls(frozenset(), frozenset())

    def is_empty(self) -> bool:
        return not self.nodes and not self.edges

    def sort_key(self):
        """The sorted nodes and edges, sorted once per subforest and kept
        beside the (compared and hashed) fields."""
        key = self.__dict__.get("_sort_key")
        if key is None:
            key = self.__dict__["_sort_key"] = (tuple(sorted(self.nodes)), tuple(sorted(self.edges)))
        return key


EMPTY_SUBFOREST = SubForest.empty()


class StructureError(ValueError):
    """A node/edge set does not describe a well-formed (sub)tree."""


class DecoratedTree:
    """Typed rooted tree with node labels n, edge labels e, an optional
    coloring (hat1, hat2) and an extended label o on the color-1 nodes.

    Each tree is indexed once.  `__init__` builds the edge types, node
    labels, edge labels and o labels as dicts (O(1) lookups) beside the
    sorted tuples that make up `embedded_key`; the key is built once, and the
    hash and `==` are derived from it.  The AHU codes of all nodes are
    computed together, bottom-up, on the first call that needs one.  `with_`
    shares the sorted edges and the children and parent maps of the tree it
    starts from unless it is given new edges."""

    __slots__ = (
        "root", "_edges", "_types", "_children", "_parent",  # the shape
        "_ndec", "_nd", "_edec", "_ed", "hat1", "hat2", "_olabel", "_ol",  # labels, coloring
        "_key", "_hash", "_codes",
    )

    def __init__(
        self,
        root: int,
        edges: Mapping[EdgeKey, str],
        node_dec: Mapping[int, MultiIndex] = (),
        edge_dec: Mapping[EdgeKey, MultiIndex] = (),
        hat1: SubForest = EMPTY_SUBFOREST,
        hat2: SubForest = EMPTY_SUBFOREST,
        o_label: Mapping[int, ExtLabel] = (),
        table: Optional[TypeTable] = None,
        check: bool = True,
    ):
        self.root = int(root)
        self._edges = tuple(sorted(((int(p), int(c)), str(t)) for (p, c), t in dict(edges).items()))
        self._types = dict(self._edges)
        children: dict[int, list[EdgeKey]] = {}
        parent: dict[int, int] = {}
        for (p, c), _ in self._edges:
            children.setdefault(p, []).append((p, c))
            children.setdefault(c, [])
            if c in parent:
                raise StructureError(f"node {c} has two parents")
            parent[c] = p
        children.setdefault(self.root, [])
        self._children = {u: tuple(v) for u, v in children.items()}
        self._parent = parent
        self._label(node_dec, edge_dec, hat1, hat2, o_label)
        if check:
            self._check(table)

    def _label(self, node_dec, edge_dec, hat1: SubForest, hat2: SubForest, o_label):
        """Set the labels and the coloring, their dicts, the embedded key
        and the hash; the AHU codes are left to the first use."""
        self._nd = {int(u): k for u, k in dict(node_dec).items() if not k.is_zero()}
        self._ed = {(int(p), int(c)): k for (p, c), k in dict(edge_dec).items() if not k.is_zero()}
        self._ol = {int(u): v for u, v in dict(o_label).items() if not v.is_zero()}
        self._ndec = tuple(sorted(self._nd.items()))
        self._edec = tuple(sorted(self._ed.items()))
        self._olabel = tuple(sorted(self._ol.items()))
        self.hat1 = hat1
        self.hat2 = hat2
        self._key = (
            "emb",
            self.root,
            self._edges,
            self._ndec,
            self._edec,
            hat1.sort_key(),
            hat2.sort_key(),
            self._olabel,
        )
        self._hash = hash(self._key)
        self._codes: Optional[dict[int, tuple]] = None

    # -- structure ---------------------------------------------------------

    def _check(self, table: Optional[TypeTable]):
        if self.root in self._parent:
            raise StructureError("root has an incoming edge")
        # with one parent per node, connected means reached from the root
        cut_off = self._children.keys() - set(self.top_down())
        if cut_off:
            raise StructureError(f"node {min(cut_off)} not connected to the root")
        if table is not None:
            seen_noise_parent: set[int] = set()
            for (p, c), t in self._edges:
                if table.is_noise(t):
                    if self._children[c]:
                        raise StructureError("noise edges must be maximal")
                    if p in seen_noise_parent:
                        raise StructureError("two noise edges share a parent")
                    seen_noise_parent.add(p)
                elif not table.is_kernel(t):
                    raise KeyError(f"unknown type {t!r}")
        h1n, h2n = self.hat1.nodes, self.hat2.nodes
        if h1n & h2n:
            raise StructureError("colorings hat1 and hat2 overlap")
        for u, _ in self._olabel:
            if u not in h1n:
                raise StructureError("extended label supported outside the color-1 forest")

    @property
    def edges(self) -> dict[EdgeKey, str]:
        return dict(self._types)

    @property
    def edge_items(self) -> tuple[tuple[EdgeKey, str], ...]:
        return self._edges

    @property
    def nodes(self) -> frozenset[int]:
        return frozenset(self._children)

    def node_dec(self, u: int) -> MultiIndex:
        return self._nd.get(u, ZERO_MI)

    def edge_dec(self, e: EdgeKey) -> MultiIndex:
        return self._ed.get(e, ZERO_MI)

    def o_label(self, u: int) -> ExtLabel:
        return self._ol.get(u, ZERO_EXT)

    @property
    def node_dec_items(self):
        return self._ndec

    @property
    def edge_dec_items(self):
        return self._edec

    @property
    def o_label_items(self):
        return self._olabel

    def children(self, u: int) -> tuple[EdgeKey, ...]:
        return self._children.get(u, ())

    def parent(self, u: int) -> Optional[int]:
        return self._parent.get(u)

    def edge_type(self, e: EdgeKey) -> str:
        return self._types[e]

    def top_down(self) -> list[int]:
        """The nodes breadth first from the root: each after its parent."""
        order = [self.root]
        for u in order:  # the list grows while it is read
            order.extend(c for _, c in self._children[u])
        return order

    def noise_edges(self, table: TypeTable) -> list[EdgeKey]:
        return [e for e, t in self._edges if table.is_noise(t)]

    def kernel_edges(self, table: TypeTable) -> list[EdgeKey]:
        return [e for e, t in self._edges if table.is_kernel(t)]

    def fictitious_nodes(self, table: TypeTable) -> frozenset[int]:
        return frozenset(c for (p, c), t in self._edges if table.is_noise(t))

    def true_nodes(self, table: TypeTable) -> frozenset[int]:
        """N(T): all nodes except the fictitious endpoints of noise edges."""
        return self.nodes - self.fictitious_nodes(table)

    def leaf_nodes(self, table: TypeTable) -> frozenset[int]:
        """L(T): parents of noise edges, with their inherited noise types."""
        return frozenset(p for (p, c), t in self._edges if table.is_noise(t))

    def leaf_type(self, u: int, table: TypeTable) -> str:
        for e in self.children(u):
            if table.is_noise(self._types[e]):
                return self._types[e]
        raise KeyError(f"node {u} carries no noise edge")

    def color_of_node(self, u: int) -> int:
        if u in self.hat2.nodes:
            return 2
        if u in self.hat1.nodes:
            return 1
        return 0

    def color_of_edge(self, e: EdgeKey) -> int:
        if e in self.hat2.edges:
            return 2
        if e in self.hat1.edges:
            return 1
        return 0

    def has_coloring(self) -> bool:
        return not (self.hat1.is_empty() and self.hat2.is_empty())

    def with_(self, *, edges=None, table: Optional[TypeTable] = None, check: bool = True, **labels):
        """This tree with some of `node_dec`, `edge_dec`, `hat1`, `hat2` and
        `o_label` replaced.  Without new `edges` the result shares this
        tree's sorted edges and children and parent maps, and is checked all
        the same."""
        labels = {
            "node_dec": self._nd, "edge_dec": self._ed, "hat1": self.hat1, "hat2": self.hat2,
            "o_label": self._ol, **labels,
        }
        if edges is not None:
            return DecoratedTree(self.root, edges, table=table, check=check, **labels)
        out = object.__new__(DecoratedTree)
        out.root, out._edges, out._types = self.root, self._edges, self._types
        out._children, out._parent = self._children, self._parent
        out._label(**labels)
        if check:
            out._check(table)
        return out

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, DecoratedTree)
            and self._hash == other._hash
            and self._key == other._key
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"DecoratedTree(root={self.root}, edges={len(self._edges)})"

    # -- homogeneities -----------------------------------------------------

    def homogeneity(self, table: TypeTable, mode: str = "plain") -> Fraction:
        """|.|_s (plain), |.|_- (minus) or |.|_+ (plus) of this tree."""
        total = Fraction(0)
        for e, t in self._edges:
            if mode == "minus" and self.color_of_edge(e) != 0:
                continue
            if mode == "plus" and self.color_of_edge(e) == 2:
                continue
            total += table.hom(t) - Fraction(self.edge_dec(e).sdeg(table.scaling))
        fict = self.fictitious_nodes(table)
        for u in self.nodes - fict:
            if mode == "plus" and self.color_of_node(u) == 2:
                continue
            total += Fraction(self.node_dec(u).sdeg(table.scaling))
            if mode == "plus":
                total += table.hom_ext(self.o_label(u))
        return total

    # -- canonical forms ---------------------------------------------------

    def _edge_code(self, e: EdgeKey, codes: dict[int, tuple]) -> tuple:
        return (self._types[e], self.edge_dec(e).entries, self.color_of_edge(e), codes[e[1]])

    def _node_codes(self) -> dict[int, tuple]:
        """The AHU code of every node, built bottom-up on first use."""
        if self._codes is None:
            codes: dict[int, tuple] = {}
            for u in reversed(self.top_down()):
                o = self.o_label(u)
                codes[u] = (
                    self.node_dec(u).entries,
                    self.color_of_node(u),
                    (o.zd, o.types),
                    tuple(sorted(self._edge_code(e, codes) for e in self._children[u])),
                )
            self._codes = codes
        return self._codes

    def canonical_code(self) -> tuple:
        """AHU-style code: equal iff trees are isomorphic as decorated
        colored trees (embeddings erased)."""
        return self._node_codes()[self.root]

    def embedded_key(self) -> tuple:
        """Literal representation: equal iff equal as embedded i-trees."""
        return self._key

    def relabel_canonical(self) -> "DecoratedTree":
        """Relabel node ids 0..n-1 in the canonical (AHU) traversal order,
        giving a deterministic representative of the iso class.  The
        relabelled tree takes over the codes, which erase the embedding."""
        codes = self._node_codes()
        ren: dict[int, int] = {}
        stack = [self.root]
        while stack:  # preorder, children in the order of their codes
            u = stack.pop()
            ren[u] = len(ren)
            kids = sorted(self._children[u], key=lambda e: self._edge_code(e, codes))
            stack.extend(c for _, c in reversed(kids))
        out = self.relabel(ren)
        out._codes = {ren[u]: code for u, code in codes.items()}
        return out

    def relabel(self, ren: Mapping[int, int]) -> "DecoratedTree":
        return DecoratedTree(
            root=ren[self.root],
            edges={(ren[p], ren[c]): t for (p, c), t in self._edges},
            node_dec={ren[u]: k for u, k in self._ndec},
            edge_dec={(ren[p], ren[c]): k for (p, c), k in self._edec},
            hat1=SubForest(
                frozenset(ren[u] for u in self.hat1.nodes),
                frozenset((ren[p], ren[c]) for p, c in self.hat1.edges),
            ),
            hat2=SubForest(
                frozenset(ren[u] for u in self.hat2.nodes),
                frozenset((ren[p], ren[c]) for p, c in self.hat2.edges),
            ),
            o_label={ren[u]: v for u, v in self._olabel},
            check=False,
        )

    def shift_ids(self, offset: int) -> "DecoratedTree":
        return self.relabel({u: u + offset for u in self.nodes})

    def max_id(self) -> int:
        return max(self.nodes)

    # -- subforest machinery -----------------------------------------------

    def subforest_components(self, sf: SubForest) -> list[SubForest]:
        """Connected components of a subforest, each again a SubForest."""
        if not (sf.nodes <= self.nodes):
            raise StructureError("subforest references unknown nodes")
        for p, c in sf.edges:
            if p not in sf.nodes or c not in sf.nodes:
                raise StructureError("dangling edge in subforest")
        adj: dict[int, set[int]] = {u: set() for u in sf.nodes}
        for p, c in sf.edges:
            adj[p].add(c)
            adj[c].add(p)
        seen: set[int] = set()
        comps = []
        for u in sorted(sf.nodes):
            if u in seen:
                continue
            stack, comp = [u], set()
            while stack:
                v = stack.pop()
                if v in comp:
                    continue
                comp.add(v)
                stack.extend(adj[v] - comp)
            seen |= comp
            comps.append(
                SubForest(frozenset(comp), frozenset(e for e in sf.edges if e[0] in comp))
            )
        return comps

    def subtree_root(self, sf: SubForest) -> int:
        """Root of a connected subforest: its unique minimal node."""
        targets = {c for _, c in sf.edges}
        roots = [u for u in sf.nodes if u not in targets]
        if len(roots) != 1:
            raise StructureError("subforest is not a single subtree")
        return roots[0]

    def restrict(self, sf: SubForest) -> "DecoratedTree":
        """The decorated colored tree induced on one connected subforest
        (decorations, coloring and o restricted, per the paper's convention)."""
        root = self.subtree_root(sf)
        return DecoratedTree(
            root=root,
            edges={e: t for e, t in self._edges if e in sf.edges},
            node_dec={u: k for u, k in self._ndec if u in sf.nodes},
            edge_dec={e: k for e, k in self._edec if e in sf.edges},
            hat1=SubForest(self.hat1.nodes & sf.nodes, self.hat1.edges & sf.edges),
            hat2=SubForest(self.hat2.nodes & sf.nodes, self.hat2.edges & sf.edges),
            o_label={u: v for u, v in self._olabel if u in sf.nodes},
            check=False,
        )

    def full_subforest(self) -> SubForest:
        return SubForest(self.nodes, frozenset(e for e, _ in self._edges))

    def rooted_edge_sets(
        self, r: int, edges: Optional[frozenset[EdgeKey]] = None
    ) -> Iterator[frozenset[EdgeKey]]:
        """Every connected set of edges (of `edges`, all by default) whose
        top node is r, the empty set first.  Each edge of the frontier is
        either left out with its whole branch or taken, and then its child's
        edges join the frontier."""
        children = {
            u: [e for e in kids if edges is None or e in edges] for u, kids in self._children.items()
        }

        def rec(frontier: list[EdgeKey], acc: frozenset[EdgeKey]):
            if not frontier:
                yield acc
                return
            e, rest = frontier[0], frontier[1:]
            yield from rec(rest, acc)
            yield from rec(rest + children[e[1]], acc | {e})

        return rec(children[r], frozenset())

    def all_subtrees(self, table: TypeTable, min_true_nodes: int = 1) -> list[SubForest]:
        """Every nonempty connected edge set with its induced node set, each
        listed once from its top node, with at least `min_true_nodes` true
        nodes; sorted by `SubForest.sort_key`.

        Note (disappearing noises): a leaf node of the ambient tree may be a
        non-leaf true node of the subtree when its noise edge is omitted.
        """
        fict = self.fictitious_nodes(table)
        out = []
        for r in self._children:
            for edges in self.rooted_edge_sets(r):
                nodes = frozenset(itertools.chain.from_iterable(edges))
                if edges and len(nodes - fict) >= min_true_nodes:
                    out.append(SubForest(nodes, edges))
        return sorted(out, key=SubForest.sort_key)

    def contract_colored(self, table: TypeTable) -> "DecoratedTree":
        """Collapse the color-1 components to their roots and drop the
        color-2 part onto the root, mirroring how such a tree is evaluated:
        color-1 edges and noises contribute no factors and their node
        variables are identified with the component root's variable.  The
        extended label o is discarded.  The result is a plain decorated tree.
        """
        gv: dict[int, int] = {}
        for comp in self.subforest_components(self.hat1):
            r = self.subtree_root(comp)
            for u in comp.nodes:
                gv[u] = r
        for u in self.hat2.nodes:
            gv[u] = self.root
        for u in self.nodes:
            gv.setdefault(u, u)
        new_edges = {}
        new_edec = {}
        for e, t in self._edges:
            if e in self.hat1.edges or e in self.hat2.edges:
                continue
            p, c = gv[e[0]], gv[e[1]]
            new_edges[(p, c)] = t
            k = self.edge_dec(e)
            if not k.is_zero():
                new_edec[(p, c)] = k
        new_ndec: dict[int, MultiIndex] = {}
        fict = self.fictitious_nodes(table)
        for u in self.nodes - fict:
            k = self.node_dec(u)
            if not k.is_zero():
                tgt = gv[u]
                new_ndec[tgt] = new_ndec.get(tgt, ZERO_MI) + k
        keep = set(itertools.chain.from_iterable(new_edges)) | {gv[self.root]}
        new_ndec = {u: k for u, k in new_ndec.items() if u in keep}
        return DecoratedTree(
            root=gv[self.root], edges=new_edges, node_dec=new_ndec, edge_dec=new_edec, check=False
        )


def zero_node_hom(t: DecoratedTree, sf: SubForest, table: TypeTable) -> Fraction:
    """|S^0_e|_s: the subtree's homogeneity with node labels dropped."""
    total = Fraction(0)
    for e in sf.edges:
        total += table.hom(t.edge_type(e)) - Fraction(t.edge_dec(e).sdeg(table.scaling))
    return total


def up_hom_table(t: DecoratedTree, table: TypeTable) -> dict[EdgeKey, Fraction]:
    """|T_>=(e)|_+ with the labels n and o of its root dropped, for every
    edge e = (p, c): the edge e and every edge above it, and the node labels
    and o labels of the true nodes from c up.  One bottom-up pass over the
    tree.  Color 2 is not looked at, so an entry is that homogeneity where
    nothing above p has color 2: on uncolored trees, and at the foot of the
    dangling trees of a rooted color-2 part, the entries that are read."""
    scaling = table.scaling
    fict = t.fictitious_nodes(table)
    above: dict[int, Fraction] = {}
    out: dict[EdgeKey, Fraction] = {}
    for u in reversed(t.top_down()):
        h = _ZERO
        if u not in fict:
            k, o = t.node_dec(u), t.o_label(u)
            if not k.is_zero():
                h += k.sdeg(scaling)
            if not o.is_zero():
                h += table.hom_ext(o)
        for e in t.children(u):
            w = above[e[1]] + table.hom(t.edge_type(e))
            k = t.edge_dec(e)
            if not k.is_zero():
                w -= k.sdeg(scaling)
            out[e] = w
            h += w
        above[u] = h
    return out


# -- construction of standalone trees ---------------------------------------


def poly(n: MultiIndex = ZERO_MI) -> DecoratedTree:
    """The trivial tree bullet^n."""
    return DecoratedTree(root=0, edges={}, node_dec={0: n})


def noise(name: str) -> DecoratedTree:
    """The single-noise-edge tree Xi_l."""
    return DecoratedTree(root=0, edges={(0, 1): name})


def integrate(name: str, k: MultiIndex, tree: DecoratedTree, table: TypeTable) -> DecoratedTree:
    """Attach a fresh root above `tree` by an edge of kernel type `name`
    with edge decoration k."""
    if not table.is_kernel(name):
        raise ValueError(f"cannot integrate against non-kernel type {name!r}")
    shifted = tree.shift_ids(1)
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
        check=False,
    )
    return out.relabel_canonical()


def tree_product(*trees: DecoratedTree) -> DecoratedTree:
    """Identify the roots; the merged root's label is the sum of the old
    root labels.  Node ids are made disjoint internally."""
    if not trees:
        return poly()
    acc = trees[0]
    for t in trees[1:]:
        other = t.shift_ids(acc.max_id() + 1)
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
        acc = DecoratedTree(root=acc.root, edges=edges, node_dec=ndec, edge_dec=edec, check=False)
    return acc.relabel_canonical()
