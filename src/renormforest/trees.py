"""Decorated typed rooted trees, colorings, subforests, canonical forms.

A `DecoratedTree` is immutable.  Node ids are opaque integers; within a fixed
ambient tree, subtrees and i-forest components are referenced through the
ambient's ids, so two components are "the same embedded object" exactly when
their node/edge sets and decorations coincide literally.  Isomorphism of
abstract (embedding-erased) trees is decided by an AHU-style canonical code.

A tree's three label maps, node labels n, edge labels e and the extended
labels o that an extraction leaves on the color-1 nodes of its remainder,
all take `MultiIndex` values.

Each tree is checked, and its shape (`_Shape`) indexed, when it is made; its
`with_` copies share the shape.  Its restrictions to one connected subforest
(`restrict`) share that subforest's sub-shape, which the ambient shape builds
and checks once, for itself and for every piece of it, and they keep the
tree's labels there.  Its AHU codes (unless `graft` hands them over) and
its color-1 components (unless the caller who colored it hands them to
`with_`) stay lazy, because most trees never read them.

What a shape is under a type table, whatever its labels, is worked out in
one class, `_TableFacts`, once per shape and table: kernel and noise edges,
fictitious and true nodes, leaves and their noise types, and, read off one
map `homs` of the edges' homogeneities (an edge of a type the table does not
know counts for nothing), homogeneity, up-tree table, rooted subtrees with
their boundaries and divergent subtrees.  A labelled sum adds only the
tree's own labels: `DecoratedTree.homogeneity`, `up_hom_table`, and
`zero_node_hom`, which `subtree_omegas` reads.

New trees are built as the rule builds them, by planting trees under
edges, and by one builder: `graft` puts copies of subtrees (`_copy`), and
noise leaves, under a fresh root, laid out in the canonical labelling with
their codes read off the subtrees, so each is built once.  The planted tree
I_k(tau) (`integrate`), the tree product (`tree_product`), every tree of
`rules.generate_trees` and every residual of a counterterm report are one
graft each: a graft of one tree is that tree in its canonical labelling.

The automorphism group of a tree is read off its AHU codes too
(`automorphism_swaps`): sibling subtrees of equal edge code are swapped,
node for node, by pairing their children code for code.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional

from .scaling import MultiIndex, TypeTable, ZERO_MI

EdgeKey = tuple[int, int]
_ZERO = Fraction(0)


@dataclass(frozen=True)
class SubForest:
    """A subforest of a fixed ambient tree, by node/edge reference."""

    nodes: frozenset[int]
    edges: frozenset[EdgeKey]

    def is_empty(self) -> bool:
        return not self.nodes and not self.edges

    def sort_key(self):
        """The sorted nodes and edges, sorted once per subforest and kept
        beside the (compared and hashed) fields."""
        key = self.__dict__.get("_sort_key")
        if key is None:
            key = self.__dict__["_sort_key"] = (tuple(sorted(self.nodes)), tuple(sorted(self.edges)))
        return key


EMPTY_SUBFOREST = SubForest(frozenset(), frozenset())


class StructureError(ValueError):
    """A node/edge set does not describe a well-formed (sub)tree."""


class _Shape:
    """The root, the sorted typed edges, the children and parent maps, the
    `top_down` order and the node and edge sets that a tree shares with
    every `with_` copy of it, all built, and the shape checked to be a
    rooted tree, when it is made.  Its facts under a type table
    (`_TableFacts`) are made on the first read under that table, and its
    connected edge sets (`rooted_edge_sets`, `all_subtrees`) are listed
    from its children map.

    The root and edges are hashed once (`hash`), and every tree of the shape
    hashes that value with its labels.

    The shape of each connected subforest that a tree of this shape is
    restricted to (`sub`) is built once, too, and kept in `subs`, which the
    ambient shape shares with all its restrictions: a subforest restricted
    from the ambient tree or from any piece of it has one shape, which keeps
    that subforest (`forest`; None on the shape `DecoratedTree.__init__` builds)."""

    __slots__ = (
        "root", "edges", "hash", "types", "children", "parent", "order", "nodes", "edge_set", "_by_table",
        "subs", "forest",
    )

    def __init__(self, root: int, edges: Mapping[EdgeKey, str], subs: dict, forest: Optional[SubForest]):
        self.root = int(root)
        self.edges = tuple(sorted(((int(p), int(c)), str(t)) for (p, c), t in dict(edges).items()))
        self.hash = hash((self.root, self.edges))
        self.types = dict(self.edges)
        children: dict[int, list[EdgeKey]] = {}
        parent: dict[int, int] = {}
        for (p, c), _ in self.edges:
            children.setdefault(p, []).append((p, c))
            children.setdefault(c, [])
            if c in parent:
                raise StructureError(f"node {c} has two parents")
            parent[c] = p
        children.setdefault(self.root, [])
        if self.root in parent:
            raise StructureError("root has an incoming edge")
        order = [self.root]
        for u in order:  # the list grows while it is read
            order.extend(c for _, c in children[u])
        # with one parent per node, connected means reached from the root
        if len(order) < len(children):
            raise StructureError(f"node {min(children.keys() - set(order))} not connected to the root")
        self.children = {u: tuple(v) for u, v in children.items()}
        self.parent = parent
        self.order = tuple(order)
        self.nodes = frozenset(children)
        self.edge_set = frozenset(self.types)
        # keyed by id: the entry holds its table, so the id stays its own
        self._by_table: dict[int, tuple[TypeTable, _TableFacts]] = {}
        self.subs: dict[SubForest, _Shape] = subs
        self.forest = forest

    def facts(self, table: TypeTable) -> "_TableFacts":
        entry = self._by_table.get(id(table))
        if entry is None:
            entry = self._by_table[id(table)] = (table, _TableFacts(self, table))
        return entry[1]

    def sub(self, sf: SubForest) -> "_Shape":
        """The shape of the connected subforest `sf` of this shape: rooted
        at its top node, with the edges among its nodes.  A subforest with a
        node outside this shape is refused."""
        nodes = sf.nodes
        if not nodes <= self.nodes:
            raise StructureError("subforest references unknown nodes")
        shape = self.subs.get(sf)
        if shape is None:
            edges = {e: t for e, t in self.edges if e[0] in nodes and e[1] in nodes}
            shape = self.subs[sf] = _Shape(DecoratedTree.subtree_root(sf), edges, self.subs, sf)
        return shape

    def rooted_edge_sets(self, r: int, edges: frozenset[EdgeKey]) -> Iterator[frozenset[EdgeKey]]:
        """Every connected set of `edges` whose top node is r, the empty set
        first.  Each edge of the frontier is either left out with its whole
        branch or taken, and then its child's edges join the frontier."""
        children = {u: [e for e in kids if e in edges] for u, kids in self.children.items()}

        def rec(frontier: list[EdgeKey], acc: frozenset[EdgeKey]):
            if not frontier:
                yield acc
                return
            e, rest = frontier[0], frontier[1:]
            yield from rec(rest, acc)
            yield from rec(rest + children[e[1]], acc | {e})

        return rec(children[r], frozenset())

    def all_subtrees(self) -> list[SubForest]:
        """Every nonempty connected edge set with its induced node set, each
        listed once from its top node; sorted by `SubForest.sort_key`."""
        out = []
        for r in self.children:
            for edges in self.rooted_edge_sets(r, self.edge_set):
                if edges:
                    out.append(SubForest(frozenset(itertools.chain.from_iterable(edges)), edges))
        return sorted(out, key=SubForest.sort_key)


class _TableFacts:
    """What a shape is under one type table, each fact worked out here once;
    a reader adds only a tree's own labels.  Made with it: the kernel and
    noise edges, fictitious nodes, true nodes N(T), leaves L(T) with their
    noise types, and `homs`, each edge's homogeneity (an edge of a type the
    table does not know is neither kernel nor noise, and counts for
    nothing).  On first read, from `homs`: `hom`, the edges' homogeneity;
    `up`, the up-tree table (for every edge, the homogeneities of it and of
    every edge above it summed); `rooted`, every subtree holding the root
    with its boundary; and `divergent`, every connected subtree S with
    omega_0 = -sum |t(e)|_s > 0, as (S, omega_0) in `all_subtrees` order."""

    def __init__(self, shape: _Shape, table: TypeTable):
        self.shape = shape
        self.kernel = tuple(e for e, t in shape.edges if table.is_kernel(t))
        self.noise = tuple(e for e, t in shape.edges if table.is_noise(t))
        self.fictitious = frozenset(c for _, c in self.noise)
        self.true = shape.nodes - self.fictitious
        self.leaf_types = {p: shape.types[(p, c)] for p, c in self.noise}
        self.leaves = frozenset(self.leaf_types)
        known = frozenset(self.kernel + self.noise)
        self.homs = {e: table.hom(t) if e in known else _ZERO for e, t in shape.edges}

    @cached_property
    def hom(self) -> Fraction:
        return sum(self.homs.values(), _ZERO)

    @cached_property
    def up(self) -> dict[EdgeKey, Fraction]:
        """One bottom-up pass."""
        shape, up, above = self.shape, {}, {}
        for u in reversed(shape.order):
            h = _ZERO
            for e in shape.children[u]:
                up[e] = w = above[e[1]] + self.homs[e]
                h += w
            above[u] = h
        return up

    @cached_property
    def rooted(self) -> tuple[tuple[SubForest, tuple[EdgeKey, ...]], ...]:
        """S is determined by its kernel edges; the noise edges ride along
        with their parent nodes (a noise is an attribute of its node).  So
        a connected subforest with a node in S lies in S unless one of its
        edges is on S's boundary, and what S holds is read off that."""
        shape, out = self.shape, []
        for acc in shape.rooted_edge_sets(shape.root, frozenset(self.kernel)):
            nodes = {shape.root, *itertools.chain.from_iterable(acc)}
            edges = acc.union(e for e in self.noise if e[0] in nodes)
            s = SubForest(frozenset(nodes.union(c for _, c in edges)), edges)
            out.append((s, _boundary(self.kernel, s)))
        return tuple(out)

    @cached_property
    def divergent(self) -> tuple[tuple[SubForest, Fraction], ...]:
        omegas = ((s, -sum((self.homs[e] for e in s.edges), _ZERO)) for s in self.shape.all_subtrees())
        return tuple((s, w) for s, w in omegas if w > 0)


def _boundary(kernel: Iterable[EdgeKey], sf: SubForest) -> tuple[EdgeKey, ...]:
    """d(S): the kernel edges outside S whose parent lies in S (edge
    decorations live on the kernel edges only)."""
    return tuple(e for e in kernel if e not in sf.edges and e[0] in sf.nodes)


def _normalized(labels, key) -> tuple[dict, tuple]:
    """The nonzero labels of a mapping (or of its items) with their keys
    cast by `key`: as a dict and as its sorted items."""
    out = {key(x): k for x, k in dict(labels).items() if not k.is_zero()}
    return out, tuple(sorted(out.items()))


def _edge_key(e) -> EdgeKey:
    return int(e[0]), int(e[1])


class DecoratedTree:
    """Typed rooted tree with node labels n, edge labels e, an optional
    coloring (hat1, hat2) and, on the color-1 nodes, extended labels o: the
    multi-index n_G + chi(e_G) of the extraction that colored them.

    Each tree is indexed and checked once, when it is made.  Its shape
    (root, sorted typed edges, children and parent maps, `top_down` order,
    node and edge sets) is a `_Shape`, which `with_` shares: every
    relabelled or recolored copy of a tree, such as each remainder of
    Delta_- and each piece of Delta_+ and A_+, reads the shape's facts, and
    those of a type table (`_TableFacts`), where the first copy to ask
    worked them out, and `with_` checks only the new labels.  Every
    restriction to one subforest, such as each piece that Delta_- and A_-
    extract and each left piece of Delta_+ and A_+, shares that subforest's
    sub-shape and its facts in the same way (`restrict`).
    `__init__` builds the node labels, edge labels and o labels as dicts
    (O(1) lookups) beside the sorted tuples that make up `embedded_key`; the
    key is built once and `==` compares it; the hash is the shape's (root
    and edges, hashed once per shape) hashed with the labels.  The AHU
    codes of all nodes (computed together, bottom-up) and the components of
    the color-1 forest (unless `with_` was handed them) stay lazy, worked
    out on the first call that needs them, because most trees never read
    them."""

    __slots__ = (
        "root", "_shape",  # root: the shape's, read often enough to keep beside it
        "_ndec", "_nd", "_edec", "_ed", "hat1", "hat2", "_olabel", "_ol",  # labels, coloring
        "_key", "_hash", "_codes", "_hat1_comps",
    )

    def __init__(
        self,
        root: int,
        edges: Mapping[EdgeKey, str],
        node_dec: Mapping[int, MultiIndex] = (),
        edge_dec: Mapping[EdgeKey, MultiIndex] = (),
        hat1: SubForest = EMPTY_SUBFOREST,
        hat2: SubForest = EMPTY_SUBFOREST,
        o_label: Mapping[int, MultiIndex] = (),
        table: Optional[TypeTable] = None,
    ):
        self._shape = _Shape(root, edges, {}, None)
        self.root = self._shape.root
        self._label(
            _normalized(node_dec, int), _normalized(edge_dec, _edge_key), hat1, hat2,
            _normalized(o_label, int),
        )
        if table is not None:
            self._check_types(table)
        self._check_labels()

    def _label(self, nd, ed, hat1: SubForest, hat2: SubForest, ol):
        """Set the labels, each given as a dict and its sorted items
        (`_normalized`), the coloring, the embedded key and the hash, which
        takes the shape's own hash in place of its root and edges; the AHU
        codes are left to the first use."""
        (self._nd, self._ndec), (self._ed, self._edec), (self._ol, self._olabel) = nd, ed, ol
        self.hat1 = hat1
        self.hat2 = hat2
        h1, h2 = hat1.sort_key(), hat2.sort_key()
        self._key = ("emb", self.root, self._shape.edges, self._ndec, self._edec, h1, h2, self._olabel)
        self._hash = hash((self._shape.hash, self._ndec, self._edec, h1, h2, self._olabel))
        self._codes: Optional[dict[int, tuple]] = None
        self._hat1_comps: Optional[list[SubForest]] = None

    # -- structure ---------------------------------------------------------

    def _check_types(self, table: TypeTable):
        seen_noise_parent: set[int] = set()
        for (p, c), t in self._shape.edges:
            if table.is_noise(t):
                if self._shape.children[c]:
                    raise StructureError("noise edges must be maximal")
                if p in seen_noise_parent:
                    raise StructureError("two noise edges share a parent")
                seen_noise_parent.add(p)
            elif not table.is_kernel(t):
                raise KeyError(f"unknown type {t!r}")

    def _check_labels(self):
        nodes, edges, h1, h2 = self._shape.nodes, self._shape.edge_set, self.hat1, self.hat2
        h1n, h2n = h1.nodes, h2.nodes
        ends = itertools.chain.from_iterable
        if not (
            h1n <= nodes and h1.edges <= edges and h1n.issuperset(ends(h1.edges))
            and h2n <= nodes and h2.edges <= edges and h2n.issuperset(ends(h2.edges))
        ):
            raise StructureError("a coloring leaves the tree, or has an edge outside its own nodes")
        if h1n & h2n:
            raise StructureError("colorings hat1 and hat2 overlap")
        for u, _ in self._olabel:
            if u not in h1n:
                raise StructureError("extended label supported outside the color-1 forest")

    @property
    def edges(self) -> dict[EdgeKey, str]:
        return dict(self._shape.types)

    @property
    def edge_items(self) -> tuple[tuple[EdgeKey, str], ...]:
        return self._shape.edges

    @property
    def nodes(self) -> frozenset[int]:
        return self._shape.nodes

    @property
    def edge_set(self) -> frozenset[EdgeKey]:
        return self._shape.edge_set

    @property
    def restricted_to(self) -> Optional[SubForest]:
        """The subforest whose restriction this tree is (`restrict`), kept
        by its shape; None on a tree that is no restriction."""
        return self._shape.forest

    def node_dec(self, u: int) -> MultiIndex:
        return self._nd.get(u, ZERO_MI)

    def edge_dec(self, e: EdgeKey) -> MultiIndex:
        return self._ed.get(e, ZERO_MI)

    def o_label(self, u: int) -> MultiIndex:
        """The extended label o of node u: on a remainder of Delta_-, the
        multi-index n_G + chi(e_G) that the extraction coloring u took
        there; zero elsewhere."""
        return self._ol.get(u, ZERO_MI)

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
        return self._shape.children.get(u, ())

    def parent(self, u: int) -> Optional[int]:
        return self._shape.parent.get(u)

    def edge_type(self, e: EdgeKey) -> str:
        return self._shape.types[e]

    def top_down(self) -> tuple[int, ...]:
        """The nodes breadth first from the root: each after its parent."""
        return self._shape.order

    def noise_edges(self, table: TypeTable) -> tuple[EdgeKey, ...]:
        return self._shape.facts(table).noise

    def kernel_edges(self, table: TypeTable) -> tuple[EdgeKey, ...]:
        return self._shape.facts(table).kernel

    def fictitious_nodes(self, table: TypeTable) -> frozenset[int]:
        return self._shape.facts(table).fictitious

    def true_nodes(self, table: TypeTable) -> frozenset[int]:
        """N(T): all nodes except the fictitious endpoints of noise edges."""
        return self._shape.facts(table).true

    def leaf_nodes(self, table: TypeTable) -> frozenset[int]:
        """L(T): parents of noise edges, with their inherited noise types."""
        return self._shape.facts(table).leaves

    def leaf_type(self, u: int, table: TypeTable) -> str:
        ty = self._shape.facts(table).leaf_types.get(u)
        if ty is None:
            raise KeyError(f"node {u} carries no noise edge")
        return ty

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

    def hat1_components(self) -> list[SubForest]:
        """The connected components of the color-1 forest, in the order of
        their smallest nodes: as `with_` was given them, or found on first
        use."""
        if self._hat1_comps is None:
            self._hat1_comps = self.subforest_components(self.hat1)
        return self._hat1_comps

    def with_(self, **labels):
        """This tree with some of `node_dec`, `edge_dec`, `hat1`, `hat2` and
        `o_label` replaced.  The result shares this tree's shape, checked
        when it was made, and the labels it keeps; only the labels passed
        are normalized and checked.  `hat1` is a subforest, or the list of
        its connected components in the order of their smallest nodes (the
        caller who built the coloring knows them), which the result then
        keeps as its `hat1_components`."""
        nd = _normalized(labels.pop("node_dec"), int) if "node_dec" in labels else (self._nd, self._ndec)
        ed = _normalized(labels.pop("edge_dec"), _edge_key) if "edge_dec" in labels else (self._ed, self._edec)
        ol = _normalized(labels.pop("o_label"), int) if "o_label" in labels else (self._ol, self._olabel)
        hat1, hat2 = labels.pop("hat1", self.hat1), labels.pop("hat2", self.hat2)
        if labels:
            raise TypeError(f"with_() got unknown labels {sorted(labels)}")
        comps = None
        if not isinstance(hat1, SubForest):
            comps = list(hat1)
            if len(comps) < 2:  # no union to build
                hat1 = comps[0] if comps else EMPTY_SUBFOREST
            else:
                hat1 = SubForest(
                    frozenset().union(*(c.nodes for c in comps)), frozenset().union(*(c.edges for c in comps))
                )
        out = object.__new__(DecoratedTree)
        out.root, out._shape = self.root, self._shape
        out._label(nd, ed, hat1, hat2, ol)
        out._hat1_comps = comps
        if hat1 is not self.hat1 or hat2 is not self.hat2 or ol[0] is not self._ol:
            out._check_labels()
        return out

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, DecoratedTree)
            and self._hash == other._hash
            and self._key == other._key
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "DecoratedTree") -> bool:
        """The order of the embedded keys, so that a forest's trees sort."""
        return self._key < other._key

    def __repr__(self) -> str:
        return f"DecoratedTree(root={self.root}, edges={len(self._shape.edges)})"

    # -- homogeneities -----------------------------------------------------

    def homogeneity(self, table: TypeTable) -> Fraction:
        """|.|_s of this tree: the edges and the node labels of its true
        nodes.  The shape's label-free sum (`_TableFacts.hom`) with this
        tree's own labels added."""
        facts = self._shape.facts(table)
        scaling = table.scaling
        edges = sum(k.sdeg(scaling) for e, k in self._edec if e in facts.homs)
        nodes = sum(k.sdeg(scaling) for u, k in self._ndec if u in facts.true)
        return facts.hom - edges + nodes

    # -- canonical forms ---------------------------------------------------

    def _edge_code(self, e: EdgeKey, codes: dict[int, tuple]) -> tuple:
        return (self._shape.types[e], self.edge_dec(e).entries, self.color_of_edge(e), codes[e[1]])

    def _node_codes(self) -> dict[int, tuple]:
        """The AHU code of every node, built bottom-up on first use."""
        if self._codes is None:
            codes: dict[int, tuple] = {}
            children = self._shape.children
            for u in reversed(self.top_down()):
                # o sits in an (entries, ()) slot, a layout that must not
                # move: constant names are sha256 digests of repr(code),
                # and reports sort by repr(code)
                codes[u] = (
                    self.node_dec(u).entries,
                    self.color_of_node(u),
                    (self.o_label(u).entries, ()),
                    tuple(sorted(self._edge_code(e, codes) for e in children[u])),
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

    def _canonical_preorder(self, top: int) -> list[int]:
        """The nodes from `top` down in preorder, children in code order."""
        codes, order, stack = self._node_codes(), [], [top]
        while stack:
            u = stack.pop()
            order.append(u)
            kids = sorted(self._shape.children[u], key=lambda e: self._edge_code(e, codes))
            stack.extend(c for _, c in reversed(kids))
        return order

    def _copy(self, ren: Mapping[int, int]) -> tuple:
        """The edges, node labels and edge labels among the nodes that `ren`
        maps, renamed by `ren`: what `graft` copies of a branch, whose
        coloring and o labels it has stripped."""

        def nodes(items):
            return {ren[u]: v for u, v in items if u in ren}

        def edges(items):
            return {(ren[p], ren[c]): v for (p, c), v in items if p in ren and c in ren}

        return edges(self._shape.edges), nodes(self._ndec), edges(self._edec)

    # -- subforest machinery -----------------------------------------------

    def subforest_components(self, sf: SubForest) -> list[SubForest]:
        """Connected components of a subforest, each again a SubForest, in
        the order of their smallest nodes: one top-down pass, in which a
        node joins its parent's component when the edge between them is in
        the subforest."""
        if not (sf.nodes <= self.nodes and sf.edges <= self.edge_set):
            raise StructureError("subforest references unknown nodes or edges")
        for p, c in sf.edges:
            if p not in sf.nodes or c not in sf.nodes:
                raise StructureError("dangling edge in subforest")
        top: dict[int, int] = {}  # each node of sf to the top node of its component
        for u in self._shape.order:  # top-down: a node's parent comes first
            if u in sf.nodes:
                p = self._shape.parent.get(u)
                top[u] = top[p] if (p, u) in sf.edges else u
        comps: dict[int, set[int]] = {}
        for u in sorted(sf.nodes):
            comps.setdefault(top[u], set()).add(u)
        return [
            SubForest(frozenset(comp), frozenset(e for e in sf.edges if e[0] in comp))
            for comp in comps.values()
        ]

    @staticmethod
    def subtree_root(sf: SubForest) -> int:
        """Root of a connected subforest: its unique minimal node."""
        targets = {c for _, c in sf.edges}
        roots = [u for u in sf.nodes if u not in targets]
        if len(roots) != 1:
            raise StructureError("subforest is not a single subtree")
        return roots[0]

    def restrict(self, sf: SubForest) -> "DecoratedTree":
        """The decorated colored tree induced on one connected subforest
        (decorations, coloring and o restricted, per the paper's convention).
        Its shape is the subforest's, built once (`_Shape.sub`), and it keeps
        the labels and the coloring of this tree among the shape's nodes and
        edges, which need no check again."""
        shape = self._shape.sub(sf)
        nodes, edges = shape.nodes, shape.edge_set

        def kept(items, keys) -> tuple[dict, tuple]:
            items = tuple(x for x in items if x[0] in keys)
            return dict(items), items

        def colored(h: SubForest) -> SubForest:
            if h.is_empty():
                return h
            return SubForest(h.nodes & nodes, frozenset(e for e in h.edges if e[0] in nodes and e[1] in nodes))

        out = object.__new__(DecoratedTree)
        out.root, out._shape = shape.root, shape
        out._label(
            kept(self._ndec, nodes), kept(self._edec, edges), colored(self.hat1), colored(self.hat2),
            kept(self._olabel, nodes),
        )
        return out

    def leaves_of(self, sf: SubForest, table: TypeTable) -> frozenset[int]:
        """L(S): the nodes whose noise edge lies in the subforest."""
        return frozenset(p for p, c in self.noise_edges(table) if (p, c) in sf.edges)

    def rooted_subtrees(self, table: TypeTable) -> tuple[tuple[SubForest, tuple[EdgeKey, ...]], ...]:
        """Every subtree S holding the root, the trivial one included, with
        its boundary (`_TableFacts.rooted`), in `_Shape.rooted_edge_sets`
        order: a recentering picks S by the edges its boundary avoids."""
        return self._shape.facts(table).rooted

    def all_subtrees(self) -> list[SubForest]:
        """`_Shape.all_subtrees`.  The top node of each subtree is a true
        node, since a fictitious node has no child.

        Note (disappearing noises): a leaf node of the ambient tree may be a
        non-leaf true node of the subtree when its noise edge is omitted.
        """
        return self._shape.all_subtrees()

    def contract_colored(self, table: TypeTable) -> "DecoratedTree":
        """Collapse the color-1 components to their roots and drop the
        color-2 part onto the root, mirroring how such a tree is evaluated:
        color-1 edges and noises contribute no factors and their node
        variables are identified with the component root's variable.  The
        extended label o is discarded.  The result is a plain decorated tree.
        """
        gv: dict[int, int] = {}
        for comp in self.hat1_components():
            r = self.subtree_root(comp)
            for u in comp.nodes:
                gv[u] = r
        for u in self.hat2.nodes:
            gv[u] = self.root
        for u in self.nodes:
            gv.setdefault(u, u)
        new_edges = {}
        new_edec = {}
        for e, t in self._shape.edges:
            if e in self.hat1.edges or e in self.hat2.edges:
                continue
            p, c = gv[e[0]], gv[e[1]]
            new_edges[(p, c)] = t
            k = self.edge_dec(e)
            if not k.is_zero():
                new_edec[(p, c)] = k
        new_ndec: dict[int, MultiIndex] = {}
        for u in self.true_nodes(table):
            k = self.node_dec(u)
            if not k.is_zero():
                tgt = gv[u]
                new_ndec[tgt] = new_ndec.get(tgt, ZERO_MI) + k
        keep = set(itertools.chain.from_iterable(new_edges)) | {gv[self.root]}
        new_ndec = {u: k for u, k in new_ndec.items() if u in keep}
        return DecoratedTree(root=gv[self.root], edges=new_edges, node_dec=new_ndec, edge_dec=new_edec)


def zero_node_hom(t: DecoratedTree, sf: SubForest, table: TypeTable) -> Fraction:
    """|S^0_e|_s: the subtree's homogeneity with node labels dropped, that
    of its edges (`_TableFacts.homs`) each lowered by the s-degree of its
    label."""
    homs, scaling = t._shape.facts(table).homs, table.scaling
    return sum((homs[e] - t.edge_dec(e).sdeg(scaling) for e in sf.edges), _ZERO)


def subtree_omegas(t: DecoratedTree, table: TypeTable) -> list[tuple[SubForest, Fraction]]:
    """Every connected subtree S of the tree, in `all_subtrees` order, with
    its omega = -|S^0_e|_s."""
    return [(s, -zero_node_hom(t, s, table)) for s in t.all_subtrees()]


def divergent_subtrees(t: DecoratedTree, table: TypeTable) -> list[tuple[SubForest, Fraction]]:
    """The entries of `subtree_omegas` with omega > 0: on a tree without
    edge labels, the shape's own list (`_TableFacts.divergent`)."""
    if not t.edge_dec_items:
        return list(t._shape.facts(table).divergent)
    return [(s, w) for s, w in subtree_omegas(t, table) if w > 0]


def up_hom_table(t: DecoratedTree, table: TypeTable) -> dict[EdgeKey, Fraction]:
    """|T_>=(e)|_+ with the labels n and o of its root dropped, for every
    edge e = (p, c): the edge e and every edge above it, and the node labels
    and o labels of the true nodes from c up.  A copy of the shape's
    label-free table (`_TableFacts.up`) with each nonzero label added along
    its path to the root: a node's |n|_s and |o|_s (both multi-indices) to
    the edges below it, an edge's -|e|_s to it and the edges below it.
    Color 2 is not looked at, so an entry is that homogeneity where nothing
    above p has color 2: on uncolored trees, and at the foot of the dangling
    trees of a rooted color-2 part, the entries that are read."""
    scaling, parent = table.scaling, t._shape.parent
    facts = t._shape.facts(table)
    out = dict(facts.up)

    def add(u: int, h):
        while u in parent:
            p = parent[u]
            out[(p, u)] += h
            u = p

    for u, k in itertools.chain(t.node_dec_items, t.o_label_items):
        if u in parent and u not in facts.fictitious:
            add(u, k.sdeg(scaling))
    for e, k in t.edge_dec_items:
        if e in out:
            add(e[1], -k.sdeg(scaling))
    return out


# -- automorphisms -------------------------------------------------------------


def automorphism_swaps(t: DecoratedTree) -> tuple[dict[int, int], ...]:
    """Generators of the tree's automorphism group, read off its AHU codes.
    An automorphism keeps the root, every edge with its type and label, and
    every node's label, color and o label, so it maps each node's children
    onto children of equal edge code.  The group is therefore generated by
    one swap per two consecutive children of a node whose edge codes are
    equal: the involution that exchanges the subtrees under them node for
    node (`_pairing`), given by the nodes it moves.  Its order, the symmetry
    factor S(tau), is the product over every node of m! for each edge code
    that m of its children share."""
    codes = t._node_codes()
    swaps = []
    for u in t.top_down():
        alike: dict[tuple, list[int]] = {}
        for e in t.children(u):
            alike.setdefault(t._edge_code(e, codes), []).append(e[1])
        for kids in alike.values():
            for a, b in zip(kids, kids[1:]):
                swap = _pairing(t, codes, a, b)
                swap.update({w: v for v, w in swap.items()})
                swaps.append(swap)
    return tuple(swaps)


def _pairing(t: DecoratedTree, codes: dict[int, tuple], a: int, b: int) -> dict[int, int]:
    """An isomorphism of the subtree under `a` onto the subtree under `b`,
    whose codes are equal: each node's children, sorted by edge code and
    then by id, go in that order onto the image's children, sorted alike."""

    def kids(u: int) -> list[int]:
        return [c for _, c in sorted((t._edge_code(e, codes), e[1]) for e in t.children(u))]

    out, stack = {}, [(a, b)]
    while stack:
        u, v = stack.pop()
        out[u] = v
        stack.extend(zip(kids(u), kids(v)))
    return out


# -- construction of standalone trees ---------------------------------------


def poly(n: MultiIndex = ZERO_MI) -> DecoratedTree:
    """The trivial tree bullet^n."""
    return DecoratedTree(root=0, edges={}, node_dec={0: n})


def noise(name: str) -> DecoratedTree:
    """The single-noise-edge tree Xi_l."""
    return DecoratedTree(root=0, edges={(0, 1): name})


# the bare node a noise edge of a graft ends in
_POINT = poly()


def graft(
    label: MultiIndex, branches: Iterable[tuple[str, MultiIndex, Optional[DecoratedTree], Optional[int]]]
) -> DecoratedTree:
    """A fresh root with node label `label` and one edge per branch (type,
    k, tree, top): an edge of that type and decoration k down to a copy of
    `tree` from its node `top` down, or to a fresh leaf when `tree` is None
    (a noise).  The branches' colorings and o labels are not carried over.
    Built once, in the canonical labelling: the branches are sorted by edge
    code (type, k, color 0, the AHU code of the top, read off the branch
    tree's codes with its coloring erased), each is copied to consecutive
    ids in its canonical preorder, and the tree is handed those codes."""
    placed = []
    for name, k, tree, top in branches:
        if tree is None:
            tree, top = _POINT, _POINT.root
        elif tree.has_coloring():
            tree = tree.with_(hat1=EMPTY_SUBFOREST, hat2=EMPTY_SUBFOREST, o_label={})
        placed.append(((name, k.entries, 0, tree._node_codes()[top]), k, tree, top))
    placed.sort(key=lambda b: b[0])
    edges, node_dec, edge_dec = {}, {0: label}, {}
    codes = {0: (label.entries, 0, ((), ()), tuple(b[0] for b in placed))}  # o slot: see _node_codes
    fresh = 1
    for (name, *_), k, tree, top in placed:
        edges[(0, fresh)], edge_dec[(0, fresh)] = name, k
        below = tree._canonical_preorder(top)
        ren = dict(zip(below, itertools.count(fresh)))
        for part, copied in zip((edges, node_dec, edge_dec), tree._copy(ren)):
            part.update(copied)
        codes.update((ren[u], tree._node_codes()[u]) for u in below)
        fresh += len(below)
    out = DecoratedTree(0, edges, node_dec, edge_dec)
    out._codes = codes
    return out


def integrate(name: str, k: MultiIndex, tree: DecoratedTree, table: TypeTable) -> DecoratedTree:
    """Attach a fresh root above `tree` by an edge of kernel type `name`
    with edge decoration k."""
    if not table.is_kernel(name):
        raise ValueError(f"cannot integrate against non-kernel type {name!r}")
    return graft(ZERO_MI, [(name, k, tree, tree.root)])


def tree_product(*trees: DecoratedTree) -> DecoratedTree:
    """Identify the roots; the merged root's label is the sum of the old
    root labels."""
    return graft(
        sum((t.node_dec(t.root) for t in trees), ZERO_MI),
        [(t.edge_type(e), t.edge_dec(e), t, e[1]) for t in trees for e in t.children(t.root)],
    )
