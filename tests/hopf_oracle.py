"""The slow paths that `hopf` replaced, kept as test oracles: extractions
built from every connected edge set of the tree rather than from the listed
divergent subtrees, the negative antipode of a forest as a fold of slotwise
tensor products and key maps, the recentering bounds found by building a
probe tree and restricting it to each dangling up-tree, and Delta_+ and the
positive antipode each with its own recentering loop."""
from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Hashable, Iterator, Optional, Sequence

from forest_oracle import dangling_trees, up_tree
from renormforest.forests import div_enumerate, irreducible_partition_exists
from renormforest.formal import FormalSum
from renormforest.hopf import (
    _admissible_rooted,
    _AntipodePlus,
    _boundary,
    _chi,
    _dangle_headroom,
    _edge_choices,
    _extraction_decorations,
    _extractions,
    _node_choices,
    _plus_colored,
    _remainder,
    _shifted,
    delta_minus,
    delta_plus,
    in_X_minus,
    sorted_pieces,
)
from renormforest.rules import CumulantSet
from renormforest.scaling import ExtLabel, MultiIndex, TypeTable, ZERO_MI
from renormforest.trees import DecoratedTree, EdgeKey, SubForest, up_hom_table, zero_node_hom


def tensor(a: FormalSum, b: FormalSum) -> FormalSum:
    """Concatenate tuple keys slotwise."""
    return FormalSum(
        (tuple(k1) + tuple(k2), v1 * v2) for k1, v1 in a.items() for k2, v2 in b.items()
    )


def map_keys(s: FormalSum, fn: Callable[[Hashable], Hashable]) -> FormalSum:
    return FormalSum((fn(k), v) for k, v in s.items())


def connected_edge_sets(t: DecoratedTree) -> Iterator[frozenset[EdgeKey]]:
    """Every nonempty connected edge set of the tree, once each: by its top
    node r, each child edge of r either left out or taken together with a
    (possibly empty) connected edge set hanging from the child."""
    hanging: dict[int, list[frozenset[EdgeKey]]] = {}

    def from_node(u: int) -> list[frozenset[EdgeKey]]:
        if u not in hanging:
            out = [frozenset()]
            for e in t.children(u):
                out += [acc | {e} | below for acc in out for below in from_node(e[1])]
            hanging[u] = out
        return hanging[u]

    for r in sorted(t.nodes):
        yield from (edges for edges in from_node(r) if edges)


def node_disjoint_families(pieces: list[SubForest]) -> Iterator[list[SubForest]]:
    """Every family of pairwise node-disjoint pieces, the empty one included."""

    def rec(start: int, used: frozenset[int]) -> Iterator[list[SubForest]]:
        yield []
        for i in range(start, len(pieces)):
            if not pieces[i].nodes & used:
                for rest in rec(i + 1, used | pieces[i].nodes):
                    yield [pieces[i]] + rest

    return rec(0, frozenset())


def extractions(
    t: DecoratedTree,
    table: TypeTable,
    proper: bool = False,
    vanishing: Optional[CumulantSet] = None,
) -> Iterator[tuple[SubForest, Fraction, list[DecoratedTree], dict, dict]]:
    """`hopf._extractions` without `div_enumerate`: every connected edge set
    of the tree is a candidate piece, kept when its omega (the budget for
    e_G) is positive, when it is not the whole tree under `proper` and when
    its constant does not vanish under `vanishing`; each family of pairwise
    node-disjoint kept pieces is extracted with every choice of their
    decorations."""
    full_edges = frozenset(e for e, _ in t.edge_items)
    options: dict[SubForest, list] = {}
    for edges in connected_edge_sets(t):
        c = SubForest(frozenset(itertools.chain.from_iterable(edges)), edges)
        budget = -zero_node_hom(t, c, table)
        if budget <= 0 or (proper and edges == full_edges):
            continue
        if vanishing is not None and not irreducible_partition_exists(t, c, vanishing):
            continue
        boundary = _boundary(t, c.nodes, c.edges, table)
        bare = t.restrict(c)
        options[c] = []
        for nd, ed, cf in _extraction_decorations(t, table, c, budget, boundary):
            labels = dict(nd)
            for u, k in _chi(ed).items():
                labels[u] = labels.get(u, ZERO_MI) + k
            options[c].append((nd, ed, cf, bare.with_(node_dec=labels)))
    for comps in node_disjoint_families(list(options)):
        sub = SubForest(
            frozenset().union(*(c.nodes for c in comps)),
            frozenset().union(*(c.edges for c in comps)),
        )
        for chosen in itertools.product(*(options[c] for c in comps)):
            coeff = Fraction(1)
            ndec_all: dict[int, MultiIndex] = {}
            edec_all: dict[EdgeKey, MultiIndex] = {}
            for nd, ed, cf, _ in chosen:
                coeff *= cf
                ndec_all.update(nd)
                edec_all.update(ed)
            yield sub, coeff, [piece for *_, piece in chosen], ndec_all, edec_all


class AntipodeMinusFold:
    """The negative antipode over the edge-subset extractions, with a
    forest's value folded one piece at a time through `tensor` and
    `map_keys`."""

    def __init__(self, table: TypeTable):
        self.table = table
        self.memo: dict[DecoratedTree, FormalSum] = {}

    def forest(self, pieces: Sequence[DecoratedTree]) -> FormalSum:
        acc = FormalSum.single(((),))
        for p in pieces:
            acc = tensor(acc, self.tree(p))
            acc = map_keys(acc, lambda k: (sorted_pieces(k[0] + k[1]),))
        return acc

    def tree(self, piece: DecoratedTree) -> FormalSum:
        if piece in self.memo:
            return self.memo[piece]
        if not in_X_minus(piece, self.table):
            raise ValueError("negative antipode applied outside X_-")
        terms = []
        for sub, coeff, pieces, nd, ed in extractions(piece, self.table, proper=True):
            residual = _remainder(piece, sub, nd, ed, o_label=False)
            for (inner,), c in self.forest(pieces).items():
                terms.append(((sorted_pieces(inner + (residual,)),), -coeff * c))
        result = FormalSum(terms)
        self.memo[piece] = result
        return result


def antipode_minus_fold(pieces: Sequence[DecoratedTree], table: TypeTable) -> FormalSum:
    return AntipodeMinusFold(table).forest(pieces)


def extraction_multiset(rows) -> Counter:
    """Extraction rows as a multiset that ignores the order of the rows and
    of the pieces within a row: (G, coefficient, the pieces' embedded keys,
    n_G, e_G) with their multiplicities.  Rows repeat their G and their
    pieces, so the key of each distinct one is written out once."""
    keys: dict = {}

    def key(x, write):
        if x not in keys:
            keys[x] = write(x)
        return keys[x]

    return Counter(
        (
            key(g, SubForest.sort_key),
            coeff,
            tuple(sorted(key(p, lambda p: repr(p.embedded_key())) for p in pieces)),
            tuple(sorted(nd.items())),
            tuple(sorted(ed.items())),
        )
        for g, coeff, pieces, nd, ed in rows
    )


def extraction_multisets(
    t: DecoratedTree,
    table: TypeTable,
    proper: bool = False,
    vanishing: Optional[CumulantSet] = None,
) -> tuple[Counter, Counter]:
    """The multisets of the rows of `hopf._extractions` and of the oracle's
    `extractions`.  With `vanishing`, `_extractions` is given the effective
    divergent subtrees that `div_enumerate` lists, and the oracle filters
    its edge sets itself.  At most one row more than the oracle yields is
    read from `_extractions`, so a surplus shows without enumerating a
    runaway product."""
    want = list(extractions(t, table, proper, vanishing))
    candidates = None if vanishing is None else div_enumerate(t, table, vanishing)
    got = itertools.islice(_extractions(t, table, proper, candidates), len(want) + 1)
    return extraction_multiset(got), extraction_multiset(want)


# -- recentering bounds by probe trees ----------------------------------------------


def recentered_plus_hom(piece: DecoratedTree, sf: SubForest, table: TypeTable) -> Fraction:
    """|.|_+ of the restriction to `sf`, its root's node label dropped
    unless the root has color 2."""
    sub = piece.restrict(sf)
    total = sub.homogeneity(table, "plus")
    if sub.color_of_node(sub.root) != 2:
        total -= Fraction(sub.node_dec(sub.root).sdeg(table.scaling))
    return total


def recentered_up_hom(t: DecoratedTree, e: EdgeKey, table: TypeTable) -> Fraction:
    """|P~(T_>=(e), 0)^n_e|_+ : homogeneity of the up-tree with the root's
    node label suppressed."""
    sf = up_tree(t, e)
    piece = t.restrict(sf)
    total = piece.homogeneity(table, "plus")
    total -= Fraction(piece.node_dec(piece.root).sdeg(table.scaling))
    return total


def cut_enumerate(t: DecoratedTree, table: TypeTable) -> list[tuple[EdgeKey, int]]:
    out = []
    for e in t.kernel_edges(table):
        h = recentered_up_hom(t, e, table)
        if h > 0:
            out.append((e, math.ceil(h)))
    return sorted(out)


def in_X_plus(piece: DecoratedTree, table: TypeTable) -> bool:
    if not piece.hat2.nodes:
        return False
    return all(
        recentered_plus_hom(piece, sf, table) > 0
        for sf in dangling_trees(piece, piece.hat2, table)
    )


def dangle_headroom(
    piece: DecoratedTree, s: SubForest, table: TypeTable,
    ndec: dict[int, MultiIndex], hat1: SubForest, hat2: SubForest,
    olabel: dict[int, ExtLabel],
) -> Optional[dict[EdgeKey, Fraction]]:
    """The headroom of S's boundary edges read off a probe: the piece
    recentered around S, restricted to each dangling up-tree."""
    probe = piece.with_(node_dec=ndec, hat1=hat1, hat2=hat2, o_label=olabel)
    out: dict[EdgeKey, Fraction] = {}
    for e in _boundary(piece, s.nodes, s.edges, table):
        h = recentered_plus_hom(probe, up_tree(piece, e), table)
        if h <= 0:
            return None
        out[e] = h
    return out


def probe_headrooms(piece: DecoratedTree, s: SubForest, table: TypeTable) -> list:
    """The probe's headroom for every split of the node labels of S outside
    the color-2 part, as `delta_plus` and the positive antipode made it
    (the color-2 part's labels all go to the recentered piece)."""
    fict = piece.fictitious_nodes(table)
    hat1, hat2 = _plus_colored(piece, s)
    olabel = {u: v for u, v in piece.o_label_items if u in hat1.nodes}
    nhat = [(u, k) for u, k in piece.node_dec_items if u in piece.hat2.nodes - fict]
    slots = [
        u for u in sorted(s.nodes - fict - piece.hat2.nodes) if not piece.node_dec(u).is_zero()
    ]
    out = []
    for nd, _ in _node_choices(piece, slots):
        ndec = _shifted(piece.node_dec_items, minus=itertools.chain(nd.items(), nhat))
        out.append(dangle_headroom(piece, s, table, ndec, hat1, hat2, olabel))
    return out


def abar2(piece: DecoratedTree, table: TypeTable) -> list[SubForest]:
    """The positive antipode's recentered subtrees, meeting each dangling
    tree in some edge."""
    danglers = dangling_trees(piece, piece.hat2, table)
    return [
        s
        for s in _admissible_rooted(piece, table)
        if piece.hat2.nodes <= s.nodes
        and piece.hat2.edges <= s.edges
        and s.edges != piece.hat2.edges
        and all(sf.edges & s.edges for sf in danglers)
    ]


def recentering_cases(t: DecoratedTree, table: TypeTable) -> Iterator[tuple[DecoratedTree, SubForest]]:
    """Every (piece, S) at which the expansion of `t` bounds the decorations
    of S's boundary edges: each remainder of Delta_- with its admissible
    rooted subtrees (`delta_plus`), then each piece the positive antipode
    runs on, with its recentered subtrees."""
    anti_plus = _AntipodePlus(table)
    for _, remainder in delta_minus(t, table).keys():
        for s in _admissible_rooted(remainder, table):
            yield remainder, s
        for _, rec_piece in delta_plus(remainder, table).keys():
            anti_plus.run(rec_piece)
    for piece in anti_plus.memo:
        for s in abar2(piece, table):
            yield piece, s


# -- Delta_+ and the positive antipode, each with its own recentering loop ----------


def delta_plus_loop(piece: DecoratedTree, table: TypeTable) -> FormalSum:
    """`hopf.delta_plus` as it was written before the positive antipode
    shared its loop over the recentered subtrees."""
    fict = piece.fictitious_nodes(table)
    up = up_hom_table(piece, table)
    terms = []
    for s in _admissible_rooted(piece, table):
        boundary = _boundary(piece, s.nodes, s.edges, table)
        headroom = _dangle_headroom(boundary, up)
        if headroom is None:
            continue
        hat1, hat2 = _plus_colored(piece, s)
        olabel = {u: v for u, v in piece.o_label_items if u in hat1.nodes}
        plain = piece.restrict(s)
        node_slots = [u for u in sorted(s.nodes - fict) if not piece.node_dec(u).is_zero()]
        for nd, base_coeff in _node_choices(piece, node_slots):
            rem_ndec = _shifted(piece.node_dec_items, minus=nd.items())
            for ed, edge_coeff in _edge_choices(boundary, headroom, table):
                left = plain.with_(node_dec=_shifted(nd, plus=_chi(ed).items()))
                right = piece.with_(
                    node_dec=rem_ndec,
                    edge_dec=_shifted(piece.edge_dec_items, plus=ed.items()),
                    hat1=hat1,
                    hat2=hat2,
                    o_label=olabel,
                )
                terms.append(((left, right), base_coeff * edge_coeff))
    return FormalSum(terms)


class AntipodePlusLoop:
    """`hopf._AntipodePlus` as it was written before it shared its loop
    over the recentered subtrees with Delta_+; the subtrees come from the
    probe-based `abar2`."""

    def __init__(self, table: TypeTable):
        self.table = table
        self.memo: dict[DecoratedTree, FormalSum] = {}

    def run(self, piece: DecoratedTree) -> FormalSum:
        if piece in self.memo:
            return self.memo[piece]
        t = self.table
        up = up_hom_table(piece, t)
        full_edges = frozenset(e for e, _ in piece.edge_items)
        if not (full_edges - piece.hat2.edges):
            sign = (-1) ** sum(k.degree() for _, k in piece.node_dec_items)
            res = FormalSum.single(((piece.with_(o_label={}),),), sign)
            self.memo[piece] = res
            return res
        f_slots = sorted(_boundary(piece, piece.hat2.nodes, piece.hat2.edges, t))
        f_headroom = _dangle_headroom(f_slots, up)
        outer_sign = (-1) ** len(f_slots)
        fict = piece.fictitious_nodes(t)
        nhat = {u: k for u, k in piece.node_dec_items if u in piece.hat2.nodes and u not in fict}
        deg_nhat = sum(k.degree() for k in nhat.values())
        f_choices = [
            (ed_f, _chi(ed_f), coeff_f) for ed_f, coeff_f in _edge_choices(f_slots, f_headroom, t)
        ]
        terms = []
        for s in abar2(piece, t):
            boundary_s = _boundary(piece, s.nodes, s.edges, t)
            headroom = _dangle_headroom(boundary_s, up)
            if headroom is None:
                continue
            hat1, hat2 = _plus_colored(piece, s)
            olabel = {u: v for u, v in piece.o_label_items if u in hat1.nodes}
            plain = piece.restrict(s)
            node_slots = [
                u
                for u in sorted(s.nodes - fict - piece.hat2.nodes)
                if not piece.node_dec(u).is_zero()
            ]
            for nd, coeff_n in _node_choices(piece, node_slots):
                rem_ndec = _shifted(
                    piece.node_dec_items, minus=itertools.chain(nd.items(), nhat.items())
                )
                for ed_s, coeff_s in _edge_choices(boundary_s, headroom, t):
                    right = self.run(
                        piece.with_(
                            node_dec=rem_ndec,
                            edge_dec=_shifted(piece.edge_dec_items, plus=ed_s.items()),
                            hat1=hat1,
                            hat2=hat2,
                            o_label=olabel,
                        )
                    )
                    chi_s = _chi(ed_s)
                    for ed_f, chi_f, coeff_f in f_choices:
                        inner_sign = (-1) ** (deg_nhat + sum(k.degree() for k in chi_f.values()))
                        left_labels = _shifted(
                            nd, plus=itertools.chain(nhat.items(), chi_s.items(), chi_f.items())
                        )
                        left_edec = {}
                        for e in s.edges:
                            k = piece.edge_dec(e) + ed_f.get(e, ZERO_MI)
                            if not k.is_zero():
                                left_edec[e] = k
                        left = plain.with_(node_dec=left_labels, edge_dec=left_edec, o_label={})
                        coeff = outer_sign * inner_sign * coeff_n * coeff_s * coeff_f
                        for (inner,), c in right.items():
                            terms.append(((sorted_pieces(inner + (left,)),), coeff * c))
        result = FormalSum(terms)
        self.memo[piece] = result
        return result
