"""Extraction coactions, twisted antipodes, the three-slot renormalized
expansion, and grouped counterterm reports.

Terms live inside a fixed ambient tree: every slot entry is a
`DecoratedTree` whose node ids are ambient ids (so embedded i-trees compare
literally), possibly colored.  Formal sums carry exact coefficients: the
structure constants are integers (binomials and signs) up to the 1/k! of an
edge decoration k, so a coefficient is an `int` unless such a factorial
leaves a remainder, and then a `Fraction`.

Each enumeration is written once.  Every labelling, of the decorations
n_G, e_G that keep an extracted piece in X_- and of the node splits and
boundary decorations of a recentering, is one product of per-slot options
(`_choices`).  Delta_- and A_- extract forests of
pairwise disjoint candidate subtrees (`_extractions`); the candidates are
the caller's list of the tree's divergent subtrees: every one for the
expansion, the effective ones for the counterterm report, whose constants
are the BPHZ character l = E Pi A_- of the extracted pieces.  The list is
made once per tree, and A_- reads those of each piece off it: the entries
whose edges lie strictly inside the piece.  Each candidate's decorations are
enumerated once per tree, and A_- is one product over a forest's pieces.
A_- maps each residual tree through a symbol as it goes: the identity for
the expansion, and E Pi, the canonical code of the contracted expectation
symbol, for the report, whose terms with a vanishing symbol drop out.
The expansion reads A_- of the expanded tree T off T's own Delta_-: A_-(T)
= -sum c_F A_-(F) R_F over the terms (F, R_F) of Delta_- T other than the
extractions of T itself, each remainder R_F with its o labels dropped, so
T's extractions are listed once (`bphz_expansion`); where T is not in X_-
or not among its own listed divergent subtrees, A_- recurses as on any
other piece.
Every remainder and residual of an extraction is handed its color-1
components, the subtrees that the extracted pieces keep
(`DecoratedTree.restricted_to`; `_extractions` lists the pieces in candidate
order, so pairwise disjoint subtrees in `div_enumerate`'s order come in the
order of their smallest nodes), and every
remainder of a recentering those it keeps (`_plus_colored`), so no colored
tree that the expansion builds is scanned for them.  A recentering's
color-2 part is S itself, the shape's own subforest, since S holds the
piece's color-2 part.
The expansion and the report read Delta_- and Delta_+ term by term,
unsummed (`_delta_minus_terms`, `_delta_plus_terms`): both are linear in
them.  `delta_minus` and `delta_plus` are the summed public forms.
Delta_+ and A_+ recenter a piece around rooted subtrees (`_recenterings`).
Every piece they recenter is a `with_` copy of the expanded tree, whose
shape lists the rooted subtrees S and their boundaries once
(`DecoratedTree.rooted_subtrees`); a piece picks its own by one test
(`_selected`), that S's boundary avoids a forbidden set: the color-1 edges
(S holds or misses each color-1 component), the edges of non-positive
up-tree entry (S's dangling trees are positive), and for A_+ the color-2
edges and the foot edges of the color-2 part's dangling trees (S holds
them).  Recentering changes no label above S, so those entries, the bounds
on S's boundary decorations and the X_+ test read the piece's up-tree table
(`trees.up_hom_table`): the shape's label-free table, worked out once per
shape, with the piece's own labels added; a piece that A_+ finds colored 2
throughout has no dangling tree and needs only its sign, not the table.
Every piece that Delta_- and A_- extract, and every left piece of Delta_+
and A_+, is a restriction of the expanded tree, and all restrictions to one
subforest share one shape (`DecoratedTree.restrict`), built once with its
facts.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

from . import forests as fo
from .formal import Coefficient, FormalSum, exact, exact_div
from .rules import CumulantSet
from .scaling import (
    MultiIndex,
    TypeTable,
    ZERO_MI,
    binom_mi,
    multiindices_below,
    submultiindices,
)
from .trees import DecoratedTree, EdgeKey, SubForest, _boundary, tree_product, up_hom_table

# -- membership ----------------------------------------------------------------


def in_X_minus(piece: DecoratedTree, table: TypeTable) -> bool:
    """Uncolored tree with a vanishing root label and |.|_- < 0 (on an
    uncolored tree |.|_- is the plain homogeneity)."""
    if piece.has_coloring():
        return False
    return piece.node_dec(piece.root).is_zero() and piece.homogeneity(table) < 0


def in_X_plus(piece: DecoratedTree, table: TypeTable, up: dict[EdgeKey, Fraction]) -> bool:
    """Color-2 part nonempty and every dangling tree has positive
    root-recentered |.|_+ homogeneity, read from the piece's up-tree table
    `up`."""
    if not piece.hat2.nodes:
        return False
    return all(up[e] > 0 for e in _boundary(piece.kernel_edges(table), piece.hat2))


# -- labellings -----------------------------------------------------------------


def _choices(slots: list, options: Callable[[Hashable], list]) -> Iterator[tuple[dict, Coefficient]]:
    """Every labelling of `slots` by one (label, coefficient) pair of
    `options(slot)` per slot: (the nonzero labels, product of the
    coefficients), the first slot varying slowest."""
    for chosen in itertools.product(*(options(x) for x in slots)):
        labels = {x: k for x, (k, _) in zip(slots, chosen) if not k.is_zero()}
        yield labels, math.prod(c for _, c in chosen)


def _node_choices(piece: DecoratedTree, slots: list[int]) -> Iterator[tuple[dict, int]]:
    """Every split of the node labels on `slots` between a piece (extracted
    or recentered) and the remainder: (the piece's labels, binomial
    coefficient)."""
    n = piece.node_dec
    return _choices(slots, lambda u: [(k, binom_mi(n(u), k)) for k in submultiindices(n(u))])


def _edge_choices(
    slots: list[EdgeKey], headroom: dict[EdgeKey, Fraction], table: TypeTable
) -> Iterator[tuple[dict, Coefficient]]:
    """Every edge labelling of `slots` whose s-degree stays strictly below
    each edge's headroom: (labels, 1 / product of the factorials).

    Delta_+ and A_+ pass the piece's up-tree table (`trees.up_hom_table`)
    as the headroom.  Recentering changes no label above the recentered
    subtree, so a decoration on a boundary edge e keeps the dangling tree
    T_>=(e) positive exactly while its s-degree stays below up[e]."""
    return _choices(
        slots,
        lambda e: [(k, exact_div(1, k.factorial())) for k in multiindices_below(table.scaling, headroom[e])],
    )


# -- negative coaction ----------------------------------------------------------


def _chi(edge_dec: dict[EdgeKey, MultiIndex]) -> dict[int, MultiIndex]:
    out: dict[int, MultiIndex] = {}
    for (p, _), k in edge_dec.items():
        out[p] = out.get(p, ZERO_MI) + k
    return out


def _shifted(labels, plus=(), minus=()) -> dict:
    """`labels` (a dict or its items) with the (key, label) pairs of `plus`
    added and those of `minus` subtracted, key by key."""
    out = dict(labels)
    for u, k in plus:
        out[u] = out.get(u, ZERO_MI) + k
    for u, k in minus:
        out[u] = out.get(u, ZERO_MI) - k
    return out


def _piece(plain: DecoratedTree, nd: dict, ed: dict) -> DecoratedTree:
    """The restricted tree `plain` with the node labels nd + chi(ed): `plain`
    itself where these and its own are all zero."""
    if not (nd or ed or plain.node_dec_items):
        return plain
    return plain.with_(node_dec=_shifted(nd, plus=_chi(ed).items()))


def _extraction_decorations(
    t: DecoratedTree,
    table: TypeTable,
    comp: SubForest,
    omega: Fraction,
    boundary: Sequence[EdgeKey],
) -> Iterator[tuple[dict[int, MultiIndex], dict[EdgeKey, MultiIndex], Coefficient]]:
    """Node labels n_G on a divergent subtree and edge labels e_G on its
    boundary edges keeping the extracted tree in X_-: root label zero and
    homogeneity strictly negative, so their total s-degree stays strictly
    below the subtree's degree of divergence `omega` > 0 (as `div_enumerate`
    lists it).  They are the labellings of `_node_choices` x `_edge_choices`
    within that total.  Yields (n_G, e_G, combinatorial coefficient)."""
    root = t.subtree_root(comp)
    node_slots = [u for u in sorted(comp.nodes & t.true_nodes(table) - {root}) if not t.node_dec(u).is_zero()]
    # boundary edges at the root force e_G = 0 there; they are skipped
    edge_slots = [e for e in sorted(boundary) if e[0] != root]
    if not node_slots and not edge_slots:  # the one labelling: all zero, below omega > 0
        yield {}, {}, 1
        return
    scaling = table.scaling
    edge_choices = _edge_choices(edge_slots, dict.fromkeys(edge_slots, omega), table)
    for (nd, coeff_n), (ed, coeff_e) in itertools.product(_node_choices(t, node_slots), edge_choices):
        if sum(k.sdeg(scaling) for k in itertools.chain(nd.values(), ed.values())) < omega:
            yield nd, ed, coeff_n * coeff_e


def _extractions(
    t: DecoratedTree,
    table: TypeTable,
    candidates: Sequence[tuple[SubForest, Fraction]],
) -> Iterator[tuple[Coefficient, list[DecoratedTree], dict, dict]]:
    """Every extraction of a forest of pairwise node-disjoint candidates
    from an uncolored tree, with every choice of decorations n_G, e_G.

    The candidates are divergent subtrees of the tree, as (subtree, omega)
    pairs in `div_enumerate`'s order: any list of them, such as every one
    (`TreeAnalysis.all_divergences`) or the effective ones, whose
    renormalization constant does not vanish identically
    (`TreeAnalysis.divergences`), or those strictly inside a piece (the
    antipode's recursion, which never extracts the whole piece).  Exactly
    the listed subtrees are extracted.  Each candidate's decorations are
    enumerated once, and its extracted pieces are built once.

    Yields (coefficient, extracted pieces in candidate order, n_G, e_G);
    the empty forest comes first, with no pieces.  Each piece keeps its
    subtree (`DecoratedTree.restricted_to`), so G is the union of theirs.
    """
    options = []
    kernel = t.kernel_edges(table)
    for c, omega in candidates:
        plain = t.restrict(c)
        decorated = [
            (_piece(plain, nd, ed), nd, ed, coeff)
            for nd, ed, coeff in _extraction_decorations(t, table, c, omega, _boundary(kernel, c))
        ]
        options.append((c.nodes, decorated))

    def families(start: int, used: frozenset, coeff: Coefficient, pieces: list, nd: dict, ed: dict):
        yield coeff, pieces, nd, ed
        for i in range(start, len(options)):
            nodes, decorated = options[i]
            if nodes & used:
                continue
            grown = used | nodes
            for piece, nd_c, ed_c, coeff_c in decorated:
                yield from families(
                    i + 1, grown, coeff * coeff_c, pieces + [piece], {**nd, **nd_c}, {**ed, **ed_c}
                )

    yield from families(0, frozenset(), 1, [], {}, {})


def _remainder(
    t: DecoratedTree,
    extracted: SubForest | list[SubForest],
    ndec_g: dict[int, MultiIndex],
    edec_g: dict[EdgeKey, MultiIndex],
    o_label: bool,
) -> DecoratedTree:
    """What an extraction leaves: n_G subtracted from the node labels, e_G
    added to the edge labels, the extracted subforest colored 1.  With
    `o_label`, o records the multi-index n_G + chi(e_G) on the extracted
    nodes (the coaction); the antipode's recursion carries no o-label.  Only
    the labels that change are passed to `with_` (`t` is uncolored: it has
    no o label).
    `extracted` is the subforest, or its components, which the remainder
    then keeps as its color-1 components."""
    labels = {"hat1": extracted}
    if ndec_g:
        labels["node_dec"] = _shifted(t.node_dec_items, minus=ndec_g.items())
    if edec_g:
        labels["edge_dec"] = _shifted(t.edge_dec_items, plus=edec_g.items())
    if o_label and (ndec_g or edec_g):
        labels["o_label"] = _shifted(ndec_g, plus=_chi(edec_g).items())
    return t.with_(**labels)


def _delta_minus_terms(
    t: DecoratedTree,
    table: TypeTable,
    candidates: Sequence[tuple[SubForest, Fraction]],
) -> Iterator[tuple[tuple[DecoratedTree, ...], DecoratedTree, Coefficient]]:
    """The terms of Delta_- on an uncolored tree, unsummed: (extracted
    forest as its sorted pieces, colored remainder, coefficient).  A colored
    tree is refused when this is called, before any term is built.

    Every forest of candidates, the caller's list of the tree's divergent
    subtrees (see `_extractions`), is extracted with every decoration that
    keeps its components in X_-.  Each coefficient is a product of
    binomials and reciprocal factorials, so it is positive and no two
    terms cancel."""
    if t.has_coloring():
        raise ValueError("the negative coaction acts on uncolored trees")
    return (
        (
            tuple(sorted(pieces, key=DecoratedTree.embedded_key)),
            _remainder(t, [p.restricted_to for p in pieces], nd, ed, o_label=True),
            coeff,
        )
        for coeff, pieces, nd, ed in _extractions(t, table, candidates)
    )


def delta_minus(
    t: DecoratedTree,
    table: TypeTable,
    candidates: Sequence[tuple[SubForest, Fraction]],
) -> FormalSum:
    """The extraction coaction on an uncolored tree: the sum of
    `_delta_minus_terms`, keyed by (extracted forest, colored remainder)."""
    terms = _delta_minus_terms(t, table, candidates)
    return FormalSum(((extracted, remainder), c) for extracted, remainder, c in terms)


# -- negative twisted antipode ----------------------------------------------------


class _AntipodeMinus:
    """A_- on forests of X_- trees, memoized per tree, with `symbol` applied
    to every output tree: sums over sorted tuples of symbols.

    Every piece is a piece of one ambient tree, with the ambient's edges and
    edge labels.  `listed` is a list of the ambient's divergent subtrees, in
    `div_enumerate`'s order, and A_- extracts from a piece exactly the
    entries whose edges lie inside it.  Omega reads nothing but edges and
    edge labels, and neither does effectiveness
    (`forests.irreducible_partition_exists`).  So given every divergent
    subtree of the ambient, A_- extracts every divergent subtree of each
    piece; given the effective ones, every effective one.

    Every output tree is the residual of one step of the recursion, and a
    character (E Pi, say) is multiplicative over a forest's trees and zero
    on a forest with a vanishing tree.  So `symbol` maps each residual as
    the recursion makes it, to None where its symbol vanishes, which drops
    the term; the identity gives A_- itself.  A caller that has summed A_-
    of a tree from terms it already holds hands it to `memo`, which the
    recursion then reads (`bphz_expansion` does so for the expanded
    tree)."""

    def __init__(
        self,
        table: TypeTable,
        listed: Sequence[tuple[SubForest, Fraction]],
        symbol: Callable[[DecoratedTree], Optional[Hashable]],
    ):
        self.table = table
        self.listed = listed
        self.symbol = symbol
        self.memo: dict[DecoratedTree, FormalSum] = {}

    def forest(self, pieces: Sequence[DecoratedTree]) -> FormalSum:
        """A_- on a forest, one product over its pieces (A_- is
        multiplicative).  A forest of one piece is that piece's memo."""
        if len(pieces) == 1:
            return self.tree(pieces[0])
        return FormalSum(self._terms(pieces, (), 1))

    def _terms(
        self, pieces: Sequence[DecoratedTree], extra: tuple, scale: Coefficient
    ) -> Iterator[tuple[tuple, Coefficient]]:
        """The terms of `scale` times A_- on a forest, unsummed: one term of
        each piece's sum per output term, keyed by the sorted symbols of
        them and of `extra`.  Each term is built in one loop over the
        chosen terms: their symbols extend one list, sorted once, and their
        coefficients multiply `scale`."""
        for chosen in itertools.product(*(self.tree(p).items() for p in pieces)):
            keys, c = list(extra), scale
            for (k,), ck in chosen:
                keys.extend(k)
                c *= ck
            keys.sort()
            yield (tuple(keys),), c

    def tree(self, piece: DecoratedTree) -> FormalSum:
        if piece in self.memo:
            return self.memo[piece]
        if not in_X_minus(piece, self.table):
            raise ValueError("negative antipode applied outside X_-")
        inside = [(c, w) for c, w in self.listed if c.edges < piece.edge_set]
        terms = []
        for coeff, pieces, nd, ed in _extractions(piece, self.table, inside):
            symbol = self.symbol(_remainder(piece, [p.restricted_to for p in pieces], nd, ed, o_label=False))
            if symbol is not None:
                terms.extend(self._terms(pieces, (symbol,), -coeff))
        result = FormalSum(terms)
        self.memo[piece] = result
        return result


# -- positive coaction and antipode ------------------------------------------------


def _selected(
    piece: DecoratedTree, table: TypeTable, up: dict[EdgeKey, Fraction], *forbidden: Iterable[EdgeKey]
) -> list[tuple[SubForest, tuple[EdgeKey, ...]]]:
    """The rooted subtrees S of the piece, with their boundaries, in
    `DecoratedTree.rooted_subtrees` order, whose boundary holds no color-1
    edge, no edge of non-positive entry in the up-tree table `up` and no
    edge of `forbidden`.  A connected C with a node in S lies in S unless
    one of its kernel edges is on S's boundary, so S holds or misses each
    color-1 component (A_2), and holds the color-2 part, which holds the
    root, where its edges are forbidden."""
    fence = piece.hat1.edges.union(*forbidden, (e for e, h in up.items() if h.numerator <= 0))
    return [(s, boundary) for s, boundary in piece.rooted_subtrees(table) if fence.isdisjoint(boundary)]


def _plus_colored(piece: DecoratedTree, s: SubForest) -> tuple[list[SubForest], SubForest]:
    """New coloring [hat1 \\ S]_1 + [S]_2 after recentering around an
    admissible S: the color-1 components outside S, in their order, and the
    color-2 part, which is S itself.  S holds the piece's color-2 part,
    nodes and edges (`_AntipodePlus._abar2` forbids its edges on S's
    boundary), so S is their union; it is the shape's own subforest, whose
    sort key is worked out once per shape."""
    return [c for c in piece.hat1_components() if not c.nodes <= s.nodes], s


def _color2_labels(piece: DecoratedTree, table: TypeTable) -> dict[int, MultiIndex]:
    """n^: the node labels of the color-2 part, on its true nodes."""
    fict = piece.fictitious_nodes(table)
    return {u: k for u, k in piece.node_dec_items if u in piece.hat2.nodes and u not in fict}


def _recenterings(
    piece: DecoratedTree,
    table: TypeTable,
    up: dict[EdgeKey, Fraction],
    subtrees: Iterable[tuple[SubForest, tuple[EdgeKey, ...]]],
) -> Iterator[tuple[DecoratedTree, Coefficient, DecoratedTree]]:
    """The piece recentered around each S of `subtrees` (as `_selected`
    picks them, with their boundaries), with every split of the node labels
    and every labelling e_S of S's boundary edges that keeps the dangling
    trees positive (the up-tree table `up` is the headroom of each boundary
    edge).  Yields (left piece, coefficient, remainder): the left piece is S
    with the node labels n_S + chi(e_S), where n_S takes part of each
    uncolored label in S and all of the color-2 labels n^, which the
    remainder gives up; S restricts the piece unless it is the whole piece,
    whose restriction is the piece itself."""
    fict = piece.fictitious_nodes(table)
    nhat = _color2_labels(piece, table)
    whole = len(piece.edge_set)  # S holds edges of the piece only
    for s, boundary in subtrees:
        hat1, hat2 = _plus_colored(piece, s)
        colored = {"hat1": hat1, "hat2": hat2}
        # o labels sit on color-1 nodes, and S holds a component or misses it
        olabel = {u: v for u, v in piece.o_label_items if u not in s.nodes}
        if len(olabel) < len(piece.o_label_items):  # S takes some o labels
            colored["o_label"] = olabel
        plain = piece if len(s.edges) == whole else piece.restrict(s)
        node_slots = [
            u for u in sorted(s.nodes - fict - piece.hat2.nodes) if not piece.node_dec(u).is_zero()
        ]
        for nd, coeff_n in _node_choices(piece, node_slots):
            n_s = {**nd, **nhat}
            node_shift = {"node_dec": _shifted(piece.node_dec_items, minus=n_s.items())} if n_s else {}
            for ed, coeff_e in _edge_choices(boundary, up, table):
                edge_shift = {"edge_dec": _shifted(piece.edge_dec_items, plus=ed.items())} if ed else {}
                remainder = piece.with_(**colored, **node_shift, **edge_shift)
                left = _piece(plain, n_s, ed)
                yield left, coeff_n * coeff_e, remainder


def _delta_plus_terms(piece: DecoratedTree, table: TypeTable) -> Iterator[tuple]:
    """The terms of Delta_+ on a tree of color <= 1, unsummed:
    `_recenterings` around each rooted subtree that `_selected` picks."""
    up = up_hom_table(piece, table)
    return _recenterings(piece, table, up, _selected(piece, table, up))


def delta_plus(piece: DecoratedTree, table: TypeTable) -> FormalSum:
    """The recentering coaction on a tree of color <= 1: a sum of
    (rooted piece, recentered remainder) pairs, the remainder filtered to
    X_+."""
    if piece.hat2.nodes:
        raise ValueError("the positive coaction acts on trees of color <= 1")
    return FormalSum(((left, remainder), coeff) for left, coeff, remainder in _delta_plus_terms(piece, table))


class _AntipodePlus:
    """A_+ on trees of X_+, memoized per tree: forests."""

    def __init__(self, table: TypeTable):
        self.table = table
        self.memo: dict[DecoratedTree, FormalSum] = {}

    def run(self, piece: DecoratedTree) -> FormalSum:
        if piece in self.memo:
            return self.memo[piece]
        t = self.table
        if not piece.hat2.nodes:
            raise ValueError("positive antipode applied outside X_+")
        # the sign counts the color-2 labels n^, which sit on true nodes
        deg_nhat = sum(k.degree() for k in _color2_labels(piece, t).values())
        if not (piece.edge_set - piece.hat2.edges):  # no dangling tree: in X_+
            bare = piece.with_(o_label={}) if piece.o_label_items else piece
            res = FormalSum([(((bare,),), (-1) ** deg_nhat)])
            self.memo[piece] = res
            return res
        up = up_hom_table(piece, t)
        if not in_X_plus(piece, t, up):
            raise ValueError("positive antipode applied outside X_+")
        # f decorations sit on the kernel edges leaving the color-2 part, at
        # the foot of its dangling trees, and must keep the *input* piece in
        # X_+; each such edge trunks its own dangling tree, so the bounds
        # decouple, and `in_X_plus` has found each up-tree entry positive.
        f_slots = sorted(_boundary(piece.kernel_edges(t), piece.hat2))
        outer_sign = (-1) ** len(f_slots)
        f_choices = [(ed_f, _chi(ed_f), coeff_f) for ed_f, coeff_f in _edge_choices(f_slots, up, t)]
        terms = []
        for left_s, coeff_s, remainder in _recenterings(piece, t, up, self._abar2(piece, f_slots, up)):
            # within the headroom every dangling tree of S stays positive, so
            # the remainder lies in X_+
            right = self.run(remainder)
            for ed_f, chi_f, coeff_f in f_choices:
                inner_sign = (-1) ** (deg_nhat + sum(k.degree() for k in chi_f.values()))
                # S holds every f slot (see `_abar2`); its o labels drop
                labels = {"o_label": {}} if left_s.o_label_items else {}
                if ed_f:
                    labels["node_dec"] = _shifted(left_s.node_dec_items, plus=chi_f.items())
                    labels["edge_dec"] = _shifted(left_s.edge_dec_items, plus=ed_f.items())
                left = left_s.with_(**labels)
                coeff = outer_sign * inner_sign * coeff_s * coeff_f
                for (inner,), c in right.items():
                    terms.append(((tuple(sorted((*inner, left), key=DecoratedTree.embedded_key)),), coeff * c))
        result = FormalSum(terms)
        self.memo[piece] = result
        return result

    def _abar2(
        self, piece: DecoratedTree, f_slots: list[EdgeKey], up: dict[EdgeKey, Fraction]
    ) -> list[tuple[SubForest, tuple[EdgeKey, ...]]]:
        """What `_selected` picks with the color-2 edges and the foot
        edges `f_slots` forbidden too: S holds the color-2 part and meets
        each of its dangling trees (holding any edge of T_>=(f), S holds
        f).  S must strictly grow the color-2 part, as the induction is on
        the number of uncolored edges."""
        picked = _selected(piece, self.table, up, piece.hat2.edges, f_slots)
        return [(s, boundary) for s, boundary in picked if s.edges != piece.hat2.edges]


# -- the full expansion and the report ---------------------------------------------


def bphz_expansion(
    t: DecoratedTree,
    table: TypeTable,
    candidates: Optional[Sequence[tuple[SubForest, Fraction]]] = None,
) -> FormalSum:
    """(A_- (x) id (x) A_+)(id (x) Delta_+) Delta_- applied to an uncolored
    tree: a three-slot formal sum (counterterm forest, observed piece,
    recentering forest).  `candidates` is the tree's full list of divergent
    subtrees, as `forests.div_enumerate` lists them, when the caller has it;
    it must be the full list, effective or not, because A_- reads each
    piece's divergent subtrees from it.  The tree's divergent subtrees are
    listed once per expansion, and its rooted subtrees once per expansion
    too: every remainder of Delta_- and every piece of Delta_+ and A_+ is a
    `with_` copy of the tree, and so shares its shape.

    A_-(T) of the tree itself is read off its own Delta_-: A_-(T) is
    -sum c_F A_-(F) R_F over the terms (F, R_F) of Delta_- T with
    coefficient c_F and F other than {T}, with the o labels of each
    remainder R_F dropped (A_-'s recursion carries none).  So the terms of
    Delta_- are walked once, unsummed (`_delta_minus_terms`; the expansion
    is linear in them), those that extract T itself last: each other
    forest's A_-(F) fills the left slot and adds its terms to A_-(T), which
    is then handed to A_- before any piece equal to T asks for it, and T's
    extractions are listed once.  Where T is not in X_- or is not among its
    own listed divergent subtrees, nothing is summed, and A_- recurses on
    every extracted piece."""
    listed = fo.div_enumerate(t, table) if candidates is None else candidates
    rows = _delta_minus_terms(t, table, listed)
    anti_minus = _AntipodeMinus(table, listed, lambda p: p)
    anti_plus = _AntipodePlus(table)
    edges = len(t.edge_set)
    # A_-(T) is summed only where it is read: T in X_- and listed
    own = [] if in_X_minus(t, table) and any(len(c.edges) == edges for c, _ in listed) else None
    terms, last = [], []  # last: the extractions of T itself

    def expand(left: FormalSum, remainder: DecoratedTree, c1: Coefficient):
        for mid, c2, rec_piece in _delta_plus_terms(remainder, table):
            right = anti_plus.run(rec_piece)
            c12 = c1 * c2
            for (lkey,), cl in left.items():
                c = c12 * cl
                for (rkey,), cr in right.items():
                    terms.append(((lkey, mid, rkey), c * cr))

    for extracted, remainder, c1 in rows:
        if len(extracted) == 1 and len(extracted[0].edge_set) == edges:
            last.append((extracted, remainder, c1))
            continue
        left = anti_minus.forest(extracted)
        if own is not None:
            residual = remainder.with_(o_label={}) if remainder.o_label_items else remainder
            for (lkey,), cl in left.items():
                own.append(((tuple(sorted((*lkey, residual), key=DecoratedTree.embedded_key)),), -c1 * cl))
        expand(left, remainder, c1)
    if own is not None:
        anti_minus.memo[t] = FormalSum(own)
    for extracted, remainder, c1 in last:
        expand(anti_minus.forest(extracted), remainder, c1)
    return FormalSum(terms)


def _bare_constant_key(piece: DecoratedTree, table: TypeTable, cum: CumulantSet):
    """Canonical key of the contracted expectation symbol; None when the
    symbol vanishes (noises admit no full partition into cumulant blocks)."""
    plain = piece.contract_colored(table)
    types = [plain.leaf_type(u, table) for u in sorted(plain.leaf_nodes(table))]
    if not cum.admits_full_partition(types):
        return None
    return plain.canonical_code()


@dataclass(frozen=True)
class CountertermMonomial:
    coefficient: Coefficient
    constants: tuple[str, ...]
    residual: DecoratedTree


@dataclass(frozen=True)
class CountertermReport:
    monomials: tuple[CountertermMonomial, ...]


def counterterm_report(
    t: DecoratedTree,
    table: TypeTable,
    cum: CumulantSet,
    candidates: Sequence[tuple[SubForest, Fraction]],
    names: Optional[dict] = None,
) -> CountertermReport:
    """Group the renormalized expansion of an uncolored tree into
    counterterm monomials: (constant product, exact coefficient, residual).

    Counterterm constants attach per extracted iso class: the BPHZ
    character l = E Pi A_- of the piece, with E Pi (`_bare_constant_key`)
    applied to each residual inside A_-'s recursion.  A class whose
    constant is the bare expectation appears as C[.], one with genuine
    nested corrections as C'[.]; a monomial with a vanishing constant is
    left out.
    Delta_- and A_- both extract from `candidates`, the tree's effective
    divergent subtrees (`TreeAnalysis.divergences`).  The constant of any
    other divergent subtree vanishes (every admissible partition of its
    noises is pendant-reducible), and so does every term of A_- that
    extracts one, which the symbols alone cannot tell.
    The terms of Delta_- are walked unsummed (`_delta_minus_terms`): the
    report is linear in them.  Each is grouped by the AHU code of its
    contracted remainder and the codes of its pieces, and only the term
    that opens a group builds its contracted remainder again in the
    canonical labelling, as the group's residual.
    """
    anti_minus = _AntipodeMinus(table, candidates, lambda p: _bare_constant_key(p, table, cum))
    groups: dict[tuple, dict] = {}
    for extracted, remainder, coeff in _delta_minus_terms(t, table, candidates):
        if not extracted:
            continue
        contracted = remainder.contract_colored(table)
        codes = [p.canonical_code() for p in extracted]
        key = (contracted.canonical_code(), tuple(sorted(codes)))
        g = groups.get(key)
        if g is None:
            # a graft of one tree is that tree in its canonical labelling
            residual = tree_product(contracted)
            g = groups[key] = {"residual": residual, "pieces": list(zip(codes, extracted)), "coeff": 0}
        g["coeff"] += coeff
    monomials = []
    for key, g in sorted(groups.items(), key=lambda kv: repr(kv[0])):
        pieces = g["pieces"]
        names_out = []
        dead = False
        for code, p in pieces:
            expansion = anti_minus.tree(p)
            if expansion.is_zero():
                dead = True
                break
            is_bare = len(expansion) == 1 and expansion.coeff(((code,),)) == -1
            names_out.append(_label_for(code, names, renormalized=not is_bare))
        if dead:
            continue
        sign = (-1) ** len(pieces)
        monomials.append(
            CountertermMonomial(
                coefficient=exact(g["coeff"] * sign),
                constants=tuple(sorted(names_out)),
                residual=g["residual"],
            )
        )
    monomials.sort(key=lambda m: (len(m.constants), m.constants, repr(m.residual.canonical_code())))
    return CountertermReport(monomials=tuple(monomials))


def _label_for(code: tuple, names: Optional[dict], renormalized: bool) -> str:
    if names and code in names:
        base = names[code]
    else:
        # a digest rather than hash(), which varies with PYTHONHASHSEED
        digest = hashlib.sha256(repr(code).encode()).hexdigest()
        base = f"{int(digest, 16) % 10**8:08d}"
    return ("C'" if renormalized else "C") + f"[{base}]"
