"""Extraction coactions, twisted antipodes, the three-slot renormalized
expansion, and grouped counterterm reports.

Terms live inside a fixed ambient tree: every slot entry is a
`DecoratedTree` whose node ids are ambient ids (so embedded i-trees compare
literally), possibly colored.  Formal sums carry exact coefficients: the
structure constants are integers (binomials and signs) up to the 1/k! of an
edge decoration k, so a coefficient is an `int` unless such a factorial
leaves a remainder, and then a `Fraction`.

Each enumeration is written once.  Delta_- and A_- extract forests of
pairwise disjoint candidate subtrees (`_extractions`); the candidates are a
list of divergent subtrees as `forests.div_enumerate` lists them, every one
by default, the effective ones where the caller passes them.  Each
candidate's decorations are enumerated once per tree, and A_- is one
product over a forest's pieces.  Delta_+ and A_+ recenter a piece around
rooted subtrees (`_recenterings`), which `DecoratedTree.rooted_edge_sets`
lists.  Recentering changes no label above the subtree, so the bound on
each boundary edge's decoration, and the X_+ test of each dangling tree,
read the piece's up-tree table (`trees.up_hom_table`), built once per piece.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

from .forests import div_enumerate, irreducible_partition_exists
from .formal import Coefficient, FormalSum, exact, exact_div
from .rules import CumulantSet
from .scaling import (
    ExtLabel,
    MultiIndex,
    TypeTable,
    ZERO_MI,
    binom_mi,
    multiindices_below,
    submultiindices,
)
from .trees import DecoratedTree, EdgeKey, SubForest, up_hom_table

PieceForest = tuple  # sorted tuple of DecoratedTree


def sorted_pieces(pieces: Iterable[DecoratedTree]) -> PieceForest:
    return tuple(sorted(pieces, key=lambda p: p.embedded_key()))


# -- membership ----------------------------------------------------------------


def in_X_minus(piece: DecoratedTree, table: TypeTable) -> bool:
    """Uncolored tree with a vanishing root label and |.|_- < 0."""
    if piece.has_coloring():
        return False
    return piece.node_dec(piece.root).is_zero() and piece.homogeneity(table, "minus") < 0


def in_X_plus(
    piece: DecoratedTree, table: TypeTable, up: Optional[dict[EdgeKey, Fraction]] = None
) -> bool:
    """Color-2 part nonempty and every dangling tree has positive
    root-recentered |.|_+ homogeneity, read from the piece's up-tree table
    `up` (built here when the caller has none)."""
    if not piece.hat2.nodes:
        return False
    if up is None:
        up = up_hom_table(piece, table)
    return all(up[e] > 0 for e in _boundary(piece, piece.hat2.nodes, piece.hat2.edges, table))


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
    lists it).  Yields (n_G, e_G, combinatorial coefficient)."""
    root = t.subtree_root(comp)
    fict = {c for (p, c) in comp.edges if table.is_noise(t.edge_type((p, c)))}
    node_slots = [u for u in sorted(comp.nodes - fict) if u != root and not t.node_dec(u).is_zero()]
    # boundary edges at the root force e_G = 0 there; they are skipped
    edge_slots = [e for e in sorted(boundary) if e[0] != root]

    def rec(slots: list, remaining: Fraction, ndec: dict, edec: dict, coeff: Coefficient):
        if not slots:
            yield dict(ndec), dict(edec), coeff
            return
        slot, rest = slots[0], slots[1:]
        if isinstance(slot, int):
            for k in submultiindices(t.node_dec(slot)):
                d = Fraction(k.sdeg(table.scaling))
                if d < remaining:
                    if not k.is_zero():
                        ndec[slot] = k
                    c = binom_mi(t.node_dec(slot), k)
                    yield from rec(rest, remaining - d, ndec, edec, coeff * c)
                    ndec.pop(slot, None)
        else:
            for k in multiindices_below(table.scaling, remaining):
                if not k.is_zero():
                    edec[slot] = k
                yield from rec(
                    rest,
                    remaining - Fraction(k.sdeg(table.scaling)),
                    ndec,
                    edec,
                    exact_div(coeff, k.factorial()),
                )
                edec.pop(slot, None)

    yield from rec(node_slots + edge_slots, omega, {}, {}, 1)


def _boundary(t: DecoratedTree, nodes: frozenset[int], edges: frozenset[EdgeKey], table: TypeTable) -> list[EdgeKey]:
    """d(G,T): kernel edges outside G whose parent lies in G (edge
    decorations live on the kernel edges only)."""
    return [e for e in t.kernel_edges(table) if e not in edges and e[0] in nodes]


def _extractions(
    t: DecoratedTree,
    table: TypeTable,
    proper: bool = False,
    candidates: Optional[Sequence[tuple[SubForest, Fraction]]] = None,
) -> Iterator[tuple[SubForest, Coefficient, list[DecoratedTree], dict, dict]]:
    """Every extraction of a forest of pairwise node-disjoint candidates
    from an uncolored tree, with every choice of decorations n_G, e_G.

    The candidates are (subtree, omega) pairs in `div_enumerate`'s order:
    by default every connected subtree with omega > 0, under
    `div_enumerate`'s default cap.  A caller that extracts only the subtrees
    whose renormalization constant does not vanish identically, or that
    lists them under its own cap, passes its list.  With `proper`, the whole
    tree is no candidate (the antipode's recursion).  Each candidate's
    decorations are enumerated once, and its extracted pieces are built once.

    Yields (G, coefficient, extracted pieces in candidate order, n_G, e_G);
    the empty forest comes first, with no pieces.
    """
    full_edges = frozenset(e for e, _ in t.edge_items)
    options = []
    if candidates is None:
        candidates = div_enumerate(t, table, effective=False)
    for c, omega in candidates:
        if proper and c.edges == full_edges:
            continue
        plain = t.restrict(c)
        boundary = _boundary(t, c.nodes, c.edges, table)
        decorated = [
            (plain.with_(node_dec=_shifted(nd, plus=_chi(ed).items())), nd, ed, coeff)
            for nd, ed, coeff in _extraction_decorations(t, table, c, omega, boundary)
        ]
        options.append((c, decorated))

    def families(start: int, g: SubForest, coeff: Coefficient, pieces: list, nd: dict, ed: dict):
        yield g, coeff, pieces, nd, ed
        for i in range(start, len(options)):
            c, decorated = options[i]
            if c.nodes & g.nodes:
                continue
            grown = SubForest(g.nodes | c.nodes, g.edges | c.edges)
            for piece, nd_c, ed_c, coeff_c in decorated:
                yield from families(
                    i + 1, grown, coeff * coeff_c, pieces + [piece], {**nd, **nd_c}, {**ed, **ed_c}
                )

    yield from families(0, SubForest.empty(), 1, [], {}, {})


def _remainder(
    t: DecoratedTree,
    extracted: SubForest,
    ndec_g: dict[int, MultiIndex],
    edec_g: dict[EdgeKey, MultiIndex],
    o_label: bool,
) -> DecoratedTree:
    """What an extraction leaves: n_G subtracted from the node labels, e_G
    added to the edge labels, the extracted subforest colored 1.  With
    `o_label`, o records n_G + chi(e_G) on the extracted nodes (the
    coaction); the antipode's recursion carries no o-label."""
    olabel = {}
    if o_label:
        olabel = {
            u: ExtLabel.from_multiindex(k)
            for u, k in _shifted(ndec_g, plus=_chi(edec_g).items()).items()
        }
    return t.with_(
        node_dec=_shifted(t.node_dec_items, minus=ndec_g.items()),
        edge_dec=_shifted(t.edge_dec_items, plus=edec_g.items()),
        hat1=extracted,
        o_label=olabel,
    )


def delta_minus(
    t: DecoratedTree,
    table: TypeTable,
    candidates: Optional[Sequence[tuple[SubForest, Fraction]]] = None,
) -> FormalSum:
    """The extraction coaction on an uncolored tree: a sum of
    (extracted forest, colored remainder) pairs.

    Every forest of candidates is extracted with every decoration that keeps
    its components in X_-.  The candidates are every divergent subtree by
    default, or the caller's list of them (see `_extractions`).
    """
    if t.has_coloring():
        raise ValueError("the negative coaction acts on uncolored trees")
    return FormalSum(
        ((sorted_pieces(pieces), _remainder(t, sub, nd, ed, o_label=True)), coeff)
        for sub, coeff, pieces, nd, ed in _extractions(t, table, candidates=candidates)
    )


# -- negative twisted antipode ----------------------------------------------------


def _product(factors: Sequence[FormalSum], key: Callable[[list], Hashable]) -> FormalSum:
    """The product of formal sums: each output term takes one term from
    every factor, its key is `key` of their keys and its coefficient the
    product of theirs."""
    return FormalSum(
        (key([k for k, _ in chosen]), math.prod(c for _, c in chosen))
        for chosen in itertools.product(*(f.items() for f in factors))
    )


class _AntipodeMinus:
    """A_- on forests of X_- trees, memoized per tree: colored forests."""

    def __init__(self, table: TypeTable):
        self.table = table
        self.memo: dict[DecoratedTree, FormalSum] = {}

    def forest(self, pieces: Sequence[DecoratedTree], extra: tuple = ()) -> FormalSum:
        """A_- on a forest, one product over its pieces (A_- is
        multiplicative); the trees in `extra` join every output forest."""
        return _product(
            [self.tree(p) for p in pieces],
            lambda keys: (sorted_pieces(itertools.chain(extra, *(k for (k,) in keys))),),
        )

    def tree(self, piece: DecoratedTree) -> FormalSum:
        if piece in self.memo:
            return self.memo[piece]
        if not in_X_minus(piece, self.table):
            raise ValueError("negative antipode applied outside X_-")
        terms = []
        for sub, coeff, pieces, nd, ed in _extractions(piece, self.table, proper=True):
            residual = _remainder(piece, sub, nd, ed, o_label=False)
            terms.extend((k, -coeff * c) for k, c in self.forest(pieces, (residual,)).items())
        result = FormalSum(terms)
        self.memo[piece] = result
        return result


# -- positive coaction and antipode ------------------------------------------------


def _admissible_rooted(piece: DecoratedTree, table: TypeTable) -> Iterator[SubForest]:
    """A_2: subtrees S containing the root, the trivial one included, such
    that every color-1 component is contained in S or disjoint from it.  S
    is determined by its kernel edges: the noise edges ride along with their
    parent nodes (a noise is an attribute of its node, so recentering can
    never strand one)."""
    comps = piece.subforest_components(piece.hat1)
    noises = piece.noise_edges(table)
    for acc in piece.rooted_edge_sets(piece.root, frozenset(piece.kernel_edges(table))):
        nodes = {piece.root, *itertools.chain.from_iterable(acc)}
        edges = acc.union(e for e in noises if e[0] in nodes)
        nodes = frozenset(nodes.union(c for _, c in edges))
        if all(not c.nodes & nodes or (c.nodes <= nodes and c.edges <= edges) for c in comps):
            yield SubForest(nodes, edges)


def _plus_colored(piece: DecoratedTree, s: SubForest) -> tuple[SubForest, SubForest]:
    """New coloring [hat1 \\ S]_1 + [S]_2 after recentering around S."""
    keep_nodes: set[int] = set()
    keep_edges: set[EdgeKey] = set()
    for c in piece.subforest_components(piece.hat1):
        if not (c.nodes <= s.nodes):
            keep_nodes |= c.nodes
            keep_edges |= c.edges
    return (
        SubForest(frozenset(keep_nodes), frozenset(keep_edges)),
        SubForest(s.nodes | piece.hat2.nodes, s.edges | piece.hat2.edges),
    )


def _dangle_headroom(
    boundary: Iterable[EdgeKey], up: dict[EdgeKey, Fraction]
) -> Optional[dict[EdgeKey, Fraction]]:
    """For each boundary edge e of a recentered subtree, the strict upper
    bound on the extra s-degree its decoration may carry while the dangling
    tree T_>=(e) keeps positive recentered homogeneity: `up[e]` from the
    piece's up-tree table, since recentering changes no label above the
    subtree.  None when some dangling tree already fails at zero
    decoration."""
    out: dict[EdgeKey, Fraction] = {}
    for e in boundary:
        if up[e] <= 0:
            return None
        out[e] = up[e]
    return out


def _choices(slots: list, options: Callable[[Hashable], list]) -> Iterator[tuple[dict, Coefficient]]:
    """Every labelling of `slots` by one (label, coefficient) pair of
    `options(slot)` per slot: (the nonzero labels, product of the
    coefficients), the first slot varying slowest."""
    for chosen in itertools.product(*(options(x) for x in slots)):
        labels = {x: k for x, (k, _) in zip(slots, chosen) if not k.is_zero()}
        yield labels, math.prod(c for _, c in chosen)


def _node_choices(piece: DecoratedTree, slots: list[int]) -> Iterator[tuple[dict, int]]:
    """Every split of the node labels on `slots` between the recentered
    piece and the remainder: (the piece's labels, binomial coefficient)."""
    n = piece.node_dec
    return _choices(slots, lambda u: [(k, binom_mi(n(u), k)) for k in submultiindices(n(u))])


def _edge_choices(
    slots: list[EdgeKey], headroom: dict[EdgeKey, Fraction], table: TypeTable
) -> Iterator[tuple[dict, Coefficient]]:
    """Every edge labelling of `slots` whose s-degree stays strictly below
    each edge's headroom: (labels, 1 / product of the factorials)."""
    return _choices(
        slots,
        lambda e: [(k, exact_div(1, k.factorial())) for k in multiindices_below(table.scaling, headroom[e])],
    )


def _color2_labels(piece: DecoratedTree, table: TypeTable) -> dict[int, MultiIndex]:
    """n^: the node labels of the color-2 part, on its true nodes."""
    fict = piece.fictitious_nodes(table)
    return {u: k for u, k in piece.node_dec_items if u in piece.hat2.nodes and u not in fict}


def _recenterings(
    piece: DecoratedTree,
    table: TypeTable,
    up: dict[EdgeKey, Fraction],
    subtrees: Iterable[SubForest],
) -> Iterator[tuple[DecoratedTree, Coefficient, DecoratedTree]]:
    """The piece recentered around each S of `subtrees` (rooted, holding the
    color-2 part), with every split of the node labels and every labelling
    e_S of S's boundary edges that keeps the dangling trees positive (read
    from the up-tree table `up`).  Yields (left piece, coefficient,
    remainder): the left piece is S with the node labels n_S + chi(e_S),
    where n_S takes part of each uncolored label in S and all of the color-2
    labels n^, which the remainder gives up."""
    fict = piece.fictitious_nodes(table)
    nhat = _color2_labels(piece, table)
    for s in subtrees:
        boundary = _boundary(piece, s.nodes, s.edges, table)
        headroom = _dangle_headroom(boundary, up)
        if headroom is None:
            continue
        hat1, hat2 = _plus_colored(piece, s)
        olabel = {u: v for u, v in piece.o_label_items if u in hat1.nodes}
        plain = piece.restrict(s)
        node_slots = [
            u for u in sorted(s.nodes - fict - piece.hat2.nodes) if not piece.node_dec(u).is_zero()
        ]
        for nd, coeff_n in _node_choices(piece, node_slots):
            n_s = {**nd, **nhat}
            rem_ndec = _shifted(piece.node_dec_items, minus=n_s.items())
            for ed, coeff_e in _edge_choices(boundary, headroom, table):
                remainder = piece.with_(
                    node_dec=rem_ndec,
                    edge_dec=_shifted(piece.edge_dec_items, plus=ed.items()),
                    hat1=hat1,
                    hat2=hat2,
                    o_label=olabel,
                )
                left = plain.with_(node_dec=_shifted(n_s, plus=_chi(ed).items()))
                yield left, coeff_n * coeff_e, remainder


def delta_plus(piece: DecoratedTree, table: TypeTable) -> FormalSum:
    """The recentering coaction on a tree of color <= 1: a sum of
    (rooted piece, recentered remainder) pairs, the remainder filtered to
    X_+."""
    if piece.hat2.nodes:
        raise ValueError("the positive coaction acts on trees of color <= 1")
    return FormalSum(
        ((left, remainder), coeff)
        for left, coeff, remainder in _recenterings(
            piece, table, up_hom_table(piece, table), _admissible_rooted(piece, table)
        )
    )


class _AntipodePlus:
    """A_+ on trees of X_+, memoized per tree: forests."""

    def __init__(self, table: TypeTable):
        self.table = table
        self.memo: dict[DecoratedTree, FormalSum] = {}

    def run(self, piece: DecoratedTree) -> FormalSum:
        if piece in self.memo:
            return self.memo[piece]
        t = self.table
        up = up_hom_table(piece, t)
        if not in_X_plus(piece, t, up):
            raise ValueError("positive antipode applied outside X_+")
        full_edges = frozenset(e for e, _ in piece.edge_items)
        if not (full_edges - piece.hat2.edges):
            sign = (-1) ** sum(k.degree() for _, k in piece.node_dec_items)
            res = FormalSum.single(((piece.with_(o_label={}),),), sign)
            self.memo[piece] = res
            return res
        # f decorations sit on the kernel edges leaving the color-2 part, at
        # the foot of its dangling trees, and must keep the *input* piece in
        # X_+; each such edge trunks its own dangling tree, so the bounds
        # decouple.
        f_slots = sorted(_boundary(piece, piece.hat2.nodes, piece.hat2.edges, t))
        f_headroom = _dangle_headroom(f_slots, up)
        outer_sign = (-1) ** len(f_slots)
        deg_nhat = sum(k.degree() for k in _color2_labels(piece, t).values())
        f_choices = [
            (ed_f, _chi(ed_f), coeff_f)
            for ed_f, coeff_f in _edge_choices(f_slots, f_headroom, t)
        ]
        terms = []
        for left_s, coeff_s, remainder in _recenterings(piece, t, up, self._abar2(piece, f_slots)):
            # within the headroom every dangling tree of S stays positive, so
            # the remainder lies in X_+
            right = self.run(remainder)
            for ed_f, chi_f, coeff_f in f_choices:
                inner_sign = (-1) ** (deg_nhat + sum(k.degree() for k in chi_f.values()))
                # S holds every f slot (see `_abar2`)
                left = left_s.with_(
                    node_dec=_shifted(left_s.node_dec_items, plus=chi_f.items()),
                    edge_dec=_shifted(left_s.edge_dec_items, plus=ed_f.items()),
                    o_label={},
                )
                coeff = outer_sign * inner_sign * coeff_s * coeff_f
                for (inner,), c in right.items():
                    terms.append(((sorted_pieces(inner + (left,)),), coeff * c))
        result = FormalSum(terms)
        self.memo[piece] = result
        return result

    def _abar2(self, piece: DecoratedTree, dangling: list[EdgeKey]) -> Iterator[SubForest]:
        """Admissible rooted subtrees that strictly grow the color-2 part
        and meet every dangling tree, that is, contain the edge at its foot
        (a rooted subtree holding any edge of T_>=(e) holds e)."""
        for s in _admissible_rooted(piece, self.table):
            if not (piece.hat2.nodes <= s.nodes and piece.hat2.edges <= s.edges):
                continue
            if s.edges == piece.hat2.edges:
                # the induction is on the number of uncolored edges, so the
                # recentered subtree must strictly grow the color-2 part
                continue
            if all(e in s.edges for e in dangling):
                yield s


# -- the full expansion and the report ---------------------------------------------


def bphz_expansion(
    t: DecoratedTree,
    table: TypeTable,
    candidates: Optional[Sequence[tuple[SubForest, Fraction]]] = None,
) -> FormalSum:
    """(A_- (x) id (x) A_+)(id (x) Delta_+) Delta_- applied to an uncolored
    tree: a three-slot formal sum (counterterm forest, observed piece,
    recentering forest).  `candidates` is the tree's list of divergent
    subtrees, effective or not, when the caller has it."""
    anti_minus = _AntipodeMinus(table)
    anti_plus = _AntipodePlus(table)
    terms = []
    for (extracted, remainder), c1 in delta_minus(t, table, candidates=candidates).items():
        left = anti_minus.forest(extracted)
        for (mid, rec_piece), c2 in delta_plus(remainder, table).items():
            right = anti_plus.run(rec_piece)
            c12 = c1 * c2
            for (lkey,), cl in left.items():
                c = c12 * cl
                for (rkey,), cr in right.items():
                    terms.append(((lkey, mid, rkey), c * cr))
    return FormalSum(terms)


def _bare_constant_key(piece: DecoratedTree, table: TypeTable, cum: CumulantSet):
    """Canonical key of the contracted expectation symbol; None when the
    symbol vanishes (noises admit no full partition into cumulant blocks)."""
    plain = piece.contract_colored(table).relabel_canonical()
    leaves = sorted(plain.leaf_nodes(table))
    types = [plain.leaf_type(u, table) for u in leaves]
    if not cum.admits_full_partition(types):
        return None
    return plain.canonical_code()


class _RenormalizedConstant:
    """Evaluation of the expectation of the negative antipode of a divergent
    tree, as a formal combination of opaque expectation symbols.

    Applies the vanishing filter recursively: an extracted class whose
    admissible partitions are all pendant-reducible contributes zero.
    """

    def __init__(self, table: TypeTable, cum: CumulantSet):
        self.table = table
        self.cum = cum
        self.memo: dict[tuple, FormalSum] = {}

    def of(self, piece: DecoratedTree, code: Optional[tuple] = None) -> FormalSum:
        """The expansion of one piece; `code` is its canonical code, when
        the caller already has it."""
        if code is None:
            code = piece.relabel_canonical().canonical_code()
        if code in self.memo:
            return self.memo[code]
        terms = []
        if irreducible_partition_exists(piece, piece.full_subforest(), self.cum):
            for sub, coeff, pieces, nd, ed in _extractions(piece, self.table, proper=True):
                factors = [self.of(p) for p in pieces]
                if any(f.is_zero() for f in factors):
                    continue
                residual = _remainder(piece, sub, nd, ed, o_label=False)
                ckey = _bare_constant_key(residual, self.table, self.cum)
                if ckey is None:
                    continue
                product = _product(factors, lambda keys: tuple(sorted(itertools.chain((ckey,), *keys))))
                terms.extend((k, -coeff * c) for k, c in product.items())
        res = FormalSum(terms)
        self.memo[code] = res
        return res


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
    names: Optional[dict] = None,
    candidates: Optional[Sequence[tuple[SubForest, Fraction]]] = None,
) -> CountertermReport:
    """Group the renormalized expansion of an uncolored tree into
    counterterm monomials: (constant product, exact coefficient, residual).

    Counterterm constants attach per extracted iso class; a class whose
    nested expansion is the bare expectation appears as C[.], one with
    genuine nested corrections as C'[.].
    The extractions run over the effective divergent subtrees:
    `candidates` when the caller has listed them, else `div_enumerate`'s
    list under its default cap.
    """
    rc = _RenormalizedConstant(table, cum)
    groups: dict[tuple, dict] = {}
    if candidates is None:
        candidates = div_enumerate(t, table, cum)
    dm = delta_minus(t, table, candidates=candidates)
    for (extracted, remainder), coeff in dm.items():
        if not extracted:
            continue
        residual = remainder.contract_colored(table).relabel_canonical()
        codes = [p.relabel_canonical().canonical_code() for p in extracted]
        key = (residual.canonical_code(), tuple(sorted(codes)))
        g = groups.setdefault(
            key, {"residual": residual, "pieces": list(zip(codes, extracted)), "coeff": 0}
        )
        g["coeff"] += coeff
    monomials = []
    for key, g in sorted(groups.items(), key=lambda kv: repr(kv[0])):
        pieces = g["pieces"]
        names_out = []
        dead = False
        for code, p in pieces:
            expansion = rc.of(p, code)
            if expansion.is_zero():
                dead = True
                break
            is_bare = len(expansion) == 1 and expansion.coeff((code,)) == -1
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
