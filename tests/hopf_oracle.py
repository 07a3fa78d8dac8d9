"""The slow paths that `hopf` replaced, kept as test oracles: extractions
built from every connected edge set of the tree rather than from the listed
divergent subtrees, the negative antipode of a forest as a fold of slotwise
tensor products and key maps, the product of formal sums that the negative
antipode summed each forest into, the negative antipode listing the divergent
subtrees of every piece it visits, the counterterm constants by their own
recursion with a vanishing filter and the counterterm report built on them,
the recentering bounds found by building a
probe tree and restricting it to each dangling up-tree, the recentering
subtrees of Delta_+ and the positive antipode picked by their own filters
(A_2 by the color-1 components, then the color-2 part, the foot edges and
positivity, each by its own scan), and Delta_+ and the
positive antipode each with its own recentering loop, and the three-slot
expansion whose negative antipode of the expanded tree goes through its own
recursion.  The summed Delta_- built from the extractions directly, the
report grouped over it with each row's residual relabelled, the negative
antipode whose product terms chain their keys and take a `math.prod`, and
the recentered coloring whose color-2 part is the union of S with the
piece's are kept too, so no oracle here calls the `hopf` code they
replaced.  The decorations of an
extraction come from their own budget recursion, and the loops' bounds on
the boundary decorations from their own copy of the up-tree table."""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

from conftest import MAX_DIV
from forest_oracle import dangling_trees, up_tree
from renormforest.forests import div_enumerate, irreducible_partition_exists
from renormforest.formal import Coefficient, FormalSum, exact, exact_div
from renormforest.hopf import (
    CountertermMonomial,
    CountertermReport,
    _bare_constant_key,
    _chi,
    _edge_choices,
    _extractions,
    _label_for,
    _node_choices,
    _remainder,
    _shifted,
    in_X_minus,
)
from renormforest.powercount import TreeAnalysis
from renormforest.rules import CumulantSet
from renormforest.scaling import (
    ExtLabel,
    MultiIndex,
    TypeTable,
    ZERO_MI,
    binom_mi,
    multiindices_below,
    submultiindices,
)
from renormforest.trees import DecoratedTree, EdgeKey, SubForest, _boundary, up_hom_table, zero_node_hom
from tree_oracle import relabel_canonical


def _product(factors: Sequence[FormalSum], key: Callable[[list], Hashable]) -> FormalSum:
    """The product of formal sums, as `hopf._AntipodeMinus.forest` took it
    before it consumed the product terms unsummed: each output term takes
    one term from every factor, its key is `key` of their keys and its
    coefficient the product of theirs."""
    return FormalSum(
        (key([k for k, _ in chosen]), math.prod(c for _, c in chosen))
        for chosen in itertools.product(*(f.items() for f in factors))
    )


def tensor(a: FormalSum, b: FormalSum) -> FormalSum:
    """Concatenate tuple keys slotwise."""
    return FormalSum(
        (tuple(k1) + tuple(k2), v1 * v2) for k1, v1 in a.items() for k2, v2 in b.items()
    )


def map_keys(s: FormalSum, fn: Callable[[Hashable], Hashable]) -> FormalSum:
    return FormalSum((fn(k), v) for k, v in s.items())


def sorted_pieces(pieces: Iterable[DecoratedTree]) -> tuple:
    return tuple(sorted(pieces, key=lambda p: p.embedded_key()))


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


def extraction_decorations(
    t: DecoratedTree,
    table: TypeTable,
    comp: SubForest,
    omega: Fraction,
    boundary: Sequence[EdgeKey],
) -> Iterator[tuple[dict[int, MultiIndex], dict[EdgeKey, MultiIndex], Coefficient]]:
    """`hopf._extraction_decorations` as it was before it took the product
    of the node and edge choices: a recursion over the slots, node slots
    first, that spends the budget `omega` as it goes.  Yields (n_G, e_G,
    combinatorial coefficient)."""
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


def strictly_inside(
    listed: Sequence[tuple[SubForest, Fraction]], piece: DecoratedTree
) -> list[tuple[SubForest, Fraction]]:
    """The entries of `listed` whose edges lie strictly inside the piece:
    what the negative antipode's recursion extracts from it."""
    return [(c, w) for c, w in listed if c.edges < piece.edge_set]


def up_headroom(
    boundary: Iterable[EdgeKey], up: dict[EdgeKey, Fraction]
) -> Optional[dict[EdgeKey, Fraction]]:
    """The up-tree entry of each boundary edge, or None when one is not
    positive (some dangling tree already fails at zero decoration)."""
    out: dict[EdgeKey, Fraction] = {}
    for e in boundary:
        if up[e] <= 0:
            return None
        out[e] = up[e]
    return out


def extraction_options(
    t: DecoratedTree,
    table: TypeTable,
    proper: bool = False,
    vanishing: Optional[CumulantSet] = None,
) -> dict[SubForest, list[tuple[dict, dict, Fraction, DecoratedTree]]]:
    """The pieces `hopf._extractions` may extract, found without
    `div_enumerate`: every connected edge set of the tree, kept when its
    omega (the budget for e_G) is positive, when it is not the whole tree
    under `proper` and when its constant does not vanish under `vanishing`;
    each kept piece with its decoration options (n_G, e_G, coefficient,
    extracted piece)."""
    full_edges = frozenset(e for e, _ in t.edge_items)
    options: dict[SubForest, list] = {}
    for edges in connected_edge_sets(t):
        c = SubForest(frozenset(itertools.chain.from_iterable(edges)), edges)
        budget = -zero_node_hom(t, c, table)
        if budget <= 0 or (proper and edges == full_edges):
            continue
        if vanishing is not None and not irreducible_partition_exists(t, c, vanishing):
            continue
        boundary = _boundary(t.kernel_edges(table), c)
        bare = t.restrict(c)
        options[c] = []
        for nd, ed, cf in extraction_decorations(t, table, c, budget, boundary):
            labels = dict(nd)
            for u, k in _chi(ed).items():
                labels[u] = labels.get(u, ZERO_MI) + k
            options[c].append((nd, ed, cf, bare.with_(node_dec=labels)))
    return options


def union(comps: Sequence[SubForest]) -> SubForest:
    return SubForest(
        frozenset().union(*(c.nodes for c in comps)),
        frozenset().union(*(c.edges for c in comps)),
    )


def delta_minus(
    t: DecoratedTree,
    table: TypeTable,
    candidates: Sequence[tuple[SubForest, Fraction]],
) -> FormalSum:
    """`hopf.delta_minus` as it was before the expansion and the report
    walked its terms unsummed: the sum built from `hopf._extractions`
    directly, each forest's pieces sorted by `DecoratedTree.__lt__`."""
    if t.has_coloring():
        raise ValueError("the negative coaction acts on uncolored trees")
    return FormalSum(
        ((tuple(sorted(pieces)), _remainder(t, [p.restricted_to for p in pieces], nd, ed, o_label=True)), coeff)
        for coeff, pieces, nd, ed in _extractions(t, table, candidates)
    )


def plus_colored(piece: DecoratedTree, s: SubForest) -> tuple[list[SubForest], SubForest]:
    """`hopf._plus_colored` as it was before it took S itself as the
    color-2 part: the color-1 components outside S, in their order, and the
    union of S with the piece's color-2 part."""
    kept = [c for c in piece.hat1_components() if not c.nodes <= s.nodes]
    return kept, SubForest(s.nodes | piece.hat2.nodes, s.edges | piece.hat2.edges)


def extractions(
    t: DecoratedTree,
    table: TypeTable,
    proper: bool = False,
    vanishing: Optional[CumulantSet] = None,
) -> Iterator[tuple[SubForest, Fraction, list[DecoratedTree], dict, dict]]:
    """`hopf._extractions` without `div_enumerate`: each family of pairwise
    node-disjoint pieces of `extraction_options` is extracted with every
    choice of their decorations."""
    options = extraction_options(t, table, proper, vanishing)
    for comps in node_disjoint_families(list(options)):
        sub = union(comps)
        for chosen in itertools.product(*(options[c] for c in comps)):
            coeff = Fraction(1)
            ndec_all: dict[int, MultiIndex] = {}
            edec_all: dict[EdgeKey, MultiIndex] = {}
            for nd, ed, cf, _ in chosen:
                coeff *= cf
                ndec_all.update(nd)
                edec_all.update(ed)
            yield sub, coeff, [piece for *_, piece in chosen], ndec_all, edec_all


def assert_extractions_match(
    t: DecoratedTree,
    table: TypeTable,
    proper: bool = False,
    vanishing: Optional[CumulantSet] = None,
) -> None:
    """The rows of `hopf._extractions` are those of the oracle's
    `extractions`, checked family by family without building the oracle's
    rows.  `_extractions` is given every divergent subtree, or with
    `vanishing` the effective ones of `TreeAnalysis.divergences`, against
    which the oracle filters its edge sets itself.

    Every row (G, coefficient, pieces, n_G, e_G) splits into one
    decoration option of the oracle per component of G: the pieces are the
    components of one oracle family, each component's labels in n_G (on its
    nodes) and e_G (on the edges leaving it) are an option's, no other label
    is set, and the coefficient and each piece are the options'.  The rows
    of a family split into distinct choices, and their number is the
    product of the sizes of the family's options.  So the families are
    equal, a one-piece family's rows are exactly its candidate's options,
    and every family's rows are the product of its candidates' options.  At
    most one row more than the oracle counts is read, so a surplus shows
    without enumerating a runaway product."""
    options = extraction_options(t, table, proper, vanishing)
    slots = {
        c: (sorted(c.nodes), sorted(_boundary(t.kernel_edges(table), c))) for c in options
    }

    def choice(c: SubForest, nd: dict, ed: dict) -> tuple:
        nodes, edges = slots[c]
        return tuple(map(nd.get, nodes)), tuple(map(ed.get, edges))

    # per candidate: its choice of labels -> (option index, coefficient,
    # piece, number of labels set)
    choices = {
        c: {
            choice(c, nd, ed): (i, exact(cf), piece, len(nd) + len(ed))
            for i, (nd, ed, cf, piece) in enumerate(opts)
        }
        for c, opts in options.items()
    }
    assert all(len(choices[c]) == len(opts) for c, opts in options.items())
    # per family G: its components by their top node
    families = {
        union(comps): {t.subtree_root(c): c for c in comps}
        for comps in node_disjoint_families(list(options))
    }
    sizes = {
        g: math.prod(len(options[c]) for c in comps.values()) for g, comps in families.items()
    }
    if vanishing is None:
        candidates = div_enumerate(t, table)
    else:
        candidates = TreeAnalysis(t, table, vanishing, MAX_DIV).divergences
    if proper:
        candidates = strictly_inside(candidates, t)
    rows = _extractions(t, table, candidates)
    seen: dict[SubForest, set] = {g: set() for g in families}
    for coeff, pieces, nd, ed in itertools.islice(rows, sum(sizes.values()) + 1):
        g = union([p.restricted_to for p in pieces])
        comps = families.get(g)
        assert comps is not None and sorted(p.root for p in pieces) == sorted(comps), g
        want = [choices[comps[p.root]].get(choice(comps[p.root], nd, ed)) for p in pieces]
        assert None not in want, (g, nd, ed)
        assert sum(n for *_, n in want) == len(nd) + len(ed)
        assert all(piece == p for (_, _, piece, _), p in zip(want, pieces))
        assert coeff == math.prod(cf for _, cf, *_ in want)
        split = tuple(i for i, *_ in want)
        assert split not in seen[g], (g, nd, ed)
        seen[g].add(split)
    assert {g: len(x) for g, x in seen.items()} == sizes


class AntipodeMinusFold:
    """The negative antipode over the edge-subset extractions, with a
    forest's value folded one piece at a time through `tensor` and
    `map_keys`."""

    def __init__(self, table: TypeTable):
        self.table = table
        self.memo: dict[DecoratedTree, FormalSum] = {}

    def forest(self, pieces: Sequence[DecoratedTree]) -> FormalSum:
        acc = FormalSum([(((),), 1)])
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


class AntipodeMinusPerPiece:
    """`hopf._AntipodeMinus` as it was before it read each piece's divergent
    subtrees off the ambient tree's list: `_extractions` lists them anew for
    every piece, with `div_enumerate`.  `memo` holds every piece the
    recursion visited."""

    def __init__(self, table: TypeTable):
        self.table = table
        self.memo: dict[DecoratedTree, FormalSum] = {}

    def forest(self, pieces: Sequence[DecoratedTree], extra: tuple = ()) -> FormalSum:
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
        listed = strictly_inside(div_enumerate(piece, self.table), piece)
        for coeff, pieces, nd, ed in _extractions(piece, self.table, listed):
            residual = _remainder(piece, union([p.restricted_to for p in pieces]), nd, ed, o_label=False)
            terms.extend((k, -coeff * c) for k, c in self.forest(pieces, (residual,)).items())
        result = FormalSum(terms)
        self.memo[piece] = result
        return result


class AntipodeMinusChained:
    """`hopf._AntipodeMinus` as it was before it built each product term in
    one loop: a term's keys are a chain of the chosen terms' keys, sorted,
    and its coefficient is `scale` times a `math.prod` of theirs."""

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
        if len(pieces) == 1:
            return self.tree(pieces[0])
        return FormalSum(self._terms(pieces, (), 1))

    def _terms(
        self, pieces: Sequence[DecoratedTree], extra: tuple, scale: Coefficient
    ) -> Iterator[tuple[tuple, Coefficient]]:
        for chosen in itertools.product(*(self.tree(p).items() for p in pieces)):
            keys = itertools.chain(extra, *(k for (k,), _ in chosen))
            yield (tuple(sorted(keys)),), scale * math.prod(c for _, c in chosen)

    def tree(self, piece: DecoratedTree) -> FormalSum:
        if piece in self.memo:
            return self.memo[piece]
        if not in_X_minus(piece, self.table):
            raise ValueError("negative antipode applied outside X_-")
        inside = strictly_inside(self.listed, piece)
        terms = []
        for coeff, pieces, nd, ed in _extractions(piece, self.table, inside):
            symbol = self.symbol(_remainder(piece, [p.restricted_to for p in pieces], nd, ed, o_label=False))
            if symbol is not None:
                terms.extend(self._terms(pieces, (symbol,), -coeff))
        result = FormalSum(terms)
        self.memo[piece] = result
        return result


class RenormalizedConstant:
    """`hopf._RenormalizedConstant` as it was before the counterterm report
    computed each constant as E Pi A_- through `hopf._AntipodeMinus`: its
    own recursion, which lists the divergent subtrees of every piece anew
    and zeroes a piece whose constant vanishes, memoized per canonical code.
    Its sums are keyed by the sorted codes of the symbols, as those of the
    report's `hopf._AntipodeMinus` are once their 1-tuples are unwrapped.

    Evaluation of the expectation of the negative antipode of a divergent
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
            code = piece.canonical_code()
        if code in self.memo:
            return self.memo[code]
        terms = []
        if irreducible_partition_exists(piece, SubForest(piece.nodes, piece.edge_set), self.cum):
            listed = strictly_inside(div_enumerate(piece, self.table), piece)
            for coeff, pieces, nd, ed in _extractions(piece, self.table, listed):
                factors = [self.of(p) for p in pieces]
                if any(f.is_zero() for f in factors):
                    continue
                residual = _remainder(piece, union([p.restricted_to for p in pieces]), nd, ed, o_label=False)
                ckey = _bare_constant_key(residual, self.table, self.cum)
                if ckey is None:
                    continue
                product = _product(factors, lambda keys: tuple(sorted(itertools.chain((ckey,), *keys))))
                terms.extend((k, -coeff * c) for k, c in product.items())
        res = FormalSum(terms)
        self.memo[code] = res
        return res


def grouped_report(
    t: DecoratedTree,
    table: TypeTable,
    candidates: Sequence[tuple[SubForest, Fraction]],
    constant: Callable[[DecoratedTree, tuple], FormalSum],
) -> CountertermReport:
    """The report's grouping as `hopf.counterterm_report` made it before it
    walked the terms of Delta_- unsummed: the rows of the summed
    `delta_minus`, each row's contracted remainder relabelled canonically.
    `constant(piece, code)` is a piece's constant, keyed by the sorted codes
    of its symbols."""
    groups: dict[tuple, dict] = {}
    dm = delta_minus(t, table, candidates=candidates)
    for (extracted, remainder), coeff in dm.items():
        if not extracted:
            continue
        residual = relabel_canonical(remainder.contract_colored(table))
        codes = [p.canonical_code() for p in extracted]
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
            expansion = constant(p, code)
            if expansion.is_zero():
                dead = True
                break
            is_bare = len(expansion) == 1 and expansion.coeff((code,)) == -1
            names_out.append(_label_for(code, None, renormalized=not is_bare))
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


def counterterm_report(
    t: DecoratedTree,
    table: TypeTable,
    cum: CumulantSet,
    candidates: Sequence[tuple[SubForest, Fraction]],
) -> CountertermReport:
    """`hopf.counterterm_report` as it was before it computed each constant
    as E Pi A_-: the constants come from `RenormalizedConstant`."""
    return grouped_report(t, table, candidates, RenormalizedConstant(table, cum).of)


def counterterm_report_per_row(
    t: DecoratedTree,
    table: TypeTable,
    cum: CumulantSet,
    candidates: Sequence[tuple[SubForest, Fraction]],
) -> CountertermReport:
    """`hopf.counterterm_report` as it was before it walked the terms of
    Delta_- unsummed (`grouped_report`), each constant E Pi A_- through
    `AntipodeMinusChained`."""
    anti_minus = AntipodeMinusChained(table, candidates, lambda p: _bare_constant_key(p, table, cum))
    return grouped_report(t, table, candidates, lambda p, code: map_keys(anti_minus.tree(p), lambda k: k[0]))


# -- recentering bounds by probe trees ----------------------------------------------


def plus_homogeneity(piece: DecoratedTree, table: TypeTable) -> Fraction:
    """|.|_+ of a tree: its edges and the node labels n and o of its true
    nodes, leaving out the color-2 edges and nodes."""
    total = Fraction(0)
    for e, t in piece.edge_items:
        if piece.color_of_edge(e) != 2:
            total += table.hom(t) - Fraction(piece.edge_dec(e).sdeg(table.scaling))
    for u in piece.true_nodes(table):
        if piece.color_of_node(u) != 2:
            total += Fraction(piece.node_dec(u).sdeg(table.scaling))
            total += table.hom_ext(piece.o_label(u))
    return total


def recentered_plus_hom(piece: DecoratedTree, sf: SubForest, table: TypeTable) -> Fraction:
    """|.|_+ of the restriction to `sf`, its root's node label dropped
    unless the root has color 2."""
    sub = piece.restrict(sf)
    total = plus_homogeneity(sub, table)
    if sub.color_of_node(sub.root) != 2:
        total -= Fraction(sub.node_dec(sub.root).sdeg(table.scaling))
    return total


def recentered_up_hom(t: DecoratedTree, e: EdgeKey, table: TypeTable) -> Fraction:
    """|P~(T_>=(e), 0)^n_e|_+ : homogeneity of the up-tree with the root's
    node label suppressed."""
    sf = up_tree(t, e)
    piece = t.restrict(sf)
    total = plus_homogeneity(piece, table)
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
    for e in _boundary(piece.kernel_edges(table), s):
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
    kept, hat2 = plus_colored(piece, s)
    hat1 = union(kept)
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


# -- the recentering subtrees by their own filters -----------------------------------


def admissible_rooted(
    piece: DecoratedTree, table: TypeTable
) -> list[tuple[SubForest, tuple[EdgeKey, ...]]]:
    """A_2 as `hopf` filtered it before one boundary test picked the
    recentering subtrees: the rooted subtrees S, with their boundaries, such
    that every color-1 component is contained in S or disjoint from it."""
    comps = piece.hat1_components()
    return [
        (s, boundary)
        for s, boundary in piece.rooted_subtrees(table)
        if all(not c.nodes & s.nodes or (c.nodes <= s.nodes and c.edges <= s.edges) for c in comps)
    ]


def positive(
    up: dict[EdgeKey, Fraction], subtrees: Iterable[tuple[SubForest, tuple[EdgeKey, ...]]]
) -> list[tuple[SubForest, tuple[EdgeKey, ...]]]:
    """The entries of `subtrees` whose boundary holds no edge of
    non-positive entry in the up-tree table `up`: the scan that the
    recentering loop made over each subtree it was handed."""
    nonpositive = {e for e, h in up.items() if h <= 0}
    return [(s, boundary) for s, boundary in subtrees if nonpositive.isdisjoint(boundary)]


def delta_plus_subtrees(piece: DecoratedTree, table: TypeTable) -> list:
    """Delta_+'s recentering subtrees: the admissible ones, then the
    positive ones."""
    return positive(up_hom_table(piece, table), admissible_rooted(piece, table))


def antipode_plus_subtrees(piece: DecoratedTree, table: TypeTable, f_slots: Sequence[EdgeKey]) -> list:
    """The positive antipode's recentering subtrees: the admissible ones
    that hold the color-2 part, differ from it and hold every foot edge in
    `f_slots`, then the positive ones."""
    out = []
    for s, boundary in admissible_rooted(piece, table):
        if not (piece.hat2.nodes <= s.nodes and piece.hat2.edges <= s.edges):
            continue
        if s.edges == piece.hat2.edges:
            continue
        if all(e in s.edges for e in f_slots):
            out.append((s, boundary))
    return positive(up_hom_table(piece, table), out)


def abar2(piece: DecoratedTree, table: TypeTable) -> list[SubForest]:
    """The positive antipode's recentered subtrees, meeting each dangling
    tree in some edge."""
    danglers = dangling_trees(piece, piece.hat2, table)
    return [
        s
        for s, _ in admissible_rooted(piece, table)
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
    anti_plus = AntipodePlusLoop(table)
    for _, remainder in delta_minus(t, table, div_enumerate(t, table)).keys():
        for s, _ in admissible_rooted(remainder, table):
            yield remainder, s
        for _, rec_piece in delta_plus_loop(remainder, table).keys():
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
    for s, _ in admissible_rooted(piece, table):
        boundary = _boundary(piece.kernel_edges(table), s)
        headroom = up_headroom(boundary, up)
        if headroom is None:
            continue
        kept, hat2 = plus_colored(piece, s)
        hat1 = union(kept)
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
        fict = piece.fictitious_nodes(t)
        nhat = {u: k for u, k in piece.node_dec_items if u in piece.hat2.nodes and u not in fict}
        deg_nhat = sum(k.degree() for k in nhat.values())
        full_edges = frozenset(e for e, _ in piece.edge_items)
        if not (full_edges - piece.hat2.edges):
            # the sign (-1)^|n^| counts the color-2 labels of true nodes only
            res = FormalSum([(((piece.with_(o_label={}),),), (-1) ** deg_nhat)])
            self.memo[piece] = res
            return res
        f_slots = sorted(_boundary(piece.kernel_edges(t), piece.hat2))
        f_headroom = up_headroom(f_slots, up)
        outer_sign = (-1) ** len(f_slots)
        f_choices = [
            (ed_f, _chi(ed_f), coeff_f) for ed_f, coeff_f in _edge_choices(f_slots, f_headroom, t)
        ]
        terms = []
        for s in abar2(piece, t):
            boundary_s = _boundary(piece.kernel_edges(t), s)
            headroom = up_headroom(boundary_s, up)
            if headroom is None:
                continue
            kept, hat2 = plus_colored(piece, s)
            hat1 = union(kept)
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


def bphz_expansion(t: DecoratedTree, table: TypeTable) -> FormalSum:
    """`hopf.bphz_expansion` as it was before it read A_-(T) of the expanded
    tree off its own Delta_-: every extracted forest, the tree itself
    included, goes through the negative antipode's recursion
    (`AntipodeMinusChained`), which extracts from the tree once more, over
    the summed `delta_minus`, with Delta_+ and the positive antipode each by
    its own recentering loop."""
    listed = div_enumerate(t, table)
    anti_minus = AntipodeMinusChained(table, listed, lambda p: p)
    anti_plus = AntipodePlusLoop(table)
    terms = []
    for (extracted, remainder), c1 in delta_minus(t, table, listed).items():
        left = anti_minus.forest(extracted)
        for (mid, rec_piece), c2 in delta_plus_loop(remainder, table).items():
            right = anti_plus.run(rec_piece)
            for (lkey,), cl in left.items():
                for (rkey,), cr in right.items():
                    terms.append(((lkey, mid, rkey), c1 * c2 * cl * cr))
    return FormalSum(terms)
