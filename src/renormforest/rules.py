"""SPDE rules: tree-basis generation, subcriticality, the cumulant model and
the side conditions used by the convergence theorem (super-regularity and the
Gaussian-case bullet list).

Every closed form of the cumulant homogeneity, which puts all of -|t(B)|_s at
the root of the coalescence tree of each allowed block B of a `CumulantSet`,
lives here: the gain h (`gain`), the jump j (`jump`), the margin
min(|s|/2, h, j) (`margin`), the second-cumulant gain f(B) (`fict_gain`) and
the higher-cumulant condition (`higher_cum_check`)."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .scaling import MultiIndex, TypeTable, ZERO_MI, multiindices_below
from .trees import DecoratedTree, SubForest, graft, noise, poly, subtree_omegas

# An entry of a production: (type name, derivative decoration).
Entry = tuple[str, MultiIndex]
# A production: a sorted multiset of entries.
Production = tuple[Entry, ...]


def production(*entries: tuple[str, MultiIndex] | str) -> Production:
    norm = []
    for e in entries:
        if isinstance(e, str):
            norm.append((e, ZERO_MI))
        else:
            norm.append((e[0], e[1]))
    return tuple(sorted(norm, key=lambda p: (p[0], p[1].entries)))


class SubcriticalityError(RuntimeError):
    pass


@dataclass(frozen=True)
class RuleSpec:
    """Allowed node contents per kernel type, plus the standalone noises.

    A tree conforms when every true node's multiset of outgoing (type,
    derivative) pairs is an allowed production for the type of its incoming
    edge (for the root: for at least one kernel type); `generate_trees`
    builds exactly the conforming trees.
    """

    table: TypeTable
    productions: Mapping[str, frozenset[Production]]
    standalone_noises: tuple[str, ...] = ()

    def __post_init__(self):
        prods = {str(k): frozenset(v) for k, v in dict(self.productions).items()}
        object.__setattr__(self, "productions", prods)
        object.__setattr__(self, "standalone_noises", tuple(self.standalone_noises))
        for t in prods:
            if not self.table.is_kernel(t):
                raise ValueError(f"productions must be keyed by kernel types, got {t!r}")
        d = self.table.scaling.d
        for t, ps in prods.items():
            for p in sorted(ps, key=lambda q: [(name, k.entries) for name, k in q]):
                for name, k in p:
                    if not (self.table.is_kernel(name) or self.table.is_noise(name)):
                        raise ValueError(f"production references unknown type {name!r}")
                    if any(i >= d for i, _ in k.entries):
                        raise ValueError(
                            f"production of {t!r} derives {name!r} along a coordinate outside [0, {d})"
                        )
                if sum(1 for name, _ in p if self.table.is_noise(name)) > 1:
                    raise ValueError("a production may carry at most one noise entry")
        for t in self.standalone_noises:
            if not self.table.is_noise(t):
                raise ValueError(f"standalone noise {t!r} is not a noise type")


@dataclass(frozen=True)
class CumulantSet:
    """The set of joint cumulants allowed to be nonzero.

    `__post_init__` lists them once, as `blocks`: the allowed typed
    multisets, each a sorted tuple of type names, and `max_arity` is the
    largest block size.  In gaussian mode the blocks are every pair of noise
    types; explicit mode lists them in `explicit`.  Either list must
    satisfy: arity >= 2, closure under sub-multisets of size >= 2, all
    same-type pairs present, and for arity M >= 3 the homogeneity bound
    |t([M])|_s > (1-M)|s|.  Gaussian pairs meet every condition.  `mode`
    also selects the Gaussian subtree bullets of `subtree_hypotheses`.
    """

    table: TypeTable
    mode: str = "gaussian"
    explicit: frozenset[tuple[str, ...]] = frozenset()

    def __post_init__(self):
        if self.mode not in ("gaussian", "explicit"):
            raise ValueError("mode must be 'gaussian' or 'explicit'")
        explicit = frozenset(tuple(sorted(b)) for b in self.explicit)
        if self.mode == "gaussian" and explicit:
            raise ValueError("gaussian mode allows every pair and takes no blocks")
        noises = sorted(self.table.noise_types)
        blocks = (
            frozenset(itertools.combinations_with_replacement(noises, 2))
            if self.mode == "gaussian"
            else explicit
        )
        object.__setattr__(self, "explicit", explicit)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "max_arity", max(map(len, blocks), default=2))
        abs_s = self.table.scaling.abs_s
        for b in sorted(blocks):
            if len(b) < 2:
                raise ValueError("cumulant blocks must have arity >= 2")
            for t in b:
                if t not in noises:
                    raise ValueError(f"cumulant block uses non-noise type {t!r}")
            if len(b) >= 3:
                tot = sum(self.table.hom(t) for t in b)
                if not tot > (1 - len(b)) * abs_s:
                    raise ValueError(f"cumulant block {b} violates |t([M])|_s > (1-M)|s|")
        for b in sorted(blocks):
            for size in range(2, len(b)):
                for sub in sorted(set(itertools.combinations(b, size))):
                    if sub not in blocks:
                        raise ValueError(f"cumulant set not closed under subsets: missing {sub}")
        for t in noises:
            if (t, t) not in blocks:
                raise ValueError(f"same-type pair ({t},{t}) missing from cumulant set")

    def admits(self, block_types: Sequence[str]) -> bool:
        return tuple(sorted(block_types)) in self.blocks

    def partitions_of(self, types: Sequence[str]) -> Iterator[tuple[tuple[int, ...], ...]]:
        """Every partition of positions 0..n-1 into allowed blocks, made
        lazily.  Each block is led by its least position, and the blocks of
        a partition come in the order of their leaders."""

        def rec(remaining: tuple[int, ...], acc: tuple[tuple[int, ...], ...]):
            if not remaining:
                yield acc
                return
            first, rest = remaining[0], remaining[1:]
            for size in range(2, min(self.max_arity, len(remaining)) + 1):
                for others in itertools.combinations(rest, size - 1):
                    block = (first,) + others
                    if self.admits([types[i] for i in block]):
                        yield from rec(tuple(i for i in rest if i not in others), acc + (block,))

        return rec(tuple(range(len(types))), ())

    def admits_full_partition(self, types: Sequence[str]) -> bool:
        return next(self.partitions_of(types), None) is not None


def jump(
    cum: CumulantSet, pool_types: Iterable[str], block_types: Sequence[str]
) -> Optional[Fraction]:
    """Worst-case homogeneity change when the noises of `block_types` form
    cumulants together with extra noises drawn (with repetition) from the
    type set of `pool_types`: the minimum of |t(C)|_s + |C|*|s| over nonempty
    C admitting a partition of C + B into allowed blocks, each meeting B.
    With the positions of B placed first, those are the partitions of B + C
    (`partitions_of`) in which every block's least position lies in B.
    Returns None when no such C exists.
    """
    table = cum.table
    abs_s = table.scaling.abs_s
    pool = sorted(set(pool_types))
    b = tuple(sorted(block_types))
    if not pool:
        return None
    cap = max(1, (cum.max_arity - 1) * max(1, len(b)))
    best: Optional[Fraction] = None
    for size in range(1, cap + 1):
        for c_types in itertools.combinations_with_replacement(pool, size):
            value = sum((table.hom(t) for t in c_types), Fraction(0)) + size * abs_s
            if best is not None and value >= best:
                continue
            if any(
                all(block[0] < len(b) for block in part)
                for part in cum.partitions_of(b + c_types)
            ):
                best = value
    return best


def gain(table: TypeTable, block_types: Sequence[str]) -> Fraction:
    """h_{c,D}(A): the least homogeneity gained when noises of A coalesce
    inside a cumulant with partners outside them, under the cumulant
    homogeneity that puts all of -|t(C)|_s at the root of the coalescence
    tree of each allowed block C.

    A nonempty B inside A gains |t(B)|_{s,c,D} - |t(B)|_s.  The first term
    is 0 when B is no allowed block, or when an allowed block extends B
    (its homogeneity then sits at its root, above B), and +infinity when B
    is an allowed block that no allowed block extends.  Noise homogeneities
    are negative, so the least gain is that of one noise alone: -max over u
    in A of |t(u)|_s, and 0 when A is empty."""
    return min((-table.hom(x) for x in block_types), default=Fraction(0))


def margin(cum: CumulantSet, pool_types: Iterable[str], block_types: Sequence[str]) -> Fraction:
    """min(|s|/2, h(A), j(A)) for the noises A of `block_types`: h the `gain`
    and j the `jump` with partners from `pool_types`, left out where there is
    none.  Subtree power counting and the certificate add it to the bound."""
    table = cum.table
    j = jump(cum, pool_types, block_types)
    m = min(Fraction(table.scaling.abs_s, 2), gain(table, block_types))
    return m if j is None else min(m, j)


def fict_gain(table: TypeTable, block_types: Sequence[str]) -> int:
    """f(B): the Taylor order gained by renormalizing a second cumulant."""
    if len(block_types) != 2:
        return 0
    tot = sum((table.hom(t) for t in block_types), Fraction(0))
    return max(0, math.ceil(-tot - table.scaling.abs_s))


def higher_cum_check(cum: CumulantSet) -> bool:
    """Only second cumulants ever need renormalization: every allowed block
    M has f(M) + |t(M)|_s + (|M|-1)|s| > 0.

    The theorem asks min(|t(M)|_{s,c,D}, f(M) + |t(M)|_s) + (|M|-1)|s| > 0.
    Under the cumulant homogeneity that puts all of -|t(M)|_s at the root,
    |t(M)|_{s,c,D} is 0 when M extends to a larger allowed block and
    +infinity otherwise, and a 0 there never decides the inequality because
    (|M|-1)|s| > 0.  For |M| >= 3, f(M) is 0 and `CumulantSet` already
    requires |t(M)|_s > (1-|M|)|s|, so only the pair blocks are checked."""
    table = cum.table
    return all(
        fict_gain(table, b) + table.hom(b[0]) + table.hom(b[1]) + table.scaling.abs_s > 0
        for b in cum.blocks
        if len(b) == 2
    )


# -- subcriticality -----------------------------------------------------------


SUBCRITICAL_ITERATIONS = 60


def check_subcritical(rule: RuleSpec) -> dict:
    """Fixpoint test on the minimal attainable homogeneity per kernel type.

    Iterates a(t) -> |t|_s + min over productions of the summed entry
    regularities; passes when the (monotone decreasing) iteration
    stabilizes, fails when it keeps dropping for SUBCRITICAL_ITERATIONS
    rounds.
    """
    table = rule.table
    kernels = sorted(rule.productions)

    def entry_value(entry: Entry, a: Mapping[str, Fraction]) -> Fraction:
        name, k = entry
        base = a[name] if name in a else table.hom(name)
        return base - k.sdeg(table.scaling)

    a: dict[str, Fraction] = {}
    for t in kernels:
        vals = []
        for p in rule.productions[t]:
            if all(table.is_noise(name) or name not in kernels for name, _ in p):
                vals.append(
                    table.hom(t) + sum((entry_value(e, {}) for e in p), Fraction(0))
                )
        a[t] = min(vals) if vals else table.hom(t)
    offender: Optional[tuple[str, Production]] = None
    for _ in range(SUBCRITICAL_ITERATIONS):
        nxt: dict[str, Fraction] = {}
        for t in kernels:
            best = None
            best_p = None
            for p in rule.productions[t]:
                v = table.hom(t) + sum((entry_value(e, a) for e in p), Fraction(0))
                if best is None or v < best:
                    best, best_p = v, p
            nxt[t] = min(best, a[t]) if best is not None else a[t]
            if nxt[t] < a[t]:
                offender = (t, best_p)
        if nxt == a:
            return {"pass": True}
        a = nxt
    return {"pass": False, "offender": offender}


# -- tree generation -----------------------------------------------------------


def generate_trees(
    rule: RuleSpec,
    cutoff: Fraction,
    max_edges: int,
    poly_sdeg_bound: int = 0,
) -> list[DecoratedTree]:
    """All rule-conforming trees with homogeneity < cutoff and at most
    `max_edges` edges, deduplicated up to isomorphism and sorted by (edge
    count, canonical code), each in its canonical labelling.

    Node labels are drawn from |n|_s <= poly_sdeg_bound (0 disables
    polynomial decorations, which is the right setting for a negative
    cutoff basis).

    The search is a branch and bound.  The homogeneity of a tree is a sum
    over its nodes: the root's node label, one term |t|_s - |k|_s per entry
    (t, k) of the root's production, and the homogeneities of the planted
    subtrees hanging off its kernel edges.  A table `least(t, b)`, filled
    from smaller budgets up, holds the least homogeneity of a tree whose root
    content conforms for incoming kernel type t and that has at most b edges;
    node labels only add (|n|_s >= 0), so it takes them zero.  It is a plain
    minimum over finitely many trees and does not use the subcriticality
    fixpoint, so it is valid for any rule.

    Each planted tree is built once, in the listing of its root production
    and edge count n, made for n = 0, 1, ..., `max_edges` in turn from the
    listings of fewer edges.  A listing keeps the trees below the largest
    bound any tree asks of it (`asked`, worked out first from the root down,
    where edge counts fall): the cutoff at the root, and under a production
    of n' > n edges, that production's bound less its entries and the least
    (`spread`) its other kernel entries reach with the n' - n edges left.
    An entry being filled reads its type's listings, filtered to what is
    left of the bound once the homogeneity already fixed and the least the
    unfilled entries can reach are taken off.  Every tree dropped this way
    has homogeneity >= cutoff, and every kept tree is checked exactly, so
    the result is the set of all conforming trees filtered at the root.
    For a subcritical rule this is finite however large `max_edges` is, as
    only finitely many trees lie below any cutoff; the rule is not checked
    here (`Workbench.basis` checks it).

    The search adds and compares ints: every homogeneity is counted in
    units of 1/den, with den the lcm of the denominators of the cutoff and
    of the type homogeneities (s-degrees are ints), which is exact.  The
    productions are read once, in sorted order.  Each tree is one
    `trees.graft`; equal entries (adjacent in a sorted production) take
    their subtrees in non-decreasing canonical order, so each multiset of
    branches is walked once.
    """
    table = rule.table
    scaling = table.scaling
    cutoff = Fraction(cutoff)
    homs = (*table.kernel_types.values(), *table.noise_types.values())
    den = math.lcm(cutoff.denominator, *(h.denominator for h in homs))
    cut = int(cutoff * den)
    labels = [ZERO_MI] if poly_sdeg_bound <= 0 else multiindices_below(scaling, Fraction(poly_sdeg_bound) + 1)
    label_homs = [(lab, lab.sdeg(scaling) * den) for lab in labels]
    # every production once, in sorted order: its length, noise branches, kernel
    # entries, their types, whether each equals the one before, and homogeneity
    prods = sorted(set().union(*rule.productions.values()), key=lambda p: [(name, k.entries) for name, k in p])
    index = [
        (
            len(p), tuple((name, k, None, None) for name, k in p if table.is_noise(name)), ks,
            tuple(name for name, _ in ks), tuple(i > 0 and e == ks[i - 1] for i, e in enumerate(ks)),
            sum(int(table.hom(n) * den) - k.sdeg(scaling) * den for n, k in p),
        )
        for p in prods
        for ks in [tuple(e for e in p if table.is_kernel(e[0]))]
    ]
    kernel_types = sorted(rule.productions)
    by_kernel = {t: [i for i, p in enumerate(prods) if p in rule.productions[t]] for t in kernel_types}

    least_memo: dict[tuple[str, int], Optional[int]] = {}
    spread_memo: dict[tuple[tuple[str, ...], int], Optional[int]] = {}

    def least(kernel: str, budget: int) -> Optional[int]:
        """Least homogeneity of a planted tree for `kernel` with at most
        `budget` edges; None when there is no such tree."""
        key = (kernel, budget)
        if key not in least_memo:
            best = None
            for i in by_kernel[kernel]:
                length, _, _, names, _, fixed = index[i]
                rest = spread(names, budget - length) if length <= budget else None
                if rest is not None and (best is None or fixed + rest < best):
                    best = fixed + rest
            least_memo[key] = best
        return least_memo[key]

    def spread(kernels: tuple[str, ...], budget: int) -> Optional[int]:
        """Least summed homogeneity of planted subtrees, one for each of
        `kernels`, sharing at most `budget` edges."""
        if not kernels:
            return 0
        key = (kernels, budget)
        if key not in spread_memo:
            best = None
            for used in range(budget + 1):
                a = least(kernels[0], used)
                b = spread(kernels[1:], budget - used) if a is not None else None
                if b is not None and (best is None or a + b < best):
                    best = a + b
            spread_memo[key] = best
        return spread_memo[key]

    # the largest bound asked of a planted tree per kernel type and edge count
    asked = {t: [cut] * (max_edges + 1) for t in kernel_types}
    for n in range(max_edges, 0, -1):
        for t in kernel_types:
            for i in by_kernel[t]:
                length, _, _, names, _, fixed = index[i]
                for j, k in enumerate(names):
                    if k in names[:j]:
                        continue  # an equal entry asked the same
                    others, most = names[:j] + names[j + 1 :], asked[t][n] - fixed
                    for m in range(n - length + 1):
                        rest = spread(others, n - length - m)
                        if rest is not None and most - rest > asked[k][m]:
                            asked[k][m] = most - rest

    # per kernel type, (edges, homogeneity, tree) of its listed trees by edges
    planted: dict[str, list[tuple[int, int, DecoratedTree]]] = {t: [] for t in kernel_types}

    def fill(i: int, idx: int, left: int, hom: int, bound: int, acc: list[DecoratedTree]):
        """Production i's kernel entries from idx on, given `left` edges."""
        _, _, entries, names, repeats, _ = index[i]
        if idx == len(entries):
            if not left:
                yield hom, acc
            return
        last = idx + 1 == len(entries)  # which takes exactly the edges left
        for e, h, sub in planted[names[idx]]:
            if e > left:
                break
            rest = 0 if last else spread(names[idx + 1 :], left - e)
            if (last and e < left) or rest is None or hom + h + rest >= bound:
                continue
            if repeats[idx] and sub.canonical_code() < acc[-1].canonical_code():
                continue
            acc.append(sub)
            yield from fill(i, idx + 1, left - e, hom + h, bound, acc)
            acc.pop()

    bare = [poly(lab) for lab, h in label_homs if h < cut]
    bare += [t for t in map(noise, rule.standalone_noises) if t.homogeneity(table) < cutoff]
    basis = {t.canonical_code(): t for t in bare}
    owners = [[t for t in kernel_types if i in by_kernel[t]] for i in range(len(prods))]
    for n in range(max_edges + 1):
        for i, (length, noises, entries, names, _, fixed) in enumerate(index):
            bound = max(asked[t][n] for t in owners[i])
            floor = spread(names, n - length) if length <= n else None
            if floor is None or fixed + floor >= bound:
                continue
            out = []
            for hom, subs in fill(i, 0, n - length, fixed, bound, []):
                branches = (*noises, *((name, k, sub, sub.root) for (name, k), sub in zip(entries, subs)))
                out.extend((n, hom + h, graft(lab, branches)) for lab, h in label_homs if hom + h < bound)
            for t in owners[i]:
                planted[t].extend(out)
            basis.update((t.canonical_code(), t) for _, h, t in out if h < cut)
    return sorted(basis.values(), key=lambda t: (len(t.edge_items), t.canonical_code()))


# -- side conditions ------------------------------------------------------------


def subtree_hypotheses(
    t: DecoratedTree, cum: CumulantSet
) -> dict[str, list[tuple[SubForest, Fraction]]]:
    """The convergence theorem's per-tree hypotheses, checked in one walk
    over the subtrees S with |N(S)| > 1.  Each hypothesis maps to the
    (S, |S^0_e|_s) of the subtrees that fail it.

    "super_regularity", strengthened subtree power counting:
        |S^0_e|_s + min(|s|/2, h(L(S)), j_{L(T)}(L(S))) > 0,
    with h the gain of the cumulant homogeneity (`gain`) and j the `jump`.
    Under Gaussian noise it is checked only where L(S) is nonempty.

    "theorem_conditions", the three subtree bullets of the Gaussian
    theorem, checked under Gaussian noise only:
        |S^0_e|_s + |t(A)|_s + |A||s| > 0 for every typed set A with types
            drawn from t(L(T)), |A| in {1, 2} and |A| + |L(S)| even;
        |S^0_e|_s - |t(u)|_s > 0 for every u in L(S);
        |S^0_e|_s > -|s|/2.

    Under Gaussian noise with every noise homogeneity in (-|s|, 0), the
    bullets are super-regularity written out on a subtree with a noise: the
    gain is the least -|t(u)|_s over u in L(S), and the jump is
    (2 - |L(S)| mod 2) times the least |t(u)|_s + |s| over the ambient
    types, since each extra noise pairs with a noise of L(S) and adds a
    positive amount.  So such a subtree fails one exactly when it fails the
    other.  They differ only on a noise-free subtree, where super-regularity
    is skipped and the bullets ask |S^0_e|_s > -|s|/2 and |S^0_e|_s plus
    twice that least amount > 0.
    """
    table = cum.table
    abs_s = table.scaling.abs_s
    half = Fraction(abs_s, 2)
    gaussian = cum.mode == "gaussian"
    ambient = sorted(t.leaf_type(u, table) for u in t.leaf_nodes(table))
    # the least |t(u)|_s + |s| over the ambient types; |A| copies of it are
    # the worst typed set A of the first bullet
    worst = min((table.hom(x) + abs_s for x in ambient), default=None)
    fict = t.fictitious_nodes(table)
    failed: dict[str, list[tuple[SubForest, Fraction]]] = {"super_regularity": []}
    if gaussian:
        failed["theorem_conditions"] = []
    for sf, omega in subtree_omegas(t, table):
        if len(sf.nodes - fict) < 2:
            continue
        leaf_types = [t.leaf_type(u, table) for u in sorted(t.leaves_of(sf, table))]
        base = -omega
        if (leaf_types or not gaussian) and not base + margin(cum, ambient, leaf_types) > 0:
            failed["super_regularity"].append((sf, base))
        if gaussian:
            size = 2 - len(leaf_types) % 2
            bullets = (
                worst is None or base + size * worst > 0,
                all(base - table.hom(ty) > 0 for ty in leaf_types),
                base > -half,
            )
            if not all(bullets):
                failed["theorem_conditions"].append((sf, base))
    return failed
