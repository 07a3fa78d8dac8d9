"""Test-only oracles for `rules.generate_trees`: the exhaustive enumerator,
the memoized branch and bound search that the generator's listings replaced
(`memoized_search`), and `conforms`, which checks a tree against the rule
node by node.

The enumerator assembles (`tree_oracle.assemble`, not the generator's
`trees.graft`) and canonically relabels every rule-conforming tree up to
`max_edges` and only then filters by homogeneity at the root, so it makes no
use of the bound the branch-and-bound generator prunes with.  Its cost grows
with the number of conforming trees (tens of thousands for phi4_3 at eleven
edges), so keep the cases that call it small.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

from renormforest.rules import RuleSpec
from renormforest.scaling import MultiIndex, ZERO_MI, multiindices_below
from renormforest.trees import DecoratedTree, noise, poly
from tree_oracle import assemble, relabel_canonical


def contents(rule: RuleSpec, incoming: Optional[str]) -> frozenset:
    """The productions a node may carry under an edge of type `incoming`,
    read off `rule.productions`; at the root (None), every production."""
    if incoming is None:
        return frozenset().union(*rule.productions.values())
    return rule.productions.get(incoming, frozenset())


def exhaustive_trees(
    rule: RuleSpec,
    cutoff: Fraction,
    max_edges: int,
    poly_sdeg_bound: int = 0,
) -> list[DecoratedTree]:
    """Same contract as `generate_trees`, by enumerating all trees first."""
    table = rule.table
    cutoff = Fraction(cutoff)
    labels = (
        [ZERO_MI]
        if poly_sdeg_bound <= 0
        else multiindices_below(table.scaling, Fraction(poly_sdeg_bound) + 1)
    )

    # planted generation: trees whose root content conforms for a given
    # incoming type, organized by edge budget
    cache: dict[tuple[Optional[str], int], list[DecoratedTree]] = {}

    def gen(incoming: Optional[str], budget: int) -> list[DecoratedTree]:
        key = (incoming, budget)
        if key in cache:
            return cache[key]
        out: dict[tuple, DecoratedTree] = {}
        for p in contents(rule, incoming):
            noise_entries = [e for e in p if table.is_noise(e[0])]
            kernel_entries = [e for e in p if table.is_kernel(e[0])]
            if len(p) > budget:
                continue

            # distribute the remaining budget over kernel branches
            def branches(idx: int, left: int, acc: list[DecoratedTree]):
                if idx == len(kernel_entries):
                    yield list(acc)
                    return
                name, _ = kernel_entries[idx]
                if left < 1:
                    return
                for sub in gen(name, left - 1):  # the connecting edge costs 1
                    acc.append(sub)
                    yield from branches(idx + 1, left - 1 - len(sub.edge_items), acc)
                    acc.pop()

            for subs in branches(0, budget - len(noise_entries), []):
                for lab in labels:
                    t = assemble(lab, noise_entries, kernel_entries, subs)
                    out[t.canonical_code()] = t
        res = sorted(out.values(), key=lambda t: (len(t.edge_items), t.canonical_code()))
        cache[key] = res
        return res

    basis: dict[tuple, DecoratedTree] = {}
    for lab in labels:
        t = poly(lab)
        if t.homogeneity(table) < cutoff:
            basis[t.canonical_code()] = t
    for ln in rule.standalone_noises:
        t = noise(ln)
        if t.homogeneity(table) < cutoff:
            basis[t.canonical_code()] = t
    for t in gen(None, max_edges):
        if t.homogeneity(table) < cutoff:
            basis[t.canonical_code()] = t
    return sorted(basis.values(), key=lambda t: (len(t.edge_items), t.canonical_code()))


def memoized_search(
    rule: RuleSpec,
    cutoff: Fraction,
    max_edges: int,
    poly_sdeg_bound: int = 0,
) -> list[DecoratedTree]:
    """`generate_trees` as it was: the same branch and bound, memoized on
    (incoming, budget, bound), so that a planted tree is walked again for
    every budget and bound that asks for it, over the productions in the
    order of the rule's sets, and each tree grafted in the order the search
    chose its branches (`graft_then_relabel`) and built again in its
    canonical labelling."""
    table = rule.table
    scaling = table.scaling
    cutoff = Fraction(cutoff)
    den = math.lcm(
        cutoff.denominator,
        *(h.denominator for h in (*table.kernel_types.values(), *table.noise_types.values())),
    )
    cut = int(cutoff * den)
    labels = (
        [ZERO_MI]
        if poly_sdeg_bound <= 0
        else multiindices_below(scaling, Fraction(poly_sdeg_bound) + 1)
    )
    label_homs = [(lab, lab.sdeg(scaling) * den) for lab in labels]
    productions = contents(rule, None)
    entries_hom = {
        p: sum(int(table.hom(n) * den) - k.sdeg(scaling) * den for n, k in p) for p in productions
    }
    kernel_names = {p: tuple(name for name, _ in p if table.is_kernel(name)) for p in productions}

    least_memo: dict[tuple[str, int], Optional[int]] = {}
    spread_memo: dict[tuple[tuple[str, ...], int], Optional[int]] = {}

    def least(kernel: str, budget: int) -> Optional[int]:
        key = (kernel, budget)
        if key not in least_memo:
            best = None
            for p in contents(rule, kernel):
                if len(p) <= budget:
                    rest = spread(kernel_names[p], budget - len(p))
                    if rest is not None:
                        v = entries_hom[p] + rest
                        best = v if best is None or v < best else best
            least_memo[key] = best
        return least_memo[key]

    def spread(kernels: tuple[str, ...], budget: int) -> Optional[int]:
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

    grafted: dict[tuple, DecoratedTree] = {}
    cache: dict[tuple[Optional[str], int, int], list[tuple[int, DecoratedTree]]] = {}

    def gen(incoming: Optional[str], budget: int, bound: int) -> list[tuple[int, DecoratedTree]]:
        key = (incoming, budget, bound)
        if key in cache:
            return cache[key]
        out: dict[tuple, tuple[int, DecoratedTree]] = {}
        for p in contents(rule, incoming):
            if len(p) > budget:
                continue
            noises = [(name, k, None, None) for name, k in p if table.is_noise(name)]
            kernel_entries = [e for e in p if table.is_kernel(e[0])]
            kernels = kernel_names[p]
            fixed = entries_hom[p]
            floor = spread(kernels, budget - len(p))
            if floor is None or fixed + floor >= bound:
                continue

            def branches(idx: int, left: int, hom: int, acc: list[DecoratedTree]):
                if idx == len(kernel_entries):
                    yield hom, list(acc)
                    return
                rest = spread(kernels[idx + 1 :], left)
                if rest is None:
                    return
                for h, sub in gen(kernels[idx], left, bound - hom - rest):
                    if idx and kernel_entries[idx] == kernel_entries[idx - 1]:
                        if sub.canonical_code() < acc[-1].canonical_code():
                            continue
                    acc.append(sub)
                    yield from branches(idx + 1, left - len(sub.edge_items), hom + h, acc)
                    acc.pop()

            for hom, subs in branches(0, budget - len(p), fixed, []):
                planted = (*noises, *((name, k, sub, sub.root) for (name, k), sub in zip(kernel_entries, subs)))
                for lab, lab_hom in label_homs:
                    if hom + lab_hom < bound:
                        if (lab, planted) not in grafted:
                            grafted[lab, planted] = graft_then_relabel(lab, planted)
                        t = grafted[lab, planted]
                        out[t.canonical_code()] = (hom + lab_hom, t)
        cache[key] = list(out.values())
        return cache[key]

    basis: dict[tuple, DecoratedTree] = {}
    for lab, lab_hom in label_homs:
        if lab_hom < cut:
            t = poly(lab)
            basis[t.canonical_code()] = t
    for ln in rule.standalone_noises:
        t = noise(ln)
        if t.homogeneity(table) < cutoff:
            basis[t.canonical_code()] = t
    for _, t in gen(None, max_edges, cut):
        basis[t.canonical_code()] = t
    return sorted(basis.values(), key=lambda t: (len(t.edge_items), t.canonical_code()))


def graft_then_relabel(label: MultiIndex, branches) -> DecoratedTree:
    """`trees.graft` as it was: the branches copied in the order given,
    under fresh ids, and the tree built again in its canonical labelling
    (`tree_oracle.relabel_canonical`)."""
    edges: dict[tuple[int, int], str] = {}
    node_dec = {0: label}
    edge_dec: dict[tuple[int, int], MultiIndex] = {}
    fresh = 1
    for name, k, tree, top in branches:
        edges[(0, fresh)], edge_dec[(0, fresh)] = name, k
        below = [top]
        if tree is not None:
            for u in below:  # the list grows while it is read
                below.extend(c for _, c in tree.children(u))
            ren = dict(zip(below, itertools.count(fresh)))
            edges.update(((ren[p], ren[c]), ty) for (p, c), ty in tree.edge_items if p in ren and c in ren)
            node_dec.update((ren[u], n) for u, n in tree.node_dec_items if u in ren)
            edge_dec.update(((ren[p], ren[c]), n) for (p, c), n in tree.edge_dec_items if p in ren and c in ren)
        fresh += len(below)
    return relabel_canonical(DecoratedTree(0, edges, node_dec, edge_dec))


def node_content(t: DecoratedTree, u: int) -> tuple:
    """The node's multiset of outgoing (type, derivative) pairs, as a
    production."""
    return tuple(
        sorted(
            ((t.edge_type(e), t.edge_dec(e)) for e in t.children(u)),
            key=lambda p: (p[0], p[1].entries),
        )
    )


def conforms(rule: RuleSpec, t: DecoratedTree) -> bool:
    """Does every true node's content conform to the rule?"""
    fict = t.fictitious_nodes(rule.table)
    for u in t.nodes - fict:
        incoming = None
        p = t.parent(u)
        if p is not None:
            incoming = t.edge_type((p, u))
        content = node_content(t, u)
        if u == t.root and not content and len(t.nodes) == 1:
            return True  # bare polynomial
        if content not in contents(rule, incoming):
            return False
    return True
