"""Test-only oracles for `rules.generate_trees`: the exhaustive enumerator,
and `conforms`, which checks a tree against the rule node by node.

The enumerator assembles (`tree_oracle.assemble`, not the generator's
`trees.graft`) and canonically relabels every rule-conforming tree up to
`max_edges` and only then filters by homogeneity at the root, so it makes no
use of the bound the branch-and-bound generator prunes with.  Its cost grows
with the number of conforming trees (tens of thousands for phi4_3 at eleven
edges), so keep the cases that call it small.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional

from renormforest.rules import RuleSpec
from renormforest.scaling import ZERO_MI, multiindices_below
from renormforest.trees import DecoratedTree, noise, poly
from tree_oracle import assemble


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
        for p in rule.allowed_contents(incoming):
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
        if content not in rule.allowed_contents(incoming):
            return False
    return True
