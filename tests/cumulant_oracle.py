"""Test-only oracle for the cumulant homogeneity of `powercount`: each allowed
cumulant B carries all of -|t(B)|_s at the root of every coalescence tree
of its arguments.

These are its first implementation: the homogeneity placed on every tree
of a block's positions, and the extended homogeneity |t(A)|_{s,c,D}, the
gain h_{c,D}(A), the higher-cumulant margin and the consistency items 1-4
found by enumerating those trees.  `rules.gain` and
`rules.higher_cum_check` replace them with closed forms, and the
consistency check is not run by the program at all: it cannot fail on a
`TypeTable` and `CumulantSet` their constructors accept.  Keep blocks to
at most four arguments: there are 26 coalescence trees on four vertices and
236 on five.

`partitions_list` and `jump_recursion` are the first `partitions_of` and
`jump`: the partitions built into a list, block sizes tried from 1, and the
jump's feasibility decided by its own recursion over blocks meeting B.
`rules` now enumerates the partitions lazily and reads the jump's
feasibility off them.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from renormforest.coalescence import Cluster, Family, bits, enumerate_trees, full_mask, popcount
from renormforest.rules import CumulantSet, fict_gain


class CumulantHomogeneity:
    """The root-concentrated cumulant homogeneity of a cumulant set."""

    def __init__(self, cum: CumulantSet):
        self.cum = cum
        self.table = cum.table

    def block(self, types: Sequence[str]) -> Callable[[Family], dict[Cluster, Fraction]]:
        """The homogeneity on the internal nodes of each coalescence tree of
        the block's positions, zero entries left out."""
        total = -sum((self.table.hom(t) for t in types), Fraction(0))
        full = full_mask(len(types))
        return lambda fam: {full: total} if total else {}

    def _block_type_tuples(self) -> list[tuple[str, ...]]:
        noises = sorted(self.table.noise_types)
        out = []
        for m in range(2, self.cum.max_arity + 1):
            for combo in itertools.combinations_with_replacement(noises, m):
                if self.cum.admits(combo):
                    out.append(combo)
        return out

    def consistency_check(self) -> dict:
        """Items 1-4: correct totals, the per-subset bounds, and the higher
        cumulant margin."""
        abs_s = self.table.scaling.abs_s
        for types in self._block_type_tuples():
            m = len(types)
            hom = self.block(types)
            t_total = sum((self.table.hom(t) for t in types), Fraction(0))
            for fam in enumerate_trees(m):
                vals = hom(fam)
                total = sum(vals.values(), Fraction(0))
                if total != -t_total:
                    return {"pass": False, "item": 1, "types": types, "tree": fam}
                for r in range(1, m + 1):
                    for sub in itertools.combinations(range(m), r):
                        below = sum(
                            (v for c, v in vals.items() if any((c & (1 << i)) for i in sub)),
                            Fraction(0),
                        )
                        t_a = sum((self.table.hom(types[i]) for i in sub), Fraction(0))
                        if not below >= -t_a:
                            return {"pass": False, "item": 2, "types": types, "tree": fam, "subset": sub}
                for a in fam:
                    part = sum((v for c, v in vals.items() if (c & a) == c), Fraction(0))
                    t_a = sum((self.table.hom(types[i]) for i in bits(a)), Fraction(0))
                    if not part <= -t_a:
                        return {"pass": False, "item": 3, "types": types, "tree": fam, "node": a}
                    if m >= 3 and popcount(a) <= 3:
                        if not part < abs_s * (popcount(a) - 1):
                            return {"pass": False, "item": 4, "types": types, "tree": fam, "node": a}
        return {"pass": True}

    def ext_hom(self, a_types: Sequence[str], pool_types: Iterable[str]) -> Optional[Fraction]:
        """|t(A)|_{s,c,D}: the worst homogeneity attributed to the noises of
        A when they coalesce inside a larger cumulant with partners drawn
        from the pool's type set.  0 when A is not an allowed block, None
        when no allowed block extends it (+infinity to callers)."""
        a = tuple(sorted(a_types))
        if not self.cum.admits(a):
            return Fraction(0)
        pool = sorted(set(pool_types))
        best: Optional[Fraction] = None
        amask = full_mask(len(a))
        for n_extra in range(1, max(0, self.cum.max_arity - len(a)) + 1):
            for extra in itertools.combinations_with_replacement(pool, n_extra):
                types = a + extra
                if not self.cum.admits(types):
                    continue
                hom = self.block(types)
                for fam in enumerate_trees(len(types)):
                    if amask not in fam:
                        continue
                    part = -sum((v for c, v in hom(fam).items() if (c & amask) == c), Fraction(0))
                    if best is None or part < best:
                        best = part
        return best

    def gain(self, a_types: Sequence[str], pool_types: Iterable[str]) -> Optional[Fraction]:
        """h_{c,D}(A): the minimum homogeneity gain over nonempty subsets of
        A taking part in an external cumulant; 0 on the empty set, None
        when every scenario is impossible."""
        a = list(a_types)
        if not a:
            return Fraction(0)
        best: Optional[Fraction] = None
        for r in range(1, len(a) + 1):
            for sub in set(itertools.combinations(sorted(a), r)):
                ext = self.ext_hom(sub, pool_types)
                if ext is None:
                    continue
                v = ext - sum((self.table.hom(t) for t in sub), Fraction(0))
                if best is None or v < best:
                    best = v
        return best

    def higher_cum_check(self, pool_types: Optional[Iterable[str]] = None) -> dict:
        """For every allowed block M,
        min(|t(M)|_{s,c,D}, f(M) + |t(M)|_s) + (|M|-1)|s| > 0."""
        abs_s = self.table.scaling.abs_s
        pool = sorted(set(pool_types or self.table.noise_types))
        for types in self._block_type_tuples():
            t_m = sum((self.table.hom(t) for t in types), Fraction(0))
            ext = self.ext_hom(types, pool)
            cands = [Fraction(fict_gain(self.table, types)) + t_m]
            if ext is not None:
                cands.append(ext)
            if not min(cands) + (len(types) - 1) * abs_s > 0:
                return {"pass": False, "types": types}
        return {"pass": True}


def partitions_list(cum: CumulantSet, types: Sequence[str]) -> list[tuple[tuple[int, ...], ...]]:
    """All partitions of positions 0..n-1 into admissible blocks."""
    n = len(types)
    out: list[tuple[tuple[int, ...], ...]] = []

    def rec(remaining: tuple[int, ...], acc: list[tuple[int, ...]]):
        if not remaining:
            out.append(tuple(sorted(acc)))
            return
        first, rest = remaining[0], remaining[1:]
        for size in range(1, min(cum.max_arity, len(remaining)) + 1):
            for others in itertools.combinations(rest, size - 1):
                block = (first,) + others
                if cum.admits([types[i] for i in block]):
                    left = tuple(i for i in rest if i not in others)
                    acc.append(block)
                    rec(left, acc)
                    acc.pop()

    rec(tuple(range(n)), [])
    return out


def jump_recursion(
    cum: CumulantSet, pool_types: Iterable[str], block_types: Sequence[str]
) -> Optional[Fraction]:
    """The minimum of |t(C)|_s + |C|*|s| over nonempty C, drawn with
    repetition from the pool's type set, admitting a partition of C + B into
    allowed blocks, each meeting B; None when no such C exists."""
    table = cum.table
    abs_s = table.scaling.abs_s
    pool = sorted(set(pool_types))
    b = tuple(sorted(block_types))
    if not pool:
        return None
    cap = max(1, (cum.max_arity - 1) * max(1, len(b)))
    best: Optional[Fraction] = None

    def feasible(c_types: tuple[str, ...]) -> bool:
        # elements: B-positions tagged True, C-positions tagged False
        elems = [(t, True) for t in b] + [(t, False) for t in c_types]

        def rec(remaining: tuple[int, ...]) -> bool:
            if not remaining:
                return True
            b_positions = [i for i in remaining if elems[i][1]]
            if not b_positions:
                return False  # leftover C-elements cannot form B-meeting blocks
            first = b_positions[0]
            rest = tuple(i for i in remaining if i != first)
            for size in range(2, min(cum.max_arity, len(remaining)) + 1):
                for others in itertools.combinations(rest, size - 1):
                    block = (first,) + others
                    if cum.admits([elems[i][0] for i in block]):
                        left = tuple(i for i in rest if i not in others)
                        if rec(left):
                            return True
            return False

        return rec(tuple(range(len(elems))))

    for size in range(1, cap + 1):
        for c_types in itertools.combinations_with_replacement(pool, size):
            value = sum((table.hom(t) for t in c_types), Fraction(0)) + size * abs_s
            if best is not None and value >= best:
                continue
            if feasible(c_types):
                best = value
    return best
