"""The chaos decomposition of a tree: its (Wick set, leaf partition) classes,
each with the forests compatible with the partition and the positive cuts
each forest leaves free.  The classes are read off
`powercount.TreeAnalysis`, and each partition's compatible divergences are
looked up in its partition table; the forests over them are listed here."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import forests as fo
from .forests import leaf_partitions  # noqa: F401  (perfbench wraps this name)
from .powercount import TreeAnalysis


@dataclass(frozen=True)
class ChaosClass:
    wick: frozenset[int]
    pi: frozenset[frozenset[int]]
    forests: tuple
    cut_sets_per_forest: tuple


def chaos_classes(analysis: TreeAnalysis) -> list[ChaosClass]:
    """All (Wick set, partition) classes of `analysis.tree` with their
    compatible forests and admissible cut sets; a class's summands are the
    (forest, cuts) pairs."""
    effective = {s for s, _ in analysis.divergences}
    all_cuts = [e for e, _ in analysis.cuts]
    out = []
    for wick, pi in analysis.gaussian_classes:
        univ = [s for s in analysis.compatible[pi] if s in effective]
        forests = fo.all_forests(univ, analysis.max_div)
        cut_sets = []
        for f in forests:
            free = fo.cuts_avoiding(all_cuts, f)
            cut_sets.append(
                tuple(
                    frozenset(c)
                    for rr in range(len(free) + 1)
                    for c in itertools.combinations(free, rr)
                )
            )
        out.append(
            ChaosClass(
                wick=wick,
                pi=pi,
                forests=tuple(forests),
                cut_sets_per_forest=tuple(cut_sets),
            )
        )
    return out
