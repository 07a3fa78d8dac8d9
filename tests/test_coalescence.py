import itertools
import random

import pytest

from coalescence_oracle import (
    ancestor,
    build_coalescence,
    children_blocks,
    grand_ancestor,
    labelings_consistent,
    full_mask,
    popcount,
    restrict_tree,
)
from renormforest.powercount import enumerate_trees
from renormforest.forests import CapExceeded


def M(*vs):
    return sum(1 << v for v in vs)


WORKED_EDGES = [
    ({0, 2}, 500),
    ({0, 5}, 187),
    ({2, 5}, 185),
    ({1, 3}, 80),
    ({4, 0}, 7),
    ({4, 5}, 6),
    ({6, 1}, 25),
    ({3, 4}, 25),
    ({4, 6}, 24),
    ({3, 5}, 5),
]


def test_tree_counts():
    assert len(enumerate_trees(2)) == 1
    assert len(enumerate_trees(3)) == 4
    assert len(enumerate_trees(4)) == 26
    with pytest.raises(CapExceeded):
        enumerate_trees(10)


def test_structure_invariants():
    for fam in enumerate_trees(4):
        assert full_mask(4) in fam
        for c in fam:
            assert popcount(c) >= 2
            assert len(children_blocks(fam, c)) >= 2


def test_worked_example():
    fam, lab = build_coalescence(7, [(frozenset(p), s) for p, s in WORKED_EDGES])
    a, b, c = M(0, 2), M(0, 2, 5), M(1, 3)
    e, d = M(1, 3, 4, 6), M(0, 1, 2, 3, 4, 5, 6)
    assert fam == frozenset({a, b, c, e, d})
    assert lab == {a: 500, b: 187, c: 80, e: 25, d: 7}
    assert ancestor(fam, M(2, 5)) == b
    assert ancestor(fam, M(5)) == b
    assert grand_ancestor(fam, d, M(2, 5)) == d
    assert ancestor(fam, M(1, 3, 5)) == d
    assert grand_ancestor(fam, d, M(1, 3, 5)) == d
    assert labelings_consistent(fam, lab)


def test_two_vertex_unique():
    fam, lab = build_coalescence(2, [(frozenset({0, 1}), 13)])
    assert fam == frozenset({M(0, 1)})
    assert lab[M(0, 1)] == 13


def test_labels_increase_downward():
    rng = random.Random(2)
    pairs = [frozenset(p) for p in itertools.combinations(range(5), 2)]
    for _ in range(50):
        edges = [(p, rng.randint(0, 40)) for p in pairs]
        fam, lab = build_coalescence(5, edges)
        assert labelings_consistent(fam, lab)


def test_restriction_worked_figure():
    """Nine leaves a1..a4, b1..b5 with the drawn cluster structure; the
    restriction to the b's gives the five-leaf tree with the marked
    injection."""
    # positions: b1=0 a1=1 b2=2 b3=3 b4=4 a2=5 b5=6 a3=7 a4=8
    b1, a1, b2, b3, b4, a2, b5, a3, a4 = range(9)
    fam = frozenset(
        {
            M(b1, a1),
            M(b1, a1, b2),
            M(b3, b4),
            M(a2, b5),
            M(a3, a4),
            M(b3, b4, a2, b5, a3, a4),
            full_mask(9),
        }
    )
    bmask = M(b1, b2, b3, b4, b5)
    fam_b, iota = restrict_tree(fam, bmask)
    assert fam_b == frozenset({M(b1, b2), M(b3, b4), M(b3, b4, b5), bmask})
    assert iota[M(b1, b2)] == M(b1, a1, b2)
    assert iota[M(b3, b4)] == M(b3, b4)
    assert iota[M(b3, b4, b5)] == M(b3, b4, a2, b5, a3, a4)
    assert iota[bmask] == full_mask(9)


def test_restriction_functorial():
    rng = random.Random(8)
    for fam in rng.sample(enumerate_trees(6), 40):
        b = M(0, 2, 4, 5)
        b2 = M(0, 2, 4)
        one, iota1 = restrict_tree(fam, b)
        two, iota2 = restrict_tree(one, b2)
        direct, iota_d = restrict_tree(fam, b2)
        assert two == direct
