from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from renormforest.scaling import (
    ExtLabel,
    MultiIndex,
    ScalingSpec,
    TypeTable,
    binom_mi,
    multiindices_below,
    submultiindices,
)


def test_sdeg_single_entry():
    sc = ScalingSpec(4, (2, 1, 1, 1))
    assert MultiIndex({0: 1}).sdeg(sc) == 2


def test_sdeg_zero():
    sc = ScalingSpec(2, (2, 1))
    assert MultiIndex().sdeg(sc) == 0


def test_sdeg_hand_sum():
    sc = ScalingSpec(4, (2, 1, 1, 1))
    k = MultiIndex({0: 1, 1: 2, 3: 1})
    assert k.sdeg(sc) == 5
    assert k.degree() == 4


def test_sdeg_out_of_range():
    sc = ScalingSpec(2, (2, 1))
    with pytest.raises(ValueError):
        MultiIndex({5: 1}).sdeg(sc)


def test_scaling_invariants():
    with pytest.raises(ValueError):
        ScalingSpec(0, ())
    with pytest.raises(ValueError):
        ScalingSpec(2, (2, 0))
    assert ScalingSpec(4, (2, 1, 1, 1)).abs_s == 5


def test_multiindices_below():
    sc = ScalingSpec(2, (2, 1))
    got = multiindices_below(sc, Fraction(2))
    # |k|_s < 2 with s = (2,1): 0, e1, or nothing else
    assert sorted(k.entries for k in got) == [(), ((1, 1),)]
    assert multiindices_below(sc, Fraction(0)) == []


def test_submultiindices_and_binom():
    n = MultiIndex({0: 2, 1: 1})
    subs = list(submultiindices(n))
    assert len(subs) == 6
    assert sum(binom_mi(n, k) for k in subs) == 2 ** n.degree()
    assert binom_mi(n, MultiIndex({0: 3})) == 0


def test_type_table_invariants():
    sc = ScalingSpec(4, (2, 1, 1, 1))
    with pytest.raises(ValueError):
        TypeTable(sc, kernel_types={"I": Fraction(-1)}, noise_types={})
    with pytest.raises(ValueError):
        TypeTable(sc, kernel_types={}, noise_types={"Xi": Fraction(1)})
    with pytest.raises(ValueError):  # noise must stay above -|s|
        TypeTable(sc, kernel_types={}, noise_types={"Xi": Fraction(-6)})
    with pytest.raises(ValueError):
        TypeTable(sc, kernel_types={"a": Fraction(1)}, noise_types={"a": Fraction(-1)})


def test_ext_label_homogeneity():
    sc = ScalingSpec(2, (2, 1))
    table = TypeTable(sc, kernel_types={"t": Fraction(1)}, noise_types={"l": Fraction(-3, 2)})
    lab = ExtLabel({0: 1}, {"t": 2, "l": -1})
    assert table.hom_ext(lab) == Fraction(2) + 2 * Fraction(1) - Fraction(-3, 2)
    assert lab + ExtLabel({0: -1}, {"t": -2, "l": 1}) == ExtLabel()


@given(
    st.dictionaries(st.integers(0, 3), st.integers(0, 3), max_size=4),
    st.dictionaries(st.integers(0, 3), st.integers(0, 3), max_size=4),
)
def test_multiindex_addition_commutes(a, b):
    x, y = MultiIndex(a), MultiIndex(b)
    assert x + y == y + x
    sc = ScalingSpec(4, (2, 1, 1, 1))
    assert (x + y).sdeg(sc) == x.sdeg(sc) + y.sdeg(sc)


@given(
    st.lists(
        st.dictionaries(st.integers(0, 3), st.integers(0, 3), max_size=4).map(MultiIndex),
        min_size=2,
        max_size=6,
    )
)
def test_multiindex_order_extends_componentwise(ks):
    """`<` is a total order on multi-indices that sorts mixed labels and
    extends the componentwise `<=`."""
    ordered = sorted(ks)
    assert all(not b < a for a, b in zip(ordered, ordered[1:]))
    for a in ks:
        for b in ks:
            assert (a < b) + (b < a) + (a == b) == 1
            if a <= b:
                assert not b < a
    assert MultiIndex({1: 1}) < MultiIndex({0: 1, 1: 1})
    assert MultiIndex({1: 1}) < MultiIndex({0: 1})
