"""Property tests for `FormalSum`, which is built once from a list of
(key, coefficient) terms and only read: the constructor agrees with the
fold of single terms of the all-`Fraction` oracle `formal_oracle.FractionSum`,
cancelled keys are dropped, the tensor product of the test oracle
`hopf_oracle.tensor` is bilinear, and the constructor's merging of mixed
`int`/`Fraction` coefficients agrees by value with the oracle's arithmetic.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from formal_oracle import FractionSum, stored_exactly
from hopf_oracle import tensor
from renormforest.formal import FormalSum

# few distinct keys and small coefficients, so that keys repeat and cancel
keys = st.tuples(st.integers(0, 2), st.integers(0, 2)).map(lambda k: k[: k[0] % 3])
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
pairs = st.lists(st.tuples(keys, coeffs), max_size=12)
# ints, bools, and Fractions over denominators 1, 2 and 4, so that integral
# Fractions such as Fraction(4, 2) occur as inputs and as sums of halves
mixed = st.one_of(
    st.integers(-4, 4),
    st.booleans(),
    st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 4])),
)
mixed_pairs = st.lists(st.tuples(keys, mixed), max_size=12)


def folded(terms) -> FractionSum:
    """The oracle: one `+` of a single term per term, starting from zero."""
    out = FractionSum.zero()
    for key, coeff in terms:
        out = out + FractionSum.single(key, coeff)
    return out


@given(pairs)
def test_constructor_equals_fold(terms):
    assert dict(FormalSum(terms).items()) == dict(folded(terms).items())


@given(pairs)
def test_cancelled_keys_dropped(terms):
    total: dict = {}
    for key, coeff in terms:
        total[key] = total.get(key, Fraction(0)) + coeff
    fs = FormalSum(terms)
    assert set(fs.keys()) == {k for k, v in total.items() if v}
    assert all(fs.coeff(k) == v for k, v in total.items())
    assert all(c != 0 for _, c in fs.items())
    assert len(fs) == len(list(fs.items()))


def plus(x, y) -> FormalSum:
    """The sum of two sums, by the constructor's merging of their terms."""
    return FormalSum(itertools.chain(x.items(), y.items()))


def times(q, x) -> FormalSum:
    return FormalSum((k, q * c) for k, c in x.items())


@given(pairs, pairs, pairs, coeffs)
def test_tensor_bilinear(a, b, c, q):
    """The arguments are summed and scaled by `FractionSum`, the outputs by
    the `FormalSum` constructor."""
    oa, ob, oc = FractionSum(a), FractionSum(b), FractionSum(c)
    assert tensor(oa + ob, oc) == plus(tensor(oa, oc), tensor(ob, oc))
    assert tensor(oa, ob + oc) == plus(tensor(oa, ob), tensor(oa, oc))
    assert tensor(q * oa, ob) == times(q, tensor(oa, ob)) == tensor(oa, q * ob)
    assert tensor(oa, FractionSum.zero()).is_zero()


@given(mixed_pairs, mixed_pairs, mixed)
def test_mixed_coefficients_match_fraction_oracle(a, b, q):
    """The constructor merges the repeated keys of one term list, of two
    lists joined, and of scaled and negated terms, as the oracle's `+`,
    `-` and scalar multiple do."""
    oa, ob = FractionSum(a), FractionSum(b)
    neg = [(k, -c) for k, c in b]
    for got, want in (
        (FormalSum(a), oa),
        (FormalSum(a + b), oa + ob),
        (FormalSum(a + neg), oa - ob),
        (FormalSum((k, q * c) for k, c in a), q * oa),
    ):
        assert dict(got.items()) == dict(want.items())
        assert all(stored_exactly(c) for _, c in got.items())
        assert all(got.coeff(k) == c for k, c in want.items())
    assert type(FormalSum(a).coeff(("missing",))) is int


def test_inexact_coefficients_rejected():
    with pytest.raises(TypeError):
        FormalSum([((), 0.5)])
    with pytest.raises(TypeError):
        FormalSum([((), 1), ((), 0.5)])
