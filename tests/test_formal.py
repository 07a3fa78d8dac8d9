"""Property tests for `FormalSum`: building from pairs agrees with the fold
of single terms it replaced, a mapping and an iterable of its pairs build
the same sum, cancelled keys are dropped, the tensor
product of the test oracle `hopf_oracle.tensor` is bilinear, and the mixed
`int`/`Fraction` coefficients agree by value with the all-`Fraction` oracle
`formal_oracle.FractionSum`."""
from fractions import Fraction
from types import MappingProxyType

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


def folded(terms) -> FormalSum:
    """The oracle: one `+` per term, starting from zero."""
    out = FormalSum.zero()
    for key, coeff in terms:
        out = out + FormalSum.single(key, coeff)
    return out


@given(pairs)
def test_constructor_equals_fold(terms):
    assert FormalSum(terms) == folded(terms)


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


@given(pairs)
def test_mappings_and_iterables_build_equal_sums(terms):
    """A dict, a read-only view of it, a list of its pairs and a generator
    of them build one sum, and so does the list of repeated pairs it sums."""
    total: dict = {}
    for key, coeff in terms:
        total[key] = total.get(key, Fraction(0)) + coeff
    want = FormalSum(total)
    assert FormalSum(MappingProxyType(total)) == want
    assert FormalSum(list(total.items())) == want
    assert FormalSum(pair for pair in total.items()) == want
    assert FormalSum(terms) == want


@given(pairs, pairs, pairs, coeffs)
def test_tensor_bilinear(a, b, c, q):
    fa, fb, fc = FormalSum(a), FormalSum(b), FormalSum(c)
    assert tensor(fa + fb, fc) == tensor(fa, fc) + tensor(fb, fc)
    assert tensor(fa, fb + fc) == tensor(fa, fb) + tensor(fa, fc)
    assert tensor(q * fa, fb) == q * tensor(fa, fb) == tensor(fa, q * fb)
    assert tensor(fa, FormalSum.zero()).is_zero()


@given(mixed_pairs, mixed_pairs, mixed, keys)
def test_mixed_coefficients_match_fraction_oracle(a, b, q, key):
    fa, fb = FormalSum(a), FormalSum(b)
    oa, ob = FractionSum(a), FractionSum(b)
    for got, want in (
        (fa, oa),
        (FormalSum.single(key, q), FractionSum.single(key, q)),
        (fa + fb, oa + ob),
        (fa - fb, oa - ob),
        (q * fa, q * oa),
    ):
        assert dict(got.items()) == dict(want.items())
        assert all(stored_exactly(c) for _, c in got.items())
        assert all(got.coeff(k) == c for k, c in want.items())
    assert type(fa.coeff(("missing",))) is int


def test_inexact_coefficients_rejected():
    with pytest.raises(TypeError):
        FormalSum([((), 0.5)])
    with pytest.raises(TypeError):
        0.5 * FormalSum.single(())
