"""Exact-rational formal linear combinations.

A `FormalSum` maps canonical hashable keys to nonzero exact coefficients: an
`int` where the coefficient is integral, a `Fraction` (denominator > 1) only
where it is not.  It is built once, from an iterable of (key, coefficient)
terms, whose repeated keys it merges; other coefficients (a bool, an
integral `Fraction`) are converted on the way in, so an integral `Fraction`
is stored as its numerator; a float raises TypeError.  It is then only read
(`items`, `coeff`, `keys`, `is_zero`, `len`, `==`): the BPHZ path sums every
expansion in one term list and does no arithmetic on sums.  Tensor terms are
represented by tuples of per-slot keys.
"""
from __future__ import annotations

import numbers
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Union

Coefficient = Union[int, Fraction]


def exact(c) -> Coefficient:
    """`c` as an `int` when it is integral, else as a `Fraction`; a float
    is no exact coefficient and raises TypeError."""
    if type(c) is not int:
        if type(c) is not Fraction:
            if not isinstance(c, numbers.Rational):
                raise TypeError(f"inexact coefficient {c!r}")
            c = Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


def exact_div(c: Coefficient, n: int) -> Coefficient:
    """c / n for a positive `int` n, exactly: the `int` quotient when n
    divides c, else a `Fraction`."""
    if type(c) is int and not c % n:
        return c // n
    return exact(Fraction(c, n))


class FormalSum:
    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Hashable, Coefficient]]):
        acc: dict = {}
        for key, coeff in terms:
            if type(coeff) is not int:
                coeff = exact(coeff)
            if not coeff:
                continue
            # one hash of a new key: the dict grows where the key is new,
            # and is touched again only to merge a repeated one
            n = len(acc)
            total = acc.setdefault(key, coeff)
            if len(acc) == n:
                coeff += total
                if type(coeff) is not int:
                    coeff = exact(coeff)
                if coeff:
                    acc[key] = coeff
                else:
                    del acc[key]
        self._terms = acc

    def items(self) -> Iterator[tuple[Hashable, Coefficient]]:
        """The terms in no canonical order: callers that emit them sort by
        a canonical key of their own."""
        return iter(self._terms.items())

    def coeff(self, key: Hashable) -> Coefficient:
        return self._terms.get(key, 0)

    def keys(self):
        return self._terms.keys()

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "FormalSum(0)"
        bits = [f"{v}*{k!r}" for k, v in list(self.items())[:4]]
        more = "" if len(self._terms) <= 4 else f" ... ({len(self._terms)} terms)"
        return "FormalSum(" + " + ".join(bits) + more + ")"
