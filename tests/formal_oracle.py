"""The all-`Fraction` formal sum that integer coefficients replaced in
`renormforest.formal.FormalSum`: every coefficient is converted to a
`Fraction` on the way in, and sums and scalar multiples stay `Fraction`s.
Kept as the oracle that the mixed `int`/`Fraction` representation is checked
against by value, and the test of that representation."""
from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Mapping


class FractionSum:
    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Hashable, Fraction] | Iterable[tuple[Hashable, Fraction]] = ()):
        acc: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, coeff in items:
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if coeff:
                total = acc.get(key)
                acc[key] = total = coeff if total is None else total + coeff
                if not total:
                    del acc[key]
        self._terms = acc

    @classmethod
    def single(cls, key: Hashable, coeff=1) -> "FractionSum":
        return cls([(key, Fraction(coeff))])

    @classmethod
    def zero(cls) -> "FractionSum":
        return cls()

    def items(self) -> Iterator[tuple[Hashable, Fraction]]:
        return iter(self._terms.items())

    def __add__(self, other: "FractionSum") -> "FractionSum":
        acc = dict(self._terms)
        for k, v in other._terms.items():
            acc[k] = acc.get(k, Fraction(0)) + v
            if not acc[k]:
                del acc[k]
        out = FractionSum.zero()
        out._terms = acc
        return out

    def __sub__(self, other: "FractionSum") -> "FractionSum":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "FractionSum":
        scalar = Fraction(scalar)
        if not scalar:
            return FractionSum.zero()
        out = FractionSum.zero()
        out._terms = {k: scalar * v for k, v in self._terms.items()}
        return out


def stored_exactly(c) -> bool:
    """An `int`, or a `Fraction` that is not integral: never a float, a
    bool or an integral `Fraction`."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)
