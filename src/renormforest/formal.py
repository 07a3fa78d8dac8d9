"""Exact-rational formal linear combinations.

A `FormalSum` maps canonical hashable keys to nonzero `Fraction` coefficients.
Tensor terms are represented by tuples of per-slot keys.  Coefficients that
are already `Fraction`s are kept as they are; others are converted.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Mapping


class FormalSum:
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
    def single(cls, key: Hashable, coeff=1) -> "FormalSum":
        return cls([(key, Fraction(coeff))])

    @classmethod
    def zero(cls) -> "FormalSum":
        return cls()

    def items(self) -> Iterator[tuple[Hashable, Fraction]]:
        """The terms in no canonical order: callers that emit them sort by
        a canonical key of their own."""
        return iter(self._terms.items())

    def coeff(self, key: Hashable) -> Fraction:
        return self._terms.get(key, Fraction(0))

    def keys(self):
        return self._terms.keys()

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        acc = dict(self._terms)
        for k, v in other._terms.items():
            acc[k] = acc.get(k, Fraction(0)) + v
            if not acc[k]:
                del acc[k]
        out = FormalSum.zero()
        out._terms = acc
        return out

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "FormalSum":
        scalar = Fraction(scalar)
        if not scalar:
            return FormalSum.zero()
        out = FormalSum.zero()
        out._terms = {k: scalar * v for k, v in self._terms.items()}
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "FormalSum(0)"
        bits = [f"{v}*{k!r}" for k, v in list(self.items())[:4]]
        more = "" if len(self._terms) <= 4 else f" ... ({len(self._terms)} terms)"
        return "FormalSum(" + " + ".join(bits) + more + ")"
