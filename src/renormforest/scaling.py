"""Scalings, types, multi-indices, and extended labels.

Everything here is exact: homogeneities are `fractions.Fraction`, multi-index
entries are integers. Floats never appear.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

Rational = Union[Fraction, int]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class ScalingSpec:
    """Space-time dimension with its anisotropic scaling vector."""

    d: int
    s: tuple[int, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "s", tuple(int(v) for v in self.s))
        if len(self.s) != self.d:
            raise ValueError("scaling vector length must equal the dimension")
        if any(v < 1 for v in self.s):
            raise ValueError("scaling entries must be >= 1")

    @property
    def abs_s(self) -> int:
        return sum(self.s)


class MultiIndex:
    """Sparse multi-index in N^d (zero entries are never stored)."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = dict(entries)
        clean = {}
        for i, v in items.items():
            v = int(v)
            if v < 0:
                raise ValueError("multi-index entries must be nonnegative")
            if v:
                clean[int(i)] = v
        self._entries = tuple(sorted(clean.items()))

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        return self._entries

    def get(self, i: int) -> int:
        for j, v in self._entries:
            if j == i:
                return v
        return 0

    def is_zero(self) -> bool:
        return not self._entries

    def degree(self) -> int:
        return sum(v for _, v in self._entries)

    def sdeg(self, scaling: ScalingSpec) -> int:
        total = 0
        for i, v in self._entries:
            if i < 0 or i >= scaling.d:
                raise ValueError(f"coordinate index {i} outside [0, {scaling.d})")
            total += v * scaling.s[i]
        return total

    def factorial(self) -> int:
        out = 1
        for _, v in self._entries:
            out *= math.factorial(v)
        return out

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        out = dict(self._entries)
        for i, v in other._entries:
            out[i] = out.get(i, 0) + v
        return MultiIndex(out)

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        out = dict(self._entries)
        for i, v in other._entries:
            out[i] = out.get(i, 0) - v
            if out[i] < 0:
                raise ValueError("multi-index subtraction went negative")
        return MultiIndex(out)

    def __le__(self, other: "MultiIndex") -> bool:
        return all(v <= other.get(i) for i, v in self._entries)

    def __lt__(self, other: "MultiIndex") -> bool:
        """Lexicographic on the coordinate vectors (a missing entry is 0): a
        total order that extends the componentwise `<=`, so that the keys of
        trees whose labels differ at a node sort."""
        idx = sorted({i for i, _ in self._entries} | {i for i, _ in other._entries})
        return [self.get(i) for i in idx] < [other.get(i) for i in idx]

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiIndex) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(("mi", self._entries))

    def __repr__(self) -> str:
        if not self._entries:
            return "MultiIndex()"
        return "MultiIndex({%s})" % ", ".join(f"{i}: {v}" for i, v in self._entries)


ZERO_MI = MultiIndex()


def binom_mi(n: MultiIndex, k: MultiIndex) -> int:
    """Product of per-coordinate binomial coefficients; 0 unless k <= n."""
    if not k <= n:
        return 0
    out = 1
    for i, v in k.entries:
        out *= math.comb(n.get(i), v)
    return out


def multiindices_below(scaling: ScalingSpec, bound: Rational) -> list[MultiIndex]:
    """All k in N^d with |k|_s < bound (finite since every s_i >= 1)."""
    bound = _as_fraction(bound)
    out: list[MultiIndex] = []
    if bound <= 0:
        return out

    def rec(i: int, remaining: Fraction, acc: dict[int, int]):
        if i == scaling.d:
            out.append(MultiIndex(acc))
            return
        step = scaling.s[i]
        v = 0
        while v * step < remaining:
            if v:
                acc[i] = v
            rec(i + 1, remaining - v * step, acc)
            acc.pop(i, None)
            v += 1

    rec(0, bound, {})
    return out


def submultiindices(n: MultiIndex) -> Iterator[MultiIndex]:
    """All k with k <= n, pointwise."""
    items = n.entries
    if not items:
        yield ZERO_MI
        return

    def rec(pos: int, acc: dict[int, int]):
        if pos == len(items):
            yield MultiIndex(acc)
            return
        i, v = items[pos]
        for w in range(v + 1):
            if w:
                acc[i] = w
            yield from rec(pos + 1, acc)
            acc.pop(i, None)

    yield from rec(0, {})


class ExtLabel:
    """Element of Z^d (+) Z(L): an integer multi-index plus an integer
    combination of type names.  Used for the extended node label that
    records what a contracted subtree carried."""

    __slots__ = ("_zd", "_types")

    def __init__(self, zd: Mapping[int, int] = (), types: Mapping[str, int] = ()):
        self._zd = tuple(sorted((int(i), int(v)) for i, v in dict(zd).items() if int(v)))
        self._types = tuple(sorted((str(t), int(v)) for t, v in dict(types).items() if int(v)))

    @classmethod
    def from_multiindex(cls, k: MultiIndex) -> "ExtLabel":
        return cls(dict(k.entries))

    @property
    def zd(self) -> tuple[tuple[int, int], ...]:
        return self._zd

    @property
    def types(self) -> tuple[tuple[str, int], ...]:
        return self._types

    def is_zero(self) -> bool:
        return not self._zd and not self._types

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtLabel)
            and self._zd == other._zd
            and self._types == other._types
        )

    def __hash__(self) -> int:
        return hash(("ext", self._zd, self._types))

    def __repr__(self) -> str:
        return f"ExtLabel(zd={dict(self._zd)}, types={dict(self._types)})"


ZERO_EXT = ExtLabel()


@dataclass(frozen=True)
class TypeTable:
    """Kernel and noise types with their exact homogeneities.

    Kernel homogeneities are > 0, noise homogeneities < 0; every noise
    homogeneity must exceed -|s| so that only second cumulants ever need
    renormalization.
    """

    scaling: ScalingSpec
    kernel_types: Mapping[str, Fraction] = field(default_factory=dict)
    noise_types: Mapping[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        kt = {str(k): _as_fraction(v) for k, v in dict(self.kernel_types).items()}
        nt = {str(k): _as_fraction(v) for k, v in dict(self.noise_types).items()}
        object.__setattr__(self, "kernel_types", kt)
        object.__setattr__(self, "noise_types", nt)
        overlap = set(kt) & set(nt)
        if overlap:
            raise ValueError(f"types declared both kernel and noise: {sorted(overlap)}")
        for name, h in kt.items():
            if h <= 0:
                raise ValueError(f"kernel type {name!r} must have positive homogeneity")
        for name, h in nt.items():
            if h >= 0:
                raise ValueError(f"noise type {name!r} must have negative homogeneity")
            if h <= -self.scaling.abs_s:
                raise ValueError(
                    f"noise type {name!r} must satisfy |t|_s > -|s| = {-self.scaling.abs_s}"
                )

    def is_kernel(self, name: str) -> bool:
        return name in self.kernel_types

    def is_noise(self, name: str) -> bool:
        return name in self.noise_types

    def hom(self, name: str) -> Fraction:
        if name in self.kernel_types:
            return self.kernel_types[name]
        if name in self.noise_types:
            return self.noise_types[name]
        raise KeyError(f"unknown type {name!r}")

    def hom_ext(self, label: ExtLabel) -> Fraction:
        """Homogeneity of an extended label, extending |.|_s linearly."""
        total = Fraction(0)
        for i, v in label.zd:
            if i < 0 or i >= self.scaling.d:
                raise ValueError(f"coordinate index {i} outside [0, {self.scaling.d})")
            total += v * self.scaling.s[i]
        for t, v in label.types:
            total += v * self.hom(t)
        return total
