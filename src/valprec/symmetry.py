"""Symmetry groups acting on assignments, and the pair coding for wreath values.

A value symmetry is given by one of the interchange specs below; a variable
symmetry by a named index group.  Groups are enumerated explicitly (these are
referee-sized instances), acting on assignment tuples via

    image[i] = sigma(a[pi(i)])

for a value permutation sigma and a variable permutation pi.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence, Union


def _require_values(*groups: Sequence[int]) -> None:
    """Refuse a group of values that is empty or lists a value twice."""
    for values in groups:
        if not values or len(set(values)) != len(values):
            raise ValueError(f"values must be non-empty and distinct, got {tuple(values)}")


@dataclass(frozen=True)
class PairInterchange:
    """Values first and second may be swapped."""
    first: int
    second: int

    def __post_init__(self):
        _require_values(self.values)

    @property
    def values(self) -> tuple[int, int]:
        return (self.first, self.second)


@dataclass(frozen=True)
class FullInterchange:
    """All listed values may be permuted arbitrarily; others are fixed."""
    values: tuple[int, ...]

    def __post_init__(self):
        _require_values(self.values)


@dataclass(frozen=True)
class PartitionInterchange:
    """Each class of values may be permuted independently."""
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        flat = [v for cls in self.classes for v in cls]
        if len(set(flat)) != len(flat):
            raise ValueError("partition classes must be disjoint")


@dataclass(frozen=True)
class WreathInterchange:
    """Pair values <u, v> with u from outer, v from inner.

    Outer values may be permuted, and within each outer value the inner
    values may be permuted independently.  Pairs are flattened to integer
    codes so ordinary finite-domain variables can carry them.
    """
    outer: tuple[int, ...]
    inner: tuple[int, ...]

    def __post_init__(self):
        _require_values(self.outer, self.inner)

    def code(self, u: int, v: int) -> int:
        return self.outer.index(u) * len(self.inner) + self.inner.index(v)

    def decode(self, c: int) -> tuple[int, int]:
        a, b = divmod(c, len(self.inner))
        return (self.outer[a], self.inner[b])

    @property
    def codes(self) -> tuple[int, ...]:
        return tuple(range(len(self.outer) * len(self.inner)))


SymmetrySpec = Union[PairInterchange, FullInterchange, PartitionInterchange,
                     WreathInterchange]


def _perm_maps(values: Sequence[int]) -> list[dict[int, int]]:
    vals = list(values)
    return [dict(zip(vals, img)) for img in itertools.permutations(vals)]


def value_permutations(spec: SymmetrySpec) -> list[dict[int, int]]:
    """All value permutations of the group, as mappings over the moved values.

    Values absent from a mapping are fixed; apply with ``perm.get(v, v)``.
    """
    if isinstance(spec, (PairInterchange, FullInterchange)):
        return _perm_maps(spec.values)
    if isinstance(spec, PartitionInterchange):
        perms = [{}]
        for cls in spec.classes:
            perms = [p | q for p in perms for q in _perm_maps(cls)]
        return perms
    if isinstance(spec, WreathInterchange):
        m, p = len(spec.outer), len(spec.inner)
        outer_idx = range(m)
        inner_idx = range(p)
        result = []
        for sigma in itertools.permutations(outer_idx):
            for taus in itertools.product(itertools.permutations(inner_idx), repeat=m):
                mapping = {}
                for a in outer_idx:
                    for b in inner_idx:
                        mapping[a * p + b] = sigma[a] * p + taus[a][b]
                result.append(mapping)
        return result
    raise TypeError(f"unknown symmetry spec {spec!r}")


def variable_permutations(kind: str, n: int) -> list[tuple[int, ...]]:
    """Index permutations pi, applied as image[i] = a[pi[i]]."""
    ident = tuple(range(n))
    if kind == "none":
        return [ident]
    if kind == "full":
        return [tuple(p) for p in itertools.permutations(range(n))]
    if kind == "reflection":
        return [ident, tuple(range(n - 1, -1, -1))]
    if kind == "rotation":
        return [tuple((i + r) % n for i in range(n)) for r in range(max(n, 1))]
    raise ValueError(f"unknown variable group {kind!r}")


def apply_symmetry(assignment: Sequence[int], vperm: dict[int, int],
                   varperm: Sequence[int]) -> tuple[int, ...]:
    return tuple(vperm.get(assignment[varperm[i]], assignment[varperm[i]])
                 for i in range(len(assignment)))


def assignment_orbit(assignment: Sequence[int],
                     value_perms: Iterable[dict[int, int]],
                     var_perms: Iterable[Sequence[int]]) -> set[tuple[int, ...]]:
    return {apply_symmetry(assignment, vp, pp)
            for vp in value_perms for pp in var_perms}
