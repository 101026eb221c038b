"""Symmetry groups acting on assignments, and the pair coding for wreath values.

A value symmetry is given by one of the interchange specs below; a variable
symmetry by a named index group.  The pair, full and partition specs share
one ``classes`` view: the disjoint classes of values that may be permuted
independently.  Groups are enumerated explicitly (these are
referee-sized instances), acting on assignment tuples via

    image[i] = sigma(a[pi(i)])

for a value permutation sigma and a variable permutation pi.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import factorial, prod
from typing import Iterable, Sequence, Union

# Most elements a group, or the oracle's product of domains, may enumerate.
ENUM_CAP = 10_000_000


def _require_values(*groups: Sequence[int], domain: bool = True) -> None:
    """Refuse an empty group, a repeated value, a non-int and, if ``domain``, a negative value."""
    for values in groups:
        if set(map(type, values)) != {int} or len(set(values)) != len(values) \
                or domain and min(values) < 0:
            raise ValueError(f"values must be non-empty, distinct "
                             f"{'non-negative ' * domain}ints, got {tuple(values)}")


@dataclass(frozen=True)
class PairInterchange:
    """Values first and second may be swapped: the one class (first, second)."""
    first: int
    second: int

    def __post_init__(self):
        _require_values(*self.classes)

    @property
    def classes(self) -> tuple[tuple[int, int]]:
        return ((self.first, self.second),)


@dataclass(frozen=True)
class FullInterchange:
    """All listed values may be permuted arbitrarily, as one class; others are fixed."""
    values: tuple[int, ...]

    def __post_init__(self):
        _require_values(self.values)

    @property
    def classes(self) -> tuple[tuple[int, ...]]:
        return (self.values,)


@dataclass(frozen=True)
class PartitionInterchange:
    """Each class of values may be permuted independently."""
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _require_values(*self.classes)
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
        _require_values(self.outer, self.inner, domain=False)

    def code(self, u: int, v: int) -> int:
        if isinstance(u, bool) or isinstance(v, bool) \
                or u not in self.outer or v not in self.inner:
            raise ValueError(f"<{u!r}, {v!r}> is not a pair of outer {self.outer} "
                             f"and inner {self.inner}")
        return self.outer.index(u) * len(self.inner) + self.inner.index(v)

    def decode(self, c: int) -> tuple[int, int]:
        self.require_codes((c,))
        a, b = divmod(c, len(self.inner))
        return (self.outer[a], self.inner[b])

    @property
    def codes(self) -> tuple[int, ...]:
        return tuple(range(len(self.outer) * len(self.inner)))

    def require_codes(self, codes: Iterable[int]) -> None:
        """Refuse, naming it, the first of ``codes`` outside ``self.codes``."""
        valid = range(len(self.outer) * len(self.inner))
        for c in codes:
            if not isinstance(c, int) or isinstance(c, bool) or c not in valid:
                raise ValueError(f"{c!r} is not a code of {self}: "
                                 f"codes are 0..{len(valid) - 1}")

    @cached_property
    def code_classes(self) -> tuple[tuple[int, ...], ...]:
        """The codes' first-occurrence classes: one per outer block, then the heads.

        Block ``a`` is ``(a*p, ..., a*p + p - 1)`` for ``p`` inner values,
        and the heads class is ``(0, p, 2p, ...)``, so each head is in two
        classes.  Once each block's inner order holds, a block first appears
        at its head, so ordering the heads orders the outer values.
        """
        p = len(self.inner)
        blocks = [tuple(range(a * p, a * p + p)) for a in range(len(self.outer))]
        return (*blocks, tuple(range(0, len(self.outer) * p, p)))


SymmetrySpec = Union[PairInterchange, FullInterchange, PartitionInterchange,
                     WreathInterchange]
# The specs with a ``classes`` view, for isinstance tests.
CLASS_SPECS = (PairInterchange, FullInterchange, PartitionInterchange)


def _require_order(order: int, group: str) -> None:
    """Refuse, naming its order, a group with more than ENUM_CAP elements."""
    if order > ENUM_CAP:
        raise ValueError(f"{group} has {order} elements, over the cap of {ENUM_CAP}")


def value_group_order(spec: SymmetrySpec) -> int:
    """The number of value permutations in ``spec``'s group, without listing them."""
    if isinstance(spec, CLASS_SPECS):
        return prod(factorial(len(c)) for c in spec.classes)
    if isinstance(spec, WreathInterchange):
        m, p = len(spec.outer), len(spec.inner)
        return factorial(m) * factorial(p) ** m
    raise TypeError(f"unknown symmetry spec {spec!r}")


def variable_group_order(kind: str, n: int) -> int:
    """The number of index permutations ``variable_permutations(kind, n)`` lists."""
    if kind == "none":
        return 1
    if kind == "full":
        return factorial(n)
    if kind == "reflection":
        return 2
    if kind == "rotation":
        return max(n, 1)
    raise ValueError(f"unknown variable group {kind!r}")


def value_permutations(spec: SymmetrySpec) -> list[dict[int, int]]:
    """All value permutations of the group, as mappings over the moved values.

    Values absent from a mapping are fixed; apply with ``perm.get(v, v)``.
    A value-class spec's group is the product of its classes' permutations.
    """
    _require_order(value_group_order(spec), f"{spec}'s group")
    if isinstance(spec, CLASS_SPECS):
        perms = [{}]
        for cls in spec.classes:
            perms = [p | dict(zip(cls, img))
                     for p in perms for img in itertools.permutations(cls)]
        return perms
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


def variable_permutations(kind: str, n: int) -> list[tuple[int, ...]]:
    """Index permutations pi, applied as image[i] = a[pi[i]]."""
    _require_order(variable_group_order(kind, n), f"the {kind} group on {n} positions")
    ident = tuple(range(n))
    if kind == "none":
        return [ident]
    if kind == "full":
        return [tuple(p) for p in itertools.permutations(range(n))]
    if kind == "reflection":
        return [ident, tuple(range(n - 1, -1, -1))]
    return [tuple((i + r) % n for i in range(n)) for r in range(max(n, 1))]


def apply_symmetry(assignment: Sequence[int], vperm: dict[int, int],
                   varperm: Sequence[int]) -> tuple[int, ...]:
    return tuple(vperm.get(assignment[varperm[i]], assignment[varperm[i]])
                 for i in range(len(assignment)))


def assignment_orbit(assignment: Sequence[int],
                     value_perms: Iterable[dict[int, int]],
                     var_perms: Iterable[Sequence[int]]) -> set[tuple[int, ...]]:
    return {apply_symmetry(assignment, vp, pp)
            for vp in value_perms for pp in var_perms}
