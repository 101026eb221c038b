"""Finite-domain constraint core: variables, trail, and a FIFO propagation queue.

Integer variables keep explicit membership domains, so propagators can do
exact value-level pruning rather than bounds reasoning.  Set variables are
interval-bounded (lower bound, upper bound, fixed cardinality range).  A
domain or bound is a frozenset that the :class:`Model` replaces and never
mutates: every change trails one ``(owner, attribute, old_value)`` record,
and ``push_choice``/``pop_choice`` bracket search decisions by restoring
those records.

A propagator watches variables.  Any change to a watched variable schedules
it on a FIFO queue with per-propagator deduplication, and ``propagate`` runs
the queue to a fixpoint; a propagator that reports entailment is never woken
again until backtracking undoes the report.
"""
from __future__ import annotations

import enum
from collections import deque
from typing import Iterable, Optional


class PropagationStatus(enum.Enum):
    AT_FIXPOINT = "at_fixpoint"
    FAILED = "failed"


class IntVar:
    """Integer variable with an explicit finite domain.

    ``domain`` is a frozenset owned by the model, which replaces it on every
    change; read it directly or through ``values()``.
    """

    __slots__ = ("name", "domain", "watchers")

    def __init__(self, values: Iterable[int], name: str):
        self.name = name
        self.domain: frozenset[int] = frozenset(values)
        self.watchers: list[Propagator] = []

    def values(self) -> tuple[int, ...]:
        return tuple(sorted(self.domain))

    def min(self) -> int:
        return min(self.domain)

    def max(self) -> int:
        return max(self.domain)

    def is_assigned(self) -> bool:
        return len(self.domain) == 1

    def value(self) -> int:
        if len(self.domain) != 1:
            raise ValueError(f"{self.name} is not assigned")
        return next(iter(self.domain))

    def __contains__(self, v: int) -> bool:
        return v in self.domain

    def __repr__(self) -> str:
        return f"IntVar({self.name}, {sorted(self.domain)})"


class SetVar:
    """Set variable bounded by required elements, possible elements, and cardinality.

    The model replaces the frozensets ``lb`` and ``ub``; cardinality is fixed.
    """

    __slots__ = ("name", "lb", "ub", "card_lo", "card_hi", "watchers")

    def __init__(self, lb: Iterable[int], ub: Iterable[int],
                 card: Optional[tuple[int, int]], name: str):
        self.name = name
        self.lb: frozenset[int] = frozenset(lb)
        self.ub: frozenset[int] = frozenset(ub)
        if not self.lb <= self.ub:
            raise ValueError(f"{self.name}: lower bound must be within upper bound")
        lo, hi = card if card is not None else (len(self.lb), len(self.ub))
        lo, hi = max(lo, len(self.lb)), min(hi, len(self.ub))
        if lo > hi:
            raise ValueError(f"{self.name}: empty cardinality range")
        self.card_lo, self.card_hi = lo, hi
        self.watchers: list[Propagator] = []

    def is_assigned(self) -> bool:
        return self.lb == self.ub

    def __repr__(self) -> str:
        return f"SetVar({self.name}, lb={sorted(self.lb)}, ub={sorted(self.ub)})"


class Propagator:
    """Base class for propagators.

    Subclasses implement ``filter(model) -> bool`` (False means failure) and
    list the variables they watch in ``watches`` before posting.  A filter may
    call ``model.set_entailed(self)`` once its constraint can no longer be
    violated; the engine then stops waking it on this branch.
    """

    __slots__ = ("entailed", "queued", "watches")

    def __init__(self):
        self.entailed = False
        self.queued = False
        self.watches: list[IntVar | SetVar] = []

    def filter(self, model: "Model") -> bool:
        raise NotImplementedError


class AlwaysFail(Propagator):
    """Posted when a construction step detects unsatisfiability up front."""

    def filter(self, model: "Model") -> bool:
        return False


class Model:
    """A constraint model: variables, propagators, trail, and the queue.

    A change that would empty a domain, or break a set variable's bounds or
    cardinality, leaves the variable as it was and marks the model failed.
    Nothing reads a domain between a failure and the next ``pop_choice``.
    """

    def __init__(self):
        self._int_count = 0
        self._set_count = 0
        self.propagators: list[Propagator] = []
        self.posted_counts: dict[str, int] = {}
        self._trail: list[tuple[object, str, object]] = []
        self._marks: list[int] = []
        self._queue: deque[Propagator] = deque()
        self._failed = False

    # ------------------------------------------------------------------ vars

    def add_fd_var(self, values: Iterable[int], name: Optional[str] = None) -> IntVar:
        vals = frozenset(values)
        if not vals:
            raise ValueError("cannot create a variable with an empty domain")
        v = IntVar(vals, name or f"x{self._int_count}")
        self._int_count += 1
        return v

    def add_set_var(self, lb: Iterable[int], ub: Iterable[int],
                    card: Optional[tuple[int, int]] = None,
                    name: Optional[str] = None) -> SetVar:
        s = SetVar(lb, ub, card, name or f"s{self._set_count}")
        self._set_count += 1
        return s

    # ----------------------------------------------------------- propagators

    def post(self, prop: Propagator, category: str = "user") -> Propagator:
        self.propagators.append(prop)
        self.posted_counts[category] = self.posted_counts.get(category, 0) + 1
        for var in prop.watches:
            var.watchers.append(prop)
        self._schedule(prop)
        return prop

    def posted_total(self) -> int:
        return sum(self.posted_counts.values())

    def set_entailed(self, prop: Propagator) -> None:
        if not prop.entailed:
            self._trail.append((prop, "entailed", False))
            prop.entailed = True

    # ------------------------------------------------------------- mutation

    def _replace(self, var: IntVar | SetVar, attr: str,
                 new: frozenset[int]) -> None:
        """Trail ``var.attr``, set it to ``new`` and wake ``var``'s watchers."""
        self._trail.append((var, attr, getattr(var, attr)))
        setattr(var, attr, new)
        for prop in var.watchers:
            self._schedule(prop)

    def remove_value(self, var: IntVar, v: int) -> bool:
        """Remove ``v`` from ``var``; False on domain wipeout."""
        if v not in var.domain:
            return True
        if len(var.domain) == 1:
            self._failed = True
            return False
        self._replace(var, "domain", var.domain - {v})
        return True

    def retain_values(self, var: IntVar, allowed: Iterable[int]) -> bool:
        """Restrict ``var`` to ``allowed``; False on wipeout."""
        kept = var.domain.intersection(allowed)
        if len(kept) == len(var.domain):
            return True
        if not kept:
            self._failed = True
            return False
        self._replace(var, "domain", kept)
        return True

    def assign(self, var: IntVar, v: int) -> bool:
        """Fix ``var`` to ``v``; False if ``v`` is not in its domain."""
        return self.retain_values(var, (v,))

    def include_value(self, svar: SetVar, v: int) -> bool:
        """Add ``v`` to the lower bound of ``svar``; False on failure."""
        if v in svar.lb:
            return True
        if v not in svar.ub or len(svar.lb) >= svar.card_hi:
            self._failed = True
            return False
        self._replace(svar, "lb", svar.lb | {v})
        return True

    def exclude_value(self, svar: SetVar, v: int) -> bool:
        """Remove ``v`` from the upper bound of ``svar``; False on failure."""
        if v not in svar.ub:
            return True
        if v in svar.lb or len(svar.ub) <= svar.card_lo:
            self._failed = True
            return False
        self._replace(svar, "ub", svar.ub - {v})
        return True

    # ----------------------------------------------------------------- queue

    def _schedule(self, prop: Propagator) -> None:
        if not prop.queued and not prop.entailed:
            prop.queued = True
            self._queue.append(prop)

    def propagate(self) -> PropagationStatus:
        """Run queued propagators to a fixpoint."""
        while self._queue and not self._failed:
            prop = self._queue.popleft()
            prop.queued = False
            if not prop.entailed and not prop.filter(self):
                self._failed = True
        if self._failed:
            self._clear_queue()
            return PropagationStatus.FAILED
        return PropagationStatus.AT_FIXPOINT

    def _clear_queue(self) -> None:
        while self._queue:
            self._queue.popleft().queued = False

    # ----------------------------------------------------------------- trail

    def push_choice(self) -> None:
        self._marks.append(len(self._trail))

    def pop_choice(self) -> None:
        if not self._marks:
            raise RuntimeError("pop_choice without a matching push_choice")
        mark = self._marks.pop()
        while len(self._trail) > mark:
            owner, attr, old = self._trail.pop()
            setattr(owner, attr, old)
        self._failed = False
        self._clear_queue()

    @property
    def failed(self) -> bool:
        return self._failed
