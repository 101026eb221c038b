"""Finite-domain constraint core: variables, trail, and two FIFO propagation queues.

Integer variables keep explicit membership domains, so propagators can do
exact value-level pruning rather than bounds reasoning.  A set variable is
its characteristic row: one 0/1 integer variable per element it may hold,
from which its lower and upper bounds are read.  A domain is a frozenset
that the :class:`Model` replaces and never mutates: every change trails one
``(owner, attribute, old_value)`` record, and ``push_choice``/``pop_choice``
bracket search decisions by restoring those records.

A propagator watches variables.  A change to a watched variable schedules it
on a FIFO queue with per-propagator deduplication, unless its own filter made
the change.  A propagator class that sets ``wakes_on_fix`` watches fixes
only: a variable that becomes fixed goes on a second FIFO, and its
``fix_watchers`` run when it is popped.  ``propagate`` runs both queues to a
fixpoint; an entailed propagator is not woken until backtracking undoes it.
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
    change; read it directly or through ``values()``.  ``watchers`` are woken
    on every change, ``fix_watchers`` only when the domain becomes a singleton.
    """

    __slots__ = ("name", "domain", "watchers", "fix_watchers")

    def __init__(self, values: Iterable[int], name: str):
        self.name = name
        self.domain: frozenset[int] = frozenset(values)
        self.watchers: list[Propagator] = []
        self.fix_watchers: list[Propagator] = []

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
    """Set variable given by its characteristic bits.

    ``bits[v]`` is a 0/1 :class:`IntVar` that is 1 iff ``v`` is in the set;
    only the elements of the initial upper bound have a bit.  ``lb`` and
    ``ub`` are read from the bits.
    """

    __slots__ = ("name", "bits")

    def __init__(self, bits: dict[int, IntVar], name: str):
        self.name = name
        self.bits = bits

    @property
    def lb(self) -> frozenset[int]:
        return frozenset(v for v, b in self.bits.items() if 0 not in b.domain)

    @property
    def ub(self) -> frozenset[int]:
        return frozenset(v for v, b in self.bits.items() if 1 in b.domain)

    def __repr__(self) -> str:
        return f"SetVar({self.name}, lb={sorted(self.lb)}, ub={sorted(self.ub)})"


class Propagator:
    """Base class for propagators.

    Subclasses implement ``filter(model) -> bool`` (False means failure) and
    list the variables they watch in ``watches`` before posting.  Any change
    to a watched variable wakes the propagator, or only a change that fixes
    it if the class sets ``wakes_on_fix``.  A filter must be idempotent: one
    run reaches its own fixpoint, so its own changes do not wake it again.
    A filter may call ``model.set_entailed(self)`` once its constraint can
    no longer be violated; the engine then stops waking it on this branch.
    """

    __slots__ = ("entailed", "queued", "watches")
    wakes_on_fix = False

    def __init__(self):
        self.entailed = False
        self.queued = False
        self.watches: list[IntVar] = []

    def filter(self, model: "Model") -> bool:
        raise NotImplementedError


class AlwaysFail(Propagator):
    """Posted when a construction step detects unsatisfiability up front."""

    def filter(self, model: "Model") -> bool:
        return False


class Model:
    """A constraint model: variables, propagators, trail, and the queues.

    A change that would empty a domain leaves the variable as it was and
    marks the model failed.  Nothing reads a domain between a failure and
    the next ``pop_choice``.
    """

    def __init__(self):
        self._int_count = 0
        self._set_count = 0
        self.propagators: list[Propagator] = []
        self.posted_counts: dict[str, int] = {}
        self._trail: list[tuple[object, str, object]] = []
        self._marks: list[int] = []
        self._queue: deque[Propagator] = deque()
        self._fixed: deque[IntVar] = deque()
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
                    name: Optional[str] = None) -> SetVar:
        """A set with lb <= S <= ub: one bit per element of ub, fixed to 1 on lb."""
        lb, ub = frozenset(lb), frozenset(ub)
        name = name or f"s{self._set_count}"
        if not lb <= ub:
            raise ValueError(f"{name}: lower bound must be within upper bound")
        self._set_count += 1
        return SetVar({v: self.add_fd_var({1} if v in lb else {0, 1},
                                          name=f"{name}[{v}]")
                       for v in sorted(ub)}, name)

    # ----------------------------------------------------------- propagators

    def post(self, prop: Propagator, category: str = "user") -> Propagator:
        self.propagators.append(prop)
        self.posted_counts[category] = self.posted_counts.get(category, 0) + 1
        for var in dict.fromkeys(prop.watches):
            (var.fix_watchers if prop.wakes_on_fix else var.watchers).append(prop)
        prop.queued = True
        self._queue.append(prop)
        return prop

    def posted_total(self) -> int:
        return sum(self.posted_counts.values())

    def set_entailed(self, prop: Propagator) -> None:
        if not prop.entailed:
            self._trail.append((prop, "entailed", False))
            prop.entailed = True

    # ------------------------------------------------------------- mutation

    def _replace(self, var: IntVar, new: frozenset[int]) -> None:
        """Trail ``var.domain``, set it to ``new``, wake watchers, queue a fix."""
        self._trail.append((var, "domain", var.domain))
        var.domain = new
        queue = self._queue
        for prop in var.watchers:
            if not prop.queued and not prop.entailed:
                prop.queued = True
                queue.append(prop)
        if len(new) == 1 and var.fix_watchers:
            self._fixed.append(var)

    def remove_value(self, var: IntVar, v: int) -> bool:
        """Remove ``v`` from ``var``; False on domain wipeout."""
        if v not in var.domain:
            return True
        if len(var.domain) == 1:
            self._failed = True
            return False
        self._replace(var, var.domain - {v})
        return True

    def retain_values(self, var: IntVar, allowed: Iterable[int]) -> bool:
        """Restrict ``var`` to ``allowed``; False on wipeout."""
        kept = var.domain.intersection(allowed)
        if len(kept) == len(var.domain):
            return True
        if not kept:
            self._failed = True
            return False
        self._replace(var, kept)
        return True

    def assign(self, var: IntVar, v: int) -> bool:
        """Fix ``var`` to ``v``; False if ``v`` is not in its domain."""
        return self.retain_values(var, (v,))

    # ----------------------------------------------------------------- queue

    def propagate(self) -> PropagationStatus:
        """Drain the propagator queue, then pop one fixed variable and run a
        snapshot of its fix watchers; repeat to a fixpoint or a failure."""
        queue, fixed = self._queue, self._fixed
        while not self._failed:
            if queue:
                prop = queue.popleft()
                if not prop.entailed and not prop.filter(self):
                    self._failed = True
                prop.queued = False
            elif fixed:
                for prop in tuple(fixed.popleft().fix_watchers):
                    if not prop.entailed and not prop.filter(self):
                        self._failed = True
                        break
            else:
                return PropagationStatus.AT_FIXPOINT
        self._clear_queue()
        return PropagationStatus.FAILED

    def _clear_queue(self) -> None:
        for prop in self._queue:
            prop.queued = False
        self._queue.clear()
        self._fixed.clear()

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
