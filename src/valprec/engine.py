"""Finite-domain constraint core: variables, trail, and two FIFO propagation queues.

Integer variables keep explicit membership domains, each an int bitmask, so
propagators can do exact value-level pruning rather than bounds reasoning.
A set variable is its characteristic row: one 0/1 integer variable per
element it may hold, from which its bounds are read.  ``IntVar.mask`` is
the one domain reader and ``Model.narrow``, which keeps the values a mask
allows, the one mutator; the NAE rule's prune in ``propagate`` is the only
other write site.  The trail has one record layout, ``(var, old_mask)``
or ``(prop, None)`` for an entailment, and ``pop_choice`` restores it.
Both write sites wake before they write, and a queue's head leaves only
once its work is done.  So after an exception anywhere in propagation each
domain is either unwritten, and the next ``propagate`` redoes the prune, or
written with its wakes queued; that call reaches the fixpoint.  A returning
``propagate`` empties both queues, so ``pop_choice`` clears only leftovers.

A propagator watches variables.  A change to a watched variable schedules it
on a FIFO queue with per-propagator deduplication, unless its own filter made
the change.  The one filter is ``TernaryTable``, GAC over three distinct
variables, whose tuples and columns are fixed when it is built; it keeps
each outcome in an untrailed ``memo``, so a revisited domain triple costs
one lookup.  Every ordering rule, lexicographic ordering and set variable
included, is compiled to chains of it in :mod:`valprec.precedence`.
Not-all-equal is a rule of the engine, not a propagator, and
``Model.post_nae`` posts it.  A variable it is posted over goes on a second
FIFO when it becomes fixed, and at its head it runs the rule over its
``nae_pairs`` in one loop.  ``propagate`` runs both queues to a fixpoint;
an entailed propagator is not woken until backtracking undoes it.

Entailed watchers stay on their variables, since taking them off would
cost trail work, so a variable's ``quiet`` flag says instead that every
watcher it has is entailed, and both write sites then skip its wake loop.
The NAE rule's prune sets the flag when its loop finds nothing to wake.
It is cleared at the two events that can give the variable a watcher that
is not entailed: a ``post`` that watches it, and an entailment of one of
its watchers that ``pop_choice`` restores while ``_stamped`` says that
some variable has been flagged.  A model without not-all-equal never flags
one, so it pays nothing for the flag when it backtracks.
"""
from __future__ import annotations

import enum
from collections import deque
from itertools import chain, groupby
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

TRANSITION_CAP = 1_000_000  # the largest domain value; the most transitions a chain tries


class PropagationStatus(enum.Enum):
    AT_FIXPOINT = "at_fixpoint"
    FAILED = "failed"


def mask_values(mask: int) -> Iterator[int]:
    """The values whose bits are set in ``mask``, in increasing order.

    A mask wider than 64 bits is read one 64-bit word at a time, since
    clearing its bits one by one would copy the whole int for each bit.
    """
    if mask >> 64:
        words = mask.to_bytes(-(-mask.bit_length() // 64) * 8, "little")
        for i in range(0, len(words), 8):
            yield from map((i << 3).__add__,
                           mask_values(int.from_bytes(words[i:i + 8], "little")))
        return
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


class Record:
    """A record type: ``repr`` and ``==`` over its ``_fields``, in order.

    A subclass lists its fields in ``_fields`` and ``__slots__`` and sets
    them in its own ``__init__``.  A mutable record is not hashable.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()


class Value(Record):
    """An immutable record, hashed by its fields; ``__init__`` sets them
    with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class IntVar:
    """Integer variable with a finite domain of non-negative values.

    ``mask`` is the domain, bit ``v`` set iff ``v`` is in it, and
    ``mask_values`` lists its values.  A mask's size grows with the largest
    value, so ``post_state_chain`` numbers each layer's states from 0.
    ``watchers`` are woken on every change.  ``nae_pairs`` holds, flattened,
    the other two arguments of each not-all-equal that ``Model.post_nae``
    posts over the variable.  ``quiet`` is True while every watcher is known
    to be entailed, so that a change wakes nothing; the NAE rule's prune
    sets it, and a ``post`` or an undone entailment of a watcher clears it.
    """

    __slots__ = ("name", "mask", "watchers", "nae_pairs", "quiet")

    def __init__(self, mask: int, name: str):
        self.name, self.mask, self.quiet = name, mask, False
        self.watchers: list[Propagator] = []
        self.nae_pairs: list[IntVar] = []

    def __repr__(self) -> str:
        return f"IntVar({self.name}, {list(mask_values(self.mask))})"


class SetVar:
    """Set variable given by its characteristic bits.

    ``bits[v]`` is a 0/1 :class:`IntVar` that is 1 iff ``v`` is in the set;
    only the elements of the initial upper bound have a bit.  ``lb`` and
    ``ub`` are read from the bits' masks.
    """

    __slots__ = ("name", "bits")

    def __init__(self, bits: dict[int, IntVar], name: str):
        self.name = name
        self.bits = bits

    @property
    def lb(self) -> frozenset[int]:
        return frozenset(v for v, b in self.bits.items() if b.mask == 2)

    @property
    def ub(self) -> frozenset[int]:
        return frozenset(v for v, b in self.bits.items() if b.mask & 2)

    def __repr__(self) -> str:
        return f"SetVar({self.name}, lb={sorted(self.lb)}, ub={sorted(self.ub)})"


class Propagator:
    """Base class for propagators.

    Subclasses implement ``filter(model) -> bool`` (False means failure) and
    list the variables they watch in ``watches`` before posting.  Any change
    to a watched variable wakes the propagator.  A filter must be
    idempotent: its own changes do not wake it again.  It may call
    ``model.set_entailed(self)`` once its constraint cannot be violated; it
    then sleeps on this branch, and its variables may be flagged ``quiet``
    until backtracking undoes the entailment.
    """

    __slots__ = ("entailed", "queued", "watches")

    def __init__(self):
        self.entailed = self.queued = False
        self.watches: Sequence[IntVar] = ()

    def filter(self, model: "Model") -> bool:
        raise NotImplementedError


class TernaryTable(Propagator):
    """GAC table constraint over three distinct integer variables.

    ``__init__`` refuses a repeated variable, a tuple value that is not an
    int from 0 to ``TRANSITION_CAP`` (a bool included), and an entry that is
    not a ``tuple`` (a list or a range), before anything is posted and
    before any value is shifted into a mask.  It builds ``columns``: the
    masks of the values each position's tuples hold, then their sizes.  ``triples`` is the sorted
    distinct tuples; repeats are dropped in input order, so a presorted
    input (every chain's) costs the sort one run.
    While each mask lies in its domain, every tuple is live.  Otherwise
    only the position whose column has the smallest live share is scanned
    (the smallest estimated slice; the earliest wins a tie): its live
    values' tuples, from a per-position index (value -> tuples) built on
    first use, never trailed.  A one-value slice is looked up directly.  A
    narrow whose keep mask covers the domain is not made.

    ``memo`` maps the domain masks a filter sees, each cut to its column, to
    the filter's outcome: the support masks and whether the table is then
    entailed, or all-zero supports for a failure.  The outcome is a pure
    function of those masks, given the fixed tuples, so the memo is never
    trailed; a hit skips the scan choice and the scan, and both paths end in
    the same narrows.  A miss stores its outcome once complete, and the memo
    stops growing at one entry per tuple.
    """

    __slots__ = ("x", "y", "z", "triples", "columns", "by_value", "memo")

    def __init__(self, x: IntVar, y: IntVar, z: IntVar,
                 triples: Iterable[tuple[int, int, int]]):
        super().__init__()
        if x is y or y is z or x is z:
            raise ValueError(f"table over {x.name}, {y.name}, {z.name}: "
                             "its three variables must be distinct")
        triples = tuple(triples)
        cx = cy = cz = 0
        try:
            for t in triples:
                if type(t) is not tuple:  # a list cannot be hashed, a range not sorted
                    raise ValueError
                u, v, w = t
                # before the shifts, which would read a bool as 0 or 1 and
                # turn a huge value into a huge mask
                if (u > TRANSITION_CAP or v > TRANSITION_CAP or w > TRANSITION_CAP
                        or type(u) is bool or type(v) is bool or type(w) is bool):
                    raise ValueError
                cx |= 1 << u
                cy |= 1 << v
                cz |= 1 << w
        except (TypeError, ValueError):  # not a tuple of three ints from 0 to the cap
            raise ValueError(f"table over {x.name}, {y.name}, {z.name}: a tuple holds "
                             f"three ints from 0 to TRANSITION_CAP ({TRANSITION_CAP}), "
                             f"got {t!r}") from None
        self.x, self.y, self.z = self.watches = [x, y, z]
        # dict.fromkeys keeps order, so presorted triples meet sorted as one run
        self.triples = tuple(sorted(dict.fromkeys(triples)))
        self.columns = (cx, cy, cz, cx.bit_count(), cy.bit_count(), cz.bit_count())
        self.by_value: list[Optional[dict[int, tuple]]] = [None, None, None]
        self.memo: dict[tuple[int, int, int], tuple[int, int, int, bool]] = {}

    def filter(self, m: Model) -> bool:
        x, y, z = self.x, self.y, self.z
        dx, dy, dz = x.mask, y.mask, z.mask
        cx, cy, cz, tx, ty, tz = self.columns
        key = (kx, ky, kz) = (dx & cx, dy & cy, dz & cz)
        memo = self.memo
        if (out := memo.get(key)) is None:
            pos, live, total = None, 1, 1  # shares compare by cross-multiplying
            if (n := kx.bit_count()) < tx:
                pos, live, total, scan = 0, n, tx, kx
            if (n := ky.bit_count()) < ty and n * total < live * ty:
                pos, live, total, scan = 1, n, ty, ky
            if (n := kz.bit_count()) < tz and n * total < live * tz:
                pos, scan = 2, kz
            sx = sy = sz = live = 0
            if pos is None:
                sx, sy, sz, live = cx, cy, cz, len(self.triples)
            elif scan:
                index = self.by_value[pos]
                if index is None:
                    key_of = itemgetter(pos)
                    index = self.by_value[pos] = {
                        a: tuple(group)
                        for a, group in groupby(sorted(self.triples, key=key_of), key_of)}
                for u, v, w in (index[scan.bit_length() - 1] if not scan & (scan - 1) else
                                chain.from_iterable(map(index.__getitem__, mask_values(scan)))):
                    if kx >> u & 1 and ky >> v & 1 and kz >> w & 1:
                        sx, sy, sz, live = sx | 1 << u, sy | 1 << v, sz | 1 << w, live + 1
            out = (sx, sy, sz, live > 0 and (
                live == 1 or live == sx.bit_count() * sy.bit_count() * sz.bit_count()))
            if len(memo) < len(self.triples):
                memo[key] = out
        sx, sy, sz, entailed = out
        # A narrow whose keep mask covers the domain would change nothing.
        if not sx or (dx & ~sx and not m.narrow(x, sx)) \
                or (dy & ~sy and not m.narrow(y, sy)) or (dz & ~sz and not m.narrow(z, sz)):
            return False
        if entailed:
            m.set_entailed(self)
        return True


class Model:
    """A constraint model: variables, propagators, trail, and the queues.

    A change that would empty a domain leaves it as it was and marks the
    model failed; nothing reads a domain until the next ``pop_choice``.
    """

    def __init__(self):
        self._int_count = self._set_count = 0
        self.propagators: list[Propagator] = []
        self.posted_counts: dict[str, int] = {}
        self._trail: list[tuple[IntVar | Propagator, Optional[int]]] = []
        self._marks: list[int] = []
        self._queue: deque[Propagator] = deque()
        self._fixed: deque[IntVar] = deque()
        self._failed = False
        self._stamped = False

    # ------------------------------------------------------------------ vars

    def add_fd_var(self, values: Iterable[int], name: Optional[str] = None) -> IntVar:
        name = name or f"x{self._int_count}"
        if isinstance(values, range) and values.step == 1 and values.start >= 0:
            if values and values[-1] > TRANSITION_CAP:
                raise ValueError(f"{name}: a domain holds ints from 0 to "
                                 f"TRANSITION_CAP ({TRANSITION_CAP}), got {values[-1]}")
            # one run of bits, built at once: OR-ing k bits in one by one
            # copies a growing int k times
            mask = ((1 << len(values)) - 1) << values.start
        else:
            mask = 0
            for v in values:
                try:
                    if type(v) is bool or not 0 <= v <= TRANSITION_CAP:
                        raise ValueError(f"{name}: a domain holds ints from 0 to "
                                         f"TRANSITION_CAP ({TRANSITION_CAP}), got {v!r}")
                    mask |= 1 << v
                except TypeError:  # not an int: a float shift count, or a str compared to 0
                    raise ValueError(f"{name}: a domain holds only int values, "
                                     f"got {v!r}") from None
        if not mask:
            raise ValueError(f"{name}: cannot create a variable with an empty domain")
        self._int_count += 1
        return IntVar(mask, name)

    def add_set_var(self, lb: Iterable[int], ub: Iterable[int],
                    name: Optional[str] = None) -> SetVar:
        """A set with lb <= S <= ub: one bit per element of ub, fixed to 1 on lb."""
        lb, ub = frozenset(lb), frozenset(ub)
        name = name or f"s{self._set_count}"
        for v in ub:
            if type(v) is not int or v < 0:
                raise ValueError(f"{name}: a set holds only non-negative int elements, got {v!r}")
        if not lb <= ub:
            raise ValueError(f"{name}: needs lb within ub")
        self._set_count += 1
        return SetVar({v: self.add_fd_var({1} if v in lb else {0, 1},
                                          name=f"{name}[{v}]")
                       for v in sorted(ub)}, name)

    # ----------------------------------------------------------- propagators

    def post(self, prop: Propagator, category: str = "user") -> Propagator:
        self.propagators.append(prop)
        self.posted_counts[category] = self.posted_counts.get(category, 0) + 1
        for var in dict.fromkeys(prop.watches):
            var.watchers.append(prop)
            var.quiet = False
        prop.queued = True
        self._queue.append(prop)
        return prop

    def post_nae(self, x: IntVar, y: IntVar, z: IntVar) -> None:
        """Post that at least two of x, y, z differ; arguments may repeat.

        Counted as one ``"user"`` constraint.  A rule, not a propagator:
        each argument gets the other two as a pair in its ``nae_pairs``
        (both distinct arguments of a repeated triple get the two), and
        when ``propagate`` reaches a variable fixed to c, it removes c from one
        side of each of its pairs whose other side is fixed to c.  That is
        GAC, since the later of two fixes to c sees the earlier; a triple of
        one variable fails the model.  Arguments already fixed are queued.
        """
        self.posted_counts["user"] = self.posted_counts.get("user", 0) + 1
        if x is y or y is z or x is z:
            pair = (x, z) if x is y else (x, y)
            args = dict.fromkeys(pair)
            if len(args) == 1:
                self._failed = True
            for var in args:
                var.nae_pairs += pair
        else:
            args = x, y, z
            x.nae_pairs += y, z
            y.nae_pairs += x, z
            z.nae_pairs += x, y
        self._fixed.extend(var for var in args if not var.mask & (var.mask - 1))

    def set_entailed(self, prop: Propagator) -> None:
        if not prop.entailed:
            self._trail.append((prop, None))
            prop.entailed = True

    # ------------------------------------------------------------- mutation

    def narrow(self, var: IntVar, keep: int) -> bool:
        """Keep the values of ``var`` whose bits are set in ``keep``; False on wipeout.
        Wakes before it trails and writes, so a raise while waking changes nothing."""
        old = var.mask
        new = old & keep
        if new == old:
            return True
        if not new:
            self._failed = True
            return False
        if not var.quiet:
            queue = self._queue
            for prop in var.watchers:
                if not prop.queued and not prop.entailed:
                    prop.queued = True
                    queue.append(prop)
        self._trail.append((var, old))
        var.mask = new
        if not new & (new - 1) and var.nae_pairs:
            self._fixed.append(var)
        return True

    # ----------------------------------------------------------------- queue

    def propagate(self) -> PropagationStatus:
        """Run the propagator queue, then the NAE rule over the first fixed variable's
        pairs, to a fixpoint or a failure; an item leaves its queue once its run is done."""
        queue, fixed, trail = self._queue, self._fixed, self._trail
        while not self._failed:
            if queue:
                prop = queue[0]
                if not prop.entailed and not prop.filter(self):
                    self._failed = True
                queue.popleft()
                prop.queued = False
            elif fixed:
                var = fixed[0]
                c, pairs = var.mask, iter(var.nae_pairs)
                for a, b in zip(pairs, pairs):
                    # Of a pair with one side fixed to c, the other loses c.
                    if a.mask == c:
                        a = b
                    elif b.mask != c:
                        continue
                    if not (old := a.mask) & c:
                        continue
                    if old == c:
                        self._failed = True
                        break
                    if not a.quiet:
                        quiet = True
                        for prop in a.watchers:
                            if not prop.entailed:
                                quiet = False
                                if not prop.queued:
                                    prop.queued = True
                                    queue.append(prop)
                        if quiet:
                            a.quiet = self._stamped = True
                    trail.append((a, old))
                    a.mask = new = old ^ c
                    if not new & (new - 1):
                        fixed.append(a)
                fixed.popleft()
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
        mark, trail = self._marks.pop(), self._trail
        for owner, old in reversed(trail[mark:]):
            if old is None:
                owner.entailed = False
                if self._stamped:
                    for var in owner.watches:
                        var.quiet = False
            else:
                owner.mask = old
        del trail[mark:]
        self._failed = False
        if self._queue or self._fixed:
            self._clear_queue()

    @property
    def failed(self) -> bool:
        return self._failed
