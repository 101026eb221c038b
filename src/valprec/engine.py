"""Finite-domain constraint core: variables, trail, and two FIFO propagation queues.

Integer variables keep explicit membership domains, each an int bitmask, so
propagators can do exact value-level pruning rather than bounds reasoning.
A set variable is its characteristic row: one 0/1 integer variable per
element it may hold, from which its bounds are read.  ``IntVar.mask`` is
the one domain reader and ``Model.narrow``, which keeps the values a mask
allows, the one mutator; the NAE rule's prune in ``propagate`` is the only
other write site.  The trail has one record layout, ``(var, old_mask)``
or ``(prop, None)`` for an entailment, and ``pop_choice`` restores it.
Every ``propagate`` leaves both queues empty, so ``pop_choice`` clears them
only when a ``narrow`` since then left them non-empty.  An exception out of
a filter leaves its work queued, and the next ``propagate`` resumes it.

A propagator watches variables.  A change to a watched variable schedules it
on a FIFO queue with per-propagator deduplication, unless its own filter made
the change.  The one filter is ``TernaryTable``, GAC over three distinct
variables, whose tuples and columns are fixed when it is built; it keeps
each outcome in an untrailed ``memo``, so a revisited domain triple costs
one lookup.  Every ordering rule, lexicographic ordering and set variable
included, is compiled to chains of it in :mod:`valprec.precedence`.
Not-all-equal is a rule of the engine, not a propagator, and
``Model.post_nae`` posts it.  A variable it is posted over goes on a second
FIFO when it becomes fixed, and popping it runs the rule over its
``nae_pairs`` in one loop.  ``propagate`` runs both queues to a fixpoint;
an entailed propagator is not woken until backtracking undoes it.

Entailed watchers stay on their variables, since taking them off would
cost trail work, so the rule's prune remembers instead when a variable has
nothing to wake.  The model's wake counter ``_wakes`` moves on at the two
events that can give a variable a watcher that is not entailed: each
``post``, and each entailment that ``pop_choice`` restores while
``_stamped`` says that a stamp may equal the counter.  A prune whose wake
loop finds every watcher entailed stamps the variable's ``quiet`` with the
counter and sets ``_stamped``, and later prunes skip the loop while the
stamp equals the counter.  So a model without not-all-equal, which never
stamps, pays no bump when it backtracks.  ``narrow`` keeps no stamp and
always runs its loop.
"""
from __future__ import annotations

import enum
from collections import deque
from itertools import chain, groupby
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence


class PropagationStatus(enum.Enum):
    AT_FIXPOINT = "at_fixpoint"
    FAILED = "failed"


def mask_values(mask: int) -> Iterator[int]:
    """The values whose bits are set in ``mask``, in increasing order."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


class IntVar:
    """Integer variable with a finite domain of non-negative values.

    ``mask`` is the domain, bit ``v`` set iff ``v`` is in it, and
    ``mask_values`` lists its values.  A mask's size grows with the largest
    value, so ``post_state_chain`` numbers each layer's states from 0.
    ``watchers`` are woken on every change.  ``nae_pairs`` holds, flattened,
    the other two arguments of each not-all-equal that ``Model.post_nae``
    posts over the variable.  ``quiet`` is the model's wake counter when
    the NAE rule's prune last found every watcher entailed (-1 before any);
    while the counter still holds that value, the rule's prunes wake nothing.
    """

    __slots__ = ("name", "mask", "watchers", "nae_pairs", "quiet")

    def __init__(self, mask: int, name: str):
        self.name, self.mask, self.quiet = name, mask, -1
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
    then sleeps on this branch.
    """

    __slots__ = ("entailed", "queued", "watches")

    def __init__(self):
        self.entailed = self.queued = False
        self.watches: Sequence[IntVar] = ()

    def filter(self, model: "Model") -> bool:
        raise NotImplementedError


class TernaryTable(Propagator):
    """GAC table constraint over three distinct integer variables.

    ``__init__`` refuses a repeated variable and a tuple value that is not
    a non-negative int, before anything is posted, and builds ``columns``:
    the masks of the values each position's tuples hold, then their sizes.
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
        triples = set(triples)
        cx = cy = cz = 0
        for t in triples:
            try:
                u, v, w = t
                cx, cy, cz = cx | 1 << u, cy | 1 << v, cz | 1 << w
            except (TypeError, ValueError):  # not three values, a non-int or negative shift
                raise ValueError(f"table over {x.name}, {y.name}, {z.name}: "
                                 f"a tuple holds three ints >= 0, got {t!r}") from None
        self.x, self.y, self.z = self.watches = [x, y, z]
        self.triples = tuple(sorted(triples))
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
        self._wakes = 0
        self._stamped = False

    # ------------------------------------------------------------------ vars

    def add_fd_var(self, values: Iterable[int], name: Optional[str] = None) -> IntVar:
        name = name or f"x{self._int_count}"
        if isinstance(values, range) and values.step == 1 and values.start >= 0:
            # one run of bits, built at once: OR-ing k bits in one by one
            # copies a growing int k times
            mask = ((1 << len(values)) - 1) << values.start
        else:
            mask = 0
            for v in values:
                try:
                    if v < 0:
                        raise ValueError(f"{name}: a domain holds no negative value, got {v}")
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
        self._wakes += 1
        self.propagators.append(prop)
        self.posted_counts[category] = self.posted_counts.get(category, 0) + 1
        for var in dict.fromkeys(prop.watches):
            var.watchers.append(prop)
        prop.queued = True
        self._queue.append(prop)
        return prop

    def post_nae(self, x: IntVar, y: IntVar, z: IntVar) -> None:
        """Post that at least two of x, y, z differ; arguments may repeat.

        Counted as one ``"user"`` constraint.  A rule, not a propagator:
        each argument gets the other two as a pair in its ``nae_pairs``
        (both distinct arguments of a repeated triple get the two), and
        when ``propagate`` pops a variable fixed to c, it removes c from one
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
        """Keep the values of ``var`` whose bits are set in ``keep``; False on wipeout."""
        old = var.mask
        new = old & keep
        if new == old:
            return True
        if not new:
            self._failed = True
            return False
        self._trail.append((var, old))
        var.mask = new
        queue = self._queue
        for prop in var.watchers:
            if not prop.queued and not prop.entailed:
                prop.queued = True
                queue.append(prop)
        if not new & (new - 1) and var.nae_pairs:
            self._fixed.append(var)
        return True

    # ----------------------------------------------------------------- queue

    def propagate(self) -> PropagationStatus:
        """Drain the propagator queue, then pop one fixed variable and apply
        the NAE rule over its pairs; repeat to a fixpoint or a failure."""
        queue, fixed, trail = self._queue, self._fixed, self._trail
        prop = None
        try:
            while not self._failed:
                if queue:
                    prop = queue.popleft()
                    if not prop.entailed and not prop.filter(self):
                        self._failed = True
                    prop.queued = False
                elif fixed:
                    var = fixed.popleft()
                    c, pairs, wakes = var.mask, iter(var.nae_pairs), self._wakes
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
                        trail.append((a, old))
                        a.mask = new = old ^ c
                        if a.quiet != wakes:  # not known to wake nothing
                            quiet = True
                            for prop in a.watchers:
                                if not prop.entailed:
                                    quiet = False
                                    if not prop.queued:
                                        prop.queued = True
                                        queue.append(prop)
                            if quiet:
                                a.quiet = wakes
                                self._stamped = True
                        if not new & (new - 1):
                            fixed.append(a)
                else:
                    return PropagationStatus.AT_FIXPOINT
        except BaseException:
            # A filter the exception cut short is still marked queued but is
            # off the queue: put it back first.  Filters are idempotent, so
            # the next call resumes the fixpoint.
            if prop is not None and prop.queued and prop not in queue:
                queue.appendleft(prop)
            raise
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
                    self._wakes += 1
                    self._stamped = False
            else:
                owner.mask = old
        del trail[mark:]
        self._failed = False
        if self._queue or self._fixed:
            self._clear_queue()

    @property
    def failed(self) -> bool:
        return self._failed
