"""Propagators: the ternary table, the one filter, and ``NotAllEqual3``, a
rule of :mod:`valprec.engine` that is re-exported here.

The filter is monotone and idempotent.  Everything else, lexicographic
ordering, set variables and the small relations included, is compiled to
ternary table chains in :mod:`valprec.precedence`.
"""
from __future__ import annotations

from itertools import chain, groupby
from operator import itemgetter
from typing import Iterable, Optional

from .engine import IntVar, Model, NotAllEqual3, Propagator, mask_values

__all__ = ["NotAllEqual3", "TernaryTable"]

# --------------------------------------------------------------------- tables


class TernaryTable(Propagator):
    """GAC table constraint over three integer variables.

    A repeated argument keeps only the tuples that agree at its positions.
    ``columns``, set by the first filter, mask the values each position's
    tuples hold; while each lies in its domain, every tuple is live.
    Otherwise only the position whose column has the smallest live share is
    scanned (the smallest estimated slice): its live values' tuples, from a
    per-position index (value -> tuples) built on first use, never trailed.
    """

    __slots__ = ("x", "y", "z", "triples", "columns", "by_value")

    def __init__(self, x: IntVar, y: IntVar, z: IntVar,
                 triples: Iterable[tuple[int, int, int]]):
        super().__init__()
        self.x, self.y, self.z = self.watches = [x, y, z]
        triples = set(triples)
        if x is y or y is z or x is z:
            triples = {(u, v, w) for u, v, w in triples
                       if (x is not y or u == v) and (y is not z or v == w)
                       and (x is not z or u == w)}
        self.triples = tuple(sorted(triples))
        self.columns: Optional[tuple[int, int, int]] = None
        self.by_value: list[Optional[dict[int, tuple]]] = [None, None, None]

    def filter(self, m: Model) -> bool:
        x, y, z = self.x, self.y, self.z
        doms = dx, dy, dz = x.mask, y.mask, z.mask
        cols = self.columns
        if cols is None:
            cx = cy = cz = 0
            for u, v, w in self.triples:
                cx, cy, cz = cx | 1 << u, cy | 1 << v, cz | 1 << w
            cols = self.columns = (cx, cy, cz)
        pos, live, total = None, 1, 1  # shares compare by cross-multiplying
        for p, col in enumerate(cols):
            keys = doms[p] & col
            n, c = keys.bit_count(), col.bit_count()
            if n < c and n * total < live * c:
                pos, live, total, scan = p, n, c, keys
        if pos is None:
            (sx, sy, sz), live = cols, len(self.triples)
        else:
            index = self.by_value[pos]
            if index is None:
                key = itemgetter(pos)
                index = self.by_value[pos] = {
                    a: tuple(group) for a, group in groupby(sorted(self.triples, key=key), key)}
            sx = sy = sz = live = 0
            for u, v, w in chain.from_iterable(map(index.__getitem__, mask_values(scan))):
                if dx >> u & 1 and dy >> v & 1 and dz >> w & 1:
                    sx, sy, sz, live = sx | 1 << u, sy | 1 << v, sz | 1 << w, live + 1
        if not (live and m.narrow(x, sx) and m.narrow(y, sy) and m.narrow(z, sz)):
            return False
        if x is not y and y is not z and x is not z and \
                live == sx.bit_count() * sy.bit_count() * sz.bit_count():
            m.set_entailed(self)
        return True
