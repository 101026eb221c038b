"""Symmetry-breaking constraints posted as chains of ternary table constraints.

Each first-occurrence ordering rule is compiled to a small deterministic
automaton: introduced state variables Y_0..Y_n carry the automaton state, and
position i gets one table constraint over (X_i, Y_i, Y_{i+1}).  The resulting
constraint graph is Berge-acyclic, so enforcing GAC on every table until
fixpoint enforces GAC on the conjunction, i.e. on the global ordering rule.

An encoder gives the automaton as a step function over states of any sortable,
hashable kind (an int, or a tuple of counters).  ``post_state_chain`` alone
turns states into the integers the tables hold and bounds how big a chain may
get.  Lexicographic ordering is a step function too, and the alternative
encodings decompose into exactly-one counters and binary relations, each a
chain (``post_binary_relation``), so no encoding needs a filter of its own.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Sequence

from .engine import (TRANSITION_CAP, IntVar, Model, Propagator, SetVar, TernaryTable,
                     mask_values)
from .symmetry import (FullInterchange, PairInterchange, PartitionInterchange,
                       WreathInterchange, _require_values)


@dataclass
class ChainEncoding:
    """A posted automaton chain: state variables plus the table constraints."""
    state_vars: list[IntVar]
    propagators: list[Propagator]


def post_state_chain(model: Model, xs: Sequence[IntVar],
                     step: Callable[[Hashable, int], Optional[Hashable]],
                     start: Hashable,
                     accept: Optional[Callable[[Hashable], bool]] = None,
                     label: str = "Y") -> ChainEncoding:
    """Post an automaton over xs as one ternary table per position.

    ``step(state, value)`` returns the successor state or None when the value
    is forbidden in that state.  Only states reachable from ``start`` that can
    still reach layer n (restricted to accepting states when ``accept`` is
    given) are materialized, so state variables carry exact initial domains.
    Layer i's states become the values 0..k-1 of Y_i in sorted order.  An
    automaton that accepts nothing posts one table without tuples instead,
    over three new ``{0}`` variables ``{label}0..2``, which fails the model
    when it is propagated.

    Raises ValueError, before posting anything, when the forward pass would
    try more than ``TRANSITION_CAP`` (state, value) pairs.
    """
    n = len(xs)
    layers: list[set] = [{start}]
    edges: list[list[tuple]] = []
    tried = 0
    for i, x in enumerate(xs):
        tried += len(layers[-1]) * x.mask.bit_count()
        if tried > TRANSITION_CAP:
            raise ValueError(
                f"chain {label} would try more than {TRANSITION_CAP} "
                f"transitions by position {i} of {n}")
        edges.append([(v, s, t) for v in mask_values(x.mask) for s in layers[-1]
                      if (t := step(s, v)) is not None])
        layers.append({t for _, _, t in edges[-1]})
    if accept is not None:
        layers[n] = {s for s in layers[n] if accept(s)}
    for i in range(n - 1, -1, -1):
        edges[i] = [e for e in edges[i] if e[2] in layers[i + 1]]
        layers[i] = {s for _, s, _ in edges[i]}
    if not layers[0]:
        zeros = [model.add_fd_var((0,), name=f"{label}{i}") for i in range(3)]
        return ChainEncoding([], [model.post(TernaryTable(*zeros, ()), "encoding")])
    ids = [{s: k for k, s in enumerate(sorted(layer))} for layer in layers]
    svars = [model.add_fd_var(range(len(layer)), name=f"{label}{i}")
             for i, layer in enumerate(layers)]
    props = [model.post(TernaryTable(x, svars[i], svars[i + 1],
                                     [(v, ids[i][s], ids[i + 1][t])
                                      for v, s, t in edges[i]]), "encoding")
             for i, x in enumerate(xs)]
    return ChainEncoding(svars, props)


# ------------------------------------------------------- value interchange
#
# Each class encoder validates by building its symmetry spec and posts the
# spec's classes as one class chain.  No encoder calls another: a tracer that
# wraps every encode_* function would count a nested call's tables twice.


def encode_pair_precedence(model: Model, first: int, second: int,
                           xs: Sequence[IntVar]) -> ChainEncoding:
    """second may not occur strictly before the first occurrence of first.

    This is the class chain of the one class (first, second): its three
    states are "first not seen yet" (second forbidden), "first seen" and
    "both seen".
    """
    return _class_chain(model, PairInterchange(first, second).classes, xs)


def _class_chain(model: Model, classes: Sequence[Sequence[int]],
                 xs: Sequence[IntVar]) -> ChainEncoding:
    """First-occurrence order inside each value class.

    State = one counter per class: how many of its leading values have
    occurred, Y_{i+1} = max(Y_i, j + 1) on reading the class's j-th value.
    A value may appear only once all earlier values of every class holding
    it have, and then advances each of those classes.  Classes may share a
    value (a wreath's block heads are also its heads class); values outside
    every class leave the state unchanged.
    """
    place: dict[int, list[tuple[int, int]]] = {}
    for ci, cls in enumerate(classes):
        for mi, v in enumerate(cls):
            place.setdefault(v, []).append((ci, mi))

    def step(counts: tuple[int, ...], v: int) -> Optional[tuple[int, ...]]:
        nxt = counts
        for ci, mi in place.get(v, ()):
            if mi > counts[ci]:
                return None
            if mi == counts[ci]:
                nxt = nxt[:ci] + (mi + 1,) + nxt[ci + 1:]
        return nxt

    return post_state_chain(model, xs, step, start=(0,) * len(classes),
                            label="Y")


def encode_all_precedence(model: Model, values: Sequence[int],
                          xs: Sequence[IntVar]) -> ChainEncoding:
    """First occurrences of the listed values appear in list order.

    The one-class chain, posted even for a single value.  Unlisted values
    pass through without touching the state.
    """
    return _class_chain(model, FullInterchange(tuple(values)).classes, xs)


def encode_partial_precedence(model: Model, classes: Sequence[Sequence[int]],
                              xs: Sequence[IntVar]) -> ChainEncoding:
    """Independent first-occurrence ordering inside each value class.

    Single-value classes impose nothing, so they are skipped.
    """
    spec = PartitionInterchange(tuple(map(tuple, classes)))
    classes = [cls for cls in spec.classes if len(cls) > 1]
    if not classes:
        return ChainEncoding([], [])
    return _class_chain(model, classes, xs)


def encode_wreath_precedence(model: Model, outer: Sequence[int],
                             inner: Sequence[int],
                             xs: Sequence[IntVar]) -> ChainEncoding:
    """Canonical order for pair values, given as codes a*p + b.

    Code a*p+b stands for the pair (outer[a], inner[b]).  First occurrences of
    outer components follow outer order, and within each outer component first
    occurrences of inner components follow inner order: the class chain over
    the spec's ``code_classes``.  Raises ValueError, before posting anything,
    when a domain of xs holds a value that is not a code.
    """
    spec = WreathInterchange(tuple(outer), tuple(inner))  # refuses a bad value list
    spec.require_codes(v for x in xs for v in mask_values(x.mask))
    return _class_chain(model, spec.code_classes, xs)


# ---------------------------------------------------- alternative encodings
#
# The alternative encodings decompose into exactly-one counters and binary
# relations, each a chain over its own variables, so its tables are GAC on
# it.  Relations that share only one variable form a Berge-acyclic star, so
# they are GAC together too.  A state of None means nothing has been read yet.


def post_exactly_one(model: Model, bits: Sequence[IntVar]) -> ChainEncoding:
    """Exactly one of the 0/1 variables takes value 1.  State = ones seen."""
    if any(b.mask >> 2 for b in bits):  # a value above 1
        raise ValueError("exactly-one requires 0/1 variables")

    def step(ones: int, v: int) -> Optional[int]:
        return ones + v if ones + v <= 1 else None

    return post_state_chain(model, bits, step, start=0,
                            accept=lambda ones: ones == 1, label="E")


def post_binary_relation(model: Model, x: IntVar, y: IntVar,
                         allowed: Callable[[int, int], bool],
                         label: str) -> ChainEncoding:
    """x and y take values u, v with ``allowed(u, v)``, as a chain over [x, y].

    State after x = x's value; every allowed pair ends in the one state 0.
    The chain is GAC on the relation when x is not y.
    """

    def step(s: Optional[int], v: int) -> Optional[int]:
        if s is None:
            return v
        return 0 if allowed(s, v) else None

    return post_state_chain(model, [x, y], step, start=None, label=label)


@dataclass
class MatrixEncoding:
    """Channelled 0/1 matrix with lex-ordered value columns."""
    bits: list[list[IntVar]]
    propagators: list[Propagator]


def encode_matrix_precedence(model: Model, values: Sequence[int],
                             xs: Sequence[IntVar]) -> MatrixEncoding:
    """Value precedence via a 0/1 matrix: row i is the indicator of X_i.

    Each bit is channelled to its X on its own (X_i = values[j] iff
    B[i,j] = 1), each row holds exactly one 1, and adjacent value columns
    are ordered non-strictly by lex.  A row's channels share only X_i, so
    together they are GAC on the row's channel.  Solution sets match the
    automaton encoding whenever X domains stay inside the listed values,
    but the decomposition propagates more weakly.
    """
    _require_values(values)
    n, m = len(xs), len(values)
    bits = [[model.add_fd_var({0, 1}, name=f"B[{i},{j}]") for j in range(m)]
            for i in range(n)]
    props: list[Propagator] = []
    for i, x in enumerate(xs):
        for b, v in zip(bits[i], values):
            props += post_binary_relation(
                model, x, b, lambda u, w, v=v: (u == v) == w, "C").propagators
        props += post_exactly_one(model, bits[i]).propagators
    columns = [[bits[i][j] for i in range(n)] for j in range(m)]
    for a, b in zip(columns, columns[1:]):
        props += post_lex_chain(model, [a, b]).propagators
    return MatrixEncoding(bits, props)


@dataclass
class SurjectionEncoding:
    """First-index variables Z_j, ordered increasingly."""
    first_index: list[IntVar]
    propagators: list[Propagator]


def encode_puget_surjection(model: Model, xs: Sequence[IntVar],
                            values: Sequence[int]) -> SurjectionEncoding:
    """Binary-implication ordering of first indices, for surjection models.

    Z_j tracks the first position using values[j]: X_i=v_j implies Z_j<=i and
    Z_j=i implies X_i=v_j, with Z_1 < Z_2 < ... ordering the first uses.
    Sound only when every listed value is used at least once.
    """
    _require_values(values)
    n = len(xs)
    z = [model.add_fd_var(range(1, n + 1), name=f"Z{j + 1}")
         for j in range(len(values))]
    props: list[Propagator] = []
    for zj, v in zip(z, values):
        for i, x in enumerate(xs, 1):
            props += post_binary_relation(
                model, x, zj, lambda u, w, v=v, i=i: u != v or w <= i, "I").propagators
            props += post_binary_relation(
                model, zj, x, lambda u, w, v=v, i=i: u != i or w == v, "I").propagators
    for a, b in zip(z, z[1:]):
        props += post_binary_relation(model, a, b, operator.lt, "L").propagators
    return SurjectionEncoding(z, props)


def encode_set_precedence(model: Model, values: Sequence[int],
                          sets: Sequence[SetVar]) -> ChainEncoding:
    """Value precedence over set variables, as lex order on their bits.

    Value v precedes w when the first set containing exactly one of them
    contains v.  The bit columns of the listed values, one row per set, are
    ordered non-strictly by one lex chain, which reaches bound consistency
    on the ordering.  A set that cannot hold a listed value gets a fixed 0
    variable in that value's column.
    """
    _require_values(values)
    columns = [[s.bits[v] if v in s.bits
                else model.add_fd_var({0}, name=f"{s.name}[{v}]")
                for s in sets] for v in values]
    return post_lex_chain(model, columns)


# --------------------------------------------- combined variable+value rules


def encode_increasing_seq(model: Model, xs: Sequence[IntVar],
                          values: Sequence[int]) -> ChainEncoding:
    """Canonical form under joint position and value permutation.

    The sequence starts at values[0]; each step repeats the current value or
    moves to the next listed value; and the run lengths of the values actually
    used never decrease.  State = (values used, previous run length, current
    run length).
    """
    _require_values(values)
    idx = {v: j for j, v in enumerate(values)}

    def step(s: tuple[int, int, int], v: int) -> Optional[tuple[int, int, int]]:
        j = idx.get(v)
        if j is None:
            return None
        t, prev_run, run = s
        if t == 0:
            return (1, 0, 1) if j == 0 else None
        if j == t - 1:
            return (t, prev_run, run + 1)
        if j == t and run >= prev_run:
            return (t + 1, run, 1)
        return None

    return post_state_chain(model, xs, step, start=(0, 0, 0),
                            accept=lambda s: s[2] >= s[1], label="R")


# ------------------------------------------------------------ lex ordering


def post_lex_chain(model: Model,
                   columns: Sequence[Sequence[IntVar]]) -> ChainEncoding:
    """Order columns non-increasingly: columns[0] >=lex columns[1] >=lex ...

    One chain reads the columns row by row: c0[0], c1[0], ..., c0[1], ...
    State = (column read next, previous value in this row or None, bitmask
    of the adjacent column pairs already strictly ordered).  On an undecided
    pair a value above the previous one is refused and a value below it
    decides the pair.  The chain is GAC on the whole ordering when no
    variable appears twice, and sound otherwise.  A layer can hold 2^(k-1)
    bitmasks for k columns, which ``TRANSITION_CAP`` bounds.
    """
    if len({len(c) for c in columns}) > 1:
        raise ValueError("chain columns must have equal length")
    last = len(columns) - 1

    def step(s: tuple, v: int) -> Optional[tuple]:
        j, prev, decided = s
        if j and not decided >> (j - 1) & 1:
            if prev < v:
                return None
            if prev > v:
                decided |= 1 << (j - 1)
        return (0, None, decided) if j == last else (j + 1, v, decided)

    cells = [x for row in zip(*columns) for x in row]
    return post_state_chain(model, cells, step, start=(0, None, 0), label="Lex")


def post_lex_leq(model: Model, left: Sequence[IntVar],
                 right: Sequence[IntVar]) -> ChainEncoding:
    """left <=lex right, as the two-column chain [right, left]."""
    return post_lex_chain(model, [right, left])


def encode_reflection_lex(model: Model, xs: Sequence[IntVar]) -> ChainEncoding:
    """Prefer a sequence over its reversal: first half <=lex reversed last half.

    Odd lengths skip the middle position.  The two halves share no variables,
    so the comparison is GAC.
    """
    h = len(xs) // 2
    left = list(xs[:h])
    right = [xs[-1 - i] for i in range(h)]
    return post_lex_leq(model, left, right)


def encode_rotation_lex(model: Model, xs: Sequence[IntVar]) -> ChainEncoding:
    """Prefer a sequence over all its rotations: xs <=lex every cyclic shift.

    One lex chain per shift, returned as one encoding.  Each comparison
    aliases variables between the two sides, so the pruning is sound but
    not guaranteed complete.
    """
    seq = list(xs)
    chains = [post_lex_leq(model, seq, seq[r:] + seq[:r]) for r in range(1, len(seq))]
    return ChainEncoding([y for c in chains for y in c.state_vars],
                         [p for c in chains for p in c.propagators])
