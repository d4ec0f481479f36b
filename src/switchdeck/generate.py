"""Exhaustive generators for digraph isomorphism classes.

Each generator lazily yields one labelled representative per isomorphism
class, in a deterministic order.  Orientation classes of a fixed underlying
shape come from orbit-minimal integers.  A max-degree-2 class is a row of
_shape_rows, its components' indices among their parts' orbit minima: the
one enumeration of a shape's classes, which the census signs too.
Tournaments and undirected graphs grow level by level, a vertex or an edge
at a time: each level is one grid of children, its parents taken in code
order, coded by canon.batch_codes; _level keeps the first child per class
and sorts them by code.  A tournament level's class table also gives each
class's cards: TournamentSpace, where orientation_space sends K_n.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, groupby
from typing import Iterable, Iterator

import numpy as _np

from . import canon, spaces
from .digraph import Digraph, UnderlyingGraph, disjoint_union, in_masks
from .errors import HeavyFlagRequired, OutOfRange

# label -> (n_min, n_max, heavy_over): the orders each class supports, in the
# census, gen and stable commands alike; orders above heavy_over need heavy
CLASS_BOUNDS: dict[str, tuple[int, int, int]] = {
    "paths": (1, 30, 20),
    "cycles": (3, 30, 20),
    "digon-cycles": (3, 20, 16),
    "maxdeg2": (1, 30, 16),
    "tournaments": (1, 8, 8),
    "all-oriented": (1, 8, 7),
    "underlying": (1, 8, 8),
    "stable": (1, 8, 7),
}

# maxdeg2 orders up to this enumerate one component shape at a time; above it
# gen stops and the census runs the reduced span (plain decks only)
MAXDEG2_SHAPE_MAX_N = 16


def check_orders(label: str, lo: int, hi: int, heavy: bool = False,
                 n_max: int | None = None):
    """Raise unless the class supports orders lo..hi.

    OutOfRange for an unknown label, an empty range or orders outside the
    class's row (n_max, when given, lowers its ceiling); HeavyFlagRequired
    for orders above the row's heavy gate without heavy.
    """
    if label not in CLASS_BOUNDS:
        raise OutOfRange(f"unknown class {label!r}")
    n_min, ceiling, heavy_over = CLASS_BOUNDS[label]
    if n_max is not None:
        ceiling = min(ceiling, n_max)
    if lo > hi:
        raise OutOfRange(f"empty range {lo}..{hi}")
    if lo < n_min or hi > ceiling:
        raise OutOfRange(f"{label} supports {n_min}..{ceiling}, got {lo}..{hi}")
    if hi > heavy_over and not heavy:
        raise HeavyFlagRequired(
            f"{label} orders above {heavy_over} need heavy=True or --heavy (asked for {hi})"
        )


def _classes(space) -> Iterator[Digraph]:
    """The digraph of each of a space's orbit minima, in integer order."""
    yield from map(space.digraph, space.reps_array().tolist())


# these generators check their order at the first next(); as in
# classify_stable_connected, the heavy gate is the caller's

def gen_oriented_paths(n: int) -> Iterator[Digraph]:
    """One representative per orientation class of the n-vertex path."""
    check_orders("paths", n, n, heavy=True)
    yield from _classes(spaces.PathSpace(n))


def gen_oriented_cycles(n: int, digons: bool = False) -> Iterator[Digraph]:
    """One representative per orientation class of the n-cycle.

    With digons=True each edge may also carry arcs both ways.
    """
    check_orders("digon-cycles" if digons else "cycles", n, n, heavy=True)
    yield from _classes(spaces.CycleSpace(n, digons=digons))


# A max-degree-2 shape is a multiset of components: paths on k >= 1 vertices
# and cycles on k >= 3.  Parts are listed in a fixed descending order so each
# multiset is produced exactly once.

Part = tuple[str, int]


def maxdeg2_shapes(n: int) -> list[tuple[Part, ...]]:
    if n < 1:
        raise OutOfRange(f"need at least 1 vertex, got {n}")
    parts: list[Part] = [("p", k) for k in range(1, n + 1)]
    parts += [("c", k) for k in range(3, n + 1)]
    parts.sort(key=lambda pk: (pk[1], pk[0]), reverse=True)
    shapes: list[tuple[Part, ...]] = []

    def rec(i: int, left: int, cur: list[Part]):
        if left == 0:
            shapes.append(tuple(cur))
            return
        for j in range(i, len(parts)):
            if parts[j][1] <= left:
                cur.append(parts[j])
                rec(j, left - parts[j][1], cur)
                cur.pop()

    rec(0, n, [])
    return shapes


@lru_cache(maxsize=64)
def _part_space(part: Part):
    kind, k = part
    return spaces.PathSpace(k) if kind == "p" else spaces.CycleSpace(k)


@lru_cache(maxsize=256)
def _multisets(r: int, m: int):
    """The m-multisets of range(r) as rows, in combinations_with_replacement
    order."""
    return _np.array(list(combinations_with_replacement(range(r), m)),
                     dtype=_np.intp).reshape(-1, m)


def _shape_rows(shape: tuple[Part, ...]):
    """One row per orientation class of a shape: the index of each slot's
    component among its part's orbit minima.

    Two disjoint unions are isomorphic exactly when their component class
    multisets agree, so each run of m equal parts takes the m-multisets of
    its indices, the last run varying fastest, and every class comes once.
    The rows fill a mixed-radix array with one axis per run, each run's
    multisets broadcast along the later axes.
    """
    runs = [_multisets(len(spaces.tabulated_reps(_part_space(part))), len(list(same)))
            for part, same in groupby(shape)]
    rows = _np.empty((*(len(combos) for combos in runs), len(shape)), dtype=_np.intp)
    col = 0
    for axis, combos in enumerate(runs):
        m = combos.shape[1]
        rows[..., col:col + m] = combos.reshape(len(combos), *(1,) * (len(runs) - 1 - axis), m)
        col += m
    return rows.reshape(-1, len(shape))


@lru_cache(maxsize=1 << 16)
def _part_digraph(part: Part, j: int) -> Digraph:
    """The digraph of a part's j-th orbit minimum, decoded once."""
    return _part_space(part).digraph(spaces.tabulated_reps(_part_space(part))[j])


def _union(shape: tuple[Part, ...], row: Iterable[int]) -> Digraph:
    """The class a row of _shape_rows names."""
    return disjoint_union(*map(_part_digraph, shape, row))


def gen_oriented_maxdeg2(n: int) -> Iterator[Digraph]:
    """One representative per orientation class over all max-degree-2 shapes."""
    check_orders("maxdeg2", n, n, heavy=True, n_max=MAXDEG2_SHAPE_MAX_N)
    for shape in maxdeg2_shapes(n):
        for row in _shape_rows(shape).tolist():
            yield _union(shape, row)


def _level(grid):
    """The classes in a grid of children, symmetric digraphs or tournaments
    as (N, n) uint8 out-masks: their canonical codes ascending, the grid
    index of each class's first child, and each child's class.  Children
    are classed by canon.batch_codes, so canonical_code runs only on the
    kept disconnected classes, whose batch codes are not canonical."""
    codes, first, inverse = _np.unique(canon.batch_codes(grid)[0], return_index=True,
                                       return_inverse=True)
    kept, n = grid[first], grid.shape[1]
    arcs = (kept[:, :, None] >> _np.arange(n, dtype=_np.uint8) & 1).astype(bool)
    # (I + A)^(2^i) links every two vertices of a connected row once 2^i >= n - 1
    reach = arcs | arcs.transpose(0, 2, 1) | _np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = reach @ reach
    for c in _np.flatnonzero(~reach[:, 0].all(axis=1)).tolist():
        code = canon.canonical_code(Digraph(n, tuple(kept[c].tolist())))
        codes[c] = int.from_bytes(code[1:], "big")
    order = _np.argsort(codes)
    return codes[order], first[order], _np.argsort(order)[inverse]


def _tournament_level(n: int):
    """(parents, kept, rows) of the order-n tournament level, grown by vertex
    extension from the empty tournament.

    parents are the order-(n - 1) classes.  Child(P, q), for a parent P on
    k = n - 1 vertices and a k-bit pattern q, has the new vertex k beating
    exactly the vertices in the bits of q: out[v] = P.out[v] | 1 << k unless
    q has bit v, and out[k] = q.  The children of all parents are one grid in
    (parent, pattern) order, classed by _level.  kept holds the first child
    per code as (code, parent index, pattern, child), sorted by code, with
    the code as canon.batch_codes gives it; rows[i, q] is the index in kept
    of the class of Child(parents[i], q).
    """
    outs = _np.zeros((1, 0), dtype=_np.uint8)
    for k in range(n):
        patterns = _np.arange(1 << k, dtype=_np.uint8)
        beaten = (patterns[:, None] >> _np.arange(k, dtype=_np.uint8) & 1) == 0
        grid = _np.empty((len(outs), 1 << k, k + 1), dtype=_np.uint8)
        grid[:, :, :k] = outs[:, None, :] | beaten * _np.uint8(1 << k)
        grid[:, :, k] = patterns
        grid = grid.reshape(-1, k + 1)
        codes, first, inverse = _level(grid)
        parents, outs = outs, grid[first]
    kept = [(code, f >> k, f & ((1 << k) - 1), Digraph(n, tuple(row)))
            for code, f, row in zip(codes.tolist(), first.tolist(), outs.tolist())]
    return ([Digraph(k, tuple(row)) for row in parents.tolist()], kept,
            inverse.reshape(len(parents), 1 << k))


def gen_tournaments(n: int) -> Iterator[Digraph]:
    """One representative per tournament class, by vertex extension."""
    check_orders("tournaments", n, n)
    for *_, g in _tournament_level(n)[1]:
        yield g


def _tournament_cards(n: int, parents, kept, rows):
    """(classes, n) uint64 table: entry [x, v] is the index in kept of the
    class of kept tournament x switched at vertex v.

    Every card is read from the class table of the last level's grid, with no
    search per card.  Child(P, q) is that grid's child of an order-(n - 1)
    tournament P and pattern q (_tournament_level); write k = n - 1 for its
    new vertex and ~q for the complement of q in k bits.  Each kept
    T = Child(P_i, q) for a parent P_i and pattern q, and two identities hold:

    - switching gives a child: switch(T, k) = Child(P_i, ~q), and for v < k,
      switch(T, v) = Child(switch(P_i, v), q ^ 1 << v), since switching v
      reverses v's arcs inside P_i and its arc to k;
    - relabelling gives a known child: if pi carries Q onto P_j, then pi
      extended by k -> k carries Child(Q, q') onto Child(P_j, pi(q')), where
      pi(q') = {pi(w) : w in q'}.

    So the card of T at v < k is rows[j, pi(q ^ 1 << v)], and the card at k
    is rows[i, ~q]: as an index, ~q counts from the row's end.  One
    canon.batch_codes call on the parents and every switch(P_i, v) gives j
    by code, and pi from orders carrying both onto one canonical form.
    """
    k, p = n - 1, len(parents)
    outs = _np.array([g.out for g in parents], dtype=_np.uint8).reshape(p, k)
    # switch(P_i, v): v's out-mask becomes its in-mask, the others gain or lose v
    bits = _np.arange(k, dtype=_np.uint8)
    sw = outs[:, None, :] ^ (1 << bits)[:, None]
    sw[:, bits, bits] = _np.array(list(map(in_masks, parents)), dtype=_np.uint8).reshape(p, k)
    codes, orders = canon.batch_codes(_np.concatenate([outs, sw.reshape(p * k, k)]))
    # target[i, v] = j and image[i, v, w] = pi(w) for switch(P_i, v): w sits at
    # position pos(w) of the switch's canonical form, vertex orders[j][pos(w)] of P_j
    target = _np.searchsorted(codes[:p], codes[p:]).reshape(p, k)
    pos = _np.argsort(orders[p:], axis=1).reshape(p, k, k)
    image = _np.take_along_axis(orders[:p][target], pos, axis=2)
    parent, pattern = _np.array([(i, q) for _, i, q, _ in kept], dtype=_np.intp).reshape(-1, 2).T
    held = (pattern[:, None] ^ 1 << _np.arange(k))[:, :, None] >> _np.arange(k) & 1
    return _np.column_stack([rows[target[parent], (held << image[parent]).sum(axis=2)],
                             rows[parent, ~pattern]]).astype(_np.uint64)


class TournamentSpace:
    """Tournament classes on n vertices as a space whose domain is the
    classes themselves, in code order: each x is its own orbit minimum, so
    there are no actions, and switched_array reads _tournament_cards."""

    def __init__(self, n: int):
        check_orders("tournaments", n, n)
        parents, kept, rows = _tournament_level(n)
        self.n = n
        self.domain_total = len(kept)
        self.actions = []
        self.vertex_images = _np.empty((0, n), dtype=_np.intp)
        self.cards = _tournament_cards(n, parents, kept, rows)
        self._kept = [g for *_, g in kept]

    domain_chunk = spaces.index_chunk
    orbit_min_array = spaces.group_min
    scan_reps = spaces.scan_reps
    reps_array = spaces.concat_reps

    def switched_array(self, xs, v):
        return self.cards[xs, v]

    def self_card_strings(self, v: int):
        """The classes whose card at v is themselves, ascending."""
        xs = _np.arange(self.domain_total, dtype=_np.uint64)
        return xs[self.cards[:, v] == xs]

    def count(self) -> int:
        return self.domain_total

    def digraph(self, x: int) -> Digraph:
        return self._kept[x]


def gen_underlying_graphs(n: int) -> Iterator[UnderlyingGraph]:
    """One representative per isomorphism class of undirected graphs.

    Level-wise edge augmentation: each level holds the classes with one edge
    more than the last, sorted by canonical code (of the symmetric digraph),
    so classes arrive by edge count, then code.  A level's children are one
    grid in (parent, non-edge) order, non-edges lexicographic, for _level.
    """
    check_orders("underlying", n, n)
    # the edge of each pair, as the out-masks it adds
    edge = _np.array([[(v == a) << b | (v == b) << a for v in range(n)]
                      for a, b in combinations(range(n), 2)], dtype=_np.uint8).reshape(-1, n)
    level = _np.zeros((1, n), dtype=_np.uint8)
    while len(level):
        for row in level.tolist():
            yield UnderlyingGraph(n, tuple(row))
        parent, pair = _np.nonzero(~(level[:, None] & edge).any(axis=2))
        grid = level[parent] | edge[pair]
        level = grid[_level(grid)[1]]


def orientation_space(u: UnderlyingGraph):
    """The space of u's orientation classes: TournamentSpace for a complete
    u, whose cards need no scan, else canon.OrientationSpace(u).  K8 alone
    would take 40,319 automorphism actions over 2^28 orientations."""
    if u.is_complete():
        return TournamentSpace(u.n)
    return canon.OrientationSpace(u)


def gen_all_oriented(n: int) -> Iterator[Digraph]:
    """One representative per orientation class over every underlying graph."""
    for u in gen_underlying_graphs(n):
        # not orientation_space(u): from n = 4 on, TournamentSpace lists K_n's
        # classes in another order (and from n = 5 by other representatives),
        # which would change this stream and its pinned digest
        yield from _classes(canon.OrientationSpace(u))
