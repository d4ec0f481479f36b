"""Exhaustive generators for digraph isomorphism classes.

Each generator lazily yields one labelled representative per isomorphism
class, in a deterministic order.  Orientation classes of a fixed underlying
shape come from orbit-minimal integers.  A max-degree-2 class is a row of
_shape_rows, its components' indices among their parts' orbit minima: the
one enumeration of a shape's classes, which the census signs too.
Tournaments and undirected graphs grow level by level, a vertex or an edge
at a time: each level keeps the first child per canonical code, its parents
taken in code order, and is sorted by code.  A tournament level is one grid
of children, coded by canon.tournament_codes; its class table also gives
each class's cards: TournamentSpace, where orientation_space sends K_n.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, groupby
from typing import Callable, Iterable, Iterator

import numpy as _np

from . import canon, spaces
from .digraph import EMPTY, Digraph, UnderlyingGraph, disjoint_union
from .errors import HeavyFlagRequired, OutOfRange
from .switching import switch_vertex

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
    """
    rows = _np.zeros((1, 0), dtype=_np.intp)
    for part, same in groupby(shape):
        combos = _multisets(len(spaces.tabulated_reps(_part_space(part))), len(list(same)))
        rows = _np.hstack([_np.repeat(rows, len(combos), axis=0),
                           _np.tile(combos, (len(rows), 1))])
    return rows


def _shape_slots(shape: tuple[Part, ...]):
    """(space, orbit minima) of each slot of a shape."""
    return [(sp, spaces.tabulated_reps(sp)) for sp in map(_part_space, shape)]


def _union(slots, row: Iterable[int]) -> Digraph:
    """The class a row of _shape_rows names, over its shape's _shape_slots."""
    return disjoint_union(*[sp.digraph(reps[j]) for (sp, reps), j in zip(slots, row)])


def gen_oriented_maxdeg2(n: int) -> Iterator[Digraph]:
    """One representative per orientation class over all max-degree-2 shapes."""
    check_orders("maxdeg2", n, n, heavy=True, n_max=MAXDEG2_SHAPE_MAX_N)
    for shape in maxdeg2_shapes(n):
        slots = _shape_slots(shape)
        for row in _shape_rows(shape).tolist():
            yield _union(slots, row)


def _next_level(level: list[Digraph], children: Callable[[Digraph], Iterable[Digraph]]):
    """The next level: the first child per canonical code, parents taken in
    order, sorted by code."""
    first: dict[bytes, Digraph] = {}
    for parent in level:
        for child in children(parent):
            first.setdefault(canon.canonical_code(child), child)
    return [first[code] for code in sorted(first)]


# rows per canon.tournament_codes call, so that no temporary grows with a level
_LEVEL_SLICE = 4096


def _tournament_level(n: int):
    """(parents, kept, rows) of the order-n tournament level, grown by vertex
    extension from the empty tournament.

    parents are the order-(n - 1) classes.  Child(P, q), for a parent P on
    k = n - 1 vertices and a k-bit pattern q, has the new vertex k beating
    exactly the vertices in the bits of q: out[v] = P.out[v] | 1 << k unless
    q has bit v, and out[k] = q.  The children of all parents are one grid in
    (parent, pattern) order.  kept holds the first child per code as (code,
    parent index, pattern, child), sorted by code, with the code as
    canon.tournament_codes gives it; rows[i, q] is the index in kept of the
    class of Child(parents[i], q).
    """
    level = [EMPTY]
    outs = _np.zeros((1, 0), dtype=_np.uint8)
    for k in range(n):
        patterns = _np.arange(1 << k, dtype=_np.uint8)
        beaten = (patterns[:, None] >> _np.arange(k, dtype=_np.uint8) & 1) == 0
        grid = _np.empty((len(level), 1 << k, k + 1), dtype=_np.uint8)
        grid[:, :, :k] = outs[:, None, :] | beaten * _np.uint8(1 << k)
        grid[:, :, k] = patterns
        grid = grid.reshape(-1, k + 1)
        codes = _np.concatenate([canon.tournament_codes(grid[s:s + _LEVEL_SLICE])
                                 for s in range(0, len(grid), _LEVEL_SLICE)])
        codes, first, inverse = _np.unique(codes, return_index=True, return_inverse=True)
        parents = level
        outs = grid[first]
        level = [Digraph(k + 1, tuple(row)) for row in outs.tolist()]
    kept = [(code, f >> k, f & ((1 << k) - 1), g)
            for code, f, g in zip(codes.tolist(), first.tolist(), level)]
    return parents, kept, inverse.reshape(len(parents), 1 << k)


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
      pi(q') = {pi(w) : w in q'}.  Equal codes give equal canonical forms, so
      pi = canonical_perm(P_j)^-1 o canonical_perm(Q) does this.

    So the card of T at v < k is rows[j, pi(q ^ 1 << v)], with (j, pi) from
    one order-(n - 1) search of switch(P_i, v) per parent and vertex, and the
    card at k is rows[i, ~q]: as an index, ~q counts from the row's end.
    """
    k = n - 1
    index = {canon.canonical_code(p): j for j, p in enumerate(parents)}
    # order[j][pos]: the vertex of P_j at position pos of its canonical form
    order = [sorted(range(k), key=canon.canonical_perm(p).image.__getitem__) for p in parents]
    # target[i, v] = j and image[i, v, w] = pi(w) for switch(P_i, v)
    target = _np.zeros((len(parents), k), dtype=_np.intp)
    image = _np.zeros((len(parents), k, k), dtype=_np.intp)
    for i, p in enumerate(parents):
        for v in range(k):
            sw = switch_vertex(p, v)
            j = target[i, v] = index[canon.canonical_code(sw)]
            image[i, v] = [order[j][pos] for pos in canon.canonical_perm(sw).image]
    parent = _np.array([i for _, i, _, _ in kept], dtype=_np.intp)
    pattern = _np.array([q for _, _, q, _ in kept], dtype=_np.intp)
    switched = pattern[:, None] ^ 1 << _np.arange(k)
    held = switched[:, :, None] >> _np.arange(k) & 1
    cards = _np.empty((len(kept), n), dtype=_np.uint64)
    cards[:, :k] = rows[target[parent], (held << image[parent]).sum(axis=2)]
    cards[:, k] = rows[parent, ~pattern]
    return cards


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


def _edge_children(g: Digraph) -> Iterator[Digraph]:
    """g, the symmetric digraph of an undirected graph, plus one edge: the
    lex-first non-edge of each orbit under the generators canon found.

    Pruning by any subgroup H of Aut(g) gives the output of no pruning: h in
    H carries g + e onto g + h(e), so the non-edges giving code c are a union
    of H-orbits, parent i's first one is the lex-first of its orbit, and
    _next_level keeps the first child of the first parent per code.
    """
    n = g.n
    gens, _ = canon._generators(UnderlyingGraph(n, g.out))
    tried: set[tuple[int, int]] = set()
    for a, b in combinations(range(n), 2):
        if g.out[a] >> b & 1 or (a, b) in tried:
            continue
        tried.add((a, b))
        todo = [(a, b)]
        for x, y in todo:
            images = {(min(p[x], p[y]), max(p[x], p[y])) for p in gens} - tried
            tried |= images
            todo.extend(images)
        out = list(g.out)
        out[a] |= 1 << b
        out[b] |= 1 << a
        yield Digraph(n, tuple(out))


def gen_underlying_graphs(n: int) -> Iterator[UnderlyingGraph]:
    """One representative per isomorphism class of undirected graphs.

    Level-wise edge augmentation: each level holds the classes with one edge
    more than the last, deduplicated by canonical code (of the symmetric
    digraph) and sorted by it, so classes arrive by edge count, then code.
    """
    check_orders("underlying", n, n)
    level = [Digraph(n, (0,) * n)]
    while level:
        for g in level:
            yield UnderlyingGraph(n, g.out)
        level = _next_level(level, _edge_children)


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
