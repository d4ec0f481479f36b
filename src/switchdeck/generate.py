"""Exhaustive generators for digraph isomorphism classes.

Each generator lazily yields one labelled representative per isomorphism
class, in a deterministic order.  Orientation classes of a fixed underlying
shape come from orbit-minimal integers.  Tournaments and undirected graphs
grow level by level, a vertex or an edge at a time: each level keeps the
first child per canonical code, its parents taken in code order, and is
sorted by code.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations_with_replacement, groupby, product
from typing import Callable, Iterable, Iterator

from . import canon, spaces
from .digraph import Digraph, UnderlyingGraph, disjoint_union
from .errors import HeavyFlagRequired, HypothesisUnmet, OutOfRange

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


def gen_oriented_paths(n: int) -> Iterator[Digraph]:
    """One representative per orientation class of the n-vertex path."""
    space = spaces.PathSpace(n)
    for x in space.reps_array().tolist():
        yield space.digraph(x)


def gen_oriented_cycles(n: int, digons: bool = False) -> Iterator[Digraph]:
    """One representative per orientation class of the n-cycle.

    With digons=True each edge may also carry arcs both ways.
    """
    space = spaces.CycleSpace(n, digons=digons)
    for x in space.reps_array().tolist():
        yield space.digraph(x)


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


def shape_underlying(n: int, shape: tuple[Part, ...]) -> UnderlyingGraph:
    """The labelled underlying graph of a shape, components on consecutive blocks."""
    if sum(k for _, k in shape) != n:
        raise HypothesisUnmet(f"shape {shape} does not cover {n} vertices")
    adj = [0] * n
    base = 0
    for kind, k in shape:
        for i in range(k - 1):
            a, b = base + i, base + i + 1
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        if kind == "c":
            a, b = base, base + k - 1
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        base += k
    return UnderlyingGraph(n, tuple(adj))


def gen_underlying_maxdeg2(n: int) -> Iterator[UnderlyingGraph]:
    """One representative per isomorphism class of graphs with max degree <= 2."""
    for shape in maxdeg2_shapes(n):
        yield shape_underlying(n, shape)


@lru_cache(maxsize=64)
def _part_space(part: Part):
    kind, k = part
    return spaces.PathSpace(k) if kind == "p" else spaces.CycleSpace(k)


# one orientation class of a part, as (kind, k, orbit-minimal integer)
Comp = tuple[str, int, int]


@lru_cache(maxsize=64)
def _part_comps(part: Part) -> tuple[Comp, ...]:
    kind, k = part
    return tuple((kind, k, x) for x in spaces.tabulated_reps(_part_space(part)))


def _shape_classes(shape: tuple[Part, ...]) -> Iterator[tuple[Comp, ...]]:
    """Each orientation class of a shape as its component classes.

    Two disjoint unions are isomorphic exactly when their component class
    multisets agree, so combinations with replacement of each run of equal
    parts hit every class once.
    """
    runs = [combinations_with_replacement(_part_comps(part), len(list(same)))
            for part, same in groupby(shape)]
    for choice in product(*runs):
        yield tuple(chain.from_iterable(choice))


def _union(comps: Iterable[Comp]) -> Digraph:
    return disjoint_union(*[_part_space((kind, k)).digraph(x) for kind, k, x in comps])


def gen_oriented_maxdeg2(n: int) -> Iterator[Digraph]:
    """One representative per orientation class over all max-degree-2 shapes."""
    for shape in maxdeg2_shapes(n):
        for comps in _shape_classes(shape):
            yield _union(comps)


def _next_level(level: list[Digraph],
                children: Callable[[Digraph], Iterable[Digraph]]) -> list[Digraph]:
    """The first child per canonical code, parents taken in order, sorted by code."""
    nxt: dict[bytes, Digraph] = {}
    for parent in level:
        for child in children(parent):
            nxt.setdefault(canon.canonical_code(child), child)
    return [child for _, child in sorted(nxt.items())]


def _vertex_children(g: Digraph) -> Iterator[Digraph]:
    """Every tournament on one more vertex that restricts to g."""
    k = g.n + 1
    for pattern in range(1 << (k - 1)):
        out = [g.out[v] | (0 if pattern >> v & 1 else 1 << (k - 1)) for v in range(k - 1)]
        out.append(pattern)
        yield Digraph(k, tuple(out))


def gen_tournaments(n: int) -> Iterator[Digraph]:
    """One representative per tournament class, by vertex extension."""
    check_orders("tournaments", n, n)
    level = [Digraph(1, (0,))]
    for _ in range(1, n):
        level = _next_level(level, _vertex_children)
    yield from level


def _edge_children(g: Digraph) -> Iterator[Digraph]:
    """g plus one edge, one child per automorphism orbit of non-edges.

    g is the symmetric digraph of an undirected graph (every edge a digon).
    """
    n = g.n
    aut = canon.aut_group_undirected(UnderlyingGraph(n, g.out))
    tried: set[tuple[int, int]] = set()
    for a in range(n):
        for b in range(a + 1, n):
            if g.out[a] >> b & 1 or (a, b) in tried:
                continue
            for p in aut:
                tried.add(tuple(sorted((p(a), p(b)))))
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


def gen_all_oriented(n: int) -> Iterator[Digraph]:
    """One representative per orientation class over every underlying graph."""
    for u in gen_underlying_graphs(n):
        space = canon.OrientationSpace(u)
        for x in space.reps_array().tolist():
            yield space.digraph(x)
