"""Exhaustive generators for digraph isomorphism classes.

Each generator lazily yields one labelled representative per isomorphism
class, in a deterministic order.  Orientation classes of a fixed underlying
shape come from orbit-minimal integers; labelled-graph dedup elsewhere goes
through canonical codes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import Iterator

from . import canon, spaces
from .digraph import Digraph, UnderlyingGraph, disjoint_union
from .errors import TooLarge, TooSmall

TOURNAMENT_MAX_N = 8
UNDERLYING_MAX_N = 8


def gen_oriented_paths(n: int) -> Iterator[Digraph]:
    """One representative per orientation class of the n-vertex path."""
    space = spaces.PathSpace(n)
    for x in space.reps():
        yield space.digraph(x)


def gen_oriented_cycles(n: int, digons: bool = False) -> Iterator[Digraph]:
    """One representative per orientation class of the n-cycle.

    With digons=True each edge may also carry arcs both ways.
    """
    space = spaces.CycleSpace(n, digons=digons)
    for x in space.reps():
        yield space.digraph(x)


# A max-degree-2 shape is a multiset of components: paths on k >= 1 vertices
# and cycles on k >= 3.  Parts are listed in a fixed descending order so each
# multiset is produced exactly once.

Part = tuple[str, int]


def maxdeg2_shapes(n: int) -> list[tuple[Part, ...]]:
    if n < 1:
        raise TooSmall(f"need at least 1 vertex, got {n}")
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
    assert base == n
    return UnderlyingGraph(n, tuple(adj))


def gen_underlying_maxdeg2(n: int) -> Iterator[UnderlyingGraph]:
    """One representative per isomorphism class of graphs with max degree <= 2."""
    for shape in maxdeg2_shapes(n):
        yield shape_underlying(n, shape)


@lru_cache(maxsize=64)
def _part_space(part: Part):
    kind, k = part
    return spaces.PathSpace(k) if kind == "p" else spaces.CycleSpace(k)


def _part_groups(shape: tuple[Part, ...]) -> list[tuple[Part, int]]:
    groups: list[tuple[Part, int]] = []
    for part in shape:
        if groups and groups[-1][0] == part:
            groups[-1] = (part, groups[-1][1] + 1)
        else:
            groups.append((part, 1))
    return groups


def gen_oriented_maxdeg2(n: int) -> Iterator[Digraph]:
    """One representative per orientation class over all max-degree-2 shapes.

    Two disjoint unions are isomorphic exactly when their component class
    multisets agree, so combinations with replacement of per-part class
    representatives hit every class once.
    """
    for shape in maxdeg2_shapes(n):
        groups = _part_groups(shape)
        reps_per_group = []
        for part, mult in groups:
            reps = _part_space(part).reps()
            reps_per_group.append(list(combinations_with_replacement(reps, mult)))
        for choice in product(*reps_per_group):
            pieces = []
            for (part, _), picks in zip(groups, choice):
                space = _part_space(part)
                pieces.extend(space.digraph(x) for x in picks)
            yield disjoint_union(*pieces)


def gen_tournaments(n: int) -> Iterator[Digraph]:
    """One representative per tournament class, by vertex extension."""
    if n < 1:
        raise TooSmall(f"need at least 1 vertex, got {n}")
    if n > TOURNAMENT_MAX_N:
        raise TooLarge(f"order {n} exceeds tournament cap {TOURNAMENT_MAX_N}")
    level: dict[bytes, Digraph] = {canon.canonical_code(Digraph(1, (0,))): Digraph(1, (0,))}
    for k in range(2, n + 1):
        nxt: dict[bytes, Digraph] = {}
        for _, g in sorted(level.items()):
            for pattern in range(1 << (k - 1)):
                out = [g.out[v] | (0 if pattern >> v & 1 else 1 << (k - 1))
                       for v in range(k - 1)]
                out.append(pattern)
                h = Digraph(k, tuple(out))
                code = canon.canonical_code(h)
                if code not in nxt:
                    nxt[code] = h
        level = nxt
    for _, g in sorted(level.items()):
        yield g


def _undirected_code(u: UnderlyingGraph) -> bytes:
    return canon.canonical_code(Digraph(u.n, u.adj))


def _canonical_edge_orbit(u: UnderlyingGraph) -> frozenset[tuple[int, int]]:
    """Aut-orbit of the deletion edge singled out by the canonical labelling.

    The choice is the edge whose image under a canonical relabelling is
    lexicographically last; any two canonical relabellings differ by an
    automorphism, so the orbit is well defined.
    """
    perm = canon.canonical_perm(Digraph(u.n, u.adj))
    best = None
    best_edge = None
    for a, b in u.edges():
        key = tuple(sorted((perm(a), perm(b))))
        if best is None or key > best:
            best = key
            best_edge = (a, b)
    assert best_edge is not None
    orbit = set()
    for p in canon.aut_group_undirected(u):
        orbit.add(tuple(sorted((p(best_edge[0]), p(best_edge[1])))))
    return frozenset(orbit)


def gen_underlying_graphs(n: int) -> Iterator[UnderlyingGraph]:
    """One representative per isomorphism class of undirected graphs.

    Edge augmentation with a canonical-deletion acceptance test: a child is
    kept only when the edge just added lies in the child's canonical deletion
    orbit, so every class arrives exactly once and no global dedup is needed.
    """
    if n < 1:
        raise TooSmall(f"need at least 1 vertex, got {n}")
    if n > UNDERLYING_MAX_N:
        raise TooLarge(f"order {n} exceeds undirected-graph cap {UNDERLYING_MAX_N}")
    level = [UnderlyingGraph(n, (0,) * n)]
    yield level[0]
    while level:
        nxt: list[UnderlyingGraph] = []
        for u in level:
            aut = canon.aut_group_undirected(u)
            seen_orbits: set[tuple[int, int]] = set()
            for a in range(n):
                for b in range(a + 1, n):
                    if u.adj[a] >> b & 1 or (a, b) in seen_orbits:
                        continue
                    for p in aut:
                        seen_orbits.add(tuple(sorted((p(a), p(b)))))
                    adj = list(u.adj)
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
                    child = UnderlyingGraph(n, tuple(adj))
                    if (a, b) in _canonical_edge_orbit(child):
                        nxt.append(child)
        nxt.sort(key=_undirected_code)
        for u in nxt:
            yield u
        level = nxt


def gen_all_oriented(n: int) -> Iterator[Digraph]:
    """One representative per orientation class over every underlying graph."""
    for u in gen_underlying_graphs(n):
        space = canon.OrientationSpace(u)
        for x in space.reps():
            yield space.digraph(x)
