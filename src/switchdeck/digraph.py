"""Compact digraphs on up to 32 vertices, stored as out-neighbour bitmasks.

Vertices are labelled 0..n-1.  All types are immutable and hashable; every
operation is a pure function returning a new object.  Digons (a pair of
opposite arcs) are allowed unless a constructor is asked to reject them;
loops are never allowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import HypothesisUnmet, OutOfRange

MAX_N = 32


@dataclass(frozen=True, slots=True)
class Digraph:
    """A digraph: order n plus one out-neighbour bitmask per vertex."""

    n: int
    out: tuple[int, ...]

    def has_arc(self, v: int, w: int) -> bool:
        return bool(self.out[v] >> w & 1)

    def arc_count(self) -> int:
        return sum(m.bit_count() for m in self.out)

    def digon_mask(self) -> tuple[int, ...]:
        """Per-vertex mask of neighbours joined by a pair of opposite arcs."""
        inn = in_masks(self)
        return tuple(self.out[v] & inn[v] for v in range(self.n))

    def is_oriented(self) -> bool:
        return not any(self.digon_mask())


@dataclass(frozen=True, slots=True)
class UnderlyingGraph:
    """Loop-free undirected graph as symmetric adjacency bitmasks."""

    n: int
    adj: tuple[int, ...]

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            m = self.adj[v] >> (v + 1) << (v + 1)
            while m:
                b = m & -m
                yield v, b.bit_length() - 1
                m ^= b

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def is_complete(self) -> bool:
        full = (1 << self.n) - 1
        return all(self.adj[v] == full ^ (1 << v) for v in range(self.n))


@dataclass(frozen=True, slots=True)
class Permutation:
    """Bijection of 0..n-1; image[v] is where v goes."""

    image: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.image)

    def compose(self, other: "Permutation") -> "Permutation":
        """Left-to-right composition: v goes to other.image[self.image[v]]."""
        return Permutation(tuple(other.image[w] for w in self.image))


@dataclass(frozen=True, slots=True)
class VertexSet:
    """Subset of 0..n-1 stored as a bitmask."""

    n: int
    bits: int

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "VertexSet":
        bits = 0
        for v in members:
            if not 0 <= v < n:
                raise OutOfRange(f"vertex {v} not in 0..{n - 1}")
            bits |= 1 << v
        return cls(n, bits)

    def members(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.bits >> v & 1)

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, ((1 << self.n) - 1) ^ self.bits)

    def sym_diff(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.n, self.bits ^ other.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()


@dataclass(frozen=True, slots=True)
class ComponentDecomposition:
    """Weakly connected components: vertex blocks plus relabelled parts.

    blocks[i] and parts[i] describe the same component; blocks are ordered
    by least vertex and parts keep the relative vertex order of the block.
    """

    blocks: tuple[VertexSet, ...]
    parts: tuple[Digraph, ...]


EMPTY = Digraph(0, ())


def from_arcs(n: int, arcs: Iterable[tuple[int, int]], oriented: bool = True) -> Digraph:
    """Build a digraph from explicit arcs.

    Duplicate arcs collapse.  A loop, or with oriented=True a digon among
    the arcs, raises HypothesisUnmet; a vertex outside 0..n-1 raises
    OutOfRange.
    """
    if not 1 <= n <= MAX_N:
        raise OutOfRange(f"order {n} outside 1..{MAX_N}")
    out = [0] * n
    for v, w in arcs:
        if not (0 <= v < n and 0 <= w < n):
            raise OutOfRange(f"arc ({v},{w}) outside 0..{n - 1}")
        if v == w:
            raise HypothesisUnmet(f"loop at {v}")
        out[v] |= 1 << w
    g = Digraph(n, tuple(out))
    if oriented and not g.is_oriented():
        raise HypothesisUnmet("digon present in oriented input")
    return g


def in_masks(g: Digraph) -> tuple[int, ...]:
    inn = [0] * g.n
    for v in range(g.n):
        m = g.out[v]
        while m:
            b = m & -m
            inn[b.bit_length() - 1] |= 1 << v
            m ^= b
    return tuple(inn)


def underlying(g: Digraph) -> UnderlyingGraph:
    """Forget directions; digons collapse to single edges."""
    inn = in_masks(g)
    return UnderlyingGraph(g.n, tuple(g.out[v] | inn[v] for v in range(g.n)))


def apply_perm(g: Digraph, p: Permutation) -> Digraph:
    """Relabel: arc v->w becomes p(v)->p(w)."""
    if len(p) != g.n:
        raise HypothesisUnmet(f"permutation length {len(p)} != order {g.n}")
    img = p.image
    out = [0] * g.n
    for v in range(g.n):
        m = g.out[v]
        acc = 0
        while m:
            b = m & -m
            acc |= 1 << img[b.bit_length() - 1]
            m ^= b
        out[img[v]] = acc
    return Digraph(g.n, tuple(out))


def _component_masks(n: int, adj: tuple[int, ...]) -> list[int]:
    seen = 0
    comps = []
    for v in range(n):
        if seen >> v & 1:
            continue
        frontier = 1 << v
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                nxt |= adj[b.bit_length() - 1]
                m ^= b
            frontier = nxt & ~comp
        seen |= comp
        comps.append(comp)
    return comps


def is_weakly_connected(g: Digraph) -> bool:
    return is_connected(underlying(g))


def is_connected(u: UnderlyingGraph) -> bool:
    return len(_component_masks(u.n, u.adj)) == 1


def induced(g: Digraph, block: VertexSet) -> Digraph:
    """Subgraph on the block, vertices relabelled in increasing order."""
    verts = block.members()
    pos = {v: i for i, v in enumerate(verts)}
    out = [0] * len(verts)
    for v in verts:
        m = g.out[v] & block.bits
        while m:
            b = m & -m
            out[pos[v]] |= 1 << pos[b.bit_length() - 1]
            m ^= b
    return Digraph(len(verts), tuple(out))


def components(g: Digraph) -> ComponentDecomposition:
    """Weakly connected components ordered by least vertex."""
    masks = _component_masks(g.n, underlying(g).adj)
    blocks = tuple(VertexSet(g.n, m) for m in masks)
    parts = tuple(induced(g, b) for b in blocks)
    return ComponentDecomposition(blocks, parts)


def disjoint_union(*graphs: Digraph) -> Digraph:
    """Concatenate digraphs on consecutive label blocks."""
    n = sum(g.n for g in graphs)
    if n > MAX_N:
        raise OutOfRange(f"union order {n} exceeds {MAX_N}")
    out: list[int] = []
    off = 0
    for g in graphs:
        out.extend(m << off for m in g.out)
        off += g.n
    return Digraph(n, tuple(out))


# digraph6 codec: '&', then n+63, then the n*n row-major adjacency bits packed
# big-endian into 6-bit groups, each offset by 63, zero-padded.

def format_digraph6(g: Digraph) -> str:
    n = g.n
    chars = ["&", chr(n + 63)]
    acc = 0
    filled = 0
    for v in range(n):
        row = g.out[v]
        for w in range(n):
            acc = acc << 1 | (row >> w & 1)
            filled += 1
            if filled == 6:
                chars.append(chr(acc + 63))
                acc = 0
                filled = 0
    if filled:
        chars.append(chr((acc << (6 - filled)) + 63))
    return "".join(chars)


def parse_digraph6(text: str) -> Digraph:
    s = text.strip()
    if s.startswith(">>digraph6<<"):
        s = s[len(">>digraph6<<"):]
    if not s or s[0] != "&" or len(s) < 2:
        raise HypothesisUnmet(f"not a digraph6 string: {text!r}")
    nchar = ord(s[1])
    if not 63 <= nchar <= 126:
        raise HypothesisUnmet(f"bad order byte {s[1]!r}")
    n = nchar - 63
    if not 1 <= n <= MAX_N:
        raise OutOfRange(f"order {n} outside 1..{MAX_N}")
    body = s[2:]
    need = (n * n + 5) // 6
    if len(body) != need:
        raise HypothesisUnmet(f"expected {need} payload chars, got {len(body)}")
    bits = 0
    for ch in body:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise HypothesisUnmet(f"bad payload byte {ch!r}")
        bits = bits << 6 | (c - 63)
    pad = need * 6 - n * n
    if bits & ((1 << pad) - 1):
        raise HypothesisUnmet("nonzero padding bits")
    bits >>= pad
    out = [0] * n
    for v in range(n):
        for w in range(n):
            if bits >> (n * n - 1 - (v * n + w)) & 1:
                if v == w:
                    raise HypothesisUnmet(f"loop bit at {v}")
                out[v] |= 1 << w
    return Digraph(n, tuple(out))
