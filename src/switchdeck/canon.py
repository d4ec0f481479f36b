"""Canonical forms, automorphism groups, and orientation orbits.

The canonical code of a connected digraph is the lexicographically least
adjacency bit-string over all relabellings compatible with iterated
(in, out)-degree refinement, prefixed by the order; disjoint unions compose
their components' codes in sorted order.  Codes are plain bytes and totally
ordered; equal codes mean isomorphic digraphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as _np

from .digraph import Digraph, Permutation, UnderlyingGraph, components, in_masks
from .errors import TooLarge
from .spaces import _CHUNK

CanonicalCode = bytes

AUT_MAX_N = 16


@dataclass(frozen=True)
class AutGroup:
    """All automorphisms of a graph, as explicit permutations."""

    elements: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _stable_partition(n, out, inn, cells):
    """Refine an ordered partition by (out, in) counts into every cell until stable.

    Cell order is isomorphism-invariant: split cells replace their parent in
    place, sub-ordered by signature.
    """
    while True:
        masks = []
        for c in cells:
            m = 0
            for v in c:
                m |= 1 << v
            masks.append(m)
        new_cells = []
        changed = False
        for c in cells:
            if len(c) == 1:
                new_cells.append(c)
                continue
            buckets: dict = {}
            for v in c:
                ov = out[v]
                iv = inn[v]
                key = tuple((ov & m).bit_count() << 6 | (iv & m).bit_count() for m in masks)
                buckets.setdefault(key, []).append(v)
            if len(buckets) == 1:
                new_cells.append(c)
            else:
                changed = True
                for key in sorted(buckets):
                    new_cells.append(buckets[key])
        cells = new_cells
        if not changed:
            return cells


def _code_rows(n, out, perm):
    """Adjacency rows of the relabelled graph, one int per row, MSB = column 0."""
    pos = [0] * n
    for i, v in enumerate(perm):
        pos[v] = i
    rows = []
    for v in perm:
        m = out[v]
        row = 0
        while m:
            b = m & -m
            row |= 1 << (n - 1 - pos[b.bit_length() - 1])
            m ^= b
        rows.append(row)
    return rows


@lru_cache(maxsize=1 << 17)
def _canonical_search(g: Digraph):
    """Least adjacency rows over refinement-compatible orders, and one order
    achieving them (position i holds original vertex order[i]).

    Disjoint unions are canonicalized per component and concatenated in
    sorted component order; this keeps the search tree small when many
    components are interchangeable.
    """
    n = g.n
    if n == 0:
        return (), ()
    comp = components(g)
    if len(comp.parts) > 1:
        ranked = sorted(
            range(len(comp.parts)),
            key=lambda i: (comp.parts[i].n, canonical_code(comp.parts[i])),
        )
        order: list[int] = []
        for i in ranked:
            verts = comp.blocks[i].members()
            _, part_order = _canonical_search(comp.parts[i])
            order.extend(verts[v] for v in part_order)
        return tuple(_code_rows(n, g.out, order)), tuple(order)
    out = g.out
    inn = in_masks(g)
    best: list[int] | None = None
    best_order: list[int] | None = None

    def rec(cells):
        nonlocal best, best_order
        for idx, c in enumerate(cells):
            if len(c) > 1:
                for v in c:
                    rest = [w for w in c if w != v]
                    refined = _stable_partition(
                        n, out, inn, cells[:idx] + [[v], rest] + cells[idx + 1:]
                    )
                    rec(refined)
                return
        order = [c[0] for c in cells]
        rows = _code_rows(n, out, order)
        if best is None or rows < best:
            best = rows
            best_order = order

    rec(_stable_partition(n, out, inn, [list(range(n))]))
    assert best is not None and best_order is not None
    return tuple(best), tuple(best_order)


@lru_cache(maxsize=1 << 17)
def canonical_code(g: Digraph) -> CanonicalCode:
    """Order-prefixed, lexicographically least adjacency bit-string."""
    n = g.n
    if n == 0:
        return bytes([0])
    best, _ = _canonical_search(g)
    packed = bytearray([n])
    acc = 0
    filled = 0
    for row in best:
        for j in range(n):
            acc = acc << 1 | (row >> (n - 1 - j) & 1)
            filled += 1
            if filled == 8:
                packed.append(acc)
                acc = 0
                filled = 0
    if filled:
        packed.append(acc << (8 - filled))
    return bytes(packed)


def code_to_digraph(code: CanonicalCode) -> Digraph:
    """Decode a canonical code back into its representative digraph."""
    n = code[0]
    out = [0] * n
    for v in range(n):
        for w in range(n):
            i = v * n + w
            if code[1 + (i >> 3)] >> (7 - (i & 7)) & 1:
                out[v] |= 1 << w
    return Digraph(n, tuple(out))


def canonical_form(g: Digraph) -> Digraph:
    return code_to_digraph(canonical_code(g))


def canonical_perm(g: Digraph) -> Permutation:
    """A relabelling v -> position that carries g onto its canonical form."""
    _, order = _canonical_search(g)
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    return Permutation(tuple(pos))


def is_isomorphic(g: Digraph, h: Digraph) -> bool:
    if g.n != h.n or g.arc_count() != h.arc_count():
        return False
    return canonical_code(g) == canonical_code(h)


@lru_cache(maxsize=1 << 14)
def aut_group_undirected(u: UnderlyingGraph) -> AutGroup:
    """Every automorphism of an undirected graph on at most 16 vertices."""
    if u.n > AUT_MAX_N:
        raise TooLarge(f"order {u.n} exceeds automorphism cap {AUT_MAX_N}")
    n = u.n
    adj = u.adj
    cells = _stable_partition(n, adj, adj, [list(range(n))])
    color = [0] * n
    for i, c in enumerate(cells):
        for v in c:
            color[v] = i
    perms: list[Permutation] = []
    image = [0] * n

    def rec(v, used, mapped_img):
        if v == n:
            perms.append(Permutation(tuple(image)))
            return
        want = 0
        m = adj[v] & ((1 << v) - 1)
        while m:
            b = m & -m
            want |= 1 << image[b.bit_length() - 1]
            m ^= b
        cv = color[v]
        for w in range(n):
            if used >> w & 1 or color[w] != cv:
                continue
            if adj[w] & mapped_img == want:
                image[v] = w
                rec(v + 1, used | 1 << w, mapped_img | 1 << w)
        return

    rec(0, 0, 0)
    return AutGroup(tuple(perms))


def edge_list(u: UnderlyingGraph) -> list[tuple[int, int]]:
    """Edges in lexicographic order; this is the fixed edge order for orientations."""
    return sorted(u.edges())


class Action(NamedTuple):
    """One non-identity automorphism acting on orientation integers.

    Output bit dstpos[j] takes input bit srcpos[j], then the bits in flip
    (edges mapped against their stored direction) are inverted.  tables[k][b]
    is the image of input byte k holding b, with flip folded into tables[0].
    """

    srcpos: tuple[int, ...]
    dstpos: tuple[int, ...]
    flip: int
    tables: _np.ndarray


class OrientationSpace:
    """Orientations of a fixed underlying graph, as m-bit integers.

    Bit (m-1-i) of an integer stores the direction of edge i in edge_list
    order, so integer order equals lexicographic order on direction vectors.
    Orbit minima under the automorphism group of the underlying graph pick
    one labelled orientation per isomorphism class.
    """

    def __init__(self, u: UnderlyingGraph):
        self.u = u
        self.n = u.n
        self.edges = edge_list(u)
        self.m = m = len(self.edges)
        self.aut = aut_group_undirected(u)
        index = {e: i for i, e in enumerate(self.edges)}
        dstpos = tuple(m - 1 - j for j in range(m))
        perms = []
        for p in self.aut.elements:
            if p.is_identity():
                continue
            img = p.image
            srcpos = [0] * m
            flip = 0
            for i, (a, b) in enumerate(self.edges):
                a2, b2 = img[a], img[b]
                j = index[(a2, b2)] if a2 < b2 else index[(b2, a2)]
                srcpos[j] = m - 1 - i
                if a2 > b2:
                    flip |= 1 << (m - 1 - j)
            perms.append((tuple(srcpos), flip))
        # one 256-entry table per input byte, at least one so that an
        # edgeless space still maps everything to 0
        nbytes = max(1, -(-m // 8))
        src = _np.array([srcpos for srcpos, _ in perms], dtype=_np.intp).reshape(len(perms), m)
        bit_image = _np.zeros((len(perms), 8 * nbytes), dtype=_np.uint64)
        dstbit = _np.uint64(1) << _np.array(dstpos, dtype=_np.uint64)
        bit_image[_np.arange(len(perms))[:, None], src] = dstbit
        bit_image = bit_image.reshape(len(perms), nbytes, 8)
        tables = _np.zeros((len(perms), nbytes, 256), dtype=_np.uint64)
        for t in range(8):
            h = 1 << t
            _np.bitwise_xor(tables[:, :, :h], bit_image[:, :, t, None], out=tables[:, :, h:2 * h])
        tables[:, 0, :] ^= _np.array([flip for _, flip in perms], dtype=_np.uint64)[:, None]
        self.actions = [Action(srcpos, dstpos, flip, tables[a])
                        for a, (srcpos, flip) in enumerate(perms)]
        self.switch_masks = []
        for v in range(self.n):
            sm = 0
            for i, (a, b) in enumerate(self.edges):
                if v == a or v == b:
                    sm |= 1 << (self.m - 1 - i)
            self.switch_masks.append(sm)

    @property
    def domain_total(self) -> int:
        return 1 << self.m

    def act(self, action: Action, x: int) -> int:
        y = 0
        for s, d in zip(action.srcpos, action.dstpos):
            y |= (x >> s & 1) << d
        return y ^ action.flip

    def orbit_min(self, x: int) -> int:
        best = x
        for action in self.actions:
            y = self.act(action, x)
            if y < best:
                best = y
        return best

    def act_array(self, action: Action, xs):
        """act over a uint64 array: one table lookup per input byte."""
        b = _np.ascontiguousarray(xs, dtype="<u8").view(_np.uint8)
        tables = action.tables
        y = tables[0][b[0::8]]
        for k in range(1, len(tables)):
            y ^= tables[k][b[k::8]]
        return y

    def orbit_min_array(self, xs):
        best = xs.copy()
        for action in self.actions:
            _np.minimum(best, self.act_array(action, xs), out=best)
        return best

    def switched_array(self, xs, v: int):
        return xs ^ _np.uint64(self.switch_masks[v])

    def switched(self, x: int, v: int) -> int:
        return x ^ self.switch_masks[v]

    def domain_chunk(self, start: int, stop: int):
        return _np.arange(start, stop, dtype=_np.uint64)

    def count(self) -> int:
        """Class count by Burnside's lemma over the automorphism actions.

        An action permutes bit positions and then flips some; it fixes an
        orientation exactly when each cycle of the bit permutation holds an
        even number of flipped positions, and then fixes 2^cycles of them.
        """
        fixed = 1 << self.m
        for action in self.actions:
            succ = dict(zip(action.srcpos, action.dstpos))
            seen = 0
            cycles = 0
            for start in range(self.m):
                if seen >> start & 1:
                    continue
                cycles += 1
                parity = 0
                pos = start
                while not seen >> pos & 1:
                    seen |= 1 << pos
                    parity ^= action.flip >> pos & 1
                    pos = succ[pos]
                if parity:
                    break
            else:
                fixed += 1 << cycles
        return fixed // (len(self.actions) + 1)

    def rep_chunks(self, chunk: int = _CHUNK) -> Iterator:
        """Orbit-minimal orientation integers, ascending, in chunks.

        Each chunk of the domain shrinks action by action: an x stays only
        while its image under every action so far is not below it, and is
        dropped from the array before the next action.  Almost every x has a
        smaller image under one of the first few actions, so the scan costs
        about one pass over the domain whatever the group order.
        """
        total = 1 << self.m
        for start in range(0, total, chunk):
            xs = self.domain_chunk(start, min(start + chunk, total))
            for action in self.actions:
                xs = xs[self.act_array(action, xs) >= xs]
            yield xs

    def reps_array(self):
        """Orbit-minimal orientation integers as an ascending uint64 array."""
        return _np.concatenate(list(self.rep_chunks()))

    def reps(self) -> list[int]:
        return self.reps_array().tolist()

    def card(self, x: int, v: int) -> int:
        """Class id of the orientation after switching vertex v."""
        return self.orbit_min(x ^ self.switch_masks[v])

    def digraph(self, x: int) -> Digraph:
        out = [0] * self.n
        for i, (a, b) in enumerate(self.edges):
            if x >> (self.m - 1 - i) & 1:
                out[b] |= 1 << a
            else:
                out[a] |= 1 << b
        return Digraph(self.n, tuple(out))

    def from_digraph(self, g: Digraph) -> int:
        x = 0
        for i, (a, b) in enumerate(self.edges):
            if g.has_arc(b, a):
                x |= 1 << (self.m - 1 - i)
        return x
