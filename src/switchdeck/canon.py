"""Canonical forms, automorphism groups, and orientation orbits.

The canonical code of a connected digraph is the lexicographically least
adjacency bit-string over all relabellings compatible with iterated
(in, out)-degree refinement, prefixed by the order; disjoint unions compose
their components' codes in sorted order.  Codes are plain bytes and totally
ordered; equal codes mean isomorphic digraphs.

The search computes the in-masks once and tests connectivity on them, so a
connected digraph (every tournament among them) never builds a component
split.  Its refinement recounts each vertex only against the cells that
changed since the last round, after McKay and Piperno ("Practical graph
isomorphism II", J. Symb. Comput. 2014), but keeps every split's children
in the place and sorted order a recount against every cell gives: the
refinement-compatible orders, the least leaf and so every code stay those
of the full recount (see _stable_partition).

One cached search per graph (_canonical_search over _search) gives codes,
groups and the undirected generator's pruning, after the same paper.  A leaf
with the first leaf's rows gives the automorphism first[i] -> leaf[i], which
fixes the path the two leaves share (splits keep leaf positions) and maps
the first path's next vertex to the other's.  A node skips each later child
in the orbit of its explored children under the automorphisms found that
fix its path.  Such a subtree is the image of an explored, earlier one, so
the least rows, the first leaf giving them and a leaf with the first leaf's
rows still turn up.  So the automorphisms found that fix the first k path
vertices reach the orbit of the next one under their stabiliser, and one
element per orbit point and level, multiplied, lists the group once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import and_
from typing import NamedTuple

import numpy as _np

from .digraph import (
    Digraph,
    Permutation,
    UnderlyingGraph,
    _component_masks,
    components,
    in_masks,
)
from .errors import OutOfRange
from .spaces import concat_reps, group_min, index_chunk, scan_reps

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


def _stable_partition(n, out, inn, cells, fresh=None):
    """Refine an ordered partition by (out, in) counts into cells until stable.

    Cell order is isomorphism-invariant: split cells replace their parent in
    place, sub-ordered by signature.  inn=None keys on out-counts alone, for
    digraphs whose in-counts follow from them inside every cell.

    Each round keys a vertex on its counts against the cells in fresh only
    (ascending indices into cells; every cell when fresh is None).  This
    gives the buckets, in the sorted order, of a recount against every cell,
    because two facts keep the counts against each cell outside fresh
    constant inside every cell, so that the first component where two full
    keys differ is a fresh one:

    - counts against an unchanged cell are constant inside every cell, since
      the last round's keys (or, on the first call, stability of the
      partition the caller split) already separated them;
    - a split cell's last child needs no recount: a count against it is the
      parent's constant count minus the counts against its siblings.

    So fresh is every cell on a first call, and each later round the
    children of each split cell except the last.  A caller that
    individualises vertex v of a cell of a stable partition, putting [v]
    just before the rest of that cell, passes fresh=[index of [v]].  The
    partition is returned as soon as it is discrete.
    """
    if fresh is None:
        fresh = range(len(cells))
    while len(cells) < n:
        masks = []
        for i in fresh:
            m = 0
            for v in cells[i]:
                m |= 1 << v
            masks.append(m)
        new_cells = []
        new_fresh = []
        for c in cells:
            if len(c) == 1:
                new_cells.append(c)
                continue
            buckets: dict = {}
            for v in c:
                ov = out[v]
                key = 0
                if inn is None:
                    for m in masks:
                        key = key << 6 | (ov & m).bit_count()
                else:
                    iv = inn[v]
                    for m in masks:
                        key = key << 12 | (ov & m).bit_count() << 6 | (iv & m).bit_count()
                if key in buckets:
                    buckets[key].append(v)
                else:
                    buckets[key] = [v]
            if len(buckets) == 1:
                new_cells.append(c)
            else:
                first = len(new_cells)
                for key in sorted(buckets):
                    new_cells.append(buckets[key])
                new_fresh.extend(range(first, len(new_cells) - 1))
        if not new_fresh:
            break
        cells = new_cells
        fresh = new_fresh
    return cells


def _code_rows(n, out, perm):
    """Adjacency rows of the relabelled graph, one int per row, MSB = column 0."""
    column = [0] * n
    for i, v in enumerate(perm):
        column[v] = 1 << (n - 1 - i)
    rows = []
    for v in perm:
        m = out[v]
        row = 0
        while m:
            b = m & -m
            row |= column[b.bit_length() - 1]
            m ^= b
        rows.append(row)
    return rows


def _visit(n, out, inn, cells, path, found, gens):
    """Search below the node with partition cells and individualised path;
    found holds the first leaf's rows, the leaf and its path, then the least
    rows and their first leaf, and gens the automorphisms found."""
    for idx, c in enumerate(cells):
        if len(c) > 1:
            break
    else:
        leaf = [v for c in cells for v in c]
        rows = _code_rows(n, out, leaf)
        if not found:
            found.extend((rows, leaf, path[:], rows, leaf))
        elif rows == found[0]:
            gens.append([w for _, w in sorted(zip(found[1], leaf))])
        elif rows < found[3]:
            found[3:] = rows, leaf
        return
    orbit = 0
    for v in c:
        if orbit >> v & 1:
            continue
        path.append(v)
        start = cells[:idx] + [[v], [w for w in c if w != v]] + cells[idx + 1:]
        _visit(n, out, inn, _stable_partition(n, out, inn, start, [idx]), path, found, gens)
        path.pop()
        # close the explored children's orbit under the gens that fix the path
        orbit |= 1 << v
        fixing = [g for g in gens if all(g[p] == p for p in path)]
        todo = orbit
        while fixing and todo:
            x = (todo & -todo).bit_length() - 1
            todo ^= 1 << x
            for g in fixing:
                if not orbit >> g[x] & 1:
                    orbit |= 1 << g[x]
                    todo |= 1 << g[x]


def _search(n, out, inn):
    """The least rows, the first order giving them, the automorphisms found
    (image lists) and the path to the first leaf (see the module docstring)."""
    found: list = []
    gens: list[list[int]] = []
    _visit(n, out, inn, _stable_partition(n, out, inn, [list(range(n))]), [], found, gens)
    return found[3], found[4], gens, found[2]


@lru_cache(maxsize=1 << 17)
def _canonical_search(g: Digraph):
    """Least adjacency rows over refinement-compatible orders, one order
    achieving them (position i holds original vertex order[i]), and _search's
    automorphisms: (generators, first path), () if none, None if split.

    Disjoint unions are canonicalized per component and concatenated in
    sorted component order; this keeps the search tree small when many
    components are interchangeable.  A connected digraph skips the
    component split and its copy.
    """
    n = g.n
    out = g.out
    inn = in_masks(g)
    # one arc per pair and no digon: a tournament, and so connected
    tournament = (sum(map(int.bit_count, out)) == n * (n - 1) // 2
                  and not any(map(and_, out, inn)))
    if not tournament and len(_component_masks(n, [o | i for o, i in zip(out, inn)])) > 1:
        comp = components(g)
        order: list[int] = []
        for part, block in sorted(zip(comp.parts, comp.blocks),
                                  key=lambda pb: (pb[0].n, canonical_code(pb[0]))):
            verts = block.members()
            order.extend(verts[v] for v in _canonical_search(part)[1])
        return tuple(_code_rows(n, out, order)), tuple(order), None
    # out-counts alone refine a symmetric digraph, whose in-counts equal
    # them, and a tournament, whose in-count against a cell is the cell's
    # size less the out-count, less one inside the vertex's own cell
    if tournament or inn == out:
        inn = None
    best, order, gens, path = _search(n, out, inn)
    return tuple(best), tuple(order), ((tuple(map(tuple, gens)), tuple(path)) if gens else ())


@lru_cache(maxsize=1 << 17)
def canonical_code(g: Digraph) -> CanonicalCode:
    """Order-prefixed, lexicographically least adjacency bit-string."""
    n = g.n
    acc = 0
    for row in _canonical_search(g)[0]:
        acc = acc << n | row
    size = (n * n + 7) >> 3
    return bytes([n]) + (acc << (size * 8 - n * n)).to_bytes(size, "big")


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
    pos = [0] * g.n
    for i, v in enumerate(_canonical_search(g)[1]):
        pos[v] = i
    return Permutation(tuple(pos))


def is_isomorphic(g: Digraph, h: Digraph) -> bool:
    if g.n != h.n or g.arc_count() != h.arc_count():
        return False
    return canonical_code(g) == canonical_code(h)


def _generators(u: UnderlyingGraph):
    """Generators of Aut(u) and the path of the search that found them: the
    canonical search of u's symmetric digraph, or _search's where that split u."""
    found = _canonical_search(Digraph(u.n, u.adj))[2]
    if found is None:
        return _search(u.n, u.adj, None)[2:]
    return found or ((), ())


@lru_cache(maxsize=1 << 14)
def aut_group_undirected(u: UnderlyingGraph) -> AutGroup:
    """Every automorphism of an undirected graph on at most 16 vertices,
    ascending by image, off the stabiliser chain of a search of the whole
    graph (see the module docstring)."""
    if u.n > AUT_MAX_N:
        raise OutOfRange(f"order {u.n} exceeds automorphism cap {AUT_MAX_N}")
    n = u.n
    gens, path = _generators(u)
    elements = [tuple(range(n))]
    for k, base in enumerate(path):
        fixing = [g for g in gens if all(g[p] == p for p in path[:k])]
        # one element of the stabiliser of path[:k] per point of base's orbit
        reps = {base: tuple(range(n))}
        todo = [base]
        for x in todo:
            for g in fixing:
                if g[x] not in reps:
                    reps[g[x]] = tuple(g[y] for y in reps[x])
                    todo.append(g[x])
        elements = [tuple(e[y] for y in r) for e in elements for r in reps.values()]
    return AutGroup(tuple(Permutation(e) for e in sorted(elements)))


def edge_list(u: UnderlyingGraph) -> list[tuple[int, int]]:
    """Edges in lexicographic order; this is the fixed edge order for orientations."""
    return sorted(u.edges())


class Action(NamedTuple):
    """One non-identity automorphism acting on orientation integers.

    Output bit m-1-j takes input bit srcpos[j], then the bits in flip (edges
    mapped against their stored direction) are inverted.  tables[k][b] is
    the image of input byte k holding b, with flip folded into tables[0].
    """

    srcpos: tuple[int, ...]
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
        self.n = u.n
        self.edges = edge_list(u)
        self.m = m = len(self.edges)
        self.aut = aut_group_undirected(u)
        index = {e: i for i, e in enumerate(self.edges)}
        perms = []
        for p in self.aut.elements[1:]:  # the identity comes first
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
        bit_image[_np.arange(len(perms))[:, None], src] = \
            _np.uint64(1) << _np.arange(m - 1, -1, -1, dtype=_np.uint64)
        bit_image = bit_image.reshape(len(perms), nbytes, 8)
        tables = _np.zeros((len(perms), nbytes, 256), dtype=_np.uint64)
        for t in range(8):
            h = 1 << t
            _np.bitwise_xor(tables[:, :, :h], bit_image[:, :, t, None], out=tables[:, :, h:2 * h])
        tables[:, 0, :] ^= _np.array([flip for _, flip in perms], dtype=_np.uint64)[:, None]
        self.actions = [Action(srcpos, flip, tables[a])
                        for a, (srcpos, flip) in enumerate(perms)]
        self.vertex_images = _np.array([p.image for p in self.aut.elements[1:]],
                                       dtype=_np.intp).reshape(-1, self.n)
        # vertex v flips the edges at v
        self.flips = _np.zeros(self.n, dtype=_np.uint64)
        for i, (a, b) in enumerate(self.edges):
            self.flips[[a, b]] |= _np.uint64(1 << (m - 1 - i))

    @property
    def domain_total(self) -> int:
        return 1 << self.m

    def act_array(self, action: Action, xs):
        """The action's image of each orientation in a uint64 array: one
        table lookup per input byte."""
        b = _np.ascontiguousarray(xs, dtype="<u8").view(_np.uint8)
        tables = action.tables
        y = tables[0][b[0::8]]
        for k in range(1, len(tables)):
            y ^= tables[k][b[k::8]]
        return y

    orbit_min_array = group_min

    def switched_array(self, xs, v):
        return xs ^ self.flips[v]

    domain_chunk = index_chunk

    def count(self) -> int:
        """Class count by Burnside's lemma over the automorphism actions.

        An action permutes bit positions and then flips some; it fixes an
        orientation exactly when each cycle of the bit permutation holds an
        even number of flipped positions, and then fixes 2^cycles of them.
        """
        fixed = 1 << self.m
        for action in self.actions:
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
                    pos = action.srcpos[self.m - 1 - pos]  # the bit moved to pos
                if parity:
                    break
            else:
                fixed += 1 << cycles
        return fixed // (len(self.actions) + 1)

    scan_reps = scan_reps
    reps_array = concat_reps

    def digraph(self, x: int) -> Digraph:
        out = [0] * self.n
        for i, (a, b) in enumerate(self.edges):
            if x >> (self.m - 1 - i) & 1:
                out[b] |= 1 << a
            else:
                out[a] |= 1 << b
        return Digraph(self.n, tuple(out))
