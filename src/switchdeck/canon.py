"""Canonical forms, automorphism groups, and orientation orbits.

The canonical code of a connected digraph is the lexicographically least
adjacency bit-string over all relabellings compatible with iterated
(in, out)-degree refinement, prefixed by the order; disjoint unions compose
their components' codes in sorted order.  Codes are plain bytes and totally
ordered; equal codes mean isomorphic digraphs.

The search's refinement recounts each vertex only against the cells that
changed since the last round, after McKay and Piperno ("Practical graph
isomorphism II", J. Symb. Comput. 2014), but keeps every split's children
in the place and sorted order a recount against every cell gives, so every
code stays that of the full recount (see _stable_partition).

One cached search per graph (_canonical_search over _search) gives codes
and automorphism groups, after the same paper.  A leaf with the first
leaf's rows gives the automorphism first[i] -> leaf[i], which fixes the
path the two leaves share (splits keep leaf positions) and maps the first
path's next vertex to the other's.  A node skips each later child in the
orbit of its explored children under the automorphisms found that fix its
path.  Such a subtree is the image of an explored, earlier one, so the
least rows, the first leaf giving them and a leaf with the first leaf's
rows still turn up.  So the automorphisms found that fix the first k path
vertices reach the orbit of the next one under their stabiliser, and one
element per orbit point and level, multiplied, lists the group once.

batch_codes gives these codes (class names, for disconnected graphs) for many
tournaments or undirected graphs of order <= 8 at once, in numpy.

aut_groups reads whole automorphism groups off the same batch tree.  A row
that is not capped at _BATCH_DEPTH has its whole tree expanded, unpruned, and
the tree is equivariant: refinement and the choice of target cell are
isomorphism-invariant, and every vertex of the target cell is individualised,
so an automorphism g maps each leaf to a leaf whose relabelled matrix is the
same.  Two distinct leaves fix distinct vertex orders (where their paths part,
each put its own vertex in the same singleton cell, which splits keep in
place).  So the leaves whose matrix equals the row's least are g(best) for
the automorphisms g, each once, and best[i] -> leaf[i] over them lists the
group once.  A capped row's tree stops at the cap, so its leaves may miss
some automorphisms; such rows take aut_group_undirected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import and_

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


# batch_codes' individualisation depth below the root, and tree nodes per pass
_BATCH_DEPTH = 4
_BATCH_NODES = 1 << 13


def _batch_tree(outs, ties=False):
    """Expand every row's search tree for batch_codes and aut_groups: per row
    the least leaf's code and order, whether the row is capped, and with
    ties the rows and orders of the uncapped leaves equal to their row's least."""
    rows, n = outs.shape
    codes = _np.full(rows, _np.iinfo(_np.uint64).max, dtype=_np.uint64)
    orders = _np.zeros((rows, n), dtype=_np.intp)
    capped = _np.zeros(rows, dtype=bool)
    held = []
    bits = _np.arange(n, dtype=_np.uint8)
    todo = [(0, _np.arange(rows), _np.zeros((rows, n), dtype=_np.int32))]
    while todo:
        depth, row, cell = todo.pop()
        if len(row) > _BATCH_NODES:
            todo += [(depth, row[s:s + _BATCH_NODES], cell[s:s + _BATCH_NODES])
                     for s in range(0, len(row), _BATCH_NODES)]
            continue
        row, cell = row[~capped[row]], cell[~capped[row]]
        out = outs[row]
        arcs = (out[:, :, None] >> bits & 1).astype(_np.int32)
        # cells are ranked 0, 1, ..., so a node is a leaf when its top rank is n - 1
        active = _np.flatnonzero(cell.max(axis=1, initial=-1) < n - 1)
        while active.size:
            c = cell[active]
            top = c.max(axis=1)
            weight = _np.int32(1) << 3 * (n - 1) - 3 * c
            keys = c << 3 * n | _np.matmul(arcs[active], weight[:, :, None])[:, :, 0]
            order = _np.argsort(keys, axis=1)
            ranked = _np.take_along_axis(keys, order, axis=1)
            rank = _np.zeros_like(c)
            _np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1, out=rank[:, 1:])
            _np.put_along_axis(c, order, rank, axis=1)
            cell[active] = c
            active = active[(rank[:, -1] > top) & (rank[:, -1] < n - 1)]
        leaf = cell.max(axis=1, initial=-1) == n - 1
        # each row's least leaf in this pass, kept where it beats the row's best
        perm = _np.argsort(cell[leaf], axis=1)
        bit = _np.take_along_axis(out[leaf], perm, axis=1)[:, :, None] >> bits[perm][:, None] & 1
        packed = _np.zeros((len(perm), 8), dtype=_np.uint8)
        packed[:, 8 - ((n * n + 7) >> 3):] = _np.packbits(bit.reshape(len(perm), n * n), axis=1)
        found = packed.view(">u8")[:, 0].astype(_np.uint64)
        at = row[leaf]
        least = _np.lexsort((found, at))
        least = least[_np.unique(at[least], return_index=True)[1]]
        least = least[found[least] < codes[at[least]]]
        codes[at[least]], orders[at[least]] = found[least], perm[least]
        if ties:  # the leaves tying the running least; a later, lesser leaf voids them
            tie = found == codes[at]
            held.append((at[tie], found[tie], perm[tie]))
        row, cell = row[~leaf], cell[~leaf]
        if depth == _BATCH_DEPTH:
            capped[row] = True
        elif len(cell):
            ranked = _np.sort(cell, axis=1)
            first = _np.where(ranked[:, 1:] == ranked[:, :-1], ranked[:, 1:], n).min(axis=1)
            node, v = _np.nonzero(cell == first[:, None])
            c, f = cell[node], first[node, None]
            todo.append((depth + 1, row[node], c + (c > f) + ((c == f) & (bits != v[:, None]))))
    if not ties:
        return codes, orders, capped, None
    at, found, perm = map(_np.concatenate, zip(*held))
    keep = (found == codes[at]) & ~capped[at]
    return codes, orders, capped, (at[keep], perm[keep])


def batch_codes(outs):
    """Canonical codes of symmetric digraphs or tournaments on n <= 8
    vertices, one per row of an (N, n) uint8 array of out-masks, as
    canonical_code's bytes after the order byte read big-endian, and per
    row one vertex order giving the code (position i holds vertex order[i]).

    Each row's _search tree is expanded, all rows at once, _BATCH_DEPTH
    individualisations deep, and the code is the least relabelled matrix
    over its leaves; a row with a node still not discrete there takes
    canonical_code and _canonical_search instead.  Three arguments:

    - The least leaf is _search's code: _visit's automorphism pruning skips
      only subtrees whose leaves repeat ones already explored.
    - The rounds give _stable_partition's cells.  Individualising v in cell
      c gives cell + (cell > c) + ((cell == c) & (w != v)), [v] just before
      the rest of c as in _visit.  A round keys each vertex on its cell,
      then its out-counts against every cell in cell order (the base-8
      digits of the sum of 8^(n - 1 - cell) over its out-neighbours, none
      above 7), and ranks the keys: cells split in place, children sorted
      by counts, the full recount _stable_partition's incremental rounds
      equal.  _canonical_search passes inn=None for both kinds of row.
    - Disconnected rows are safe.  There the least leaf names the class but
      is not canonical_code's code, which composes component codes, so
      callers deduplicate by code and recode the disconnected classes they
      keep.  Codes cannot collide: equal codes mean equal relabelled
      matrices, and connectivity and capping are isomorphism invariants.
    """
    codes, orders, capped, _ = _batch_tree(outs)
    n = outs.shape[1]
    for r in _np.flatnonzero(capped).tolist():
        g = Digraph(n, tuple(outs[r].tolist()))
        codes[r] = int.from_bytes(canonical_code(g)[1:], "big")
        orders[r] = _canonical_search(g)[1]
    return codes, orders


def aut_groups(graphs: list[UnderlyingGraph]) -> list[AutGroup]:
    """aut_group_undirected of each of a list of graphs of one order, read
    off one batch_codes tree for orders up to 8 (see the module docstring);
    capped rows and larger orders take aut_group_undirected itself."""
    if not graphs or graphs[0].n > 8:
        return [aut_group_undirected(u) for u in graphs]
    _, orders, capped, (at, leaves) = _batch_tree(
        _np.array([u.adj for u in graphs], dtype=_np.uint8), ties=True)
    # the automorphism best[i] -> leaf[i] of each tied leaf, rows ascending by image
    images = _np.empty_like(leaves)
    _np.put_along_axis(images, orders[at], leaves, axis=1)
    order = _np.lexsort((*images.T[::-1], at))
    bounds = _np.searchsorted(at[order], _np.arange(len(graphs) + 1)).tolist()
    elements = [Permutation(tuple(e)) for e in images[order].tolist()]
    return [aut_group_undirected(u) if capped[r]
            else AutGroup(tuple(elements[bounds[r]:bounds[r + 1]]))
            for r, u in enumerate(graphs)]


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


@lru_cache(maxsize=1 << 14)
def aut_group_undirected(u: UnderlyingGraph) -> AutGroup:
    """Every automorphism of an undirected graph on at most 16 vertices,
    ascending by image, off the stabiliser chain of a search of the whole
    graph (see the module docstring): the canonical search of u's symmetric
    digraph, or _search's where that split u."""
    if u.n > AUT_MAX_N:
        raise OutOfRange(f"order {u.n} exceeds automorphism cap {AUT_MAX_N}")
    n = u.n
    found = _canonical_search(Digraph(n, u.adj))[2]
    gens, path = _search(n, u.adj, None)[2:] if found is None else found or ((), ())
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


class OrientationSpace:
    """Orientations of a fixed underlying graph, as m-bit integers.

    Bit (m-1-i) of an integer stores the direction of edge i in lexicographic
    order, so integer order equals lexicographic order on direction vectors.
    Orbit minima under the automorphism group of the underlying graph pick
    one labelled orientation per isomorphism class.

    The group is held once, as arrays over its non-identity automorphisms,
    row k for aut.elements[k + 1]: vertex_images[k, v] is the image of vertex
    v, dest[k, i] the edge that edge i goes to, and flip[k] the bits of the
    edges it maps against their stored direction.  So automorphism k sends x
    to P(x) ^ flip[k], where P moves the bit of edge i to that of edge
    dest[k, i].  flips[v] holds the bits of the edges at vertex v, which a
    switch at v reverses.
    """

    def __init__(self, u: UnderlyingGraph, aut: AutGroup | None = None):
        """aut, when given, is u's aut_group_undirected, as aut_groups gives it."""
        self.n = n = u.n
        self.edges = sorted(u.edges())
        self.m = m = len(self.edges)
        self.domain_total = 1 << m
        self.aut = aut_group_undirected(u) if aut is None else aut
        self.vertex_images = _np.array([p.image for p in self.aut.elements[1:]],
                                       dtype=_np.intp).reshape(-1, n)
        ends = _np.array(self.edges, dtype=_np.intp).reshape(m, 2)
        index = _np.zeros((n, n), dtype=_np.intp)
        index[ends[:, 0], ends[:, 1]] = index[ends[:, 1], ends[:, 0]] = _np.arange(m)
        a, b = self.vertex_images[:, ends[:, 0]], self.vertex_images[:, ends[:, 1]]
        self.dest = index[a, b]
        bits = _np.uint64(1) << _np.arange(m - 1, -1, -1, dtype=_np.uint64)
        self.flip = (bits[self.dest] * (a > b)).sum(axis=1, dtype=_np.uint64)
        self.flips = _np.zeros(n, dtype=_np.uint64)
        _np.bitwise_or.at(self.flips, ends.T, bits)

    @cached_property
    def actions(self) -> _np.ndarray:
        """The byte tables of each non-identity automorphism, built on first
        use: actions[k][j][b] is automorphism k's image of input byte j
        holding b, with flip[k] folded into actions[k][0]."""
        m = self.m
        # one 256-entry table per input byte, at least one so that an
        # edgeless space still maps everything to 0
        nbytes = max(1, -(-m // 8))
        # input bit m-1-i, edge i's, goes to bit m-1-dest[k, i]
        bit_image = _np.zeros((len(self.dest), 8 * nbytes), dtype=_np.uint64)
        bit_image[:, :m] = _np.uint64(1) << (m - 1 - self.dest[:, ::-1]).astype(_np.uint64)
        bit_image = bit_image.reshape(len(self.dest), nbytes, 8)
        tables = _np.zeros((len(self.dest), nbytes, 256), dtype=_np.uint64)
        for t in range(8):
            h = 1 << t
            _np.bitwise_xor(tables[:, :, :h], bit_image[:, :, t, None], out=tables[:, :, h:2 * h])
        tables[:, 0, :] ^= self.flip[:, None]
        return tables

    def act_array(self, action, xs):
        """An automorphism's image of each orientation in a uint64 array, from
        its byte tables (one row of actions): one table lookup per input byte."""
        b = _np.ascontiguousarray(xs, dtype="<u8").view(_np.uint8)
        y = action[0][b[0::8]]
        for k in range(1, len(action)):
            y ^= action[k][b[k::8]]
        return y

    orbit_min_array = group_min

    def switched_array(self, xs, v):
        return xs ^ self.flips[v]

    domain_chunk = index_chunk

    def _solutions(self, targets):
        """Solve P(x) ^ x = targets[k] for each non-identity automorphism k,
        P moving the bit of edge i to that of edge dest[k, i] (its action
        without flip[k]), and yield x0 and the cycles' masks for each
        solvable one: its solutions are x0 XOR their sums.  Along a cycle of
        P each bit of x is the last one XOR the target's bit there, so the
        cycle closes only on an even number of target bits.  Passing
        flip ^ c solves h(x) = x ^ c."""
        bits = [1 << (self.m - 1 - i) for i in range(self.m)]  # edge i's bit
        for dest, target in zip(self.dest.tolist(), targets.tolist()):
            x0, seen, cycles = 0, 0, []
            for start in range(self.m):
                if seen & bits[start]:
                    continue
                bit, i, cycle = 0, start, 0
                while not cycle & bits[i]:
                    cycle |= bits[i]
                    if bit:
                        x0 |= bits[i]
                    i = dest[i]
                    bit ^= target & bits[i] != 0
                if bit:
                    break
                seen |= cycle
                cycles.append(cycle)
            else:
                yield x0, cycles

    def count(self) -> int:
        """Class count by Burnside: automorphism k fixes the x with h(x) = x."""
        fixed = sum(1 << len(cycles) for _, cycles in self._solutions(self.flip))
        return ((1 << self.m) + fixed) // (len(self.flip) + 1)

    def self_card_strings(self, v: int):
        """The strings x whose switch x ^ flips[v] is h(x) for an automorphism
        h, ascending: every string when flips[v] = 0 (h the identity), else
        the solutions of h(x) = x ^ flips[v] over the automorphisms."""
        f = self.flips[v]
        if not f:
            return _np.arange(1 << self.m, dtype=_np.uint64)
        found = [_np.empty(0, dtype=_np.uint64)]
        for x0, cycles in self._solutions(self.flip ^ f):
            xs = _np.array([x0], dtype=_np.uint64)
            for cycle in cycles:
                xs = _np.concatenate([xs, xs ^ _np.uint64(cycle)])
            found.append(xs)
        return _np.unique(_np.concatenate(found))

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
