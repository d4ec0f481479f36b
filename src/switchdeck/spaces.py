"""Orientation strings for paths and cycles, with fast class arithmetic.

A path on n vertices is an (n-1)-letter direction string; a cycle on n
vertices an n-letter string where letter i directs the edge between
vertices i and i+1 (mod n).  Letters: 0 = forward (low to high around the
walk), 1 = backward, 2 = digon (cycles only, when enabled).  Strings pack
into integers with letter 0 in the most significant slot, so integer order
is lexicographic order.  Class representatives are orbit minima under the
relabelling group: string reversal composes with direction complement, and
cycles additionally rotate.

PathSpace, CycleSpace, canon.OrientationSpace and generate.TournamentSpace
share one protocol, whose class arithmetic all runs on uint64 arrays:

- n, count(): the order and the class count, without a scan;
- scan_reps(chunk): the orbit minima, ascending, in chunks, holding arrays
  of at most about `chunk` strings; reps_array() joins them;
- orbit_min_array(xs, at=None): each string's orbit minimum, an exact class
  id, after the string is switched at `at`: an int, or a vertex column that
  broadcasts against xs;
- digraph(x): one string's digraph.

PathSpace and OrientationSpace have a relabelling group and bind the generic
kernels below, group_min and scan_reps, which read what those two spaces
add: domain_total and domain_chunk(start, stop), the strings that can be
orbit minima, by index; actions and act_array(action, xs), each
non-identity relabelling and each string's image under it (an action is
whatever act_array takes: None for PathSpace's one reversal, byte tables
built from OrientationSpace's dest and flip arrays); vertex_images, where
each action sends each vertex; and switched_array(xs, v).  CycleSpace
has its own kernels, and each TournamentSpace string is its own orbit
minimum.  OrientationSpace and TournamentSpace also give
self_card_strings(v): the strings whose card at v is their own class,
ascending, with no scan.

card_table is the one card function over that protocol: the class ids of all
n cards of each string, from the space's orbit_min_array at every vertex, one
slice of strings at a time.  For the small spaces that make up max-degree-2
graphs, tabulated_reps runs it once over all orbit minima: card_rows gives
each card as its index among them, which the census signs, and card(x, v)
reads one card, which now serves only the exact step on the census's
signature candidates.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd
from typing import Iterable, Iterator

import numpy as _np

from .digraph import Digraph
from .errors import HypothesisUnmet, OutOfRange

_CHUNK = 1 << 22
# strings per slice of card_table: its n-row temporaries stay small
_CARD_COLUMNS = 1 << 12

# 256-entry tables reversing the bits, and the bit pairs, within a byte
_REV1 = _np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=_np.uint64)
_REV2 = _np.array([sum((b >> 2 * i & 3) << 2 * (3 - i) for i in range(4)) for b in range(256)],
                  dtype=_np.uint64)


def scan_reps(space, chunk: int = _CHUNK) -> Iterator:
    """Orbit minima of a space, ascending, one uint64 array per `chunk`
    domain indices.  Each chunk shrinks action by action, keeping an x only
    while no action so far maps it lower; almost every x drops at one of the
    first few actions, so the scan costs about one pass over the domain."""
    total = space.domain_total
    for start in range(0, total, chunk):
        xs = space.domain_chunk(start, min(start + chunk, total))
        for action in space.actions:
            xs = xs[space.act_array(action, xs) >= xs]
        yield xs


def group_min(space, xs, at=None):
    """Each string's orbit minimum after it is switched at `at` (an int, or
    an integer array that broadcasts against xs; None switches nothing).  A
    relabelling h takes the switch at v to the switch at h(v),
    h(switch_v x) = switch_h(v)(h x), so one image of xs per action serves
    every vertex in `at`."""
    if at is None:
        best = xs.copy()
        for action in space.actions:
            _np.minimum(best, space.act_array(action, xs), out=best)
        return best
    best = space.switched_array(xs, at)
    for action, image in zip(space.actions, space.vertex_images):
        _np.minimum(best, space.switched_array(space.act_array(action, xs), image[at]), out=best)
    return best


def concat_reps(space):
    """Orbit minima as an ascending uint64 array."""
    return _np.concatenate(list(space.scan_reps()))


def index_chunk(space, start: int, stop: int):
    """Domain chunk of a space whose domain index is the string itself."""
    return _np.arange(start, stop, dtype=_np.uint64)


def card_table(space, xs):
    """Row v holds the class ids of the cards at vertex v of each string in
    xs: the orbit minima of its switches at v, from the space's own
    orbit_min_array, one slice of columns at a time."""
    out = _np.empty((space.n, len(xs)), dtype=_np.uint64)
    vertices = _np.arange(space.n)[:, None]
    for start in range(0, len(xs), _CARD_COLUMNS):
        x = xs[start:start + _CARD_COLUMNS]
        out[:, start:start + len(x)] = space.orbit_min_array(x, vertices)
    return out


def tabulated_reps(space) -> list[int]:
    """The space's orbit minima, ascending; the first call also tabulates
    the cards of all of them, for card_rows and card(x, v).  Both stay on
    the space object, so this suits small spaces such as the parts of
    max-degree-2 graphs."""
    reps = space.__dict__.get("_reps")
    if reps is None:
        xs = space.reps_array()
        cards = card_table(space, xs).T
        rows = _np.searchsorted(xs, cards)
        if not (xs[_np.minimum(rows, len(xs) - 1)] == cards).all():
            raise HypothesisUnmet(f"{type(space).__name__} has a card outside its orbit minima")
        reps = xs.tolist()
        space._card_rows = rows
        space._reps = reps
    return reps


def card_rows(space):
    """(reps, n) table: the index in tabulated_reps of each card of each
    orbit minimum."""
    tabulated_reps(space)
    return space._card_rows


def card_of(space, x: int, v: int) -> int:
    """Class id of the card at vertex v of the orbit minimum x, read from the
    space's card rows."""
    reps = tabulated_reps(space)
    i = bisect_left(reps, x)
    if i == len(reps) or reps[i] != x:
        raise HypothesisUnmet(f"{x} is not an orbit minimum of {type(space).__name__}")
    return reps[space._card_rows[i, v]]


def _reverse64(xs, pairs: bool, width: int):
    """Each width-bit string with its bits, or its bit pairs, in reverse
    order: one table lookup per byte, reading only the ceil(width / 8) low
    bytes, since the others are zero."""
    tab = _REV2 if pairs else _REV1
    nbytes = -(-width // 8)
    b = _np.ascontiguousarray(xs, dtype="<u8").view(_np.uint8)
    acc = _np.zeros_like(xs)
    for k in range(nbytes):
        acc |= tab[b[k::8]] << _np.uint64(8 * (nbytes - 1 - k))
    return acc >> _np.uint64(8 * nbytes - width)


class PathSpace:
    """Oriented paths on n vertices as (n-1)-bit strings modulo reversal."""

    def __init__(self, n: int):
        if n < 1:
            raise OutOfRange("paths need at least one vertex")
        self.n = n
        self.m = n - 1
        self.mask = (1 << self.m) - 1
        self.actions = [None] if self.m else []
        self.vertex_images = _np.array([range(n - 1, -1, -1)] * len(self.actions),
                                       dtype=_np.intp).reshape(-1, n)
        # vertex v flips edge v-1 unless it is the first vertex, edge v
        # unless it is the last
        self.flips = _np.array([(1 << (self.m - v) if v > 0 else 0)
                                | (1 << (self.m - 1 - v) if v < self.m else 0)
                                for v in range(n)], dtype=_np.uint64)

    @property
    def domain_total(self) -> int:
        return 1 << self.m

    domain_chunk = index_chunk

    def act_array(self, action, xs):
        """Reverse each string and complement its letters: the one action."""
        return _reverse64(xs, False, self.m) ^ _np.uint64(self.mask)

    orbit_min_array = group_min

    def switched_array(self, xs, v):
        return xs ^ self.flips[v]

    scan_reps = scan_reps
    reps_array = concat_reps
    card = card_of

    def count(self) -> int:
        """Class count: strings modulo the 2-element reversal group."""
        fixed = (1 << (self.m // 2)) if self.m % 2 == 0 else 0
        return ((1 << self.m) + fixed) // 2

    def digraph(self, x: int) -> Digraph:
        out = [0] * self.n
        for i in range(self.m):
            if x >> (self.m - 1 - i) & 1:
                out[i + 1] |= 1 << i
            else:
                out[i] |= 1 << (i + 1)
        return Digraph(self.n, tuple(out))


class CycleSpace:
    """Oriented cycles on n >= 3 vertices, optionally with digon letters."""

    def __init__(self, n: int, digons: bool = False):
        if n < 3:
            raise OutOfRange("cycles need at least three vertices")
        self.n = n
        self.digons = digons
        self.b = 2 if digons else 1
        self.width = self.b * n
        self.mask = (1 << self.width) - 1
        if digons:
            # low bit of each letter is the direction, high bit the digon flag
            self.low = int("01" * n, 2)
        # vertex v flips the direction bits of edges v-1 and v
        self.flips = _np.array([(1 << self.b * (n - 1 - (v - 1) % n)) | (1 << self.b * (n - 1 - v))
                                for v in range(n)], dtype=_np.uint64)

    @property
    def domain_total(self) -> int:
        """Strings starting with letter 0, plus the all-digon string with
        digons: a rotation brings any 0 letter to the front, and reflection
        turns any 1 letter into a 0, so no other string is an orbit minimum."""
        if self.digons:
            return 3 ** (self.n - 1) + 1
        return 1 << (self.n - 1)

    # no library code reads the domain: the census and reps_array take
    # scan_reps, which builds the cycle orbit minima without it.  It stays
    # only because perfbench's tracer times it, as spaces.domain_chunk
    def domain_chunk(self, start: int, stop: int):
        """Packed strings for domain indices [start, stop), ascending.  These
        are the strings that can be orbit minima, not every string.  Index
        i < 3^(n-1) is letter 0 followed by i's n-1 base-3 digits; the last
        index is the all-digon string, which packs above every string that
        starts with 0.  Plain cycle indices are the strings themselves."""
        if not self.digons:
            return index_chunk(self, start, stop)
        body = 3 ** (self.n - 1)
        i = _np.arange(start, min(stop, body), dtype=_np.uint64)
        packed = _np.zeros_like(i)
        for e in range(self.n - 1):
            packed |= i // _np.uint64(3 ** e) % _np.uint64(3) << _np.uint64(2 * e)
        if stop > body:
            packed = _np.append(packed, _np.uint64(int("10" * self.n, 2)))
        return packed

    def orbit_min_array(self, xs, at=None):
        return self._orbit_min_array(xs, at)

    def switched_array(self, xs, v):
        """Flip the letters of edges v-1 and v; digon letters stay put."""
        if not self.digons:
            return xs ^ self.flips[v]
        return xs ^ (self.flips[v] & ~(xs >> _np.uint64(1)))

    reps_array = concat_reps
    card = card_of

    def _reflect(self, xs):
        """Reverse each string and complement its direction letters."""
        rev = _reverse64(xs, self.digons, self.width)
        if self.digons:
            return rev ^ (_np.uint64(self.low) & ~(rev >> _np.uint64(1)))
        return rev ^ _np.uint64(self.mask)

    def _rotate(self, xs, r: int):
        s = _np.uint64(self.b * r)
        return ((xs >> s) | (xs << (_np.uint64(self.width) - s))) & _np.uint64(self.mask)

    # orbit_min_array forwards here so that this one name covers every
    # cycle orbit minimum, cards included; perfbench/tracer.py times the
    # cycle card kernel by it, as spaces.orbit_min_array
    def _orbit_min_array(self, xs, at=None):
        """Each string's orbit minimum after it is switched at `at`, as in
        group_min, from one reflection per call and one shift per rotation.

        The orbit of a string y is its n rotations and the n rotations of
        reflect(y).  Reflection sends vertex v to rho(v) = (n - v) mod n,
        so reflect(switch_v x) = switch_rho(v)(reflect x):
        xs is reflected once, and each side is switched once, before
        _least_rotation rotates both."""
        ys = self._reflect(xs)
        if at is not None:
            xs, ys = self.switched_array(xs, at), self.switched_array(ys, (self.n - at) % self.n)
        return self._least_rotation(xs, ys)

    def _least_rotation(self, *sides):
        """The least rotation of each string over all the given sides, which
        are equal-shaped arrays.

        A word D holding a string top-aligned in 64 bits and followed by
        its own start holds the string's left rotation by r letters in the
        top w bits of D << b*r, for every r <= (64 - w) // b.  That covers
        all n rotations up to w = 32; a wider string, up to the 40 bits of
        digon order 20, takes one more block, which one _rotate starts.  The
        top w bits of a word are monotone in it, so the least shifted word,
        shifted right by 64 - w, is the least rotation."""
        n, b, w = self.n, self.b, self.width
        top, step = _np.uint64(64 - w), _np.uint64(b)
        per_block = (64 - w) // b + 1
        best = None
        for side in sides:
            for first in range(0, n, per_block):
                word = (self._rotate(side, n - first) if first else side) << top
                word |= word >> _np.uint64(w)
                best = word.copy() if best is None else _np.minimum(best, word, out=best)
                for _ in range(1, min(per_block, n - first)):
                    word <<= step
                    _np.minimum(best, word, out=best)
        return best >> top

    def scan_reps(self, chunk: int = _CHUNK) -> Iterator:
        """Orbit minima, ascending, in chunks, built letter by letter as
        prenecklaces instead of filtered from a domain.

        A prenecklace is a prefix of a necklace, a string no larger than
        any of its rotations; lyn(a) is the length of its longest prefix
        that is a Lyndon word.  Fredricksen, Kessler and Maiorana's
        extension rule (Cattell, Ruskey, Sawada, Serra and Miers, J.
        Algorithms 37, 2000, Theorem 2.1): if a_1..a_t is a prenecklace with
        p = lyn(a), then a_1..a_t c is one exactly when c >= a_{t+1-p}, the
        letter p places back from the new one, and its lyn is p when c
        equals that letter and t + 1 when c exceeds it.  A prenecklace of
        length n is a necklace exactly when p divides n.  Every single
        letter is a Lyndon word (p = 1), and every prefix of a prenecklace is
        one, so extending from the single letters and dropping each prefix
        the rule rejects reaches every necklace and nothing else.

        The orbit of x is its n rotations and the n rotations of
        reflect(x).  A necklace is the least of its own rotations, so it is
        an orbit minimum exactly when it is no larger than the least
        rotation of its reflection (Sawada, SIAM J. Comput. 31, 2001, builds
        bracelets from necklaces the same way).

        Each level is kept ascending: the children of an ascending block of
        prefixes are the rows of the grid prefix << b | letter, and every
        child of a smaller prefix is smaller than every child of a larger
        one.  Prefixes of t letters are extended depth-first in blocks of
        chunk // k^(n-t), which have at most `chunk` completions between
        them, so no array holds more than max(chunk, k) strings; each block
        of n letters yields its orbit minima, and every later block's
        strings are larger."""
        n, b = self.n, _np.uint64(self.b)
        letters = _np.arange(3 if self.digons else 2, dtype=_np.uint64)
        letter_mask = _np.uint64((1 << self.b) - 1)
        k = len(letters)

        def extend(xs, ps, t):
            # xs: ascending prenecklaces of t letters, ps: their lyn values
            if t == n:
                xs = xs[n % ps == 0]
                xs = xs[self._least_rotation(self._reflect(xs)) >= xs]
                if len(xs):
                    yield xs
                return
            block = max(1, chunk // k ** (n - t))
            for start in range(0, len(xs), block):
                x, p = xs[start:start + block], ps[start:start + block]
                ref = ((x >> b * (p - _np.uint8(1))) & letter_mask)[:, None]
                keep = letters >= ref
                lyn = _np.where(letters > ref, _np.uint8(t + 1), p[:, None])[keep]
                yield from extend(((x[:, None] << b) | letters)[keep], lyn, t + 1)

        yield from extend(letters, _np.ones(len(letters), dtype=_np.uint8), 1)

    def count(self) -> int:
        """Class count by orbit counting over the 2n relabellings."""
        n = self.n
        k = 3 if self.digons else 2
        total = sum(k ** gcd(n, r) for r in range(n))
        if self.digons:
            if n % 2:
                total += n * 3 ** ((n - 1) // 2)
            else:
                total += (n // 2) * (3 ** (n // 2) + 3 ** (n // 2 - 1))
        else:
            if n % 2 == 0:
                total += (n // 2) * 2 ** (n // 2)
        return total // (2 * n)

    def letters(self, x: int) -> tuple[int, ...]:
        return tuple(x >> (self.b * (self.n - 1 - i)) & ((1 << self.b) - 1) for i in range(self.n))

    def from_letters(self, letters: Iterable[int]) -> int:
        x = 0
        for letter in letters:
            x = x << self.b | letter
        return x

    def digraph(self, x: int) -> Digraph:
        out = [0] * self.n
        for i, letter in enumerate(self.letters(x)):
            j = (i + 1) % self.n
            if letter == 0:
                out[i] |= 1 << j
            elif letter == 1:
                out[j] |= 1 << i
            else:
                out[i] |= 1 << j
                out[j] |= 1 << i
        return Digraph(self.n, tuple(out))
