"""Orientation strings for paths and cycles, with fast class arithmetic.

A path on n vertices is an (n-1)-letter direction string; a cycle on n
vertices an n-letter string where letter i directs the edge between
vertices i and i+1 (mod n).  Letters: 0 = forward (low to high around the
walk), 1 = backward, 2 = digon (cycles only, when enabled).  Strings pack
into integers with letter 0 in the most significant slot, so integer order
is lexicographic order.  Class representatives are orbit minima under the
relabelling group: string reversal composes with direction complement, and
cycles additionally rotate.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator

import numpy as _np

from .digraph import Digraph
from .errors import TooSmall

_CHUNK = 1 << 22

_REV1 = None
_REV2 = None


def _byte_tables():
    """Lazy 256-entry tables reversing bits / bit-pairs within a byte."""
    global _REV1, _REV2
    if _REV1 is None:
        r1 = [0] * 256
        r2 = [0] * 256
        for b in range(256):
            v1 = 0
            for i in range(8):
                v1 |= (b >> i & 1) << (7 - i)
            r1[b] = v1
            v2 = 0
            for i in range(4):
                v2 |= (b >> (2 * i) & 3) << (2 * (3 - i))
            r2[b] = v2
        _REV1 = _np.array(r1, dtype=_np.uint64)
        _REV2 = _np.array(r2, dtype=_np.uint64)
    return _REV1, _REV2


def scan_reps(space, chunk: int = _CHUNK) -> Iterator:
    """Orbit minima of a space, ascending, one uint64 array per `chunk`
    domain indices.  Domain chunks come in ascending string order, so the
    concatenation is ascending too."""
    total = space.domain_total
    for start in range(0, total, chunk):
        xs = space.domain_chunk(start, min(start + chunk, total))
        yield xs[space.orbit_min_array(xs) == xs]


def _reverse64(xs, pairs: bool):
    t1, t2 = _byte_tables()
    tab = t2 if pairs else t1
    mask = _np.uint64(255)
    acc = _np.zeros_like(xs)
    for k in range(8):
        byte = (xs >> _np.uint64(8 * k)) & mask
        acc |= tab[byte.astype(_np.int64)] << _np.uint64(56 - 8 * k)
    return acc


class PathSpace:
    """Oriented paths on n vertices as (n-1)-bit strings modulo reversal."""

    def __init__(self, n: int):
        if n < 1:
            raise TooSmall("paths need at least one vertex")
        self.n = n
        self.m = n - 1
        self.mask = (1 << self.m) - 1

    def reverse(self, x: int) -> int:
        """Walk reversal: reverse the string and complement every letter."""
        y = 0
        for i in range(self.m):
            y |= (x >> i & 1 ^ 1) << (self.m - 1 - i)
        return y

    def orbit_min(self, x: int) -> int:
        if self.m == 0:
            return 0
        return min(x, self.reverse(x))

    def switch_mask(self, v: int) -> int:
        sm = 0
        if v > 0:
            sm |= 1 << (self.m - v)
        if v < self.n - 1:
            sm |= 1 << (self.m - 1 - v)
        return sm

    def card(self, x: int, v: int) -> int:
        return self.orbit_min(x ^ self.switch_mask(v))

    def reps(self) -> list[int]:
        return self.reps_array().tolist()

    @property
    def domain_total(self) -> int:
        return 1 << self.m

    def domain_chunk(self, start: int, stop: int):
        return _np.arange(start, stop, dtype=_np.uint64)

    def orbit_min_array(self, xs):
        if self.m == 0:
            return xs.copy()
        rev = (_reverse64(xs, pairs=False) >> _np.uint64(64 - self.m)) ^ _np.uint64(self.mask)
        return _np.minimum(xs, rev)

    def switched_array(self, xs, v: int):
        return xs ^ _np.uint64(self.switch_mask(v))

    rep_chunks = scan_reps

    def reps_array(self):
        """Orbit minima as an ascending uint64 array."""
        return _np.concatenate(list(self.rep_chunks()))

    def count(self) -> int:
        """Class count: strings modulo the 2-element reversal group."""
        if self.m == 0:
            return 1
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
            raise TooSmall("cycles need at least three vertices")
        self.n = n
        self.digons = digons
        self.b = 2 if digons else 1
        self.width = self.b * n
        self.mask = (1 << self.width) - 1
        if digons:
            # low bit of each letter is the direction, high bit the digon flag
            self.low = int("01" * n, 2)
            self.high = self.low << 1

    def rotate(self, x: int, r: int) -> int:
        """Relabel vertex i to i+r; letter i moves to slot i+r."""
        s = self.b * (r % self.n)
        return ((x >> s) | (x << (self.width - s))) & self.mask if s else x

    def _complement(self, x: int) -> int:
        if not self.digons:
            return x ^ self.mask
        # flip direction bits of non-digon letters only
        return x ^ (self.low & ~(x >> 1))

    def reverse(self, x: int) -> int:
        """Reflection through vertex 0: reverse letters, complement directions."""
        y = 0
        for i in range(self.n):
            letter = x >> (self.b * (self.n - 1 - i)) & ((1 << self.b) - 1)
            y |= letter << (self.b * i)
        return self._complement(y)

    def orbit_min(self, x: int) -> int:
        best = x
        y = self.reverse(x)
        for r in range(self.n):
            a = self.rotate(x, r)
            if a < best:
                best = a
            a = self.rotate(y, r)
            if a < best:
                best = a
        return best

    def switch_mask_positions(self, v: int) -> tuple[int, int]:
        return (v - 1) % self.n, v

    def switched(self, x: int, v: int) -> int:
        e1, e2 = self.switch_mask_positions(v)
        flip = (1 << (self.b * (self.n - 1 - e1))) | (1 << (self.b * (self.n - 1 - e2)))
        if not self.digons:
            return x ^ flip
        return x ^ (flip & ~(x >> 1))

    def card(self, x: int, v: int) -> int:
        return self.orbit_min(self.switched(x, v))

    @property
    def domain_total(self) -> int:
        return (3 if self.digons else 2) ** self.n

    def domain_chunk(self, start: int, stop: int):
        """Packed strings for domain indices [start, stop), ascending: index
        digit e in base 3 becomes letter slot e, so index order is string
        order."""
        idx = _np.arange(start, stop, dtype=_np.uint64)
        if not self.digons:
            return idx
        packed = _np.zeros_like(idx)
        three = _np.uint64(3)
        for e in range(self.n):
            packed |= ((idx // _np.uint64(3 ** e)) % three) << _np.uint64(2 * e)
        return packed

    def orbit_min_array(self, xs):
        return self._orbit_min_array(xs)

    def switched_array(self, xs, v: int):
        e1, e2 = self.switch_mask_positions(v)
        flip = _np.uint64(
            (1 << (self.b * (self.n - 1 - e1))) | (1 << (self.b * (self.n - 1 - e2)))
        )
        if not self.digons:
            return xs ^ flip
        return xs ^ (flip & ~(xs >> _np.uint64(1)))

    rep_chunks = scan_reps

    def reps_array(self):
        """Orbit minima as an ascending uint64 array."""
        return _np.concatenate(list(self.rep_chunks()))

    def _orbit_min_array(self, xs):
        width = _np.uint64(self.width)
        mask = _np.uint64(self.mask)
        rev = _reverse64(xs, pairs=self.digons) >> _np.uint64(64 - self.width)
        if self.digons:
            low = _np.uint64(self.low)
            rev = rev ^ (low & ~(rev >> _np.uint64(1)))
        else:
            rev = rev ^ mask
        best = xs.copy()
        _np.minimum(best, rev, out=best)
        for r in range(1, self.n):
            s = _np.uint64(self.b * r)
            for base in (xs, rev):
                rot = ((base >> s) | (base << (width - s))) & mask
                _np.minimum(best, rot, out=best)
        return best

    def reps(self) -> list[int]:
        return self.reps_array().tolist()

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
