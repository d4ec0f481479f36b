"""Cycle orientations as letter strings, with W-set analysis on top.

A cycle orientation is a letter string over the edges (i, i+1 mod n):
0 = forward arc, 1 = backward arc, 2 = arcs both ways.  CycleOrientation
reads letters and gives their packed CycleSpace string and digraph.  The
switching sets of a rotation gamma, every W with G_W = G^gamma, come from
stability.switch_solutions on the cycle's digraph; the distinguished w_set
is the solution with fewer than n/2 vertices when that solution is unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import gcd

from . import spaces
from .digraph import Digraph, Permutation, VertexSet
from .errors import HypothesisUnmet, OutOfRange
from .stability import switch_solutions
from .switching import switch_vertex

FORWARD, BACKWARD, DIGON = 0, 1, 2


@dataclass(frozen=True, slots=True)
class CycleOrientation:
    """An orientation of the n-cycle, one letter per edge (i, i+1 mod n)."""

    n: int
    dirs: tuple[int, ...]

    def __post_init__(self):
        if self.n < 3:
            raise OutOfRange(f"cycles need at least 3 vertices, got {self.n}")
        if len(self.dirs) != self.n:
            raise HypothesisUnmet(f"{len(self.dirs)} letters for a {self.n}-cycle")
        if not all(d in (FORWARD, BACKWARD, DIGON) for d in self.dirs):
            raise HypothesisUnmet(f"letters must be {FORWARD}, {BACKWARD} or {DIGON}")

    @property
    def has_digons(self) -> bool:
        return DIGON in self.dirs

    def letters(self) -> str:
        return "".join("FBD"[d] for d in self.dirs)

    @classmethod
    def from_letters(cls, text: str) -> "CycleOrientation":
        bad = [c for c in text.upper() if c not in "FBD"]
        if bad:
            raise HypothesisUnmet(f"cycle letter {bad[0]!r} is not one of F, B, D")
        return cls(len(text), tuple("FBD".index(c) for c in text.upper()))

    def to_digraph(self) -> Digraph:
        space = spaces.CycleSpace(self.n, digons=True)
        return space.digraph(space.from_letters(self.dirs))


@dataclass(frozen=True, slots=True)
class Rotation:
    """The cycle rotation v -> v + r (mod n)."""

    n: int
    r: int

    def __post_init__(self):
        if self.n < 1:
            raise OutOfRange(f"rotations need at least 1 vertex, got {self.n}")
        object.__setattr__(self, "r", self.r % self.n)

    def as_permutation(self) -> Permutation:
        return Permutation(tuple((v + self.r) % self.n for v in range(self.n)))

    @property
    def order(self) -> int:
        return self.n // gcd(self.n, self.r) if self.r else 1

    def is_trivial(self) -> bool:
        return self.r == 0


def _small_w(g: Digraph, gamma: Permutation) -> VertexSet | None:
    # a second small solution already rules out uniqueness, so stop there
    small = list(islice((w for w in switch_solutions(g, gamma) if 2 * len(w) < g.n), 2))
    return small[0] if len(small) == 1 else None


def find_W(co: CycleOrientation, rot: Rotation) -> VertexSet | None:
    """The unique W with co_W = co^rot and |W| < n/2, or None.

    None covers both failure modes: no solution at all, or no unique
    small-side solution (every solution has size exactly n/2, or several
    digon-freed solutions tie below n/2).  Raises HypothesisUnmet when the
    rotation acts on a different number of vertices than co has.
    """
    return _small_w(co.to_digraph(), rot.as_permutation())


def w_set(co: CycleOrientation, rot: Rotation) -> VertexSet:
    w = find_W(co, rot)
    if w is None:
        raise HypothesisUnmet(f"no unique small switching set for rotation by {rot.r}")
    return w


def dist_set(co: CycleOrientation, rot: Rotation) -> frozenset[int]:
    """Pairwise cyclic distances between members of the w_set."""
    w = w_set(co, rot)
    members = list(w.members())
    n = co.n
    out = set()
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            d = abs(members[i] - members[j])
            out.add(min(d, n - d))
    return frozenset(out)


def verify_w_size_reconstruction(co: CycleOrientation, rot: Rotation) -> dict:
    """Check that |W| is visible in the deck: max over cards of |W(card)| - 2.

    Requires an oriented cycle, a nontrivial rotation with a small solution
    W, and n > 2|W| + 8 so every card keeps a well-defined small solution.
    """
    if co.has_digons:
        raise HypothesisUnmet("requires an oriented cycle")
    if rot.is_trivial():
        raise HypothesisUnmet("requires a nontrivial rotation")
    w = w_set(co, rot)
    n = co.n
    if n <= 2 * len(w) + 8:
        raise HypothesisUnmet(f"need n > 2|W| + 8, got n={n}, |W|={len(w)}")
    g = co.to_digraph()
    gamma = rot.as_permutation()
    card_sizes = []
    for v in range(n):
        wv = _small_w(switch_vertex(g, v), gamma)
        if wv is None:
            raise HypothesisUnmet(f"card {v} has no unique small switching set")
        card_sizes.append(len(wv))
    recon = max(card_sizes) - 2
    return {
        "n": n,
        "w_size": len(w),
        "card_w_sizes": card_sizes,
        "reconstructed": recon,
        "holds": recon == len(w),
    }
