"""Switching decks and t-decks.

The deck of G is the multiset of isomorphism classes of its n vertex
switchings; the t-deck adds t extra copies of the class of G itself
(t = -1 removes one copy and is defined only when that copy is present).
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import CanonicalCode, canonical_code, code_to_digraph
from .digraph import Digraph, format_digraph6
from .errors import CardAbsent, HypothesisUnmet, OutOfRange
from .switching import switch_vertex


@dataclass(frozen=True)
class Deck:
    """Run-length encoded multiset of canonical codes, sorted by code."""

    cards: tuple[tuple[CanonicalCode, int], ...]

    @property
    def size(self) -> int:
        return sum(mult for _, mult in self.cards)

    def multiplicity(self, code: CanonicalCode) -> int:
        for c, mult in self.cards:
            if c == code:
                return mult
        return 0


def _from_counts(counts: dict[CanonicalCode, int]) -> Deck:
    return Deck(tuple(sorted((c, m) for c, m in counts.items() if m)))


def _card_counts(g: Digraph) -> dict[CanonicalCode, int]:
    counts: dict[CanonicalCode, int] = {}
    for v in range(g.n):
        c = canonical_code(switch_vertex(g, v))
        counts[c] = counts.get(c, 0) + 1
    return counts


def deck(g: Digraph) -> Deck:
    return _from_counts(_card_counts(g))


def t_deck(g: Digraph, t: int) -> Deck:
    """Deck plus t copies of the class of g; t >= -1."""
    if t < -1:
        raise OutOfRange(f"t must be at least -1, got {t}")
    counts = _card_counts(g)
    own = canonical_code(g)
    have = counts.get(own, 0) + t
    if have < 0:
        raise CardAbsent("t = -1 but the deck holds no copy of the graph itself")
    counts[own] = have
    return _from_counts(counts)


def matching_t(g: Digraph, h: Digraph) -> int | None:
    """The unique t in [-1, n] with equal t-decks, if any.

    At most one t can match two non-isomorphic digraphs; the full range is
    scanned and a second match would be an internal contradiction.
    """
    if g.n != h.n:
        raise HypothesisUnmet(f"orders differ: {g.n} vs {h.n}")
    if canonical_code(g) == canonical_code(h):
        raise HypothesisUnmet("matching t is only defined for non-isomorphic inputs")
    matches = []
    for t in range(-1, g.n + 1):
        try:
            if t_deck(g, t) == t_deck(h, t):
                matches.append(t)
        except CardAbsent:
            continue
    if len(matches) > 1:
        raise HypothesisUnmet(f"multiple matching t values {matches}")
    return matches[0] if matches else None


def format_deck(d: Deck) -> str:
    """One line per class: digraph6 of the canonical representative, 'xK' multiplicity."""
    return "\n".join(
        f"{format_digraph6(code_to_digraph(code))} x{mult}" for code, mult in d.cards
    )
