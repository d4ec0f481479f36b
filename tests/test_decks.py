"""Decks, t-decks, and the uniqueness of a matching t."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from switchdeck import catalog
from switchdeck.canon import canonical_code, is_isomorphic
from switchdeck.decks import Deck, deck, format_deck, matching_t, t_deck
from switchdeck.digraph import Digraph, from_arcs, parse_digraph6
from switchdeck.errors import CardAbsent, HypothesisUnmet
from switchdeck.switching import switch_vertex

from .conftest import digraph_pairs, digraphs

K1 = Digraph(1, (0,))
TRIANGLE = from_arcs(3, [(0, 1), (1, 2), (2, 0)])


@given(digraphs(oriented=False))
def test_deck_has_one_card_per_vertex(g):
    d = deck(g)
    assert d.size == g.n
    for v in range(g.n):
        assert d.multiplicity(canonical_code(switch_vertex(g, v))) >= 1


@given(digraphs(oriented=False), st.integers(0, 3))
def test_t_deck_adds_own_copies(g, t):
    base, ext = deck(g), t_deck(g, t)
    own = canonical_code(g)
    assert ext.size == g.n + t
    assert ext.multiplicity(own) == base.multiplicity(own) + t


def test_directed_triangle_deck_is_three_transitive_triangles():
    d = deck(TRIANGLE)
    cards = {code: mult for code, mult in d.cards}
    assert len(cards) == 1
    card = next(iter(cards))
    assert cards[card] == 3
    assert card != canonical_code(TRIANGLE)


def test_t_deck_minus_one_requires_own_card():
    # every switching of the directed triangle is the transitive triangle
    with pytest.raises(CardAbsent):
        t_deck(TRIANGLE, -1)
    # cards of the single arc are all single arcs, so removal works
    arc = from_arcs(2, [(0, 1)])
    assert t_deck(arc, -1).size == 1


@given(digraphs(oriented=False))
def test_deck_is_isomorphism_invariant(g):
    from switchdeck.digraph import Permutation, apply_perm

    p = Permutation(tuple(reversed(range(g.n))))
    assert deck(apply_perm(g, p)) == deck(g)


@given(digraph_pairs(max_n=5))
def test_matching_t_agrees_with_direct_comparison(pair):
    g, h = pair
    if g.n != h.n or is_isomorphic(g, h):
        return
    t = matching_t(g, h)
    hits = [s for s in range(-1, g.n + 1)
            if _t_deck_or_none(g, s) is not None
            and _t_deck_or_none(g, s) == _t_deck_or_none(h, s)]
    assert hits == ([t] if t is not None else [])


def _t_deck_or_none(g, s):
    try:
        return t_deck(g, s).cards
    except CardAbsent:
        return None


def test_matching_t_on_corpus_families():
    for key, expected in [("paths-4a", 0), ("cycles-3", 1), ("cycles-5", -1),
                          ("cycles-6a", 2), ("paths-3", 1)]:
        fam = catalog.family(key)
        a, b = fam.as_family().digraphs()[:2]
        assert matching_t(a, b) == expected == fam.t


def test_matching_t_rejects_mismatched_orders():
    with pytest.raises(HypothesisUnmet, match="orders differ: 1 vs 3"):
        matching_t(K1, TRIANGLE)


def test_format_deck_lists_digraph6_with_multiplicity():
    text = format_deck(deck(TRIANGLE))
    assert text.splitlines() == ["&BCo x3"]
    assert parse_digraph6("&BCo").n == 3


def test_deck_equality_is_multiset_equality():
    a = deck(from_arcs(2, [(0, 1)]))
    b = deck(from_arcs(2, [(1, 0)]))
    assert a == b
    assert isinstance(a, Deck)
