"""Core digraph structure, digraph6 codec, and component arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from switchdeck.digraph import (
    MAX_N,
    Digraph,
    Permutation,
    VertexSet,
    apply_perm,
    components,
    disjoint_union,
    format_digraph6,
    from_arcs,
    induced,
    is_connected,
    is_weakly_connected,
    parse_digraph6,
    underlying,
)
from switchdeck.errors import HypothesisUnmet, OutOfRange

from .conftest import digraphs, graph_and_perm

K1 = Digraph(1, (0,))
ARC = from_arcs(2, [(0, 1)])
TRIANGLE = from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def test_known_digraph6_strings():
    assert format_digraph6(K1) == "&@?"
    assert format_digraph6(ARC) == "&AO"
    assert format_digraph6(TRIANGLE) == "&BP_"


def test_parse_rejects_garbage():
    with pytest.raises(HypothesisUnmet, match="not a digraph6 string"):
        parse_digraph6("@?")
    with pytest.raises(HypothesisUnmet, match="not a digraph6 string"):
        parse_digraph6("")
    # a 3-vertex matrix needs two payload characters ("&BP_" is the triangle)
    with pytest.raises(HypothesisUnmet, match="expected 2 payload chars, got 0"):
        parse_digraph6("&B")
    with pytest.raises(HypothesisUnmet, match="expected 2 payload chars, got 1"):
        parse_digraph6("&BP")
    # K1's one bit is followed by five padding bits, which must be zero
    with pytest.raises(HypothesisUnmet, match="nonzero padding"):
        parse_digraph6("&@@")
    with pytest.raises(OutOfRange):
        parse_digraph6("&?")
    with pytest.raises(OutOfRange):
        parse_digraph6("&" + chr(MAX_N + 1 + 63))
    with pytest.raises(HypothesisUnmet, match="bad order byte"):
        parse_digraph6("&>")
    with pytest.raises(HypothesisUnmet, match="bad payload byte '!'"):
        parse_digraph6("&BP!")
    # K1's one bit set is the arc 0 -> 0
    with pytest.raises(HypothesisUnmet, match="loop bit at 0"):
        parse_digraph6("&@_")
    assert parse_digraph6(">>digraph6<<&BP_") == TRIANGLE


@given(digraphs(max_n=7, oriented=False))
def test_digraph6_round_trip(g):
    assert parse_digraph6(format_digraph6(g)) == g


def test_from_arcs_validation():
    with pytest.raises(HypothesisUnmet, match="loop at 1"):
        from_arcs(2, [(1, 1)])
    with pytest.raises(OutOfRange, match=r"arc \(0,2\) outside 0\.\.1"):
        from_arcs(2, [(0, 2)])
    with pytest.raises(HypothesisUnmet, match="digon present"):
        from_arcs(2, [(0, 1), (1, 0)], oriented=True)
    g = from_arcs(2, [(0, 1), (1, 0)], oriented=False)
    assert underlying(g).adj == (2, 1)
    for n in (0, MAX_N + 1):
        with pytest.raises(OutOfRange, match=f"order {n} outside 1..{MAX_N}"):
            from_arcs(n, [])


@given(graph_and_perm(max_n=6))
def test_apply_perm_preserves_structure(gp):
    g, p = gp
    h = apply_perm(g, p)
    img = p.image
    for v in range(g.n):
        for w in range(g.n):
            assert (g.out[v] >> w) & 1 == (h.out[img[v]] >> img[w]) & 1


@given(graph_and_perm(max_n=6))
def test_apply_perm_compose(gp):
    g, p = gp
    q = Permutation(tuple((i + 1) % g.n for i in range(g.n)))
    assert apply_perm(apply_perm(g, p), q) == apply_perm(g, p.compose(q))


def test_components_order_and_relabel():
    g = disjoint_union(TRIANGLE, ARC, K1)
    decomp = components(g)
    assert [b.members() for b in decomp.blocks] == [(0, 1, 2), (3, 4), (5,)]
    assert decomp.parts == (TRIANGLE, ARC, K1)
    with pytest.raises(OutOfRange, match=f"union order {MAX_N + 1} exceeds {MAX_N}"):
        disjoint_union(*[K1] * (MAX_N + 1))
    with pytest.raises(HypothesisUnmet, match="permutation length 2 != order 3"):
        apply_perm(TRIANGLE, Permutation((1, 0)))


@given(digraphs(max_n=6, oriented=False))
def test_union_of_components_restores_graph_up_to_block_order(g):
    parts = components(g).parts
    assert sum(p.n for p in parts) == g.n
    assert all(is_weakly_connected(p) for p in parts)


def test_induced_subgraph():
    sub = induced(TRIANGLE, VertexSet.from_members(3, [0, 2]))
    assert sub == from_arcs(2, [(1, 0)])


def test_connectivity_of_underlying():
    assert is_connected(underlying(TRIANGLE))
    assert not is_connected(underlying(disjoint_union(K1, K1)))
    assert not is_weakly_connected(disjoint_union(ARC, K1))
    assert is_weakly_connected(ARC)


def test_vertex_set_algebra():
    w = VertexSet.from_members(4, [0, 2])
    assert w.members() == (0, 2)
    with pytest.raises(OutOfRange, match=r"vertex 4 not in 0\.\.3"):
        VertexSet.from_members(4, [0, 4])
    assert w.complement().members() == (1, 3)
    assert w.sym_diff(VertexSet.from_members(4, [2, 3])).members() == (0, 3)
