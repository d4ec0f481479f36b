"""Algebraic identities of the switching operation."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from switchdeck.canon import is_isomorphic
from switchdeck.digraph import (
    Permutation,
    VertexSet,
    apply_perm,
    from_arcs,
    underlying,
)
from switchdeck.errors import OutOfRange
from switchdeck.switching import switch_set, switch_vertex

from .conftest import digraphs, graph_and_perm, graph_and_set


@given(digraphs(oriented=False), st.integers(0, 5))
def test_vertex_switch_is_involution(g, v):
    v %= g.n
    assert switch_vertex(switch_vertex(g, v), v) == g


@given(digraphs(oriented=False), st.integers(0, 5), st.integers(0, 5))
def test_vertex_switches_commute(g, v, w):
    v, w = v % g.n, w % g.n
    assert switch_vertex(switch_vertex(g, v), w) == \
        switch_vertex(switch_vertex(g, w), v)


@given(graph_and_set(oriented=False))
def test_set_switch_matches_iterated_vertex_switches(gw):
    g, w = gw
    h = g
    for v in w.members():
        h = switch_vertex(h, v)
    assert switch_set(g, w) == h


@given(graph_and_set(oriented=False))
def test_switch_by_complement_is_identity_operation(gw):
    g, w = gw
    assert switch_set(g, w) == switch_set(g, w.complement())


@given(graph_and_set(oriented=False))
def test_arc_flips_exactly_on_the_cut(gw):
    g, w = gw
    h = switch_set(g, w)
    for v in range(g.n):
        for u in range(g.n):
            if v == u:
                continue
            crossing = ((w.bits >> v) & 1) != ((w.bits >> u) & 1)
            was = (g.out[u if crossing else v] >> (v if crossing else u)) & 1
            assert (h.out[v] >> u) & 1 == was


@given(graph_and_set(oriented=False))
def test_switching_preserves_underlying_graph(gw):
    g, w = gw
    assert underlying(switch_set(g, w)) == underlying(g)


@given(graph_and_set(oriented=False))
def test_switching_preserves_digons(gw):
    g, w = gw
    assert switch_set(g, w).digon_mask() == g.digon_mask()


@given(graph_and_perm(oriented=False), st.integers(0, (1 << 6) - 1))
def test_switching_is_relabelling_equivariant(gp, bits):
    g, p = gp
    w = VertexSet(g.n, bits & ((1 << g.n) - 1))
    image_w = VertexSet.from_members(g.n, [p.image[v] for v in w.members()])
    assert apply_perm(switch_set(g, w), p) == switch_set(apply_perm(g, p), image_w)


@given(graph_and_set(oriented=False), st.integers(0, 5), st.integers(0, 5))
def test_switch_parity_composition(gw, v, v_img):
    """Switching G_v by W + v + v' equals switching G_W at v'.

    This is the unconditional parity step behind the one-vertex switching
    observation: multiset switching collapses to symmetric difference.
    """
    g, w = gw
    v, v_img = v % g.n, v_img % g.n
    wvv = w.sym_diff(VertexSet.from_members(g.n, [v]))
    wvv = wvv.sym_diff(VertexSet.from_members(g.n, [v_img]))
    lhs = switch_set(switch_vertex(g, v), wvv)
    rhs = switch_vertex(switch_set(g, w), v_img)
    assert lhs == rhs


@given(digraphs(max_n=10, oriented=False), st.integers(0, 9))
def test_vertex_switch_matches_the_one_vertex_set_switch(g, v):
    v %= g.n
    assert switch_vertex(g, v) == switch_set(g, VertexSet(g.n, 1 << v))


def test_switch_vertex_bounds():
    g = from_arcs(2, [(0, 1)])
    with pytest.raises(OutOfRange, match="vertex 2 not in 0..1"):
        switch_vertex(g, 2)
    with pytest.raises(OutOfRange, match="set on 3 vertices applied to order 2"):
        switch_set(g, VertexSet(3, 1))


@given(graph_and_set(oriented=True))
def test_switched_graph_same_order_and_isomorphism_invariant_size(gw):
    g, w = gw
    h = switch_set(g, w)
    assert h.n == g.n
    assert is_isomorphic(g, g)
    assert sum(bin(m).count("1") for m in h.out) == \
        sum(bin(m).count("1") for m in g.out)
