"""Switching-stability, the switching-isomorphism group, and its index law."""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from switchdeck import catalog, generate, stability
from switchdeck.canon import OrientationSpace, aut_group_undirected, canonical_code, is_isomorphic
from switchdeck.digraph import (
    Digraph,
    Permutation,
    UnderlyingGraph,
    VertexSet,
    apply_perm,
    disjoint_union,
    format_digraph6,
    from_arcs,
    is_connected,
    is_weakly_connected,
    underlying,
)
from switchdeck.errors import HypothesisUnmet, OutOfRange
from switchdeck.spaces import card_table
from switchdeck.generate import TournamentSpace
from switchdeck.stability import (
    _stable_minima,
    _switch_span_basis,
    check_stable_set_bound,
    classify_stable_connected,
    gamma_group,
    is_switching_stable,
    is_switching_stable_set,
    solve_switch_iso,
    switch_solutions,
    verify_index_identity,
)
from switchdeck.switching import switch_set, switch_vertex

from ._oracles import stable_by_scan
from .conftest import digraphs

K1 = Digraph(1, (0,))
ARC = from_arcs(2, [(0, 1)])
TRIANGLE = from_arcs(3, [(0, 1), (1, 2), (2, 0)])
STABLE_C4 = catalog.STABLE_4_CYCLE
DIRECTED_C4 = from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_stability_of_reference_graphs():
    assert is_switching_stable(K1)
    assert is_switching_stable(ARC)
    assert is_switching_stable(STABLE_C4)
    assert not is_switching_stable(DIRECTED_C4)
    assert not is_switching_stable(TRIANGLE)


def test_classification_finds_exactly_three_small_graphs():
    found = []
    for n in range(1, 5):
        found.extend(classify_stable_connected(n))
    assert [format_digraph6(g) for g in found] == ["&@?", "&AO", "&CWOG"]
    with pytest.raises(OutOfRange):
        classify_stable_connected(9)


@given(st.lists(st.sampled_from([K1, ARC, STABLE_C4, TRIANGLE, DIRECTED_C4]),
                min_size=1, max_size=4))
def test_union_stable_iff_all_components_stable(parts):
    assume(sum(p.n for p in parts) <= 12)
    g = disjoint_union(*parts)
    assert is_switching_stable(g) == all(is_switching_stable(p) for p in parts)


def all_c4_orientation_classes() -> list[Digraph]:
    seen: dict[bytes, Digraph] = {}
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    for pick in range(16):
        arcs = [(v, u) if pick >> i & 1 else (u, v)
                for i, (u, v) in enumerate(edges)]
        g = from_arcs(4, arcs)
        seen.setdefault(canonical_code(g), g)
    return list(seen.values())


def test_stable_sets():
    c4_orientations = all_c4_orientation_classes()
    assert len(c4_orientations) == 4
    assert is_switching_stable_set(c4_orientations)
    assert is_switching_stable_set([STABLE_C4])
    assert not is_switching_stable_set([DIRECTED_C4])
    with pytest.raises(HypothesisUnmet, match="at least one member"):
        is_switching_stable_set([])
    with pytest.raises(HypothesisUnmet, match="must share an order"):
        is_switching_stable_set([K1, ARC])


def test_stable_set_bound_reports():
    rep = check_stable_set_bound(all_c4_orientation_classes())
    assert rep["bound"] == 8 and rep["product"] == 32 and rep["holds"]
    rep = check_stable_set_bound([STABLE_C4])
    assert rep["bound"] == 8 and rep["product"] == 8 and rep["holds"]
    rep = check_stable_set_bound([ARC])
    assert rep["bound"] == 2 and rep["product"] == 2 and rep["holds"]
    with pytest.raises(HypothesisUnmet, match="orient one underlying graph"):
        check_stable_set_bound([from_arcs(4, [(0, 1), (1, 2), (2, 3)]),
                                STABLE_C4])
    with pytest.raises(HypothesisUnmet, match="underlying graph must be connected"):
        check_stable_set_bound([disjoint_union(K1, K1)])
    with pytest.raises(HypothesisUnmet, match="at least one member"):
        check_stable_set_bound([])
    with pytest.raises(HypothesisUnmet, match="must share an order"):
        check_stable_set_bound([K1, ARC])
    with pytest.raises(HypothesisUnmet, match="members must be oriented"):
        check_stable_set_bound([from_arcs(2, [(0, 1), (1, 0)], oriented=False)])
    with pytest.raises(HypothesisUnmet, match="the set is not switching-stable"):
        check_stable_set_bound([DIRECTED_C4])


def brute_aut_order(g: Digraph) -> int:
    return sum(apply_perm(g, Permutation(p)) == g
               for p in permutations(range(g.n)))


def brute_gamma_order(g: Digraph) -> int:
    total = 0
    for p in permutations(range(g.n)):
        img = apply_perm(g, Permutation(p))
        if any(switch_set(g, VertexSet(g.n, w)) == img
               for w in range(1 << g.n)):
            total += 1
    return total


@pytest.mark.parametrize("g,order", [(ARC, 2), (TRIANGLE, 3), (STABLE_C4, 8)])
def test_gamma_group_orders(g, order):
    grp = gamma_group(g)
    assert grp.order == order == brute_gamma_order(g)


def test_stable_c4_realizes_full_index():
    # trivial automorphism group, so the index 2^(n-1) = 8 is all of gamma
    assert brute_aut_order(STABLE_C4) == 1
    assert gamma_group(STABLE_C4).order == 8
    with pytest.raises(OutOfRange, match="order 17 exceeds automorphism cap 16"):
        gamma_group(disjoint_union(*[K1] * 17))
    with pytest.raises(HypothesisUnmet, match="need a connected digraph"):
        gamma_group(disjoint_union(STABLE_C4, K1))


def test_gamma_group_above_512_elements_checks_closure_on_a_probe():
    """The out-star's leaves permute freely and every relabelling of them
    is an automorphism, so gamma is the whole 720-element group, past the
    size where closure is checked on a probe instead of every pair."""
    star = from_arcs(7, [(0, i) for i in range(1, 7)])
    grp = gamma_group(star)
    assert grp.order == 720
    assert grp.elements == aut_group_undirected(underlying(star)).elements


@given(digraphs(min_n=2, max_n=5, oriented=True))
def test_gamma_satisfies_index_identity_by_brute_force(g):
    assume(is_weakly_connected(g))
    wpairs = sum(
        is_isomorphic(switch_set(g, VertexSet(g.n, w)), g)
        for w in range(1 << (g.n - 1))
    )
    assert gamma_group(g).order == brute_aut_order(g) * wpairs


def test_solve_switch_iso_examples():
    ident = Permutation(tuple(range(2)))
    assert solve_switch_iso(ARC, ident).bits == 0
    swap = Permutation((1, 0))
    assert solve_switch_iso(ARC, swap).members() == (1,)
    rot = Permutation((1, 2, 0))
    w = solve_switch_iso(TRIANGLE, rot)
    assert w is not None and 0 not in w.members()
    flip = Permutation((0, 2, 1))
    assert solve_switch_iso(TRIANGLE, flip) is None
    with pytest.raises(HypothesisUnmet, match="preserve the underlying graph"):
        solve_switch_iso(from_arcs(3, [(0, 1), (1, 2)]), rot)
    with pytest.raises(HypothesisUnmet, match="need a connected digraph"):
        solve_switch_iso(disjoint_union(ARC, K1), Permutation(tuple(range(3))))


@given(digraphs(min_n=2, max_n=5, oriented=False))
def test_solve_switch_iso_against_subset_scan(g):
    assume(is_weakly_connected(g))
    for p in aut_group_undirected(underlying(g)).elements:
        img = apply_perm(g, p)
        brute = [w for w in range(1 << g.n)
                 if switch_set(g, VertexSet(g.n, w)) == img]
        got = solve_switch_iso(g, p)
        if got is None:
            assert brute == []
        else:
            assert got.bits in brute
            assert not got.bits & 1  # vertex 0 kept outside W
        every = [w.bits for w in switch_solutions(g, p)]
        assert len(every) == len(set(every))
        assert set(every) == set(brute)


@given(digraphs(min_n=2, max_n=6, oriented=True))
def test_switch_conjugation_on_true_premises(g):
    """If G_W = G^gamma then (G_v) switched by W+v+v^gamma is (G_v)^gamma."""
    assume(is_weakly_connected(g))
    for p in gamma_group(g).elements:
        w = solve_switch_iso(g, p)
        assert w is not None
        assert switch_set(g, w) == apply_perm(g, p)
        for v in range(g.n):
            shifted = w.sym_diff(VertexSet.from_members(g.n, [v]))
            shifted = shifted.sym_diff(VertexSet.from_members(g.n, [p.image[v]]))
            assert switch_set(switch_vertex(g, v), shifted) == \
                apply_perm(switch_vertex(g, v), p)


@given(digraphs(min_n=2, max_n=5, oriented=True))
def test_switch_iso_composition(g):
    """G_X = G^a and G_Y = G^b chain to G over X^b + Y and a then b."""
    assume(is_weakly_connected(g))
    elems = gamma_group(g).elements
    for a in elems[:4]:
        for b in elems[:4]:
            x, y = solve_switch_iso(g, a), solve_switch_iso(g, b)
            x_img = VertexSet.from_members(g.n, [b.image[v] for v in x.members()])
            assert switch_set(g, x_img.sym_diff(y)) == apply_perm(g, a.compose(b))


def test_switch_span_membership_reduces_all_cuts():
    """Every cut vector must reduce to zero by the stored basis."""
    from switchdeck.canon import OrientationSpace

    for arcs, n in [([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4),
                    ([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)], 5),
                    ([(i, i + 1) for i in range(6)], 7)]:
        space = OrientationSpace(underlying(from_arcs(n, arcs)))
        masks = space.flips.tolist()
        basis = _switch_span_basis(masks)
        assert len(basis) == n - 1
        rows = sorted(basis.items(), reverse=True)
        for wmask in range(1 << n):
            vec = 0
            for v in range(n):
                if wmask >> v & 1:
                    vec ^= masks[v]
            for pivot, row in rows:
                if vec >> pivot & 1:
                    vec ^= row
            assert vec == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_index_identity_small_orders(n):
    out = verify_index_identity(n)
    assert out["holds"]
    assert out["underlying_checked"] == [1, 1, 2, 6, 21, 112][n - 1]


def test_divisibility_prune_keeps_the_three_small_stable_graphs(monkeypatch):
    """The divisibility prune on the underlying graph's automorphism group
    runs only from order 8 on; run from order 2, it must keep the scan's
    answer through order 7."""
    monkeypatch.setattr(stability, "_STABLE_PRUNE_MIN_N", 2)
    found = [g for n in range(1, 8) for g in classify_stable_connected(n)]
    assert [format_digraph6(g) for g in found] == ["&@?", "&AO", "&CWOG"]


def graph(n: int, edges) -> UnderlyingGraph:
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return UnderlyingGraph(n, tuple(adj))


# order-8 graphs with large automorphism groups; of these the stable
# classification's divisibility prune lets only K4,4 through
ORDER_8_GRAPHS = {
    "C8": graph(8, [(i, (i + 1) % 8) for i in range(8)]),
    "Q3": graph(8, [(a, a | 1 << k) for a in range(8) for k in range(3) if not a >> k & 1]),
    "K4,4": graph(8, [(a, b) for a in range(4) for b in range(4, 8)]),
    "K1,7": graph(8, [(0, b) for b in range(1, 8)]),
}


def test_stable_minima_match_the_scan_of_every_orbit_minimum():
    """On every connected underlying graph of order 3..7 with a nontrivial
    automorphism group, and on the order-8 graphs above, the stable minima
    solved from self_card_strings(0) are the scan's; and up to order 6, at
    every vertex v, the orbit minima of self_card_strings(v) hold every
    orbit minimum whose card at v is its own class."""
    cases = [generate.orientation_space(u) for n in range(3, 8)
             for u in generate.gen_underlying_graphs(n)
             if is_connected(u) and aut_group_undirected(u).order > 1]
    assert sum(isinstance(space, OrientationSpace) for space in cases) == 837
    assert sum(isinstance(space, TournamentSpace) for space in cases) == 5
    cases += [OrientationSpace(u) for u in ORDER_8_GRAPHS.values()]
    assert [s.aut.order for s in cases[-4:]] == [16, 48, 1152, 5040]
    found = []
    for space in cases:
        stable = _stable_minima(space)
        assert np.array_equal(stable, stable_by_scan(space))
        found.extend(space.digraph(int(x)) for x in stable)
        if space.n > 6:
            continue
        reps = space.reps_array()
        for v, cards in enumerate(card_table(space, reps)):
            minima = np.unique(space.orbit_min_array(space.self_card_strings(v)))
            own = minima[space.orbit_min_array(minima, v) == minima]
            assert np.array_equal(own, reps[cards == reps])
    assert [format_digraph6(g) for g in found] == ["&CWOG"]


def test_self_card_strings_are_the_strings_whose_switch_keeps_their_class():
    """Against canonical codes of every string and its switch at every
    vertex: every OrientationSpace of order 1..5, where an isolated vertex
    flips no edge and so every string qualifies through the identity, and
    every TournamentSpace of order 1..6."""
    isolated = 0
    for n in range(1, 6):
        for u in generate.gen_underlying_graphs(n):
            space = OrientationSpace(u)
            graphs = [space.digraph(x) for x in range(1 << space.m)]
            for v in range(n):
                want = [x for x, g in enumerate(graphs)
                        if canonical_code(switch_vertex(g, v)) == canonical_code(g)]
                assert space.self_card_strings(v).tolist() == want
                isolated += space.m > 0 and u.degree(v) == 0
    assert isolated
    for n in range(1, 7):
        space = TournamentSpace(n)
        graphs = [space.digraph(x) for x in range(space.count())]
        for v in range(n):
            want = [x for x, g in enumerate(graphs)
                    if canonical_code(switch_vertex(g, v)) == canonical_code(g)]
            assert space.self_card_strings(v).tolist() == want
