"""Canonical codes against a brute-force relabelling oracle."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from switchdeck import canon
from switchdeck.canon import (
    AutGroup,
    OrientationSpace,
    _search,
    _stable_partition,
    aut_group_undirected,
    aut_groups,
    batch_codes,
    canonical_code,
    canonical_form,
    canonical_perm,
    code_to_digraph,
    is_isomorphic,
)
from switchdeck.digraph import (
    Digraph,
    Permutation,
    UnderlyingGraph,
    apply_perm,
    disjoint_union,
    from_arcs,
    in_masks,
    is_weakly_connected,
    underlying,
)
from switchdeck.errors import OutOfRange
from switchdeck.generate import gen_all_oriented, gen_tournaments, gen_underlying_graphs
from switchdeck.switching import switch_vertex

from ._oracles import brute_automorphisms, brute_code, full_refine
from .conftest import arcs_for, digraph_pairs, digraphs, graph_and_perm

# SHA-256 over the canonical codes of golden_corpus(), pinned with the
# full-recount refinement (_oracles.full_refine): a faster search must leave
# every code, and so this digest, as it is
GOLDEN_CODES_SHA256 = "75af084840356c2e671cc235c21532e62706fc306a0007c1826f0b7cf6116cc3"
# SHA-256 over canonical_perm(g).image of golden_corpus(), and over the
# element lists of aut_group_undirected (images, in order) for every graph of
# order <= 7, both pinned before the search pruned by automorphisms
GOLDEN_PERMS_SHA256 = "02af6ec7dba0b44420ff87882270a223d67fa8d76ed0e525c65ed2bf2f0ec766"
AUT_GROUPS_SHA256 = "4d1757f44f5329c5d4cd4c1c4b709bbf6b74f1358c633508d873f15eec2a997f"


def as_arcs(g: Digraph) -> frozenset[tuple[int, int]]:
    return frozenset(
        (v, w) for v in range(g.n) for w in range(g.n) if (g.out[v] >> w) & 1
    )


@given(digraph_pairs(max_n=5, oriented=False))
def test_code_equality_matches_brute_force_isomorphism(pair):
    a, b = pair
    brute = brute_code(a.n, as_arcs(a)) == brute_code(b.n, as_arcs(b))
    assert (canonical_code(a) == canonical_code(b)) == brute
    assert is_isomorphic(a, b) == brute


def test_code_separates_all_three_vertex_digraphs():
    """Exhaustive n=3: codes realize exactly the brute isomorphism classes."""
    seen: dict[tuple, bytes] = {}
    for bits in product([0, 1], repeat=6):
        arcs = []
        k = 0
        for v in range(3):
            for w in range(3):
                if v != w:
                    if bits[k]:
                        arcs.append((v, w))
                    k += 1
        g = from_arcs(3, arcs, oriented=False)
        bc = brute_code(3, frozenset(arcs))
        code = canonical_code(g)
        assert seen.setdefault(bc, code) == code
    assert len(seen) == 16


@given(graph_and_perm(max_n=6, oriented=False))
def test_code_is_relabelling_invariant(gp):
    g, p = gp
    assert canonical_code(apply_perm(g, p)) == canonical_code(g)


@given(digraphs(max_n=6, oriented=False))
def test_canonical_form_round_trip(g):
    form = canonical_form(g)
    assert canonical_code(form) == canonical_code(g)
    assert apply_perm(g, canonical_perm(g)) == form
    assert code_to_digraph(canonical_code(g)) == form


@given(digraphs(max_n=4, oriented=False), digraphs(max_n=4, oriented=False))
def test_disjoint_union_code_is_order_independent(a, b):
    assert canonical_code(disjoint_union(a, b)) == \
        canonical_code(disjoint_union(b, a))


def test_identical_components_do_not_blow_up():
    g = disjoint_union(*[Digraph(1, (0,))] * 12)
    assert canonical_code(g) == canonical_code(g)
    arc = from_arcs(2, [(0, 1)])
    u = disjoint_union(*[arc] * 8)
    assert code_to_digraph(canonical_code(u)).n == 16


@given(digraphs(max_n=6, oriented=False))
def test_aut_group_fixes_underlying(g):
    u = underlying(g)
    symmetric = Digraph(u.n, u.adj)
    aut = aut_group_undirected(u)
    assert aut.order >= 1
    for p in aut.elements:
        assert apply_perm(symmetric, p) == symmetric


def test_aut_group_orders_on_known_graphs():
    path4 = underlying(from_arcs(4, [(0, 1), (1, 2), (2, 3)]))
    cycle4 = underlying(from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    complete4 = underlying(from_arcs(4, list(combinations(range(4), 2))))
    assert aut_group_undirected(path4).order == 2
    assert aut_group_undirected(cycle4).order == 8
    assert aut_group_undirected(complete4).order == 24
    with pytest.raises(OutOfRange, match="order 17 exceeds automorphism cap 16"):
        aut_group_undirected(UnderlyingGraph(17, (0,) * 17))


def _adj(n, edges):
    return underlying(from_arcs(n, edges)).adj


C8_EDGES = [(i, (i + 1) % 8) for i in range(8)]
ORDER8_GRAPHS = {
    "K8": tuple(0xFF ^ 1 << v for v in range(8)),
    "empty": (0,) * 8,
    "K4,4": tuple(0xF0 if v < 4 else 0x0F for v in range(8)),
    "cube": _adj(8, [(a, a ^ 1 << k) for a in range(8) for k in range(3) if a < a ^ 1 << k]),
    "C8": _adj(8, C8_EDGES),
    "Wagner": _adj(8, C8_EDGES + [(i, i + 4) for i in range(4)]),
}


def test_aut_group_lists_every_automorphism_in_image_order():
    """The group, element order included, against a brute-force scan of
    all relabellings: every graph of order <= 6 and six order-8 graphs."""
    graphs = [u for n in range(1, 7) for u in gen_underlying_graphs(n)]
    graphs += [UnderlyingGraph(8, adj) for adj in ORDER8_GRAPHS.values()]
    for u in graphs:
        got = [p.image for p in aut_group_undirected(u).elements]
        assert got == brute_automorphisms(u.n, u.adj), u


def test_aut_group_of_every_graph_of_order_7_matches_the_pinned_digest():
    digest = hashlib.sha256()
    for n in range(1, 8):
        for u in gen_underlying_graphs(n):
            digest.update(repr([p.image for p in aut_group_undirected(u).elements]).encode())
    assert digest.hexdigest() == AUT_GROUPS_SHA256


@pytest.mark.parametrize("patch", [{}, {"_BATCH_DEPTH": 1}, {"_BATCH_NODES": 16}],
                         ids=["default", "depth-1", "16-node-passes"])
def test_aut_groups_from_the_batch_tree_match_the_scalar_search(monkeypatch, patch):
    """aut_groups on every graph of orders 1..7, disconnected ones included,
    and on the order-8 graphs above, against aut_group_undirected, element
    order included.  Uncapped rows read their group off the tree's leaves;
    exactly the capped rows (K8 and the empty graph among them) run the
    scalar search.  At depth 1 every row that needs two individualisations
    is capped.  Passes of 16 nodes split the trees over many passes, so that
    some row's least leaf comes after leaves that tied a larger least."""
    for name, value in patch.items():
        monkeypatch.setattr(canon, name, value)
    orders = [list(gen_underlying_graphs(n)) for n in range(1, 8)]
    orders.append([UnderlyingGraph(8, adj) for adj in ORDER8_GRAPHS.values()])
    assert sum(map(len, orders)) == 1252 + len(ORDER8_GRAPHS)
    scalar, capped = [], []
    for graphs in orders:
        with monkeypatch.context() as m:
            m.setattr(canon, "aut_group_undirected",
                      lambda u: scalar.append(u) or aut_group_undirected(u))
            groups = aut_groups(graphs)
        assert [g.elements for g in groups] == [aut_group_undirected(u).elements for u in graphs]
        outs = np.array([u.adj for u in graphs], dtype=np.uint8)
        capped += [u for u, cap in zip(graphs, canon._batch_tree(outs)[2]) if cap]
    assert scalar == capped
    assert {u.adj for u in scalar} >= {ORDER8_GRAPHS["K8"], ORDER8_GRAPHS["empty"]}
    assert len(scalar) > 200 if patch.get("_BATCH_DEPTH") == 1 else len(scalar) < 40


def test_aut_groups_above_order_8_take_the_scalar_search():
    """The batch kernel takes at most 8 vertices, so the 9-cycle's group is
    aut_group_undirected's own; an empty list gives no groups."""
    c9 = UnderlyingGraph(9, _adj(9, [(i, (i + 1) % 9) for i in range(9)]))
    assert aut_groups([c9, c9]) == [aut_group_undirected(c9)] * 2
    assert aut_group_undirected(c9).order == 18
    assert aut_groups([]) == []


def test_orientation_space_built_from_a_given_group_equals_the_default():
    """OrientationSpace(u, group) against OrientationSpace(u), and the switch
    flips against the edges at each vertex: every graph of order <= 6 and
    C8, the cube and the Wagner graph."""
    graphs = [u for n in range(1, 7) for u in gen_underlying_graphs(n)]
    graphs += [UnderlyingGraph(8, ORDER8_GRAPHS[name]) for name in ("C8", "cube", "Wagner")]
    groups = [group for n in (*range(1, 7), 8)
              for group in aut_groups([u for u in graphs if u.n == n])]
    for u, group in zip(graphs, groups):
        given, default = OrientationSpace(u, group), OrientationSpace(u)
        assert given.aut is group
        assert given._perms == default._perms
        assert np.array_equal(given.vertex_images, default.vertex_images)
        assert [list(p.image) for p in group.elements[1:]] == default.vertex_images.tolist()
        assert given.flips.dtype == default.flips.dtype == np.uint64
        assert np.array_equal(given.flips, default.flips)
        # vertex v flips the bit of each edge at v
        m = len(default.edges)
        assert default.flips.tolist() == [
            sum(1 << (m - 1 - i) for i, e in enumerate(default.edges) if v in e) for v in range(u.n)]


@pytest.mark.parametrize("name", ["K8", "empty", "K4,4"])
def test_search_prunes_by_the_automorphisms_it_finds(name):
    """Without pruning every leaf of K8 but the first would give a
    generator: 8! - 1 of them."""
    _, _, gens, _ = _search(8, ORDER8_GRAPHS[name], None)
    assert len(gens) < 8 * 8


def golden_corpus():
    """6,987 digraphs: every oriented graph class of order <= 5, every
    tournament class of order <= 7 and each of its vertex switches, every
    graph of order <= 6 as a symmetric digraph, and 2,000 seeded random
    labelled digraphs of order <= 9, 1,161 of them with digons and 716
    disconnected."""
    for n in range(1, 6):
        yield from gen_all_oriented(n)
    for n in range(1, 8):
        for t in gen_tournaments(n):
            yield t
            for v in range(n):
                yield switch_vertex(t, v)
    for n in range(1, 7):
        for u in gen_underlying_graphs(n):
            yield Digraph(n, u.adj)
    rng = random.Random(0x5EED)
    for _ in range(2000):
        n = rng.randint(1, 9)
        none = rng.random()
        picks = [0 if rng.random() < none else rng.randint(1, 3)
                 for _ in range(n * (n - 1) // 2)]
        yield from_arcs(n, arcs_for(n, picks, oriented=False), oriented=False)


def test_canonical_codes_match_the_pinned_digest():
    digest = hashlib.sha256()
    for g in golden_corpus():
        digest.update(canonical_code(g))
    assert digest.hexdigest() == GOLDEN_CODES_SHA256


def test_canonical_perms_match_the_pinned_digest():
    digest = hashlib.sha256()
    for g in golden_corpus():
        digest.update(bytes(canonical_perm(g).image))
    assert digest.hexdigest() == GOLDEN_PERMS_SHA256


@st.composite
def refinable(draw):
    """(n, out, in-masks, in-masks as the search passes them) for a digraph
    with digons, a tournament or a symmetric digraph of order <= 8; the
    search passes None for the last two, whose out-counts decide the rest."""
    kind = draw(st.sampled_from(["digons", "tournament", "symmetric"]))
    n = draw(st.integers(1, 8))
    pick = {"digons": st.integers(0, 3), "tournament": st.integers(1, 2),
            "symmetric": st.sampled_from([0, 3])}[kind]
    picks = draw(st.lists(pick, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    g = from_arcs(n, arcs_for(n, picks, oriented=False), oriented=False)
    inn = in_masks(g)
    return n, g.out, inn, inn if kind == "digons" else None


@given(refinable())
def test_refinement_matches_a_full_recount_from_the_unit_partition(case):
    n, out, inn, passed = case
    unit = [list(range(n))]
    assert _stable_partition(n, out, passed, unit) == full_refine(n, out, inn, unit)


@given(refinable(), st.integers(0, 7), st.integers(0, 7))
def test_refinement_matches_a_full_recount_after_individualising(case, i, j):
    n, out, inn, passed = case
    cells = full_refine(n, out, inn, [list(range(n))])
    split = [idx for idx, c in enumerate(cells) if len(c) > 1]
    if not split:
        return
    idx = split[i % len(split)]
    c = cells[idx]
    v = c[j % len(c)]
    start = cells[:idx] + [[v], [w for w in c if w != v]] + cells[idx + 1:]
    assert _stable_partition(n, out, passed, start, [idx]) == full_refine(n, out, inn, start)


def _level_children(n: int) -> list[Digraph]:
    """Every child the generators code at order n: each graph of order n plus
    one non-edge, as a symmetric digraph, and each tournament of order n - 1
    plus a vertex beating any subset of the others."""
    children = []
    for u in gen_underlying_graphs(n):
        for a, b in combinations(range(n), 2):
            if not u.adj[a] >> b & 1:
                out = list(u.adj)
                out[a] |= 1 << b
                out[b] |= 1 << a
                children.append(Digraph(n, tuple(out)))
    k = n - 1
    for t in gen_tournaments(k) if k else [Digraph(0, ())]:
        children.extend(Digraph(n, tuple(o | (0 if q >> v & 1 else 1 << k)
                                         for v, o in enumerate(t.out)) + (q,))
                        for q in range(1 << k))
    return children


def _check_batch_codes(graphs, monkeypatch):
    """batch_codes on graphs of one order against the scalar search: the code
    of a connected row is canonical_code's, a disconnected row's code names
    its class one-to-one, and each order relabels its row onto its code's
    matrix (the canonical form, for a connected row).  Returns the counts of
    disconnected rows and of rows the kernel sent to the scalar search."""
    n = graphs[0].n
    # the kernel calls canonical_code once per row it sends to the search,
    # and otherwise only on components, which have fewer vertices
    searched = []
    monkeypatch.setattr(canon, "canonical_code", lambda g: searched.append(g.n) or canonical_code(g))
    codes, orders = batch_codes(np.array([g.out for g in graphs], dtype=np.uint8))
    monkeypatch.undo()
    size = (n * n + 7) >> 3
    classes: dict[bytes, bytes] = {}
    disconnected = 0
    for g, code, order in zip(graphs, codes.tolist(), orders.tolist()):
        code = bytes([n]) + code.to_bytes(size, "big")
        want = canonical_code(g)
        if is_weakly_connected(g):
            assert code == want
        else:
            disconnected += 1
        assert classes.setdefault(code, want) == want
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        assert apply_perm(g, Permutation(tuple(pos))) == code_to_digraph(code)
    assert len(set(classes.values())) == len(classes)
    return disconnected, searched.count(n)


def test_batch_codes_match_the_canonical_search(monkeypatch):
    """Every undirected and tournament child of orders 1..7 (16,397 rows),
    and 1,000 seeded random graphs and tournaments of order 8, of every
    density; some rows are disconnected and some fall to the scalar search
    at the depth cap."""
    disconnected = searched = 0
    for n in range(1, 8):
        d, s = _check_batch_codes(_level_children(n), monkeypatch)
        disconnected += d
        searched += s
    assert disconnected > 1000 and searched > 40
    rng = random.Random(27)
    sample = []
    for _ in range(500):
        p = rng.random()
        picks = [3 if rng.random() < p else 0 for _ in range(28)]
        sample.append(from_arcs(8, arcs_for(8, picks, oriented=False), oriented=False))
        picks = [rng.randint(1, 2) for _ in range(28)]
        sample.append(from_arcs(8, arcs_for(8, picks, oriented=False), oriented=False))
    d, s = _check_batch_codes(sample, monkeypatch)
    assert d and s
