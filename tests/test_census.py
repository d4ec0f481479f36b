"""Deck grouping, disconnected-pair structure, and the census engines."""

from __future__ import annotations

import hashlib
import json

import pytest

from itertools import combinations, islice, product

import numpy as np

from switchdeck import catalog, census, generate, spaces
from switchdeck.canon import OrientationSpace, canonical_code, is_isomorphic
from switchdeck.census import (
    _census_reduced_span,
    definite_components,
    group_by_deck,
    possible_components,
    run_census,
    strip_stable_components,
    switching_adjacent,
    verify_disconnected_dichotomy,
    verify_strip_residue,
)
from switchdeck.decks import deck
from switchdeck.digraph import EMPTY, Digraph, apply_perm, disjoint_union, from_arcs, underlying
from switchdeck.errors import (
    DichotomyViolated,
    HeavyFlagRequired,
    HypothesisUnmet,
    OutOfRange,
)
from switchdeck.generate import (
    TournamentSpace,
    gen_all_oriented,
    gen_oriented_cycles,
    gen_oriented_maxdeg2,
    gen_oriented_paths,
    gen_tournaments,
    gen_underlying_graphs,
)
from switchdeck.report import Family, SearchReport, make_family, merge_reports
from switchdeck.spaces import CycleSpace, PathSpace
from switchdeck.switching import switch_vertex

from ._oracles import (
    CYCLES,
    DIGON_CYCLES,
    MAXDEG2,
    ORIENTED,
    PATHS,
    TOURNAMENTS,
    dihedral_min,
    least_by_code,
    least_per_class,
    orientation_int,
)

K1 = Digraph(1, (0,))
ARC = from_arcs(2, [(0, 1)])
TRIANGLE = from_arcs(3, [(0, 1), (1, 2), (2, 0)])
PATH_FF = from_arcs(3, [(0, 1), (1, 2)])
PATH_FB = from_arcs(3, [(0, 1), (2, 1)])


def family_keyset(report: SearchReport) -> set[tuple[int, int, tuple[str, ...]]]:
    return {(f.n, f.t, tuple(f.strings())) for f in report.families}


@pytest.fixture(scope="module")
def maxdeg2_report() -> SearchReport:
    return run_census("maxdeg2", (1, 8))


@pytest.fixture(scope="module")
def tournament_report() -> SearchReport:
    # order 8 is criterion 5's census
    return run_census("tournaments", (1, 7))


def test_group_by_deck_recovers_figure_families():
    pool = list(catalog.family("paths-4a").members)
    pool += list(catalog.family("paths-4b").members)
    pool.append(from_arcs(4, [(0, 1), (1, 2), (2, 3)]))  # duplicate class
    groups = group_by_deck(pool)
    assert sorted(len(g) for g in groups) == [2, 2]
    triple = catalog.family("paths-3").members
    assert group_by_deck(triple) == []  # they share a 1-deck, not a deck
    assert len(group_by_deck(triple, t=1)) == 1


def test_group_by_deck_skips_deckless_graphs_at_negative_t():
    transitive = from_arcs(3, [(0, 1), (1, 2), (0, 2)])
    # the directed triangle's own class is missing from its deck
    assert group_by_deck([TRIANGLE, transitive], t=-1) == []


def test_group_by_deck_rejects_t_below_minus_one():
    with pytest.raises(OutOfRange):
        group_by_deck(gen_oriented_paths(4), -2)
    with pytest.raises(OutOfRange, match="t must be at least -1, got -2"):
        run_census("cycles", (3, 5), (-2, 0))


def test_inverted_t_range_is_rejected_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("census ran on an empty t range")

    monkeypatch.setattr(census, "_space_census", no_work)
    with pytest.raises(OutOfRange):
        run_census("paths", (3, 5), (3, 1))
    monkeypatch.undo()
    # an upper bound above n is clamped to n, not rejected
    assert [f for f in run_census("paths", (3, 3), (1, 9)).families if f.n == 3]


def test_switching_adjacent():
    assert switching_adjacent(PATH_FF, PATH_FB)
    assert switching_adjacent(PATH_FB, PATH_FF)
    out_star = from_arcs(3, [(1, 0), (1, 2)])
    assert not switching_adjacent(TRIANGLE, out_star)
    assert not switching_adjacent(ARC, PATH_FF)  # order mismatch is just False
    with pytest.raises(HypothesisUnmet, match="defined between connected digraphs"):
        switching_adjacent(disjoint_union(ARC, K1), PATH_FF)


def test_possible_and_definite_components():
    from switchdeck.digraph import components

    universe = list(gen_oriented_maxdeg2(4))
    member = next(g for g in universe
                  if len(components(g).parts) > 1
                  and sum(deck(h) == deck(g) for h in universe) >= 2)
    poss = possible_components(member, universe)
    defi = definite_components(member, universe)
    assert set(defi) <= set(poss)
    sharers = [g for g in universe if deck(g) == deck(member)]
    assert len(sharers) >= 2
    want = {canonical_code(p) for g in sharers for p in components(g).parts}
    assert set(poss) == want
    keep = {canonical_code(p) for p in components(sharers[0]).parts}
    for g in sharers[1:]:
        keep &= {canonical_code(p) for p in components(g).parts}
    assert set(defi) == keep


def test_strip_stable_components():
    res, t = strip_stable_components(disjoint_union(TRIANGLE, K1))
    assert is_isomorphic(res, TRIANGLE) and t == 1
    res, t = strip_stable_components(disjoint_union(ARC, ARC))
    assert res == EMPTY and t == 4
    res, t = strip_stable_components(TRIANGLE)
    assert is_isomorphic(res, TRIANGLE) and t == 0


def test_verify_strip_residue_on_figure_families():
    for key in ("path-unions-8", "cycle-unions-8"):
        out = verify_strip_residue(list(catalog.family(key).members))
        assert out["holds"], key
    bad = [disjoint_union(TRIANGLE, K1, K1),
           disjoint_union(from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), K1)]
    assert not verify_strip_residue(bad)["holds"]


def test_disconnected_dichotomy_option_one(monkeypatch):
    g, h = catalog.family("path-unions-8").members
    out = verify_disconnected_dichotomy(g, h)
    assert out["option"] == 1 and out["classes"] <= 4
    g2, h2 = catalog.family("cycle-unions-8").members
    assert verify_disconnected_dichotomy(g2, h2)["option"] == 1
    # with its parts unstable, the pair fits option 1 only through the stable set
    monkeypatch.setattr(census, "is_switching_stable_set", lambda classes: False)
    with pytest.raises(DichotomyViolated, match="fits neither"):
        verify_disconnected_dichotomy(g, h)


def test_disconnected_dichotomy_option_two():
    a, b = catalog.family("cycles-6a").members
    g, h = disjoint_union(a, ARC), disjoint_union(b, ARC)
    out = verify_disconnected_dichotomy(g, h)
    assert out == {"option": 2, "t": 2}


def test_disconnected_dichotomy_guards():
    g, h = catalog.family("path-unions-8").members
    with pytest.raises(HypothesisUnmet, match="share an order"):
        verify_disconnected_dichotomy(g, disjoint_union(h, K1))
    with pytest.raises(HypothesisUnmet, match="must be disconnected"):
        verify_disconnected_dichotomy(g, from_arcs(8, [(i, i + 1) for i in range(7)]))
    with pytest.raises(HypothesisUnmet, match="must not be isomorphic"):
        verify_disconnected_dichotomy(g, g)
    with pytest.raises(HypothesisUnmet, match="share a deck"):
        verify_disconnected_dichotomy(g, disjoint_union(TRIANGLE, TRIANGLE,
                                                        ARC))
    a, b = catalog.family("cycles-6a").members
    with pytest.raises(HypothesisUnmet, match="share a deck"):  # stable parts differ: 2K1 vs arc
        verify_disconnected_dichotomy(disjoint_union(a, K1, K1),
                                      disjoint_union(b, ARC))


def test_dichotomy_guard_rejects_adjacent_components():
    from switchdeck.census import _check_dichotomy

    bogus = disjoint_union(PATH_FF, PATH_FB)
    other = disjoint_union(PATH_FF, PATH_FF)
    report = SearchReport("maxdeg2", (6, 6), None)
    codes = tuple(sorted(canonical_code(g) for g in (bogus, other)))
    report.families = [Family("maxdeg2", 6, 0, codes)]
    with pytest.raises(DichotomyViolated):
        _check_dichotomy(report)


# ---------------------------------------------------------------------------
# census runs at unit scale; frozen outputs come from the reference counts

def test_paths_census_full_t_sweep():
    report = run_census("paths", (1, 8), (-1, None))
    assert report.counts == {n: PATHS[n] for n in range(1, 9)}
    got = family_keyset(report)
    want = {(f.n, f.t, tuple(f.as_family().strings()))
            for f in catalog.FAMILIES if f.class_label == "paths"}
    want.add((5, -1, ("&D??QI?", "&D?I?W?")))
    assert got == want


def test_cycles_census_matches_figure_families():
    report = run_census("cycles", (3, 8), (-1, None))
    assert report.counts == {n: CYCLES[n] for n in range(3, 9)}
    got = family_keyset(report)
    want = {(f.n, f.t, tuple(f.as_family().strings()))
            for f in catalog.FAMILIES if f.class_label == "cycles"}
    assert got == want


def test_tournament_census(tournament_report):
    report = tournament_report
    assert report.counts == {n: TOURNAMENTS[n] for n in range(1, 8)}
    shapes: dict[tuple[int, int], int] = {}
    for f in report.families:
        shapes[f.n, f.size] = shapes.get((f.n, f.size), 0) + 1
    assert shapes == {(4, 2): 1}


def test_digon_cycles_census():
    report = run_census("digon-cycles", (3, 8))
    assert report.counts == {n: DIGON_CYCLES[n] for n in range(3, 9)}
    by_n: dict[int, int] = {}
    for f in report.families:
        by_n[f.n] = by_n.get(f.n, 0) + 1
    assert by_n == {4: 4, 8: 29}


def test_maxdeg2_census_counts_and_family_profile(maxdeg2_report):
    report = maxdeg2_report
    assert report.counts == {n: MAXDEG2[n] for n in range(1, 9)}
    by_n: dict[int, int] = {}
    for f in report.families:
        by_n[f.n] = by_n.get(f.n, 0) + 1
    assert by_n == {4: 5, 8: 15}
    assert sum(f.size for f in report.families) == 11 + 33


def test_all_oriented_census_small():
    report = run_census("all-oriented", (1, 5))
    assert report.counts == {n: ORIENTED[n] for n in range(1, 6)}
    assert all(f.n == 4 for f in report.families)
    assert len(report.families) == 14
    assert sum(f.size for f in report.families) == 35


C8_EDGES = [(i, (i + 1) % 8) for i in range(8)]
ORDER8_UNITS = {
    "C8": C8_EDGES,
    "cube": [(a, a ^ 1 << k) for a in range(8) for k in range(3) if a < a ^ 1 << k],
    "Wagner": C8_EDGES + [(i, i + 4) for i in range(4)],
}


@pytest.mark.parametrize("name, classes, families", [
    ("C8", 22, 6), ("cube", 112, 19), ("Wagner", 256, 14)])
def test_order8_all_oriented_unit_matches_exact_grouping(name, classes, families):
    """One order-8 unit of the heavy all-oriented census, against
    group_by_deck over every orientation of its underlying graph."""
    u = underlying(from_arcs(8, ORDER8_UNITS[name]))
    space = OrientationSpace(u)
    got, count = census._space_census(space, [0], "all-oriented")
    graphs = [space.digraph(x) for x in range(space.domain_total)]
    want = sorted(sorted(canonical_code(g) for g in grp) for grp in group_by_deck(graphs, 0))
    assert count == len({canonical_code(g) for g in graphs}) == classes
    assert len(want) == families
    assert sorted(list(f.members) for f in got) == want
    assert all(f.class_label == "all-oriented" and (f.n, f.t) == (8, 0) for f in got)


def test_orientation_space_routes_complete_graphs_without_changing_the_census():
    """K_n through TournamentSpace gives the report of its OrientationSpace
    scan, at every t."""
    for n in range(1, 7):
        u = underlying(from_arcs(n, list(combinations(range(n), 2))))
        assert isinstance(generate.orientation_space(u), TournamentSpace)
        ts = list(range(-1, n + 1))
        assert census._space_census(OrientationSpace(u), ts, "all-oriented") == \
            census._space_census(generate.orientation_space(u), ts, "all-oriented")


@pytest.mark.parametrize("label, lo, hi, gen", [
    ("paths", 1, 9, gen_oriented_paths),
    ("cycles", 3, 9, gen_oriented_cycles),
    ("digon-cycles", 3, 7, lambda n: gen_oriented_cycles(n, digons=True)),
    ("all-oriented", 1, 5, gen_all_oriented),
    ("maxdeg2", 1, 9, gen_oriented_maxdeg2),
    ("tournaments", 1, 6, gen_tournaments),
])
def test_signature_engine_matches_exact_grouping(label, lo, hi, gen):
    report = run_census(label, (lo, hi), (-1, None))
    want = set()
    for n in range(lo, hi + 1):
        graphs = list(gen(n))
        for t in range(-1, n + 1):
            want.update(make_family(label, t, grp) for grp in group_by_deck(graphs, t))
    assert set(report.families) == want


def test_every_plain_deck_family_order_is_divisible_by_four(
        tournament_report, maxdeg2_report):
    for report in (run_census("paths", (1, 8)), run_census("cycles", (3, 8)),
                   tournament_report, maxdeg2_report):
        assert all(f.n % 4 == 0 for f in report.families), report.class_label


def test_shards_partition_the_search():
    """maxdeg2 units are whole orders below the shape ceiling, so its shards
    must still keep every family in one unit."""
    for label, nr in (("cycles", (3, 9)), ("maxdeg2", (1, 10))):
        whole = run_census(label, nr, (-1, None))
        parts = [run_census(label, nr, (-1, None), shard=(i, 3)) for i in range(3)]
        merged = merge_reports(parts)
        assert family_keyset(merged) == family_keyset(whole), label
        assert merged.counts == whole.counts, label


def test_chunked_and_regenerated_engine_paths_match_the_default(monkeypatch):
    """Tiny chunks split every domain; a tiny hold limit makes every space
    with more than 16 classes regenerate its signed chunks on each pass."""
    cases = [("cycles", (3, 12)), ("digon-cycles", (8, 10)), ("paths", (1, 12)),
             ("all-oriented", (1, 5))]
    default = [run_census(label, nr, (-1, None)) for label, nr in cases]
    signed = census._signed
    calls = []

    def counting(space, xs):
        calls.append(len(xs))
        return signed(space, xs)

    monkeypatch.setattr(census, "_CHUNK", 1 << 10)
    monkeypatch.setattr(census, "_HOLD_LIMIT", 1 << 4)
    monkeypatch.setattr(census, "_signed", counting)
    for (label, nr), want in zip(cases, default):
        got = run_census(label, nr, (-1, None))
        assert got.counts == want.counts, label
        assert family_keyset(got) == family_keyset(want), label
    classes = sum(sum(r.counts.values()) for r in default)
    assert sum(calls) > 2 * classes  # chunks were signed again per pass


@pytest.mark.parametrize("hold_limit", [1 << 26, 2])
@pytest.mark.parametrize("wrong", [3, 5])  # the 5-cycle has 4 classes
def test_engine_rejects_a_count_the_rep_scan_disagrees_with(monkeypatch, hold_limit, wrong):
    monkeypatch.setattr(census, "_HOLD_LIMIT", hold_limit)
    monkeypatch.setattr(CycleSpace, "count", lambda self: wrong)
    with pytest.raises(HypothesisUnmet, match="rep scan disagrees with count"):
        run_census("cycles", (5, 5))


def test_rep_scans_match_scalar_orbit_minima():
    for n in range(1, 11):
        space = PathSpace(n)
        assert space.reps_array().tolist() == least_per_class(space, range(1 << (n - 1)))
    for n in range(3, 11):
        space = CycleSpace(n)
        assert space.reps_array().tolist() == least_per_class(space, range(1 << n))
    for n in range(3, 8):
        space = CycleSpace(n, digons=True)
        domain = [space.from_letters(w) for w in product(range(3), repeat=n)]
        assert space.reps_array().tolist() == least_per_class(space, domain)
    for n in range(1, 6):
        for u in gen_underlying_graphs(n):
            space = OrientationSpace(u)
            assert space.reps_array().tolist() == least_per_class(space, range(1 << space.m))


# SHA-256 over CycleSpace(n).reps_array() as little-endian uint64, n = 3..16,
# and over CycleSpace(n, digons=True).reps_array(), n = 3..12: taken from the
# scan over every string, before the domain shrank to the possible minima
CYCLE_REPS_SHA256 = "535ad21620ed079a450df1abacb4a501aff0473ac8ef07ec8717c583158e221d"
DIGON_CYCLE_REPS_SHA256 = "0f93521838602e5c69e15be5f1df616073aeca37e560742b359e763199a1debe"


@pytest.mark.parametrize("digons, hi, want", [
    (False, 16, CYCLE_REPS_SHA256), (True, 12, DIGON_CYCLE_REPS_SHA256)])
def test_cycle_reps_match_the_pinned_digest(digons, hi, want):
    digest = hashlib.sha256()
    for n in range(3, hi + 1):
        digest.update(CycleSpace(n, digons=digons).reps_array().astype("<u8").tobytes())
    assert digest.hexdigest() == want


def test_digon_cycle_domain_is_letter_0_then_the_index_digits_then_all_digons():
    for n in (3, 4, 5, 8):
        space = CycleSpace(n, digons=True)
        body = 3 ** (n - 1)
        assert space.domain_total == body + 1
        assert CycleSpace(n).domain_total == 1 << (n - 1)

        def string(i):
            if i == body:
                return space.from_letters((2,) * n)
            return space.from_letters((0, *(i // 3 ** e % 3 for e in reversed(range(n - 1)))))

        row = 3 ** ((n - 1) // 2)
        spans = [(0, body + 1), (0, 0), (1, 2), (row - 1, row + 2), (row + 1, 3 * row - 1),
                 (body - 2, body), (body - 1, body + 1), (body, body + 1), (7 % body, body)]
        for start, stop in spans:
            got = space.domain_chunk(start, stop)
            assert got.dtype == np.uint64
            assert got.tolist() == [string(i) for i in range(start, stop)]
        assert np.all(np.diff(space.domain_chunk(0, body + 1).astype(np.int64)) > 0)


def test_the_all_digon_string_is_alone_in_the_last_chunk():
    """The domain's last index holds the all-digon string alone, and the
    domain strings that are their own orbit minima are the reps."""
    for n in range(3, 9):
        space = CycleSpace(n, digons=True)
        body = 3 ** (n - 1)
        assert space.domain_chunk(body, space.domain_total).tolist() == \
            [space.from_letters((2,) * n)]
        domain = space.domain_chunk(0, space.domain_total)
        minima = domain[dihedral_min(space, domain) == domain]
        assert minima[-1] == space.from_letters((2,) * n)
        assert minima.tolist() == space.reps_array().tolist()


def _ascending_chunks(chunks):
    """The chunks joined, after checking each is ascending and each starts
    above the end of the one before."""
    for chunk, after in zip(chunks, chunks[1:]):
        assert chunk[-1] < after[0]
    for chunk in chunks:
        assert chunk.dtype == np.uint64 and np.all(chunk[1:] > chunk[:-1])
    return np.concatenate(chunks)


def test_cycle_rep_generator_gives_the_same_reps_at_every_chunk_size():
    """CycleSpace.scan_reps splits its prenecklace extension into blocks of
    at most `chunk` completions: at any chunk no chunk is longer than
    max(chunk, k), and the chunks join to the one chunk a domain-sized block
    gives, the scalar orbit minima, and as many strings as count() says."""
    cases = [(CycleSpace(n), range(1 << n)) for n in range(3, 11)]
    for n in range(3, 8):
        space = CycleSpace(n, digons=True)
        cases.append((space, [space.from_letters(w) for w in product(range(3), repeat=n)]))
    for space, domain in cases:
        (whole,) = space.scan_reps(3 ** space.n)
        assert whole.tolist() == least_per_class(space, domain)
        for chunk in (1, 7, 3 ** 5):
            chunks = list(space.scan_reps(chunk))
            assert max(map(len, chunks)) <= max(chunk, 3)
            assert np.array_equal(_ascending_chunks(chunks), whole)
    sizes = [CycleSpace(n) for n in range(3, 25)]
    sizes += [CycleSpace(n, digons=True) for n in range(3, 15)]
    for space in sizes:
        assert len(_ascending_chunks(list(space.scan_reps()))) == space.count()


@pytest.mark.parametrize("n", [17, 20])
def test_wide_digon_rep_chunks_are_their_own_orbit_minima(n):
    """Digon orders 17..20 are wider than 32 bits, where the rotation
    kernel takes a second block, and only heavy censuses scan them in full;
    the first chunks at a small chunk size are ascending and each string is
    its own orbit minimum under the dihedral reference."""
    space = CycleSpace(n, digons=True)
    assert space.width > 32
    xs = _ascending_chunks(list(islice(space.scan_reps(3 ** 5), 40)))
    assert np.array_equal(dihedral_min(space, xs), xs)


def test_space_actions_are_relabellings_and_orbit_min_is_their_least_image():
    """Each action of a path or orientation space maps every string to one
    of the same class, and orbit_min_array (group_min over those actions,
    or the cycle kernel), the dihedral reference on cycles and the least
    string of the class agree on every string of the domain, reps or not."""
    binary = [PathSpace(n) for n in range(1, 10)]
    binary += [OrientationSpace(u) for n in range(1, 6) for u in gen_underlying_graphs(n)]
    cases = [(space, range(space.domain_total)) for space in binary]
    # a cycle domain holds only the strings that can be orbit minima
    cases += [(space, range(1 << space.width)) for space in map(CycleSpace, range(3, 10))]
    for n in range(3, 7):
        space = CycleSpace(n, digons=True)
        cases.append((space, [space.from_letters(w) for w in product(range(3), repeat=n)]))
    for space, domain in cases:
        domain = list(domain)
        least = least_by_code(space, domain)
        code_of = {x: canonical_code(space.digraph(x)) for x in domain}
        xs = np.array(domain, dtype=np.uint64)
        want = [least[code_of[x]] for x in domain]
        assert space.orbit_min_array(xs).tolist() == want
        if isinstance(space, CycleSpace):
            assert dihedral_min(space, xs).tolist() == want
            continue
        if isinstance(space, PathSpace):
            assert len(space.actions) == (1 if space.m else 0)
        if space.n == 1:
            assert not space.actions
        for action in space.actions:
            images = space.act_array(action, xs).tolist()
            assert [code_of[y] for y in images] == [code_of[x] for x in domain]


def test_part_cards_are_the_least_string_of_the_switched_class():
    for space in [PathSpace(n) for n in range(1, 9)] + [CycleSpace(n) for n in range(3, 9)]:
        least: dict[bytes, int] = {}
        every = range(1 << space.width) if isinstance(space, CycleSpace) else range(space.domain_total)
        for x in every:
            least.setdefault(canonical_code(space.digraph(x)), x)
        for x in space.reps_array().tolist():
            for v in range(space.n):
                switched = switch_vertex(space.digraph(x), v)
                assert space.card(x, v) == least[canonical_code(switched)]
    space = PathSpace(5)
    reps = space.reps_array().tolist()
    with pytest.raises(HypothesisUnmet, match="is not an orbit minimum of PathSpace"):
        space.card(next(x for x in range(max(reps)) if x not in reps), 0)


def test_a_part_card_outside_its_orbit_minima_is_rejected(monkeypatch):
    reps = PathSpace(5).reps_array().tolist()
    between = next(x for x in range(max(reps)) if x not in reps)
    for bad in (between, 1 << 40):
        monkeypatch.setattr(spaces, "card_table",
                            lambda space, xs: np.full((space.n, len(xs)), bad, dtype=np.uint64))
        with pytest.raises(HypothesisUnmet, match="card outside its orbit minima"):
            spaces.tabulated_reps(PathSpace(5))


def _check_card_table(space, domain):
    xs = np.array(list(domain), dtype=np.uint64)
    table = spaces.card_table(space, xs)
    assert table.shape == (space.n, len(xs))
    for v in range(space.n):
        assert (table[v] == space.orbit_min_array(xs, v)).all()
    if isinstance(space, TournamentSpace):
        return  # its strings are its classes: orbit_min_array(xs, v) is the card
    switched = space.switched_array(xs, np.arange(space.n)[:, None])
    for v in range(space.n):
        assert (switched[v] == space.switched_array(xs, v)).all()
        assert (table[v] == space.orbit_min_array(switched[v])).all()
        if isinstance(space, CycleSpace):
            assert (table[v] == dihedral_min(space, switched[v])).all()


def test_card_table_rows_are_the_orbit_minima_of_each_vertex_switch(monkeypatch):
    """card_table against the orbit minimum at each vertex, and against one
    switch and one orbit minimum per vertex (the dihedral reference on
    cycles), on every string of each space; a broadcast vertex array
    switches like each vertex on its own.  Slices of 7 columns split every
    domain unevenly, except at order 6 of OrientationSpace, which keeps the
    default width."""
    cases = [(space, range(space.domain_total)) for space in map(PathSpace, range(1, 10))]
    for n, digons in product(range(3, 10), (False, True)):
        space = CycleSpace(n, digons)
        letters = product(range(3 if digons else 2), repeat=n)
        cases.append((space, [space.from_letters(w) for w in letters]))
    orient = [OrientationSpace(u) for n in range(1, 6) for u in gen_underlying_graphs(n)]
    orient += [OrientationSpace(underlying(from_arcs(8, arcs))) for arcs in ORDER8_UNITS.values()]
    cases += [(space, range(space.domain_total)) for space in orient]
    cases += [(space, range(space.count())) for space in map(TournamentSpace, range(1, 7))]
    with monkeypatch.context() as m:
        m.setattr(spaces, "_CARD_COLUMNS", 7)
        for space, domain in cases:
            _check_card_table(space, domain)
    for u in gen_underlying_graphs(6):
        space = OrientationSpace(u)
        _check_card_table(space, range(space.domain_total))


def test_cycle_kernel_matches_the_dihedral_reference_at_every_width():
    """The cycle kernel against the dihedral reference on seeded random
    strings, switched at nothing, at one vertex and at every vertex.  Digon
    orders 17..20 are wider than 32 bits, so their rotations take a second
    block."""
    rng = np.random.default_rng(23)
    cases = [CycleSpace(n) for n in range(3, 31)] + [CycleSpace(n, True) for n in range(3, 21)]
    for space in cases:
        letters = rng.integers(0, 2 + space.digons, size=(200, space.n))
        xs = np.array([space.from_letters(w) for w in letters.tolist()], dtype=np.uint64)
        for at in (None, int(rng.integers(space.n)), np.arange(space.n)[:, None]):
            got = space._orbit_min_array(xs, at)
            want = dihedral_min(space, xs, at)
            assert got.shape == want.shape
            assert (got == want).all(), (space.n, space.digons, at)


def test_orientation_rep_scan_on_a_large_group():
    # K7: 5,039 non-identity actions over 2^21 orientations
    space = OrientationSpace(underlying(from_arcs(7, list(combinations(range(7), 2)))))
    assert len(space.actions) == 5039
    assert len(space.reps_array()) == space.count() == 456


def test_act_array_matches_scalar_act():
    edgeless_with_actions = 0
    for n in range(1, 6):
        for u in gen_underlying_graphs(n):
            space = OrientationSpace(u)
            perms = [p for p in space.aut.elements if p.image != tuple(range(n))]
            assert len(space.actions) == len(perms)
            if n == 1:
                assert not space.actions
            edgeless_with_actions += space.m == 0 and bool(space.actions)
            domain = range(space.domain_total)
            xs = np.arange(space.domain_total, dtype=np.uint64)
            for perm, action in zip(perms, space.actions):
                want = [orientation_int(space, apply_perm(space.digraph(x), perm))
                        for x in domain]
                assert space.act_array(action, xs).tolist() == want
    assert edgeless_with_actions == 4  # n = 2..5


def test_orientation_count_matches_the_rep_scan():
    for n in range(1, 7):
        for u in gen_underlying_graphs(n):
            space = OrientationSpace(u)
            assert space.count() == len(space.reps_array())


def report_body(report: SearchReport) -> dict:
    out = report.to_dict()
    del out["elapsed_ms"]
    return out


# sha256 of the sort_keys JSON of run_census("maxdeg2", ...).to_dict()
# without elapsed_ms: every t up to order 12, and criterion 3's run.  They
# pin the families and counts however the engine splits its work.
MAXDEG2_REPORT_SHA256 = {
    ((1, 12), (-1, None)): "c475574e639c244688d2cfd0f00a3fde73729df89e1ae74cf7870c44d0e95494",
    ((1, 16), (0, 0)): "83402901e5323c70e30ebbd7dcf578b429aef15e69d259248a50d0abfc501274",
}


def test_maxdeg2_reports_match_the_pinned_digests():
    for (n_range, t_range), want in MAXDEG2_REPORT_SHA256.items():
        body = json.dumps(report_body(run_census("maxdeg2", n_range, t_range)), sort_keys=True)
        assert hashlib.sha256(body.encode()).hexdigest() == want, (n_range, t_range)


def test_maxdeg2_groups_of_one_class_give_the_default_report(monkeypatch):
    """With groups capped at one class every shape is signed on its own; the
    default groups hold many shapes.  Both give the same report."""
    want = report_body(run_census("maxdeg2", (1, 10), (-1, None)))
    candidates = census._candidates
    chunks_seen = []

    def counted(chunks, t, count):
        chunks_seen.append(len(list(chunks())))
        return candidates(chunks, t, count)

    monkeypatch.setattr(census, "_candidates", counted)
    census._census_shapes(10, [0])
    assert chunks_seen == [1]   # all 106 shapes of order 10 in one chunk
    chunks_seen.clear()
    monkeypatch.setattr(census, "_CARD_COLUMNS", 1)
    assert report_body(run_census("maxdeg2", (1, 10), (-1, None))) == want
    # one chunk per shape, for each of the n + 2 values of t
    assert sum(chunks_seen) == sum(len(generate.maxdeg2_shapes(n)) * (n + 2)
                                   for n in range(1, 11))


def test_forced_signature_collisions_still_give_the_exact_report(monkeypatch):
    """A part hash that sees only the parity of a component's row makes most
    classes of a shape collide; the exact step must sort them all out."""
    def report_of(run):
        out = run.to_dict()
        del out["elapsed_ms"]
        return out

    want = report_of(run_census("maxdeg2", (1, 10), (-1, None)))
    exact = census._exact_families
    sizes = []

    def counted(label, t, members, digraph):
        members = list(members)
        sizes.append(len(members))
        return exact(label, t, members, digraph)

    monkeypatch.setattr(census, "_part_hash", lambda part, rows: rows % np.uint64(2))
    monkeypatch.setattr(census, "_exact_families", counted)
    census._part_table.cache_clear()
    try:
        got = run_census("maxdeg2", (1, 10), (-1, None))
    finally:
        census._part_table.cache_clear()
    assert report_of(got) == want
    members = sum(f.size for f in got.families)
    assert members > 0 and sum(sizes) > 20 * members


def test_reduced_engine_misses_only_the_union_pairs_at_small_order():
    """The padded-residue engine assumes orders above 12.

    At order 8 it must find exactly the honest families minus the two
    two-residue union pairs, which cannot occur at orders 13 and up.
    """
    honest = family_keyset(run_census("maxdeg2", (8, 8)))
    reduced: set = set()
    counts: dict[int, int] = {}
    for n_res in range(3, 9):
        fams, cnt = _census_reduced_span(n_res, 8, 8)
        reduced |= {(f.n, f.t, tuple(f.strings())) for f in fams}
        for n, c in cnt.items():
            counts[n] = counts.get(n, 0) + c
    missing = honest - reduced
    assert reduced <= honest
    union_keys = {
        (8, 0, tuple(catalog.family(k).as_family().strings()))
        for k in ("path-unions-8", "cycle-unions-8")
    }
    assert missing == union_keys
    assert counts == {8: MAXDEG2[8]}


def test_reduced_span_covers_the_orders_above_the_shape_ceiling(monkeypatch):
    """With the shape ceiling lowered to 12, run_census reaches orders 13..16
    through the padded-residue engine alone: no plain-deck families, and the
    analytic class counts."""
    def no_shapes(*args):
        raise AssertionError("shape engine ran above the ceiling")

    monkeypatch.setattr(census, "MAXDEG2_SHAPE_MAX_N", 12)
    monkeypatch.setattr(census, "_census_shapes", no_shapes)
    report = run_census("maxdeg2", (13, 16))
    assert report.families == []
    assert report.counts == {13: 24302, 14: 53922, 15: 119330, 16: 263447}
    with pytest.raises(OutOfRange):
        run_census("maxdeg2", (13, 13), (0, 1))


def test_range_validation():
    with pytest.raises(OutOfRange):
        run_census("nonsense", (1, 4))
    with pytest.raises(OutOfRange):
        run_census("paths", (5, 4))
    with pytest.raises(OutOfRange):
        run_census("cycles", (2, 5))
    with pytest.raises(OutOfRange):
        run_census("tournaments", (1, 9))
    with pytest.raises(OutOfRange):
        run_census("maxdeg2", (17, 18), (0, 1), heavy=True)
    with pytest.raises(HeavyFlagRequired):
        run_census("cycles", (3, 21))
    with pytest.raises(HeavyFlagRequired):
        run_census("all-oriented", (8, 8))
    with pytest.raises(OutOfRange):
        run_census("cycles", (3, 9), shard=(3, 3))


def test_shard_count_below_one_is_rejected():
    for total in (0, -1):
        with pytest.raises(OutOfRange, match="shard count must be at least 1"):
            run_census("cycles", (3, 5), shard=(0, total))
