"""Deck grouping, disconnected-pair structure, and the census engines."""

from __future__ import annotations

import pytest

from itertools import combinations, product

import numpy as np

from switchdeck import catalog, census
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
    IsomorphicInputs,
    LengthMismatch,
    NotConnected,
    NotDisconnected,
    OrderMismatch,
    RangeTooLarge,
    UniverseNotClosed,
)
from switchdeck.generate import gen_oriented_maxdeg2, gen_underlying_graphs
from switchdeck.report import Family, SearchReport, merge_reports
from switchdeck.spaces import CycleSpace, PathSpace

from ._oracles import (
    CYCLES,
    DIGON_CYCLES,
    MAXDEG2,
    ORIENTED,
    PATHS,
    TOURNAMENTS,
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
    return run_census("tournaments", (1, 8))


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


def test_switching_adjacent():
    assert switching_adjacent(PATH_FF, PATH_FB)
    assert switching_adjacent(PATH_FB, PATH_FF)
    out_star = from_arcs(3, [(1, 0), (1, 2)])
    assert not switching_adjacent(TRIANGLE, out_star)
    assert not switching_adjacent(ARC, PATH_FF)  # order mismatch is just False
    with pytest.raises(NotConnected):
        switching_adjacent(disjoint_union(ARC, K1), PATH_FF)


def test_possible_and_definite_components():
    from switchdeck.digraph import components

    universe = list(gen_oriented_maxdeg2(4))
    member = next(g for g in universe
                  if len(components(g).parts) > 1
                  and sum(deck(h) == deck(g) for h in universe) >= 2)
    with pytest.raises(UniverseNotClosed):
        possible_components(member, universe)
    with pytest.raises(UniverseNotClosed):
        definite_components(member, universe)
    poss = possible_components(member, universe, universe_closed=True)
    defi = definite_components(member, universe, universe_closed=True)
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


def test_disconnected_dichotomy_option_one():
    g, h = catalog.family("path-unions-8").members
    out = verify_disconnected_dichotomy(g, h)
    assert out["option"] == 1 and out["classes"] <= 4
    g, h = catalog.family("cycle-unions-8").members
    assert verify_disconnected_dichotomy(g, h)["option"] == 1


def test_disconnected_dichotomy_option_two():
    a, b = catalog.family("cycles-6a").members
    g, h = disjoint_union(a, ARC), disjoint_union(b, ARC)
    out = verify_disconnected_dichotomy(g, h)
    assert out == {"option": 2, "t": 2}


def test_disconnected_dichotomy_guards():
    g, h = catalog.family("path-unions-8").members
    with pytest.raises(OrderMismatch):
        verify_disconnected_dichotomy(g, disjoint_union(h, K1))
    with pytest.raises(NotDisconnected):
        verify_disconnected_dichotomy(g, from_arcs(8, [(i, i + 1) for i in range(7)]))
    with pytest.raises(IsomorphicInputs):
        verify_disconnected_dichotomy(g, g)
    with pytest.raises(HypothesisUnmet):
        verify_disconnected_dichotomy(g, disjoint_union(TRIANGLE, TRIANGLE,
                                                        ARC))
    a, b = catalog.family("cycles-6a").members
    with pytest.raises(HypothesisUnmet):  # stable parts differ: 2K1 vs arc
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
            for f in catalog.families_in_class("paths")}
    want.add((5, -1, ("&D??QI?", "&D?I?W?")))
    assert got == want


def test_cycles_census_matches_figure_families():
    report = run_census("cycles", (3, 8), (-1, None))
    assert report.counts == {n: CYCLES[n] for n in range(3, 9)}
    got = family_keyset(report)
    want = {(f.n, f.t, tuple(f.as_family().strings()))
            for f in catalog.families_in_class("cycles")}
    assert got == want


def test_tournament_census(tournament_report):
    report = tournament_report
    assert report.counts == {n: TOURNAMENTS[n] for n in range(1, 9)}
    shapes: dict[tuple[int, int], int] = {}
    for f in report.families:
        shapes[f.n, f.size] = shapes.get((f.n, f.size), 0) + 1
    assert shapes == {(4, 2): 1, (8, 2): 20, (8, 3): 4, (8, 4): 2}
    quad = next(f for f in report.families if f.size == 4 and f.n == 8)
    corpus = catalog.family("tournaments-8").as_family()
    assert any(f.members == corpus.members for f in report.families)
    assert quad.t == 0


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


def test_every_plain_deck_family_order_is_divisible_by_four(
        tournament_report, maxdeg2_report):
    for report in (run_census("paths", (1, 8)), run_census("cycles", (3, 8)),
                   tournament_report, maxdeg2_report):
        assert all(f.n % 4 == 0 for f in report.families), report.class_label


def test_shards_partition_the_search():
    whole = run_census("cycles", (3, 9), (-1, None))
    parts = [run_census("cycles", (3, 9), (-1, None), shard=(i, 3))
             for i in range(3)]
    merged = merge_reports(parts)
    assert family_keyset(merged) == family_keyset(whole)
    assert merged.counts == whole.counts


def test_chunked_and_regenerated_engine_paths_match_the_default(monkeypatch):
    """Tiny chunks split every domain; a tiny hold limit makes every space
    with more than 16 classes regenerate its signed chunks on each pass."""
    cases = [("cycles", (3, 12)), ("digon-cycles", (8, 10)), ("paths", (1, 12)),
             ("all-oriented", (1, 5))]
    default = [run_census(label, nr, (-1, None)) for label, nr in cases]
    signed = census._signed
    calls = []

    def counting(space, xs, n):
        calls.append(len(xs))
        return signed(space, xs, n)

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
    with pytest.raises(LengthMismatch):
        run_census("cycles", (5, 5))


def _scalar_reps(space, domain) -> list[int]:
    return [x for x in domain if space.orbit_min(x) == x]


def test_rep_scans_match_scalar_orbit_minima():
    for n in range(1, 11):
        space = PathSpace(n)
        assert space.reps() == _scalar_reps(space, range(1 << (n - 1)))
    for n in range(3, 11):
        space = CycleSpace(n)
        assert space.reps() == _scalar_reps(space, range(1 << n))
    for n in range(3, 8):
        space = CycleSpace(n, digons=True)
        domain = sorted(space.from_letters(w) for w in product(range(3), repeat=n))
        assert space.reps() == _scalar_reps(space, domain)
    for n in range(1, 6):
        for u in gen_underlying_graphs(n):
            space = OrientationSpace(u)
            scalar = _scalar_reps(space, range(1 << space.m))
            assert space.reps() == scalar


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
            perms = [p for p in space.aut.elements if not p.is_identity()]
            assert len(space.actions) == len(perms)
            if n == 1:
                assert not space.actions
            edgeless_with_actions += space.m == 0 and bool(space.actions)
            domain = range(space.domain_total)
            xs = np.arange(space.domain_total, dtype=np.uint64)
            for perm, action in zip(perms, space.actions):
                want = [space.act(action, x) for x in domain]
                assert space.act_array(action, xs).tolist() == want
                for x in (0, domain[-1]):
                    assert space.digraph(want[x]) == apply_perm(space.digraph(x), perm)
    assert edgeless_with_actions == 4  # n = 2..5


def test_orientation_count_matches_the_rep_scan():
    for n in range(1, 7):
        for u in gen_underlying_graphs(n):
            space = OrientationSpace(u)
            assert space.count() == len(space.reps_array())


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


def test_range_validation():
    with pytest.raises(RangeTooLarge):
        run_census("nonsense", (1, 4))
    with pytest.raises(RangeTooLarge):
        run_census("paths", (5, 4))
    with pytest.raises(RangeTooLarge):
        run_census("cycles", (2, 5))
    with pytest.raises(RangeTooLarge):
        run_census("tournaments", (1, 9))
    with pytest.raises(RangeTooLarge):
        run_census("maxdeg2", (17, 18), (0, 1), heavy=True)
    with pytest.raises(HeavyFlagRequired):
        run_census("cycles", (3, 21))
    with pytest.raises(HeavyFlagRequired):
        run_census("all-oriented", (8, 8))
    with pytest.raises(RangeTooLarge):
        run_census("cycles", (3, 9), shard=(3, 3))
