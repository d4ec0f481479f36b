"""The bundled reference families and their self-verification."""

from dataclasses import replace

import pytest

from switchdeck import catalog
from switchdeck.canon import canonical_code
from switchdeck.decks import matching_t, t_deck
from switchdeck.digraph import format_digraph6
from switchdeck.stability import is_switching_stable


def test_corpus_inventory():
    assert len(catalog.FAMILIES) == 20
    keys = [f.key for f in catalog.FAMILIES]
    assert len(set(keys)) == 20
    by_label = {"paths": 3, "cycles": 13, "maxdeg2": 2,
                "tournaments": 1, "digon-cycles": 1}
    for label, want in by_label.items():
        assert len([f for f in catalog.FAMILIES if f.class_label == label]) == want


def test_family_lookup():
    fam = catalog.family("paths-3")
    assert fam.n == 3 and fam.t == 1 and len(fam.members) == 3
    with pytest.raises(KeyError):
        catalog.family("paths-99")


def test_stable_reference_graphs():
    assert [g.n for g in catalog.STABLE_CONNECTED] == [1, 2, 4]
    assert all(is_switching_stable(g) for g in catalog.STABLE_CONNECTED)
    assert format_digraph6(catalog.STABLE_4_CYCLE) == "&CWOG"


def test_every_family_shares_its_t_deck():
    for fam in catalog.FAMILIES:
        codes = {canonical_code(g) for g in fam.members}
        assert len(codes) == len(fam.members), fam.key
        ds = [t_deck(g, fam.t) for g in fam.members]
        assert all(d == ds[0] for d in ds), fam.key
        first, second = fam.members[0], fam.members[1]
        assert matching_t(first, second) == fam.t


def test_verify_corpus_passes_every_group():
    results = catalog.verify_corpus()
    assert [name for name, _, _ in results] == [g for g, _ in catalog.CHECK_GROUPS]
    assert len(results) == 13
    for name, ok, detail in results:
        assert ok, f"{name}: {detail}"


def test_verify_corpus_reports_a_group_that_fails_its_checks(monkeypatch):
    paths = catalog.family("paths-3")
    triangle = catalog.family("cycles-3").members[0]
    for members, detail in [
            ((paths.members[0],) * 2, "family members must be pairwise non-isomorphic"),
            ((paths.members[0], triangle), "family members must share the 1-deck")]:
        monkeypatch.setitem(catalog._BY_KEY, "paths-3", replace(paths, members=members))
        rows = {name: (ok, d) for name, ok, d in catalog.verify_corpus()}
        assert rows["paths-3"] == (False, f"paths-3: {detail}")
        assert rows["paths-4"][0]


def test_expected_families_match_figures():
    fams = [f.as_family() for f in catalog.FAMILIES if f.class_label == "cycles"]
    assert len(fams) == 13
    assert sorted({f.t for f in fams}) == [-1, 0, 1, 2]
    assert {f.as_family().n for f in catalog.FAMILIES if f.class_label == "maxdeg2"} == {8}
