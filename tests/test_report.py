"""Family records, search reports, JSON round trips, and shard merging."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import switchdeck
from switchdeck.census import run_census
from switchdeck.digraph import from_arcs, parse_digraph6
from switchdeck.errors import HypothesisUnmet
from switchdeck.report import Family, SearchReport, make_family, merge_reports

P4A = from_arcs(4, [(0, 1), (1, 2), (2, 3)])
P4B = from_arcs(4, [(0, 1), (2, 1), (2, 3)])
ARC = from_arcs(2, [(0, 1)])


def test_make_family_checks_its_claim():
    fam = make_family("paths", 0, [P4A, P4B])
    assert fam.size == 2 and fam.n == 4 and fam.t == 0
    assert fam.members == tuple(sorted(fam.members))
    assert sorted(fam.strings()) == sorted(
        ["&C?qO", "&CGJ?"]) or len(fam.strings()) == 2
    with pytest.raises(HypothesisUnmet, match="pairwise non-isomorphic"):
        make_family("paths", 0, [P4A, P4A])
    with pytest.raises(HypothesisUnmet, match="share the 1-deck"):
        make_family("paths", 1, [P4A, P4B])


def test_family_checks_hold_under_python_O():
    code = (
        "from switchdeck import SwitchDeckError, VertexSet, make_family, parse_digraph6\n"
        "from switchdeck import maxdeg2_shapes, switch_set\n"
        "from switchdeck.cycles import CycleOrientation, Rotation\n"
        "print(__debug__)\n"
        "for call in (\n"
        "    lambda: make_family('x', 0, [parse_digraph6('&BP_'), parse_digraph6('&B?o')]),\n"
        "    lambda: CycleOrientation(3, (0, 1)),\n"
        "    lambda: CycleOrientation(3, (0, 1, 7)),\n"
        "    lambda: Rotation(-2, 1),\n"
        "    lambda: maxdeg2_shapes(0),\n"
        "    lambda: switch_set(parse_digraph6('&BP_'), VertexSet(2, 1)),\n"
        "):\n"
        "    try:\n"
        "        call()\n"
        "    except SwitchDeckError:\n"
        "        print('raised')\n"
    )
    src = str(Path(switchdeck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] + ["raised"] * 6
    with pytest.raises(HypothesisUnmet):
        Family("x", 3, 0, (b"b", b"a"))  # unsorted members


def test_family_round_trips_through_strings():
    fam = make_family("paths", 0, [P4A, P4B])
    back = [parse_digraph6(s) for s in fam.strings()]
    assert make_family("paths", 0, back) == fam
    d = fam.to_dict()
    assert d["n"] == 4 and d["t"] == 0 and len(d["members"]) == 2


def test_report_dict_schema_and_json_round_trip():
    rep = SearchReport("paths", (1, 4), (0, 1))
    rep.families.append(make_family("paths", 0, [P4A, P4B]))
    rep.counts = {3: 3, 4: 4}
    rep.elapsed_ms = 12
    d = rep.to_dict()
    assert set(d) == {"class", "n_range", "t_range", "families",
                      "counts", "elapsed_ms"}
    assert d["class"] == "paths" and d["n_range"] == [1, 4]
    assert d["counts"] == {"3": 3, "4": 4}
    back = SearchReport.from_json(rep.to_json())
    assert back.families == rep.families
    assert back.counts == rep.counts
    assert back.n_range == rep.n_range and back.t_range == rep.t_range


def test_summary_lines():
    rep = SearchReport("paths", (3, 5), (-1, None))
    rep.families.append(make_family("paths", 0, [P4A, P4B]))
    lines = rep.summary_lines()
    assert lines[0] == "class=paths n=3..5 t=-1..n"
    assert lines[1].startswith("n=4 t=0 size=2: ")
    assert lines[-2] == "families: n=4:1"
    assert lines[-1].startswith("elapsed:")
    assert SearchReport("paths", (1, 2), None).summary_lines()[-2] == \
        "families: none"


def test_families_sorted_by_order_then_t_then_members():
    rep = SearchReport("paths", (2, 4), (0, 1))
    fam_a = make_family("paths", 0, [P4A, P4B])
    fam_b = Family("paths", 3, 1, tuple(sorted(
        make_family("paths", 0, [P4A, P4B]).members))[:2])
    rep.families = [fam_a]
    d = rep.to_dict()
    assert [f["n"] for f in d["families"]] == [4]
    rep.families = [fam_a, fam_a]
    assert len(rep.to_dict()["families"]) == 2  # serialization never dedupes


def test_merge_reports_unions_families_and_adds_counts():
    a = SearchReport("paths", (1, 4), (0, 0))
    b = SearchReport("paths", (5, 6), (0, 0))
    fam = make_family("paths", 0, [P4A, P4B])
    a.families = [fam]
    a.counts = {4: 4}
    b.counts = {5: 10, 6: 20}
    merged = merge_reports([a, b])
    assert merged.n_range == (1, 6)
    assert merged.families == [fam]
    assert merged.counts == {4: 4, 5: 10, 6: 20}
    assert [f for f in merged.families if f.n == 4] == [fam]
    assert [f for f in merged.families if f.n == 5] == []
    s0 = SearchReport("paths", (1, 4), (0, 0), shard=(0, 2))
    s1 = SearchReport("paths", (1, 4), (0, 0), shard=(1, 2))
    s0.families = [fam]
    s1.families = [fam]
    s0.counts = {4: 4}
    s1.counts = {3: 3, 4: 6}
    merged = merge_reports([s0, s1])
    assert merged.families == [fam]  # duplicates collapse
    assert merged.counts == {3: 3, 4: 10}
    with pytest.raises(HypothesisUnmet):
        merge_reports([])


def _in_memory_report(**change) -> SearchReport:
    rep = SearchReport("paths", (3, 5), (0, 1))
    rep.families = [make_family("paths", 0, [P4A, P4B])]
    rep.counts = {3: 2, 4: 4, 5: 6}
    for name, value in change.items():
        setattr(rep, name, value)
    return rep


@pytest.mark.parametrize("change", [
    {"counts": {3: 2, 4: 4, 5: 6, 9: 7}},                         # order outside 3..5
    {"counts": {3: 2, 4: -4, 5: 6}},                              # negative count
    {"families": [Family("paths", 6, 0, (b"a", b"b"))]},          # family above the orders
    {"families": [Family("paths", 4, 2, (b"a", b"b"))]},          # family above the t range
    {"n_range": (5, 3)},                                          # inverted orders
    {"t_range": (1, 0), "families": []},                          # inverted t range
    {"t_range": (-2, None)},                                      # t below -1
])
def test_merge_checks_every_in_memory_report_against_its_ranges(change):
    good = _in_memory_report()
    assert merge_reports([good]).counts == good.counts
    bad = _in_memory_report(**change)
    with pytest.raises(HypothesisUnmet):
        merge_reports([bad])
    with pytest.raises(HypothesisUnmet):
        merge_reports([SearchReport("paths", (1, 2), (0, 1)), bad])


@pytest.fixture(scope="module")
def cycle_shards():
    return [run_census("cycles", (3, 6), (-1, None), shard=(i, 2)) for i in range(2)]


def test_report_carries_its_shard(cycle_shards):
    a, b = cycle_shards
    assert (a.shard, b.shard) == ((0, 2), (1, 2))
    assert a.to_dict()["shard"] == [0, 2]
    assert SearchReport.from_json(a.to_json()).shard == (0, 2)
    whole = run_census("cycles", (3, 6), (-1, None))
    assert whole.shard is None and "shard" not in whole.to_dict()
    merged = merge_reports(cycle_shards)
    assert merged.shard is None
    assert merged.counts == whole.counts
    assert sorted(f.members for f in merged.families) == \
        sorted(f.members for f in whole.families)


def test_merge_rejects_anything_but_one_complete_shard_set(cycle_shards):
    a, b = cycle_shards
    with pytest.raises(HypothesisUnmet):
        merge_reports([a, a])  # repeated index: counts would double
    with pytest.raises(HypothesisUnmet):
        merge_reports([a])  # index 1 missing
    with pytest.raises(HypothesisUnmet):
        merge_reports([a, b, run_census("cycles", (3, 6), (-1, None), shard=(2, 3))])
    with pytest.raises(HypothesisUnmet):
        merge_reports([a, run_census("cycles", (3, 6), (-1, None))])
    with pytest.raises(HypothesisUnmet):
        merge_reports([a, run_census("cycles", (3, 6), (0, 0), shard=(1, 2))])
    with pytest.raises(HypothesisUnmet):
        merge_reports([a, run_census("paths", (3, 6), (-1, None), shard=(1, 2))])
    with pytest.raises(HypothesisUnmet):
        merge_reports([a, run_census("cycles", (3, 7), (-1, None), shard=(1, 2))])


@pytest.mark.parametrize("change", [
    {"counts": {"3": 2, "4": 4, "5": 4, "6": 9, "99": 7}},  # order outside 3..6
    {"counts": {"3": 2, "4": -4, "5": 4, "6": 9}},           # negative count
    {"n_range": [6, 3]},                                     # inverted orders
    {"shard": [5, 2]},                                       # index outside 0..1
    {"shard": [0, 0]},                                       # no shards at all
    {"t_range": [0, 0]},                                     # t = -1, 1, 2 families
    {"t_range": None},                                       # null means t = 0
    {"t_range": [-1, 1]},                                    # the t = 2 families
    {"n_range": [3, 5], "counts": {"3": 2, "4": 4, "5": 4}},  # order-6 families
    {"t_range": [7, 1], "families": []},                     # inverted t range
    {"t_range": [-4, None]},                                 # t below -1
])
def test_report_json_outside_its_ranges_is_rejected(change):
    good = run_census("cycles", (3, 6), (-1, None)).to_dict()
    assert SearchReport.from_dict(good).counts == {3: 2, 4: 4, 5: 4, 6: 9}
    with pytest.raises(HypothesisUnmet):
        SearchReport.from_dict({**good, **change})


def test_merge_rejects_unsharded_reports_with_overlapping_orders():
    a = run_census("paths", (3, 5))
    with pytest.raises(HypothesisUnmet):
        merge_reports([a, a])  # counts would double to {3: 6, 4: 8, 5: 20}
    with pytest.raises(HypothesisUnmet):
        merge_reports([a, run_census("paths", (4, 6))])  # 4 and 5 counted twice
    assert merge_reports([a, run_census("paths", (6, 6))]).counts == \
        run_census("paths", (3, 6)).counts
