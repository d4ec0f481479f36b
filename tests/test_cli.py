"""Command-line interface: subcommands, exit codes, and output shapes."""

from __future__ import annotations

import json

import pytest

from switchdeck import census, cli
from switchdeck.digraph import parse_digraph6
from switchdeck.report import SearchReport

from ._oracles import CYCLES, DIGON_CYCLES, GRAPHS, PATHS


def run(capsys, *argv: str) -> tuple[int, str, str]:
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_gen_streams_distinct_parseable_lines(capsys):
    rc, out, _ = run(capsys, "gen", "paths", "4")
    assert rc == cli.EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 4 and len(set(lines)) == 4
    for line in lines:
        assert parse_digraph6(line).n == 4


def test_gen_count_flag(capsys):
    rc, out, _ = run(capsys, "gen", "maxdeg2", "8", "--count")
    assert rc == cli.EXIT_OK and out.strip() == "430"
    rc, out, _ = run(capsys, "gen", "tournaments", "6", "--count")
    assert rc == cli.EXIT_OK and out.strip() == "56"


@pytest.mark.parametrize("label, counts", [
    ("paths", PATHS), ("cycles", CYCLES), ("digon-cycles", DIGON_CYCLES), ("underlying", GRAPHS),
])
def test_gen_count_matches_the_streamed_lines_and_the_known_counts(capsys, label, counts):
    """--count, from the space's Burnside count or by enumeration, against
    the number of distinct lines gen streams, for every order up to 7."""
    for n in (n for n in counts if n <= 7):
        rc, out, _ = run(capsys, "gen", label, str(n))
        assert rc == cli.EXIT_OK
        lines = out.splitlines()
        assert len(set(lines)) == len(lines) == counts[n]
        assert all(parse_digraph6(line).n == n for line in lines)
        rc, out, _ = run(capsys, "gen", label, str(n), "--count")
        assert rc == cli.EXIT_OK and out == f"{counts[n]}\n"


def test_gen_bounds_and_heavy_gate(capsys):
    rc, _, err = run(capsys, "gen", "underlying", "9")
    assert rc == cli.EXIT_USAGE and "error:" in err
    rc, _, err = run(capsys, "gen", "cycles", "21")
    assert rc == cli.EXIT_HEAVY and "heavy" in err
    rc, _, err = run(capsys, "gen", "maxdeg2", "17")
    assert rc == cli.EXIT_USAGE and "1..16" in err


def test_deck_output(capsys):
    rc, out, _ = run(capsys, "deck", "&@?")
    assert rc == cli.EXIT_OK and out.strip() == "&@? x1"
    rc, out, _ = run(capsys, "deck", "&BP_")
    assert rc == cli.EXIT_OK and out.strip() == "&BCo x3"


def test_deck_missing_own_card(capsys):
    rc, _, err = run(capsys, "deck", "&BP_", "-t", "-1")
    assert rc == cli.EXIT_CARD and "error:" in err


def test_deck_rejects_t_below_minus_one(capsys):
    rc, out, err = run(capsys, "deck", "&BP_", "-t", "-2")
    assert rc == cli.EXIT_USAGE and out == "" and "error:" in err


def test_deck_malformed_input(capsys):
    rc, _, err = run(capsys, "deck", "not-digraph6")
    assert rc == cli.EXIT_USAGE and "error:" in err


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_families_summary_output(capsys):
    rc, out, _ = run(capsys, "families", "paths", "1..8", "-1..n")
    assert rc == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "class=paths n=1..8 t=-1..n"
    assert "n=5 t=-1 size=2: &D??QI? &D?I?W?" in lines
    assert "families: n=3:1, n=4:2, n=5:1" in lines
    assert lines[-1].startswith("elapsed:")


def test_families_json_round_trips(capsys):
    rc, out, _ = run(capsys, "families", "cycles", "3..8", "-1..n", "--json")
    assert rc == cli.EXIT_OK
    data = json.loads(out)
    assert set(data) == {"class", "n_range", "t_range", "families",
                         "counts", "elapsed_ms"}
    report = SearchReport.from_json(out)
    assert len(report.families) == 13
    assert report.counts[8] == 22


def test_families_range_errors(capsys):
    rc, _, err = run(capsys, "families", "paths", "8..3")
    assert rc == cli.EXIT_USAGE and "error:" in err
    rc, _, err = run(capsys, "families", "cycles", "3..21")
    assert rc == cli.EXIT_HEAVY
    rc, out, err = run(capsys, "families", "paths", "3..5", "2..1")
    assert rc == cli.EXIT_USAGE and out == "" and "error:" in err


def test_families_shard_merge(capsys, tmp_path):
    paths = []
    for i in range(2):
        rc, out, _ = run(capsys, "families", "cycles", "3..8", "0..n",
                         "--json", "--shard", f"{i}/2")
        assert rc == cli.EXIT_OK
        path = tmp_path / f"shard{i}.json"
        path.write_text(out)
        paths.append(str(path))
    rc, merged_out, _ = run(capsys, "merge", *paths)
    assert rc == cli.EXIT_OK
    merged = SearchReport.from_json(merged_out)
    rc, whole_out, _ = run(capsys, "families", "cycles", "3..8", "0..n",
                           "--json")
    whole = SearchReport.from_json(whole_out)
    assert sorted(f.members for f in merged.families) == \
        sorted(f.members for f in whole.families)
    assert merged.counts == whole.counts


def test_merge_rejects_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "merge", str(bad))
    assert rc == cli.EXIT_USAGE and "error:" in err


def test_stable_subcommand(capsys):
    rc, out, err = run(capsys, "stable", "1..7")
    assert rc == cli.EXIT_OK
    assert out.split() == ["&@?", "&AO", "&CWOG"]
    assert "stable connected: 3" in err
    rc, _, err = run(capsys, "stable", "1..8")
    assert rc == cli.EXIT_HEAVY
    rc, _, err = run(capsys, "stable", "5..3")
    assert rc == cli.EXIT_USAGE and "error:" in err
    rc, out, err = run(capsys, "stable", "1..9", "--heavy")
    assert rc == cli.EXIT_USAGE and "error:" in err
    assert out == ""


def test_gamma_subcommand(capsys):
    rc, out, _ = run(capsys, "gamma", "&AO")
    lines = out.splitlines()
    assert lines[0] == "aut=1 gamma=2 w-pairs=2"
    assert len(lines) == 3
    assert any(line.endswith("[aut+switch]") for line in lines[1:])
    rc, out, _ = run(capsys, "gamma", "&CWOG")
    assert out.splitlines()[0] == "aut=1 gamma=8 w-pairs=8"


def test_cycles_subcommand(capsys):
    rc, out, _ = run(capsys, "cycles", "FFFB", "--rotation", "1")
    assert rc == cli.EXIT_OK and out.strip() == "r=1 W={0} dist={}"
    rc, out, _ = run(capsys, "cycles", "FBFB", "--rotation", "1")
    assert out.strip() == "r=1 W=none"
    rc, out, _ = run(capsys, "cycles", "B" + "F" * 14,
                     "--rotation", "2", "--size-check")
    lines = out.splitlines()
    assert lines[0] == "r=2 W={1,2} dist={1}"
    assert lines[1] == "r=2 size-check |W|=2 reconstructed=2 holds=True"


def test_cycles_names_an_unknown_letter(capsys):
    rc, out, err = run(capsys, "cycles", "FXB")
    assert rc == cli.EXIT_USAGE and out == ""
    assert "'X' is not one of F, B, D" in err


def test_cycles_scans_all_rotations_by_default(capsys):
    rc, out, _ = run(capsys, "cycles", "FFFFF")
    lines = out.splitlines()
    assert len(lines) == 4  # rotations 1..4
    assert all(line.endswith("W={} dist={}") for line in lines)


@pytest.mark.parametrize("edit, field", [
    (lambda data: {}, "no 'class' field"),
    (lambda data: {**data, "families": [{k: v for k, v in fd.items() if k != "t"}
                                        for fd in data["families"]]}, "no 't' field"),
    (lambda data: {**data, "counts": [1]}, "field 'counts'"),
    (lambda data: [1, 2], "JSON object"),
    (lambda data: {**data, "n_range": [3]}, "field 'n_range'"),
], ids=["empty-object", "family-without-t", "counts-list", "top-level-list", "one-order"])
def test_merge_names_a_missing_or_malformed_field(capsys, tmp_path, edit, field):
    rc, out, _ = run(capsys, "families", "cycles", "3..6", "-1..n", "--json")
    assert rc == cli.EXIT_OK and json.loads(out)["families"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(json.loads(out))))
    rc, out, err = run(capsys, "merge", str(path))
    assert rc == cli.EXIT_USAGE and out == ""
    assert "error:" in err and field in err


def test_families_exits_5_when_a_family_breaks_the_dichotomy(capsys, monkeypatch):
    # path-unions-8 has a member with two non-isomorphic components, so
    # reading every pair as switching-adjacent must trip the structural guard
    monkeypatch.setattr(census, "switching_adjacent", lambda a, b: True)
    rc, out, err = run(capsys, "families", "maxdeg2", "8")
    assert rc == cli.EXIT_DICHOTOMY and out == "" and "error:" in err


def test_merge_rejects_a_repeated_shard(capsys, tmp_path):
    rc, out, _ = run(capsys, "families", "cycles", "3..6", "--json", "--shard", "0/2")
    assert rc == cli.EXIT_OK
    path = tmp_path / "shard0.json"
    path.write_text(out)
    rc, _, err = run(capsys, "merge", str(path), str(path))
    assert rc == cli.EXIT_USAGE and "error:" in err


def test_merge_rejects_a_count_outside_the_order_range(capsys, tmp_path):
    paths = []
    for i in range(2):
        rc, out, _ = run(capsys, "families", "cycles", "3..6", "--json", "--shard", f"{i}/2")
        assert rc == cli.EXIT_OK
        data = json.loads(out)
        if i == 1:
            data["counts"]["99"] = 7
        path = tmp_path / f"shard{i}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    rc, out, err = run(capsys, "merge", *paths)
    assert rc == cli.EXIT_USAGE and out == ""
    assert "count 7 at order 99" in err


def test_verify_figures(capsys):
    rc, out, _ = run(capsys, "verify-figures")
    assert rc == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[-1] == "13/13 figure groups verified"
    assert all(line.startswith("ok ") for line in lines[:-1])


def test_families_output_is_deterministic(capsys):
    def stable_lines(text: str) -> list[str]:
        return [l for l in text.splitlines() if not l.startswith("elapsed:")]

    _, first, _ = run(capsys, "families", "maxdeg2", "1..8")
    _, second, _ = run(capsys, "families", "maxdeg2", "1..8")
    assert stable_lines(first) == stable_lines(second)


def test_families_rejects_a_shard_count_below_one(capsys):
    rc, out, err = run(capsys, "families", "cycles", "3..5", "--shard", "0/0")
    assert rc == cli.EXIT_USAGE and out == ""
    assert "shard count must be at least 1" in err


def test_merge_rejects_overlapping_unsharded_reports(capsys, tmp_path):
    paths = []
    for n_range in ("3..5", "4..6"):
        rc, out, _ = run(capsys, "families", "paths", n_range, "--json")
        assert rc == cli.EXIT_OK
        paths.append(tmp_path / f"{n_range}.json")
        paths[-1].write_text(out)
    rc, out, err = run(capsys, "merge", *map(str, paths))
    assert rc == cli.EXIT_USAGE and out == "" and "overlap" in err


def test_maxdeg2_t_limit_is_reported_before_the_heavy_gate(capsys):
    for flags in ((), ("--heavy",)):
        rc, out, err = run(capsys, "families", "maxdeg2", "17..18", "0..1", *flags)
        assert rc == cli.EXIT_USAGE and out == ""
        assert "support plain decks (t = 0) only" in err


@pytest.mark.parametrize("argv, bad, form", [
    (("families", "cycles", "3..5", "--shard", "1"), "'1'", "I/K"),
    (("families", "cycles", "3..5", "--shard", "0/x"), "'0/x'", "I/K"),
    (("families", "cycles", "3..x"), "'3..x'", "N or LO..HI"),
    (("families", "cycles", "3.."), "'3..'", "N or LO..HI"),
    (("stable", "one"), "'one'", "N or LO..HI"),
    (("families", "cycles", "3..5", "n"), "'n'", "T, LO..HI or LO..n"),
    (("families", "cycles", "3..5", "0..m"), "'0..m'", "T, LO..HI or LO..n"),
])
def test_malformed_ranges_and_shards_name_the_value_and_the_form(capsys, argv, bad, form):
    rc, out, err = run(capsys, *argv)
    assert rc == cli.EXIT_USAGE and out == ""
    assert bad in err and form in err
    assert "unpack" not in err and "int()" not in err
