"""Exhaustive generators against independent counting oracles."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from switchdeck import canon, census, cli, generate
from switchdeck.canon import canonical_code
from switchdeck.census import run_census
from switchdeck.digraph import EMPTY, Digraph, format_digraph6, is_connected, underlying
from switchdeck.errors import HeavyFlagRequired, OutOfRange
from switchdeck.generate import (
    CLASS_BOUNDS,
    TournamentSpace,
    check_orders,
    gen_all_oriented,
    gen_oriented_cycles,
    gen_oriented_maxdeg2,
    gen_oriented_paths,
    gen_tournaments,
    gen_underlying_graphs,
    maxdeg2_shapes,
)
from switchdeck.spaces import card_table
from switchdeck.stability import classify_stable_connected
from switchdeck.switching import switch_vertex

from . import _oracles

from ._oracles import (
    CYCLES,
    DIGON_CYCLES,
    GRAPHS,
    MAXDEG2,
    ORIENTED,
    PATHS,
    TOURNAMENTS,
)


def distinct_codes(graphs) -> set[bytes]:
    out = set()
    for g in graphs:
        code = canonical_code(g)
        assert code not in out, "generator emitted an isomorphic duplicate"
        out.add(code)
    return out


@pytest.mark.parametrize("n", range(1, 8))
def test_oracle_formulas_are_self_consistent(n):
    assert _oracles.count_paths(n) == PATHS[n]
    assert _oracles.count_tournaments(n) == TOURNAMENTS[n]
    assert _oracles.count_graphs(n) == GRAPHS[n]
    assert _oracles.count_oriented(n) == ORIENTED[n]
    if n >= 3:
        assert _oracles.count_cycles(n) == CYCLES[n]
        assert _oracles.count_digon_cycles(n) == DIGON_CYCLES[n]
    assert _oracles.count_maxdeg2(n) == MAXDEG2[n]


@pytest.mark.parametrize("n", range(1, 9))
def test_path_generator_counts(n):
    paths = distinct_codes(gen_oriented_paths(n))
    assert len(paths) == PATHS[n]


@pytest.mark.parametrize("n", range(3, 9))
def test_cycle_generator_counts(n):
    assert len(distinct_codes(gen_oriented_cycles(n))) == CYCLES[n]
    assert len(distinct_codes(gen_oriented_cycles(n, digons=True))) == \
        DIGON_CYCLES[n]


@pytest.mark.parametrize("n", range(1, 9))
def test_maxdeg2_generator_counts(n):
    graphs = list(gen_oriented_maxdeg2(n))
    assert len(distinct_codes(graphs)) == MAXDEG2[n]
    for g in graphs:
        u = underlying(g)
        assert all(bin(m).count("1") <= 2 for m in u.adj)


# sha256 of the `gen maxdeg2 n` lines for n = 1..10, 3,924 classes: pins
# the order as well as the set, which the counts above leave free
MAXDEG2_LINES_SHA256 = "b24a410b66a398d5848d78d50e1ead7ebcf23ff9042b4e168e8684b0de31a40e"


def test_maxdeg2_generator_order_matches_the_pinned_digest():
    digest = hashlib.sha256()
    for n in range(1, 11):
        for g in gen_oriented_maxdeg2(n):
            digest.update(format_digraph6(g).encode() + b"\n")
    assert digest.hexdigest() == MAXDEG2_LINES_SHA256


@pytest.mark.parametrize("n", range(1, 7))
def test_tournament_generator_counts(n):
    ts = list(gen_tournaments(n))
    assert len(distinct_codes(ts)) == TOURNAMENTS[n]
    for g in ts:
        for v in range(n):
            for w in range(v + 1, n):
                assert ((g.out[v] >> w) & 1) != ((g.out[w] >> v) & 1)


def test_tournament_space_cards_match_one_search_per_card():
    """Every class of order 1..7: the space's classes are gen_tournaments',
    in order and in ascending code order, and the card at each vertex, read
    off the last level's child codes, is the class of that vertex switch.
    scan_reps at chunk sizes 1 and 7 gives uint64 chunks of at most that
    many classes, which join to reps_array(), as the default chunk does."""
    for n in range(1, 8):
        space = TournamentSpace(n)
        xs = space.reps_array()
        assert xs.dtype == np.uint64 and xs.tolist() == list(range(space.count()))
        for chunk in (1, 7):
            chunks = list(space.scan_reps(chunk))
            assert all(c.dtype == np.uint64 and len(c) <= chunk for c in chunks)
            assert np.array_equal(np.concatenate(chunks), xs)
        graphs = [space.digraph(x) for x in xs.tolist()]
        assert graphs == list(gen_tournaments(n))
        codes = [canonical_code(g) for g in graphs]
        assert codes == sorted(set(codes))
        table = card_table(space, xs)
        for v in range(n):
            assert [codes[x] for x in table[v].tolist()] == \
                [canonical_code(switch_vertex(g, v)) for g in graphs]


def _children(parent: Digraph) -> list[Digraph]:
    """Child(P, q) for every pattern q, in order: the new vertex k beats
    exactly the vertices in the bits of q."""
    k = parent.n
    return [Digraph(k + 1, tuple(o | (0 if q >> v & 1 else 1 << k)
                                 for v, o in enumerate(parent.out)) + (q,))
            for q in range(1 << k)]


def _root_is_discrete(g: Digraph) -> bool:
    return len(canon._stable_partition(g.n, g.out, None, [list(range(g.n))])) == g.n


def test_tournament_level_codes_match_the_canonical_search():
    """The numpy codes are canonical_code's: for every child of orders 1..7,
    and at order 8 for every child whose root refinement is not discrete
    plus a seeded sample of 2,000 others.  Each level's parents are the last
    level's classes, kept codes ascend, kept holds the first child per code,
    and rows[i, q] is the class of the q-th child of parents[i]."""
    rng = random.Random(8)
    for n in range(1, 9):
        parents, kept, rows = generate._tournament_level(n)
        assert parents == (list(gen_tournaments(n - 1)) if n > 1 else [EMPTY])
        children = [c for p in parents for c in _children(p)]
        codes = canon.batch_codes(
            np.array([c.out for c in children], dtype=np.uint8))[0].tolist()
        checked = range(len(children))
        if n == 8:
            discrete = [x for x, c in enumerate(children) if _root_is_discrete(c)]
            assert 2000 < len(discrete) < len(children)
            checked = sorted(set(checked) - set(discrete)) + rng.sample(discrete, 2000)
        kept_codes = [code for code, *_ in kept]
        assert kept_codes == sorted(set(kept_codes)) == sorted(set(codes))
        first: dict[int, int] = {}
        for x, c in enumerate(rows.ravel().tolist()):
            first.setdefault(c, x)
        assert [(i << (n - 1)) + q for _, i, q, _ in kept] == [first[c] for c in range(len(kept))]
        assert [g for *_, g in kept] == [children[first[c]] for c in range(len(kept))]
        size = (n * n + 7) >> 3
        for x in checked:
            want = canonical_code(children[x])
            assert bytes([n]) + codes[x].to_bytes(size, "big") == want
            assert bytes([n]) + kept_codes[rows.flat[x]].to_bytes(size, "big") == want


@pytest.mark.parametrize("n", range(1, 8))
def test_underlying_generator_counts(n):
    us = list(gen_underlying_graphs(n))
    assert len(us) == GRAPHS[n]
    keys = [(sum(map(int.bit_count, u.adj)) // 2, canonical_code(Digraph(n, u.adj)))
            for u in us]
    assert len(distinct_codes(Digraph(n, u.adj) for u in us)) == len(us)
    assert keys == sorted(keys)
    assert sum(1 for u in us if is_connected(u)) == \
        _oracles.count_connected_graphs(n)


# sha256 of the `gen underlying n` lines for n = 1..7, 1,252 classes, pinned
# while the generator still pruned by the whole automorphism group
UNDERLYING_LINES_SHA256 = "b9363f22528e831dc037a0754b294d73df986da2a6ee49dc021b3cec19115086"


def _underlying_lines_digest() -> str:
    digest = hashlib.sha256()
    for n in range(1, 8):
        for u in gen_underlying_graphs(n):
            digest.update(format_digraph6(Digraph(n, u.adj)).encode() + b"\n")
    return digest.hexdigest()


def test_underlying_generator_order_matches_the_pinned_digest():
    assert _underlying_lines_digest() == UNDERLYING_LINES_SHA256


def test_levels_are_unchanged_with_no_batch_individualisation(monkeypatch):
    """With canon._BATCH_DEPTH at 0 every row whose root partition is not
    discrete takes the scalar search, so the expansion below the root is
    pruned away: the underlying lines keep their digest and the tournament
    levels and cards of orders 1..7 stay as they are."""
    levels = [generate._tournament_level(n) for n in range(1, 8)]
    cards = [TournamentSpace(n).cards.tolist() for n in range(1, 8)]
    monkeypatch.setattr(canon, "_BATCH_DEPTH", 0)
    assert _underlying_lines_digest() == UNDERLYING_LINES_SHA256
    for n, (parents, kept, rows) in enumerate(levels, 1):
        got_parents, got_kept, got_rows = generate._tournament_level(n)
        assert got_parents == parents and got_kept == kept
        assert got_rows.tolist() == rows.tolist()
    assert [TournamentSpace(n).cards.tolist() for n in range(1, 8)] == cards


@pytest.mark.parametrize("n", range(1, 7))
def test_all_oriented_counts(n):
    assert len(distinct_codes(gen_all_oriented(n))) == ORIENTED[n]


def test_maxdeg2_shapes_partition_the_class():
    for n in range(1, 9):
        shapes = maxdeg2_shapes(n)
        assert len(shapes) == len(set(shapes))


def test_generator_bounds():
    with pytest.raises(OutOfRange):
        list(gen_oriented_paths(0))
    with pytest.raises(OutOfRange):
        list(gen_oriented_cycles(2))
    with pytest.raises(OutOfRange):
        list(gen_underlying_graphs(9))
    with pytest.raises(OutOfRange, match="need at least 1 vertex"):
        maxdeg2_shapes(0)
    with pytest.raises(OutOfRange, match="unknown class 'nope'"):
        check_orders("nope", 1, 1)
    # each generator checks its order at the first next(), before any scan
    for gen, label, n in [(gen_oriented_paths, "paths", 31),
                          (gen_oriented_cycles, "cycles", 31),
                          (lambda n: gen_oriented_cycles(n, digons=True), "digon-cycles", 21),
                          (gen_oriented_maxdeg2, "maxdeg2", 17)]:
        with pytest.raises(OutOfRange, match=f"{label} supports"):
            next(gen(n))


def _library_entry(label: str, n: int, heavy: bool):
    """Call the library entry point of a bounds row at order n."""
    if label == "underlying":
        return next(gen_underlying_graphs(n))
    if label == "stable":
        # classify_stable_connected runs any order in range; its heavy gate
        # is check_orders' to apply
        check_orders(label, n, n, heavy)
        return classify_stable_connected(n)
    return run_census(label, (n, n), heavy=heavy)


def _cli_args(label: str, n: int) -> list[str]:
    if label == "underlying":
        return ["gen", label, str(n)]
    if label == "stable":
        return ["stable", f"{n}..{n}"]
    return ["families", label, f"{n}..{n}"]


@pytest.mark.parametrize("label", sorted(CLASS_BOUNDS))
def test_every_bounds_row_rejects_its_edges_before_enumerating(label, monkeypatch, capsys):
    def enumerated(*args, **kwargs):
        raise AssertionError(f"{label} enumerated before its order check")

    for owner, name in ((generate, "_level"), (generate, "_tournament_level"),
                        (canon, "batch_codes"), (census, "_space_census"),
                        (census, "_census_shapes"), (census, "_census_reduced_span")):
        monkeypatch.setattr(owner, name, enumerated)
    n_min, n_max, heavy_over = CLASS_BOUNDS[label]
    cases = [(n_min - 1, OutOfRange, cli.EXIT_USAGE), (n_max + 1, OutOfRange, cli.EXIT_USAGE)]
    if heavy_over < n_max:
        cases.append((heavy_over + 1, HeavyFlagRequired, cli.EXIT_HEAVY))
    for n, error, code in cases:
        with pytest.raises(error):
            _library_entry(label, n, heavy=False)
        assert cli.main(_cli_args(label, n)) == code
        assert capsys.readouterr().out == ""
