"""Deck-equivalence censuses over whole graph classes.

run_census enumerates every isomorphism class of a class label over a range
of orders, groups the classes that share a t-deck, and returns the families
in a SearchReport.

Paths, cycles, digon cycles and the orientations of each underlying graph
all go through one engine, _space_census.  It walks the space's orbit-minimum
representatives in domain chunks and gives each one a 64-bit signature: the
wrapping sum of a mixed class id per card, adjusted per t by the mixed id of
the representative itself.  Equal t-decks always give equal signatures, so
every family lies inside a set of colliding signatures; the colliding
representatives are then regrouped by their exact sorted card lists and each
family is re-verified as it is built, so the output is exact.

Grouping decomposes soundly: every card of a digraph keeps the labelled
underlying graph, so graphs with equal decks share their underlying class
(and in particular their max-degree-2 shape), and families never straddle
underlying classes.
"""

from __future__ import annotations

import time
from itertools import chain
from math import comb
from typing import Callable, Iterable, Sequence

import numpy as _np

from . import canon, decks, generate, spaces
from .canon import OrientationSpace
from .digraph import (
    EMPTY,
    Digraph,
    components,
    disjoint_union,
    from_arcs,
    is_weakly_connected,
)
from .errors import (
    CardAbsent,
    DichotomyViolated,
    HypothesisUnmet,
    IsomorphicInputs,
    LengthMismatch,
    NotConnected,
    NotDisconnected,
    OrderMismatch,
    OutOfRange,
    UniverseNotClosed,
)
from .generate import MAXDEG2_SHAPE_MAX_N, check_orders
from .report import Family, SearchReport, make_family
from .spaces import _CHUNK
from .stability import is_switching_stable, is_switching_stable_set
from .switching import switch_vertex

_HOLD_LIMIT = 1 << 26   # spaces with more classes regenerate their chunks per pass

# every work unit yields families plus per-order class counts
_TaskOut = tuple[list["Family"], dict[int, int]]


def _tag(n: int, out: tuple[list[Family], int]) -> _TaskOut:
    families, size = out
    return families, ({n: size} if size else {})


def group_by_deck(graphs: Iterable[Digraph], t: int = 0) -> list[list[Digraph]]:
    """Groups of >= 2 pairwise non-isomorphic digraphs sharing a t-deck.

    Isomorphic duplicates collapse first; at t = -1 a graph whose own class
    is missing from its deck is skipped, mirroring the t-deck definition.
    """
    by_code: dict[bytes, Digraph] = {}
    for g in graphs:
        by_code.setdefault(canon.canonical_code(g), g)
    buckets: dict[tuple, list[Digraph]] = {}
    for _, g in sorted(by_code.items()):
        try:
            d = decks.t_deck(g, t)
        except CardAbsent:
            continue
        buckets.setdefault(d.cards, []).append(g)
    return [grp for grp in buckets.values() if len(grp) >= 2]


def switching_adjacent(a: Digraph, b: Digraph) -> bool:
    """True when some single-vertex switch of a is isomorphic to b."""
    if not (is_weakly_connected(a) and is_weakly_connected(b)):
        raise NotConnected("switching adjacency is defined between connected digraphs")
    if a.n != b.n:
        return False
    target = canon.canonical_code(b)
    return any(canon.canonical_code(switch_vertex(a, v)) == target for v in range(a.n))


def possible_components(g: Digraph, universe: Iterable[Digraph],
                        universe_closed: bool = False) -> list[bytes]:
    """Component classes over every universe member sharing g's deck.

    The universe must contain every graph with g's deck for the answer to
    mean anything, which the caller asserts via universe_closed.
    """
    if not universe_closed:
        raise UniverseNotClosed(
            "pass universe_closed=True only when the universe holds every "
            "graph sharing the deck"
        )
    own = decks.deck(g)
    out: set[bytes] = set()
    for h in chain((g,), universe):
        if h.n == g.n and decks.deck(h) == own:
            out.update(canon.canonical_code(p) for p in components(h).parts)
    return sorted(out)


def definite_components(g: Digraph, universe: Iterable[Digraph],
                        universe_closed: bool = False) -> list[bytes]:
    """Component classes present in every universe member sharing g's deck."""
    if not universe_closed:
        raise UniverseNotClosed(
            "pass universe_closed=True only when the universe holds every "
            "graph sharing the deck"
        )
    own = decks.deck(g)
    acc: set[bytes] | None = None
    for h in chain((g,), universe):
        if h.n == g.n and decks.deck(h) == own:
            codes = {canon.canonical_code(p) for p in components(h).parts}
            acc = codes if acc is None else acc & codes
    return sorted(acc or ())


def strip_stable_components(g: Digraph) -> tuple[Digraph, int]:
    """Drop switching-stable components; returns (residue, stable vertex count)."""
    parts = components(g).parts
    residue = [p for p in parts if not is_switching_stable(p)]
    t = g.n - sum(p.n for p in residue)
    if not residue:
        return EMPTY, t
    return disjoint_union(*residue), t


def verify_strip_residue(graphs: Sequence[Digraph]) -> dict:
    """Same-deck members must agree on stable parts and residue t-decks."""
    strips = [strip_stable_components(g) for g in graphs]
    t0 = strips[0][1]
    stable_parts = []
    for g in graphs:
        stable_parts.append(sorted(
            canon.canonical_code(p) for p in components(g).parts
            if is_switching_stable(p)
        ))
    residue_decks = [decks.t_deck(res, t) for res, t in strips]
    result = {
        "t": t0,
        "t_match": all(t == t0 for _, t in strips),
        "stable_match": all(s == stable_parts[0] for s in stable_parts),
        "residue_deck_match": all(d == residue_decks[0] for d in residue_decks),
    }
    result["holds"] = result["t_match"] and result["stable_match"] and result["residue_deck_match"]
    return result


def verify_disconnected_dichotomy(g: Digraph, h: Digraph,
                                  possible: Sequence[Digraph] | None = None) -> dict:
    """Structure forced on a disconnected same-deck non-isomorphic pair.

    Either both graphs split into one non-stable component plus stable ones,
    with the non-stable components sharing a t-deck for t = stable vertices;
    or both have exactly two components and the possible components form a
    switching-stable set of at most 4 classes of one common order.
    """
    if g.n != h.n:
        raise OrderMismatch("inputs must share an order")
    if is_weakly_connected(g) or is_weakly_connected(h):
        raise NotDisconnected("both inputs must be disconnected")
    if canon.is_isomorphic(g, h):
        raise IsomorphicInputs("inputs must not be isomorphic")
    if decks.deck(g) != decks.deck(h):
        raise HypothesisUnmet("inputs must share a deck")
    gp = components(g).parts
    hp = components(h).parts
    gres = [p for p in gp if not is_switching_stable(p)]
    hres = [p for p in hp if not is_switching_stable(p)]
    if len(gres) == 1 and len(hres) == 1:
        t = g.n - gres[0].n
        if t == h.n - hres[0].n:
            try:
                if decks.t_deck(gres[0], t) == decks.t_deck(hres[0], t):
                    return {"option": 2, "t": t}
            except CardAbsent:
                pass
    if len(gp) == 2 and len(hp) == 2:
        pool = list(possible) if possible is not None else [*gp, *hp]
        by_code = {canon.canonical_code(p): p for p in pool}
        classes = list(by_code.values())
        orders = {p.n for p in classes}
        if (len(orders) == 1 and len(classes) <= 4
                and is_switching_stable_set(classes)):
            return {"option": 1, "classes": len(classes)}
    raise DichotomyViolated(
        f"pair of order {g.n} fits neither disconnected option"
    )


# ---------------------------------------------------------------------------
# generic space engines (paths, cycles, digon cycles, per-underlying spaces)

def _resolve_ts(t_range, n: int) -> list[int]:
    if t_range is None:
        return [0]
    lo, hi = t_range
    if lo < -1:
        raise OutOfRange(f"t must be at least -1, got {lo}")
    if hi is not None and lo > hi:
        raise OutOfRange(f"empty t range {lo}..{hi}")
    hi = n if hi is None else min(hi, n)
    return list(range(lo, hi + 1))


def _adjusted_key(cards: list[int], own: int, t: int) -> tuple[int, ...] | None:
    if t == 0:
        return tuple(cards)
    key = list(cards)
    if t == -1:
        try:
            key.remove(own)
        except ValueError:
            return None
        return tuple(key)
    key.extend([own] * t)
    key.sort()
    return tuple(key)


def _verify_candidates(space, cand: Sequence[int], t: int, label: str) -> list[Family]:
    """Regroup signature candidates by their exact sorted card lists."""
    cards = spaces.card_table(space, _np.array(cand, dtype=_np.uint64)).T
    cards.sort(axis=1)
    buckets: dict[tuple[int, ...], list[int]] = {}
    for x, row in zip(cand, cards.tolist()):
        key = _adjusted_key(row, x, t)
        if key is not None:
            buckets.setdefault(key, []).append(x)
    out = []
    for _, xs in sorted(buckets.items()):
        if len(xs) >= 2:
            out.append(make_family(label, t, [space.digraph(x) for x in xs]))
    return out


def _mix64(a):
    """splitmix64 finalizer over a uint64 array."""
    a = a + _np.uint64(0x9E3779B97F4A7C15)
    a = (a ^ (a >> _np.uint64(30))) * _np.uint64(0xBF58476D1CE4E5B9)
    a = (a ^ (a >> _np.uint64(27))) * _np.uint64(0x94D049BB133111EB)
    return a ^ (a >> _np.uint64(31))


def _signed(space, xs):
    """(reps, sig0, own_mix, has_own) for one chunk of representatives.

    sig0 sums the mixed class ids of the n cards (the plain deck), own_mix
    is the mixed id of the representative itself, and has_own marks the
    representatives whose deck holds a copy of their own class.
    """
    cards = spaces.card_table(space, xs)
    sig0 = _np.zeros(len(xs), dtype=_np.uint64)
    for row in cards:
        sig0 += _mix64(row)
    return xs, sig0, _mix64(xs), (cards == xs).any(axis=0)


def _keyed(chunk, t: int):
    """(pool, key): the chunk's representatives that have a t-deck, and the
    64-bit signatures of those t-decks."""
    xs, sig0, own_mix, has_own = chunk
    if t == -1:
        return xs[has_own], (sig0 - own_mix)[has_own]
    if t == 0:
        return xs, sig0
    return xs, sig0 + _np.uint64(t) * own_mix


def _rep_chunks(space, count: int):
    """space.rep_chunks at the engine's chunk size, checked against count()."""
    found = 0
    for xs in space.rep_chunks(_CHUNK):
        found += len(xs)
        if found > count:
            break
        yield xs
    if found != count:
        raise LengthMismatch(
            f"{type(space).__name__} rep scan disagrees with count() = {count}"
        )


def _space_census(space, ts: Sequence[int], label: str) -> tuple[list[Family], int]:
    """Families plus the number of isomorphism classes in the space.

    Up to _HOLD_LIMIT classes the signed chunks are computed once and held
    for every t; the rep scan finishes before any chunk is signed, which
    keeps the scan's temporaries from overlapping the held arrays.  Larger
    spaces regenerate their chunks for every pass, holding only one 64-bit
    key per class.
    """
    count = space.count()
    held = None
    if count <= _HOLD_LIMIT:
        held = [_signed(space, xs) for xs in list(_rep_chunks(space, count))]

    def chunks():
        if held is not None:
            return held
        return (_signed(space, xs) for xs in _rep_chunks(space, count))

    families: list[Family] = []
    for t in ts:
        keys = _np.empty(count, dtype=_np.uint64)
        pos = 0
        for chunk in chunks():
            key = _keyed(chunk, t)[1]
            keys[pos:pos + len(key)] = key
            pos += len(key)
        keys = keys[:pos]
        keys.sort()
        dups = _np.unique(keys[1:][keys[1:] == keys[:-1]])
        del keys
        if len(dups) == 0:
            continue
        cand: list[int] = []
        for chunk in chunks():
            pool, key = _keyed(chunk, t)
            cand.extend(pool[_np.isin(key, dups)].tolist())
        families.extend(_verify_candidates(space, cand, t, label))
    return families, count


# ---------------------------------------------------------------------------
# max-degree-2 engine

def _shape_tasks(n: int, ts: Sequence[int]) -> list[Callable[[], tuple[list[Family], int]]]:
    tasks = []
    for shape in generate.maxdeg2_shapes(n):
        tasks.append(lambda shape=shape: _census_one_shape(n, shape, ts))
    return tasks


def _census_one_shape(n: int, shape, ts: Sequence[int]) -> tuple[list[Family], int]:
    """Group one component shape by t-deck using component class arithmetic.

    The multiset of component classes is a faithful class invariant of a
    disjoint union, and each card only replaces one component by its switched
    class, so decks are computed without ever materializing labelled graphs.
    """
    entries = []
    for comps in generate._shape_classes(shape):
        key = tuple(sorted(comps))
        deck: dict[tuple, int] = {}
        seen_mult: dict[generate.Comp, int] = {}
        for c in comps:
            seen_mult[c] = seen_mult.get(c, 0) + 1
        base = list(key)
        for c, mult in seen_mult.items():
            kind, k, x = c
            sp = generate._part_space((kind, k))
            removed = list(base)
            removed.remove(c)
            for v in range(k):
                card_comp = (kind, k, sp.card(x, v))
                card_key = tuple(sorted(removed + [card_comp]))
                deck[card_key] = deck.get(card_key, 0) + mult
        entries.append((key, deck))
    families: list[Family] = []
    for t in ts:
        buckets: dict[tuple, list[tuple]] = {}
        for key, deck in entries:
            items = dict(deck)
            if t == -1:
                if not items.get(key):
                    continue
                items[key] -= 1
                if items[key] == 0:
                    del items[key]
            elif t > 0:
                items[key] = items.get(key, 0) + t
            bucket_key = tuple(sorted(items.items()))
            buckets.setdefault(bucket_key, []).append(key)
        for _, keys in sorted(buckets.items()):
            if len(keys) >= 2:
                families.append(make_family("maxdeg2", t, [generate._union(k) for k in keys]))
    return families, len(entries)


def _stable_unit_graphs() -> tuple[Digraph, Digraph, Digraph]:
    k1 = Digraph(1, (0,))
    arc = from_arcs(2, [(0, 1)])
    stable_c4 = from_arcs(4, [(0, 1), (1, 3), (3, 2), (0, 2)])
    return k1, arc, stable_c4


def _stable_paddings(t: int) -> list[tuple[int, int, int]]:
    """Multisets of stable connected classes on t vertices as (k1, arc, c4)."""
    out = []
    for c4 in range(t // 4 + 1):
        for arc in range((t - 4 * c4) // 2 + 1):
            out.append((t - 4 * c4 - 2 * arc, arc, c4))
    return out


def _maxdeg2_class_count(n: int) -> int:
    """Multisets of path/cycle classes totalling n vertices."""
    dp = [0] * (n + 1)
    dp[0] = 1
    for k in range(1, n + 1):
        m = spaces.PathSpace(k).count()
        if k >= 3:
            m += spaces.CycleSpace(k).count()
        ndp = [0] * (n + 1)
        for s in range(n + 1):
            if dp[s] == 0:
                continue
            j = 0
            while s + j * k <= n:
                ndp[s + j * k] += dp[s] * comb(m + j - 1, j)
                j += 1
        dp = ndp
    return dp[n]


def _reduced_span_tasks(lo: int, hi: int) -> list[Callable[[], _TaskOut]]:
    return [lambda nr=nr: _census_reduced_span(nr, lo, hi)
            for nr in range(3, hi + 1)]


def _census_reduced_span(n_res: int, lo: int, hi: int) -> _TaskOut:
    """Plain-deck families over orders lo..hi whose residue has n_res vertices.

    Above order 12 every same-deck pair either is connected or carries exactly
    one non-stable component each, so a family is a connected path-or-cycle
    t-deck family padded with one multiset of stable components on the other
    t = n - n_res vertices.  One scan of each residue space covers every
    target order; the n_res = 3 unit carries the analytic class counts.
    """
    ts = [n - n_res for n in range(max(lo, n_res), hi + 1)]
    families: list[Family] = []
    k1, arc, c4 = _stable_unit_graphs()
    if ts:
        for space in (spaces.PathSpace(n_res), spaces.CycleSpace(n_res)):
            for fam in _space_census(space, ts, "residue")[0]:
                residues = fam.digraphs()
                for nk1, narc, nc4 in _stable_paddings(fam.t):
                    pad = [k1] * nk1 + [arc] * narc + [c4] * nc4
                    members = [disjoint_union(r, *pad) for r in residues]
                    families.append(make_family("maxdeg2", 0, members))
    counts = ({n: _maxdeg2_class_count(n) for n in range(lo, hi + 1)}
              if n_res == 3 else {})
    return families, counts


# ---------------------------------------------------------------------------
# tournaments and the full oriented census

def _census_tournaments(n: int, ts: Sequence[int]) -> tuple[list[Family], int]:
    graphs = list(generate.gen_tournaments(n))
    families = []
    for t in ts:
        for grp in group_by_deck(graphs, t):
            families.append(make_family("tournaments", t, grp))
    return families, len(graphs)


def _all_oriented_tasks(n: int, ts: Sequence[int]) -> list[Callable[[], tuple[list[Family], int]]]:
    return [
        lambda u=u: _census_one_underlying(u, n, ts)
        for u in generate.gen_underlying_graphs(n)
    ]


def _census_one_underlying(u, n: int, ts: Sequence[int]) -> tuple[list[Family], int]:
    return _space_census(OrientationSpace(u), ts, "all-oriented")


# ---------------------------------------------------------------------------
# driver

_SPACES = {
    "paths": spaces.PathSpace,
    "cycles": spaces.CycleSpace,
    "digon-cycles": lambda n: spaces.CycleSpace(n, digons=True),
}


def _space_tasks(label: str):
    """The work units of one order of a string class: its whole space."""
    return lambda n, ts: [lambda: _space_census(_SPACES[label](n), ts, label)]


# census class -> (n, ts) -> the work units of that order; maxdeg2 orders
# above the shape ceiling have none, the reduced span covers them
CENSUS_UNITS: dict[str, Callable[[int, list[int]], list[Callable]]] = {
    "paths": _space_tasks("paths"),
    "cycles": _space_tasks("cycles"),
    "digon-cycles": _space_tasks("digon-cycles"),
    "maxdeg2": lambda n, ts: _shape_tasks(n, ts) if n <= MAXDEG2_SHAPE_MAX_N else [],
    "tournaments": lambda n, ts: [lambda: _census_tournaments(n, ts)],
    "all-oriented": _all_oriented_tasks,
}


def run_census(class_label: str, n_range: tuple[int, int], t_range=None,
               heavy: bool = False, shard=None) -> SearchReport:
    """Exhaustive t-deck family search for one class over a range of orders.

    shard=(i, k) keeps every k-th work unit starting at i; units never split
    a family, so shard outputs merge losslessly via merge_reports.  Units are
    whole orders for the string classes and tournaments, component shapes or
    residue orders for maxdeg2, and underlying classes for all-oriented.
    """
    t0 = time.monotonic()
    lo, hi = n_range
    if class_label not in CENSUS_UNITS:
        raise OutOfRange(f"unknown census class {class_label!r}")
    # the t limit comes first: no heavy flag can lift it
    if (class_label == "maxdeg2" and hi > MAXDEG2_SHAPE_MAX_N
            and _resolve_ts(t_range, hi) != [0]):
        raise OutOfRange(
            f"maxdeg2 orders above {MAXDEG2_SHAPE_MAX_N} support plain decks (t = 0) only"
        )
    check_orders(class_label, lo, hi, heavy)
    if shard is not None:
        idx, total = shard
        if total < 1:
            raise OutOfRange(f"shard count must be at least 1, got {total}")
        if not 0 <= idx < total:
            raise OutOfRange(f"shard index {idx} outside 0..{total - 1}")
    tasks: list[Callable[[], _TaskOut]] = []
    for n in range(lo, hi + 1):
        units = CENSUS_UNITS[class_label](n, _resolve_ts(t_range, n))
        tasks.extend(lambda n=n, fn=fn: _tag(n, fn()) for fn in units)
    if class_label == "maxdeg2" and hi > MAXDEG2_SHAPE_MAX_N:
        tasks.extend(_reduced_span_tasks(max(lo, MAXDEG2_SHAPE_MAX_N + 1), hi))
    if shard is not None:
        tasks = tasks[idx::total]
    report = SearchReport(class_label, (lo, hi),
                          tuple(t_range) if t_range is not None else None,
                          shard=tuple(shard) if shard is not None else None)
    for fn in tasks:
        families, counts = fn()
        report.families.extend(families)
        for n, size in counts.items():
            report.counts[n] = report.counts.get(n, 0) + size
    _check_dichotomy(report)
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report


def _check_dichotomy(report: SearchReport):
    """Structural guards on every discovered family.

    No disconnected family member may contain two non-isomorphic
    switching-adjacent components, and disconnected same-deck pairs must fit
    the two-option structure.
    """
    for fam in report.families:
        graphs = fam.digraphs()
        disconnected = [g for g in graphs if not is_weakly_connected(g)]
        for g in disconnected:
            parts = components(g).parts
            codes = [canon.canonical_code(p) for p in parts]
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    if codes[i] != codes[j] and switching_adjacent(parts[i],
                                                                   parts[j]):
                        raise DichotomyViolated(
                            "family member joins two non-isomorphic "
                            "switching-adjacent components"
                        )
        if fam.t != 0 or len(disconnected) < 2:
            continue
        pool = [p for g in disconnected for p in components(g).parts]
        for i in range(len(disconnected)):
            for j in range(i + 1, len(disconnected)):
                verify_disconnected_dichotomy(disconnected[i], disconnected[j],
                                              possible=pool)
