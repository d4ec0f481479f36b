"""Deck-equivalence censuses over whole graph classes.

run_census enumerates every isomorphism class of a class label over a range
of orders, groups the classes that share a t-deck, and returns the families
in a SearchReport.

Two engines give every class a 64-bit signature of its t-deck: the wrapping
sum of a mixed class id per card, adjusted per t by the mixed id of the class
itself.  _space_census walks the orbit-minimum representatives of paths,
cycles, digon cycles, tournaments and the orientations of each underlying
graph in domain chunks, with card ids from card_table.  _census_one_shape
signs every class of one max-degree-2 component shape at once, over the
rows of generate._shape_rows that gen maxdeg2 also reads: a class is a
multiset of component classes, its id the wrapping sum of their ids, and
each card swaps one component for its switch, read from the part's card
rows.  Equal t-decks always give equal signatures, so every family lies
inside a set of colliding signatures, and _candidates picks exactly the
classes whose signature another class shares.

Only those candidates reach the exact step, _exact_families: each brings its
sorted cards (card_table rows, or the component classes of a max-degree-2
card) and its own class, the t-deck rule keys it, and make_family re-verifies
each family, so the output is exact.  group_by_deck computes decks on its
own and is the reference the tests hold the engines to.

Grouping decomposes soundly: every card of a digraph keeps the labelled
underlying graph, so graphs with equal decks share their underlying class
(and in particular their max-degree-2 shape), and families never straddle
underlying classes.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import chain, groupby
from math import comb
from typing import Callable, Iterable, Sequence

import numpy as _np

from . import canon, catalog, decks, generate, spaces
from .digraph import (
    EMPTY,
    Digraph,
    components,
    disjoint_union,
    is_weakly_connected,
)
from .errors import CardAbsent, DichotomyViolated, HypothesisUnmet, OutOfRange
from .generate import MAXDEG2_SHAPE_MAX_N, check_orders
from .report import Family, SearchReport, make_family
from .spaces import _CARD_COLUMNS, _CHUNK
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
        raise HypothesisUnmet("switching adjacency is defined between connected digraphs")
    if a.n != b.n:
        return False
    target = canon.canonical_code(b)
    return any(canon.canonical_code(switch_vertex(a, v)) == target for v in range(a.n))


def _same_deck_components(g: Digraph, universe: Iterable[Digraph]) -> list[set[bytes]]:
    """The component classes of g and of each universe member sharing its
    deck, g's first."""
    own = decks.deck(g)
    return [{canon.canonical_code(p) for p in components(h).parts}
            for h in chain((g,), universe) if h.n == g.n and decks.deck(h) == own]


def possible_components(g: Digraph, universe: Iterable[Digraph]) -> list[bytes]:
    """Component classes over every universe member sharing g's deck.

    The answer means something only when the universe holds every graph
    with g's deck; that closure is the caller's hypothesis.
    """
    return sorted(set().union(*_same_deck_components(g, universe)))


def definite_components(g: Digraph, universe: Iterable[Digraph]) -> list[bytes]:
    """Component classes present in every universe member sharing g's deck,
    under possible_components' closure hypothesis."""
    return sorted(set.intersection(*_same_deck_components(g, universe)))


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
        raise HypothesisUnmet("inputs must share an order")
    if is_weakly_connected(g) or is_weakly_connected(h):
        raise HypothesisUnmet("both inputs must be disconnected")
    if canon.is_isomorphic(g, h):
        raise HypothesisUnmet("inputs must not be isomorphic")
    if decks.deck(g) != decks.deck(h):
        raise HypothesisUnmet("inputs must share a deck")
    gp = components(g).parts
    hp = components(h).parts
    gres = [p for p in gp if not is_switching_stable(p)]
    hres = [p for p in hp if not is_switching_stable(p)]
    if len(gres) == 1 and len(hres) == 1:
        t = g.n - gres[0].n
        if t == h.n - hres[0].n:
            # t >= 0 here, and only t = -1 can lack a card
            if decks.t_deck(gres[0], t) == decks.t_deck(hres[0], t):
                return {"option": 2, "t": t}
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


def _adjusted_key(cards: list, own, t: int) -> tuple:
    """The sorted cards of a t-deck: one copy of own removed at t = -1, t
    copies added above 0.  At t = -1, _keyed passes only members whose deck
    holds their own class."""
    if t == 0:
        return tuple(cards)
    key = list(cards)
    if t == -1:
        key.remove(own)
        return tuple(key)
    key.extend([own] * t)
    key.sort()
    return tuple(key)


def _exact_families(label: str, t: int, members, digraph) -> list[Family]:
    """Families of the members sharing a t-deck, in sorted t-deck order.

    Each member comes as (sorted cards, own class, member); digraph turns a
    member into the digraph its family holds.
    """
    buckets: dict[tuple, list] = {}
    for cards, own, member in members:
        buckets.setdefault(_adjusted_key(cards, own, t), []).append(member)
    return [make_family(label, t, [digraph(m) for m in ms])
            for _, ms in sorted(buckets.items()) if len(ms) >= 2]


def _verify_candidates(space, cand: Sequence[int], t: int, label: str) -> list[Family]:
    """Regroup signature candidates by their exact sorted card lists."""
    rows = spaces.card_table(space, _np.array(cand, dtype=_np.uint64)).T
    rows.sort(axis=1)
    return _exact_families(label, t, zip(rows.tolist(), cand, cand), space.digraph)


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
    representatives whose deck holds a copy of their own class.  The cards
    are read one card_table slice at a time, so no (n, len(xs)) table is
    held.
    """
    sig0 = _np.empty(len(xs), dtype=_np.uint64)
    has_own = _np.empty(len(xs), dtype=bool)
    for start in range(0, len(xs), _CARD_COLUMNS):
        x = xs[start:start + _CARD_COLUMNS]
        cards = spaces.card_table(space, x)
        sig0[start:start + len(x)] = _mix64(cards).sum(axis=0)
        has_own[start:start + len(x)] = (cards == x).any(axis=0)
    return xs, sig0, _mix64(xs), has_own


def _keyed(chunk, t: int):
    """(pool, key): the chunk's representatives that have a t-deck, and the
    64-bit signatures of those t-decks."""
    xs, sig0, own_mix, has_own = chunk
    if t == -1:
        return xs[has_own], (sig0 - own_mix)[has_own]
    if t == 0:
        return xs, sig0
    return xs, sig0 + _np.uint64(t) * own_mix


def _candidates(chunks, t: int, count: int) -> list[int]:
    """The members whose t-deck signature another member shares: every
    family member, plus the rare 64-bit collisions.  chunks() gives the
    signed chunks, at most count members in all, and is walked twice: once
    for the sorted keys, once to pick the members with a repeated key."""
    keys = _np.empty(count, dtype=_np.uint64)
    pos = 0
    for chunk in chunks():
        key = _keyed(chunk, t)[1]
        keys[pos:pos + len(key)] = key
        pos += len(key)
    keys = keys[:pos]
    keys.sort()
    dups = keys[1:][keys[1:] == keys[:-1]]   # sorted, for searchsorted
    del keys
    cand: list[int] = []
    if len(dups):
        for chunk in chunks():
            pool, key = _keyed(chunk, t)
            at = _np.minimum(_np.searchsorted(dups, key), len(dups) - 1)
            cand.extend(pool[dups[at] == key].tolist())
    return cand


def _rep_chunks(space, count: int):
    """The space's own rep scan at the engine's chunk size, checked against
    count()."""
    found = 0
    for xs in space.scan_reps(_CHUNK):
        found += len(xs)
        if found > count:
            break
        yield xs
    if found != count:
        raise HypothesisUnmet(
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
        cand = _candidates(chunks, t, count)
        if cand:
            families.extend(_verify_candidates(space, cand, t, label))
    return families, count


# ---------------------------------------------------------------------------
# max-degree-2 engine

def _part_hash(part, rows):
    """The 64-bit component ids of some rows of one part's orbit minima; the
    part's id in the high bits keeps the parts of a shape apart."""
    kind, k = part
    return _mix64(_np.uint64((2 * k + (kind == "c")) << 40) | rows)


@lru_cache(maxsize=64)
def _part_table(part):
    """(card rows, u) of one part: the row of each card of each orbit
    minimum, and each orbit minimum's component id."""
    rows = spaces.card_rows(generate._part_space(part))
    return rows, _part_hash(part, _np.arange(len(rows), dtype=_np.uint64))


def _shape_signed(shape):
    """(classes, signed chunk) of one shape.

    classes is generate._shape_rows(shape): one row per class, the row of
    each slot's component among its part's orbit minima.  A class hashes to
    H, the wrapping sum of its component ids u; the card that switches slot
    s at v has H - u[s] + u[card], so sig0 sums the mixed hashes of all of
    them and own_mix is the mixed H.  has_own marks the classes with a card
    equal to their own slot's row.
    """
    classes = generate._shape_rows(shape)
    runs = [(*_part_table(part), len(list(same))) for part, same in groupby(shape)]
    owns = _np.split(classes, _np.cumsum([m for _, _, m in runs[:-1]]), axis=1)
    h = _np.zeros(len(classes), dtype=_np.uint64)
    for own, (_, u, _) in zip(owns, runs):
        h += u[own].sum(axis=1)
    sig0 = _np.zeros(len(classes), dtype=_np.uint64)
    has_own = _np.zeros(len(classes), dtype=bool)
    for own, (rows, u, _) in zip(owns, runs):
        cards = rows[own]
        sig0 += _mix64((h[:, None] - u[own])[:, :, None] + u[cards]).sum(axis=(1, 2))
        has_own |= (cards == own[:, :, None]).any(axis=(1, 2))
    return classes, (_np.arange(len(classes)), sig0, _mix64(h), has_own)


def _shape_members(shape, slots, classes):
    """(sorted cards, sorted comps, row) of each class row.

    A comp is one component class as (kind, k, orbit minimum).  The multiset
    of comps is a faithful class invariant of a disjoint union, and each card
    only replaces one component by its switched class, so a card is the
    sorted comps with that one swapped, read through the part's card(x, v).
    """
    space_of = {part: sp for part, (sp, _) in zip(shape, slots)}
    for row in classes.tolist():
        key = tuple(sorted((kind, k, reps[j]) for (kind, k), (_, reps), j
                           in zip(shape, slots, row)))
        cards: list[tuple] = []
        for i, (kind, k, x) in enumerate(key):
            if i and key[i - 1] == key[i]:
                # removing either of two equal slots leaves the same rest
                cards.extend(cards[-k:])
                continue
            sp = space_of[kind, k]
            rest = key[:i] + key[i + 1:]
            cards.extend(tuple(sorted(rest + ((kind, k, sp.card(x, v)),)))
                         for v in range(k))
        cards.sort()
        yield cards, key, row


def _census_one_shape(shape, ts: Sequence[int]) -> tuple[list[Family], int]:
    """Group one component shape by t-deck on the signature engine.

    Every class of the shape is signed at once from its parts' card rows
    (_shape_signed); only the classes whose t-deck signature collides reach
    the exact step, with their cards spelled out as component classes.
    """
    classes, chunk = _shape_signed(shape)
    families: list[Family] = []
    for t in ts:
        cand = _candidates(lambda: [chunk], t, len(classes))
        if cand:
            slots = generate._shape_slots(shape)
            families.extend(_exact_families(
                "maxdeg2", t, _shape_members(shape, slots, classes[cand]),
                lambda row: generate._union(slots, row)))
    return families, len(classes)


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
    k1, arc, c4 = catalog.STABLE_CONNECTED
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
# driver

_SPACES = {
    "paths": spaces.PathSpace,
    "cycles": spaces.CycleSpace,
    "digon-cycles": lambda n: spaces.CycleSpace(n, digons=True),
    "tournaments": generate.TournamentSpace,
}


def _space_tasks(label: str):
    """The work units of one order of a space class: its whole space."""
    return lambda n, ts: [lambda: _space_census(_SPACES[label](n), ts, label)]


def _all_oriented_tasks(n: int, ts: Sequence[int]) -> list[Callable[[], tuple[list[Family], int]]]:
    """One work unit per underlying graph, on the space the router picks."""
    return [lambda u=u: _space_census(generate.orientation_space(u), ts, "all-oriented")
            for u in generate.gen_underlying_graphs(n)]


# census class -> (n, ts) -> the work units of that order; maxdeg2 orders
# above the shape ceiling have none, the reduced span covers them
CENSUS_UNITS: dict[str, Callable[[int, list[int]], list[Callable]]] = {
    **{label: _space_tasks(label) for label in _SPACES},
    "maxdeg2": lambda n, ts: ([lambda s=s: _census_one_shape(s, ts)
                               for s in generate.maxdeg2_shapes(n)]
                              if n <= MAXDEG2_SHAPE_MAX_N else []),
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
