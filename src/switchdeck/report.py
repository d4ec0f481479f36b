"""Result records for deck-equivalence searches."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import canon, decks
from .digraph import Digraph, format_digraph6, parse_digraph6
from .errors import HypothesisUnmet


@dataclass(frozen=True, slots=True)
class Family:
    """A maximal set of pairwise non-isomorphic digraphs sharing a t-deck.

    Members are canonical codes, sorted.  Construction re-checks the claim
    so a Family in hand is always trustworthy.
    """

    class_label: str
    n: int
    t: int
    members: tuple[bytes, ...]

    def __post_init__(self):
        if len(self.members) < 2 or tuple(sorted(set(self.members))) != self.members:
            raise HypothesisUnmet("a family needs two or more distinct members, sorted")

    @property
    def size(self) -> int:
        return len(self.members)

    def digraphs(self) -> list[Digraph]:
        return [canon.code_to_digraph(c) for c in self.members]

    def strings(self) -> list[str]:
        return [format_digraph6(g) for g in self.digraphs()]

    def to_dict(self) -> dict:
        return {"n": self.n, "t": self.t, "members": self.strings()}


def make_family(class_label: str, t: int, graphs: Sequence[Digraph]) -> Family:
    codes = sorted({canon.canonical_code(g) for g in graphs})
    if len(codes) != len(graphs):
        raise HypothesisUnmet("family members must be pairwise non-isomorphic")
    ds = [decks.t_deck(g, t) for g in graphs]
    if any(d != ds[0] for d in ds[1:]):
        raise HypothesisUnmet(f"family members must share the {t}-deck")
    return Family(class_label, graphs[0].n, t, tuple(codes))


_REQUIRED = object()


def _field(data: dict, key: str, read, want: str, default=_REQUIRED, where: str = "report"):
    """read(data[key]), or default when the key is absent and not required;
    a missing required key, or a value read rejects, raises HypothesisUnmet."""
    if key not in data:
        if default is _REQUIRED:
            raise HypothesisUnmet(f"{where} has no {key!r} field")
        return default
    try:
        return read(data[key])
    except (TypeError, ValueError, AttributeError) as exc:
        raise HypothesisUnmet(f"{where} field {key!r} must be {want}") from exc


def _typed(kind: type):
    def read(value):
        if type(value) is not kind:
            raise TypeError(f"{value!r} is not of type {kind.__name__}")
        return value
    return read


def _optional(read):
    return lambda value: None if value is None else read(value)


def _list_of(read):
    return lambda value: [read(item) for item in _typed(list)(value)]


def _pair(read_hi=_typed(int)):
    def read(value):
        lo, hi = _typed(list)(value)
        return _typed(int)(lo), read_hi(hi)
    return read


def _counts(value) -> dict[int, int]:
    return {int(k): _typed(int)(c) for k, c in _typed(dict)(value).items()}


@dataclass(slots=True)
class SearchReport:
    """Everything a census run produced, JSON-serializable."""

    class_label: str
    n_range: tuple[int, int]
    t_range: tuple[int, int] | None
    families: list[Family] = field(default_factory=list)
    counts: dict[int, int] = field(default_factory=dict)
    elapsed_ms: int = 0
    shard: tuple[int, int] | None = None  # (i, k) for one shard of a run

    def to_dict(self) -> dict:
        """The report's JSON object; "shard" appears only on shard runs."""
        out = {
            "class": self.class_label,
            "n_range": list(self.n_range),
            "t_range": list(self.t_range) if self.t_range is not None else None,
            "families": [f.to_dict() for f in sorted(
                self.families, key=lambda f: (f.n, f.t, f.members))],
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "elapsed_ms": self.elapsed_ms,
        }
        if self.shard is not None:
            out["shard"] = list(self.shard)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def check_ranges(self):
        """Raise HypothesisUnmet on what no census run writes: an inverted n
        or t range, a t range starting below -1, a shard index outside
        0..k-1, negative counts, and counts or families outside the n range
        or the t range (t = 0 when the t range is None)."""
        lo, hi = self.n_range
        if lo > hi:
            raise HypothesisUnmet(f"inverted n range {lo}..{hi}")
        t_lo, t_hi = self.t_range or (0, 0)
        if t_lo < -1 or (t_hi is not None and t_lo > t_hi):
            raise HypothesisUnmet(f"t range {self.t_range} is not some t..u with -1 <= t <= u")
        if self.shard is not None and not 0 <= self.shard[0] < self.shard[1]:
            raise HypothesisUnmet(f"shard {self.shard} is not some (i, k) with 0 <= i < k")
        for n, c in self.counts.items():
            if not lo <= n <= hi or c < 0:
                raise HypothesisUnmet(f"count {c} at order {n} in a report of {lo}..{hi}")
        for fam in self.families:
            if not (lo <= fam.n <= hi and t_lo <= fam.t <= (fam.n if t_hi is None else t_hi)):
                raise HypothesisUnmet(f"family at n = {fam.n}, t = {fam.t} outside the "
                                      f"report's n and t ranges")

    @classmethod
    def from_dict(cls, data: object) -> "SearchReport":
        """The report of a JSON object, each family re-verified by
        make_family and the whole checked by check_ranges.  A missing or
        malformed field raises HypothesisUnmet naming it."""
        if type(data) is not dict:
            raise HypothesisUnmet("a report must be a JSON object")
        report = cls(
            class_label=_field(data, "class", _typed(str), "a string"),
            n_range=_field(data, "n_range", _pair(), "a list of two integers"),
            t_range=_field(data, "t_range", _optional(_pair(_optional(_typed(int)))),
                           "null or a list of an integer and an integer or null", None),
            counts=_field(data, "counts", _counts, "an object of integer counts by order", {}),
            elapsed_ms=_field(data, "elapsed_ms", _typed(int), "an integer", 0),
            shard=_field(data, "shard", _optional(_pair()),
                         "null or a list of two integers", None),
        )
        fds = _field(data, "families", _list_of(_typed(dict)), "a list of objects", [])
        for i, fd in enumerate(fds):
            t = _field(fd, "t", _typed(int), "an integer", where=f"family {i}")
            members = _field(fd, "members", _list_of(_typed(str)),
                             "a list of digraph6 strings", where=f"family {i}")
            graphs = [parse_digraph6(m) for m in members]
            report.families.append(make_family(report.class_label, t, graphs))
        report.check_ranges()
        return report

    @classmethod
    def from_json(cls, text: str) -> "SearchReport":
        return cls.from_dict(json.loads(text))

    def summary_lines(self) -> list[str]:
        lines = [f"class={self.class_label} n={self.n_range[0]}..{self.n_range[1]}"]
        if self.t_range is not None:
            hi = "n" if self.t_range[1] is None else self.t_range[1]
            lines[0] += f" t={self.t_range[0]}..{hi}"
        for f in sorted(self.families, key=lambda f: (f.n, f.t, f.members)):
            lines.append(f"n={f.n} t={f.t} size={f.size}: " + " ".join(f.strings()))
        by_n: dict[int, int] = {}
        for f in self.families:
            by_n[f.n] = by_n.get(f.n, 0) + 1
        lines.append("families: " + (", ".join(
            f"n={n}:{c}" for n, c in sorted(by_n.items())) if by_n else "none"))
        lines.append(f"elapsed: {self.elapsed_ms} ms")
        return lines


def merge_reports(reports: Iterable[SearchReport]) -> SearchReport:
    """Combine disjoint runs of the same class into one report.

    Shards partition the work, so per-n counts add up; a family appearing in
    two inputs is kept once.  Shard reports must form one complete set: the
    same k, every index 0..k-1 exactly once, and no unsharded report beside
    them.  Unsharded reports must cover disjoint n ranges, or their counts
    would add twice.  All inputs must share the class and the t range, and
    each must pass check_ranges.
    """
    reports = list(reports)
    if not reports:
        raise HypothesisUnmet("nothing to merge")
    for r in reports:
        r.check_ranges()
    label = reports[0].class_label
    t_range = reports[0].t_range
    for r in reports:
        if r.class_label != label:
            raise HypothesisUnmet(f"cannot merge {r.class_label} into {label}")
        if r.t_range != t_range:
            raise HypothesisUnmet(f"t ranges differ: {r.t_range} vs {t_range}")
    shards = [r.shard for r in reports if r.shard is not None]
    if shards:
        k = shards[0][1]
        if len(shards) != len(reports):
            raise HypothesisUnmet("cannot merge shard reports with unsharded ones")
        if any(total != k for _, total in shards):
            raise HypothesisUnmet(f"shard counts differ: {sorted({s[1] for s in shards})}")
        if sorted(i for i, _ in shards) != list(range(k)):
            raise HypothesisUnmet(
                f"shards {sorted(i for i, _ in shards)} are not exactly 0..{k - 1}"
            )
        if any(r.n_range != reports[0].n_range for r in reports):
            raise HypothesisUnmet("shards of one run share their n range")
    else:
        ranges = sorted(r.n_range for r in reports)
        for a, b in zip(ranges, ranges[1:]):
            if b[0] <= a[1]:
                raise HypothesisUnmet(f"n ranges {a[0]}..{a[1]} and {b[0]}..{b[1]} overlap")
    lo = min(r.n_range[0] for r in reports)
    hi = max(r.n_range[1] for r in reports)
    merged = SearchReport(label, (lo, hi), t_range)
    seen: set[tuple[int, int, tuple[bytes, ...]]] = set()
    for r in reports:
        for f in r.families:
            key = (f.n, f.t, f.members)
            if key not in seen:
                seen.add(key)
                merged.families.append(f)
        for n, c in r.counts.items():
            merged.counts[n] = merged.counts.get(n, 0) + c
        merged.elapsed_ms += r.elapsed_ms
    return merged
