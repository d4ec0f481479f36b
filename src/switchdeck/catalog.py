"""Reference corpus: known deck-equal families and stable graphs.

Every entry is keyed by content (class, order, deck variant), stores its
members as explicit arc lists, and is re-checkable from scratch through
verify_corpus.  Arc lists use 1-based vertex labels and shift to 0-based on
construction; digons appear as both opposite arcs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import canon
from .digraph import Digraph, from_arcs
from .errors import HypothesisUnmet
from .report import Family, make_family
from .stability import is_switching_stable


def _g(n: int, arcs: str, oriented: bool = True) -> Digraph:
    """Digraph from a '1/2,2/3' style arc list with 1-based labels."""
    pairs = []
    for item in arcs.split(","):
        a, b = item.strip().split("/")
        pairs.append((int(a) - 1, int(b) - 1))
    return from_arcs(n, pairs, oriented=oriented)


K1 = Digraph(1, (0,))
SINGLE_ARC = _g(2, "1/2")
STABLE_4_CYCLE = _g(4, "1/2,2/4,4/3,1/3")

STABLE_CONNECTED = (K1, SINGLE_ARC, STABLE_4_CYCLE)


@dataclass(frozen=True)
class CorpusFamily:
    key: str
    class_label: str
    n: int
    t: int
    members: tuple[Digraph, ...]

    def as_family(self) -> Family:
        """Re-verified Family built from the stored members."""
        return make_family(self.class_label, self.t, list(self.members))


def _fam(key: str, label: str, n: int, t: int, *arc_lists: str,
         oriented: bool = True) -> CorpusFamily:
    return CorpusFamily(key, label, n, t,
                        tuple(_g(n, arcs, oriented) for arcs in arc_lists))


FAMILIES: tuple[CorpusFamily, ...] = (
    _fam("paths-3", "paths", 3, 1,
         "1/2,2/3", "1/2,3/2", "2/1,2/3"),
    _fam("paths-4a", "paths", 4, 0,
         "1/2,2/3,3/4", "1/2,3/2,3/4"),
    _fam("paths-4b", "paths", 4, 0,
         "1/2,2/3,4/3", "2/1,3/2,3/4"),
    _fam("cycles-3", "cycles", 3, 1,
         "1/2,2/3,3/1", "1/2,2/3,1/3"),
    _fam("cycles-4", "cycles", 4, 0,
         "1/2,2/3,3/4,4/1", "1/2,3/2,3/4,1/4"),
    _fam("cycles-5", "cycles", 5, -1,
         "1/2,3/2,3/4,5/4,5/1", "1/2,3/2,3/4,4/5,5/1"),
    _fam("cycles-6a", "cycles", 6, 2,
         "1/2,2/3,3/4,5/4,6/5,1/6", "1/2,2/3,3/4,4/5,5/6,1/6"),
    _fam("cycles-6b", "cycles", 6, 2,
         "2/1,2/3,3/4,5/4,5/6,6/1", "2/1,2/3,4/3,4/5,5/6,6/1"),
    _fam("cycles-6c", "cycles", 6, 2,
         "1/2,2/3,4/3,4/5,6/5,1/6", "1/2,2/3,4/3,5/4,5/6,1/6"),
    _fam("cycles-7", "cycles", 7, 1,
         "1/2,2/3,3/4,5/4,5/6,7/6,1/7", "1/2,2/3,3/4,5/4,6/5,6/7,1/7"),
    _fam("cycles-8a", "cycles", 8, 0,
         "1/2,2/3,3/4,4/5,5/6,6/7,7/8,1/8", "1/2,2/3,3/4,4/5,5/6,7/6,8/7,1/8"),
    _fam("cycles-8b", "cycles", 8, 0,
         "1/2,2/3,3/4,5/4,5/6,7/6,7/8,1/8", "1/2,2/3,4/3,4/5,5/6,7/6,7/8,1/8"),
    _fam("cycles-8c", "cycles", 8, 0,
         "1/2,2/3,4/3,5/4,5/6,7/6,7/8,1/8", "1/2,2/3,4/3,4/5,6/5,6/7,8/7,1/8"),
    _fam("cycles-8d", "cycles", 8, 0,
         "1/2,2/3,3/4,5/4,6/5,6/7,8/7,1/8", "1/2,2/3,3/4,4/5,5/6,7/6,7/8,1/8"),
    _fam("cycles-8e", "cycles", 8, 0,
         "1/2,2/3,3/4,4/5,6/5,6/7,7/8,1/8",
         "1/2,2/3,3/4,5/4,6/5,7/6,7/8,1/8",
         "1/2,2/3,3/4,5/4,5/6,7/6,8/7,1/8"),
    _fam("cycles-8f", "cycles", 8, 0,
         "1/2,2/3,3/4,4/5,6/5,6/7,8/7,1/8",
         "1/2,2/3,3/4,4/5,6/5,7/6,7/8,1/8",
         "1/2,2/3,3/4,5/4,6/5,6/7,7/8,1/8",
         "1/2,2/3,3/4,5/4,5/6,6/7,8/7,1/8"),
    _fam("path-unions-8", "maxdeg2", 8, 0,
         "1/2,2/3,3/4,5/6,7/6,7/8", "1/2,3/2,4/3,6/5,7/6,7/8"),
    _fam("cycle-unions-8", "maxdeg2", 8, 0,
         "1/2,2/3,3/4,4/1,5/6,7/6,7/8,5/8", "1/2,2/3,4/3,1/4,5/6,6/7,8/7,5/8"),
    _fam("tournaments-8", "tournaments", 8, 0,
         "1/8,8/2,8/3,8/4,8/5,8/6,7/8,2/1,3/1,4/1,5/1,6/1,7/1,"
         "2/3,2/4,2/5,6/2,2/7,3/4,5/3,3/6,7/3,4/5,4/6,7/4,6/5,5/7,7/6",
         "8/1,2/8,8/3,8/4,8/5,8/6,7/8,2/1,1/3,1/4,1/5,1/6,1/7,"
         "3/2,4/2,5/2,2/6,7/2,3/4,5/3,3/6,7/3,4/5,4/6,7/4,6/5,5/7,7/6",
         "8/1,8/2,3/8,8/4,8/5,8/6,7/8,1/2,3/1,1/4,1/5,1/6,1/7,"
         "3/2,2/4,2/5,6/2,2/7,4/3,3/5,6/3,3/7,4/5,4/6,7/4,6/5,5/7,7/6",
         "8/1,8/2,8/3,4/8,8/5,8/6,7/8,1/2,1/3,4/1,1/5,1/6,1/7,"
         "2/3,4/2,2/5,6/2,2/7,4/3,5/3,3/6,7/3,5/4,6/4,4/7,6/5,5/7,7/6"),
    _fam("digon-cycles-12", "digon-cycles", 12, 0,
         "1/2,2/1,3/2,3/4,4/3,5/4,5/6,6/5,6/7,7/8,8/7,8/9,"
         "9/10,10/9,11/10,11/12,12/11,12/1",
         "1/2,2/1,2/3,3/4,4/3,5/4,5/6,6/5,6/7,7/8,8/7,8/9,"
         "9/10,10/9,11/10,11/12,12/11,1/12",
         oriented=False),
)

_BY_KEY = {f.key: f for f in FAMILIES}

# verification units for the figure suite, in display order
CHECK_GROUPS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("stable-connected", ()),
    ("paths-3", ("paths-3",)),
    ("paths-4", ("paths-4a", "paths-4b")),
    ("cycles-3", ("cycles-3",)),
    ("cycles-4", ("cycles-4",)),
    ("cycles-5", ("cycles-5",)),
    ("cycles-6", ("cycles-6a", "cycles-6b", "cycles-6c")),
    ("cycles-7", ("cycles-7",)),
    ("cycles-8", ("cycles-8a", "cycles-8b", "cycles-8c",
                  "cycles-8d", "cycles-8e", "cycles-8f")),
    ("path-unions-8", ("path-unions-8",)),
    ("cycle-unions-8", ("cycle-unions-8",)),
    ("tournaments-8", ("tournaments-8",)),
    ("digon-cycles-12", ("digon-cycles-12",)),
)


def family(key: str) -> CorpusFamily:
    return _BY_KEY[key]


def _check_group(name: str, keys: tuple[str, ...]) -> tuple[bool, str]:
    if name == "stable-connected":
        codes = {canon.canonical_code(g) for g in STABLE_CONNECTED}
        ok = (len(codes) == len(STABLE_CONNECTED)
              and all(is_switching_stable(g) for g in STABLE_CONNECTED))
        return ok, f"{len(STABLE_CONNECTED)} graphs switching-stable"
    sizes = []
    for key in keys:
        try:
            sizes.append(len(_BY_KEY[key].as_family().members))
        except HypothesisUnmet as exc:
            return False, f"{key}: {exc}"
    t = _BY_KEY[keys[0]].t
    return True, f"t={t} sizes={sizes}"


def verify_corpus() -> list[tuple[str, bool, str]]:
    """Re-derive every corpus claim; one (group, passed, detail) per group."""
    return [(name, *_check_group(name, keys)) for name, keys in CHECK_GROUPS]
