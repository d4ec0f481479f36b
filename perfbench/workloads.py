"""The benchmark's workloads: checked calls into switchdeck's public API.

Every workload is exhaustive and deterministic, so it has no random input.
A workload is a list of operations; each operation is one public call whose
output is compared with reference facts fixed at the time the benchmark was
written.  A mismatch or an exception fails that operation only.

The smoke configuration of each workload runs the same calls at sizes that
finish in about a second; the harness self-tests use it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

NAMES = ("tournaments", "digon-cycles", "maxdeg2", "stable")


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[Any], Any]
    check: Callable[[Any], str | None]   # returns a mismatch message or None


# ---------------------------------------------------------------------------
# reference facts

TOURNAMENT_COUNTS = {6: 56, 8: 6880}
# (n, t) -> {family size: number of families}; (n, t) pairs not listed have none
TOURNAMENT_FAMILIES = {(8, 0): {2: 20, 3: 4, 4: 2}}
# canonical digraph6 strings of the catalog's tournaments-8 quadruple
TOURNAMENT_QUADRUPLE = ("&G@HFAiM@yuZo", "&GOAqSojAZy^_", "&GOBIKhLBJm^_", "&GOBQBiMAyu\\o")

DIGON_COUNTS = dict(zip(range(3, 16), (
    7, 15, 30, 74, 171, 444, 1138, 3048, 8175, 22427, 61686, 171630, 479411)))
DIGON_FAMILIES = {
    (3, 1): {2: 1, 3: 1},
    (4, 0): {2: 3, 3: 1},
    (4, 4): {2: 1},
    (5, -1): {2: 6, 3: 1},
    (5, 3): {2: 1},
    (6, 2): {2: 10},
    (7, 1): {2: 8},
    (8, 0): {2: 25, 3: 2, 4: 2},
    (9, -1): {2: 14},
    (12, 0): {2: 1},
}

MAXDEG2_COUNTS = dict(zip(range(1, 15), (
    1, 2, 7, 16, 35, 84, 189, 430, 973, 2187, 4890, 10932, 24302, 53922)))
MAXDEG2_FAMILIES = {(4, 0): {2: 4, 3: 1}, (8, 0): {2: 13, 3: 1, 4: 1}}

# digraph6 strings of the connected switching-stable classes, per order
STABLE = {1: ("&@?",), 2: ("&AO",), 3: (), 4: ("&CWOG",), 5: (), 6: (), 7: ()}


# ---------------------------------------------------------------------------
# checks

def _check_report(report, n: int, counts: dict, families: dict) -> str | None:
    if report.counts != {n: counts[n]}:
        return f"class counts {report.counts}, expected {{{n}: {counts[n]}}}"
    got: dict[tuple[int, int], Counter] = {}
    for fam in report.families:
        got.setdefault((fam.n, fam.t), Counter())[fam.size] += 1
    want = {key: Counter(sizes) for key, sizes in families.items() if key[0] == n}
    if got != want:
        return f"family sizes {dict(got)}, expected {want}"
    return None


def _check_tournaments(report, n: int) -> str | None:
    bad = _check_report(report, n, TOURNAMENT_COUNTS, TOURNAMENT_FAMILIES)
    if bad or n != 8:
        return bad
    quads = [tuple(fam.strings()) for fam in report.families]
    if TOURNAMENT_QUADRUPLE not in quads:
        return "catalog tournaments-8 quadruple missing"
    return None


def _check_stable(found, n: int) -> str | None:
    from switchdeck import format_digraph6

    got = tuple(format_digraph6(g) for g in found)
    return None if got == STABLE[n] else f"stable classes {got}, expected {STABLE[n]}"


# ---------------------------------------------------------------------------
# operations

def _tournament_op(n: int) -> Op:
    return Op(f"tournaments-{n}",
              lambda sd: sd.run_census("tournaments", (n, n)),
              lambda r: _check_tournaments(r, n))


def _digon_op(n: int) -> Op:
    return Op(f"digon-cycles-{n}",
              lambda sd: sd.run_census("digon-cycles", (n, n), (-1, None)),
              lambda r: _check_report(r, n, DIGON_COUNTS, DIGON_FAMILIES))


def _maxdeg2_op(n: int) -> Op:
    return Op(f"maxdeg2-{n}",
              lambda sd: sd.run_census("maxdeg2", (n, n), (0, 0)),
              lambda r: _check_report(r, n, MAXDEG2_COUNTS, MAXDEG2_FAMILIES))


def _stable_op(n: int) -> Op:
    return Op(f"stable-{n}",
              lambda sd: sd.classify_stable_connected(n),
              lambda found: _check_stable(found, n))


def operations(workload: str, smoke: bool = False) -> list[Op]:
    """The checked calls of one workload, in the order they run."""
    if workload == "tournaments":
        return [_tournament_op(6 if smoke else 8)]
    if workload == "digon-cycles":
        return [_digon_op(n) for n in range(3, 10 if smoke else 16)]
    if workload == "maxdeg2":
        return [_maxdeg2_op(n) for n in range(1, 10 if smoke else 15)]
    if workload == "stable":
        return [_stable_op(n) for n in range(1, 6 if smoke else 8)]
    raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
