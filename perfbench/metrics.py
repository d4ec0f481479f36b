"""Metric definitions, predictions, and the per-layer values of a traced sample.

END_TO_END and PER_LAYER mirror BENCHMARK.json (a self-test keeps them
equal).  Each per-layer entry records which end-to-end metric it should move,
on which workload, and where the prediction is no change, because
BENCHMARK.json has room only for a one-line reason per workload.

ROADMAP item 1's layer list maps onto these names:
  canonical codes ............ canon.canonical_code.*, canon.search.*
  switching and decks ........ switching.switch_vertex.*, decks.*
  OrientationSpace kernel .... canon.OrientationSpace.*
  PathSpace / CycleSpace ..... spaces.orbit_min_array.*, spaces.reps_array.self_s
  domain enumeration ......... spaces.domain_chunk.*
  64-bit signature pass ...... census.run_census.self_s (signature engine runs inside it)
  exact candidate checks ..... census.verify.*
  generators ................. generate.*
  dichotomy guard ............ census.dichotomy.self_s
"""

from __future__ import annotations

# name, unit, better
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

# name, unit, better, (should move, on, flat on)
PER_LAYER = (
    ("canon.canonical_code.calls", "count", "lower", ("wall_s", "tournaments", "digon-cycles")),
    ("canon.canonical_code.self_s", "s", "lower", ("wall_s", "tournaments", "digon-cycles")),
    ("canon.canonical_code.hit_ratio", "ratio", "higher", ("wall_s", "tournaments", "digon-cycles")),
    ("canon.canonical_code.hits", "count", "higher", ("wall_s", "tournaments", "digon-cycles")),
    ("canon.canonical_code.misses", "count", "lower", ("wall_s", "tournaments", "digon-cycles")),
    ("canon.search.self_s", "s", "lower", ("wall_s", "tournaments", "digon-cycles")),
    ("canon.search.hits", "count", "higher", ("wall_s", "tournaments", "digon-cycles")),
    ("canon.search.misses", "count", "lower", ("wall_s", "tournaments", "digon-cycles")),
    ("digraph.in_masks.self_s", "s", "lower", ("wall_s", "tournaments", "digon-cycles")),
    ("digraph.components.calls", "count", "lower", ("wall_s", "tournaments", "digon-cycles")),
    ("digraph.components.self_s", "s", "lower", ("wall_s", "tournaments", "digon-cycles")),
    ("canon.OrientationSpace.act_array.calls", "count", "lower", ("wall_s", "stable", "tournaments,digon-cycles,maxdeg2")),
    ("canon.OrientationSpace.act_array.items", "count", "lower", ("wall_s", "stable", "tournaments,digon-cycles,maxdeg2")),
    ("canon.OrientationSpace.act_array.items_per_s", "1/s", "higher", ("wall_s", "stable", "tournaments,digon-cycles,maxdeg2")),
    ("canon.OrientationSpace.orbit_min_array.self_s", "s", "lower", ("wall_s", "stable", "tournaments,digon-cycles,maxdeg2")),
    ("canon.OrientationSpace.reps_array.self_s", "s", "lower", ("wall_s", "stable", "tournaments,digon-cycles,maxdeg2")),
    ("canon.aut_group_undirected.self_s", "s", "lower", ("wall_s", "stable", "tournaments,digon-cycles,maxdeg2")),
    ("canon.aut_group_undirected.hit_ratio", "ratio", "higher", ("wall_s", "stable", "tournaments,digon-cycles,maxdeg2")),
    ("canon.aut_group_undirected.hits", "count", "higher", ("wall_s", "stable", "tournaments,digon-cycles,maxdeg2")),
    ("canon.aut_group_undirected.misses", "count", "lower", ("wall_s", "stable", "tournaments,digon-cycles,maxdeg2")),
    ("spaces.orbit_min_array.items", "count", "lower", ("wall_s,peak_rss_mb", "digon-cycles", "tournaments")),
    ("spaces.orbit_min_array.items_per_s", "1/s", "higher", ("wall_s,peak_rss_mb", "digon-cycles", "tournaments")),
    ("spaces.orbit_min_array.self_s", "s", "lower", ("wall_s,peak_rss_mb", "digon-cycles", "tournaments")),
    ("spaces.domain_chunk.items_per_s", "1/s", "higher", ("wall_s,peak_rss_mb", "digon-cycles", "tournaments")),
    ("spaces.domain_chunk.self_s", "s", "lower", ("wall_s,peak_rss_mb", "digon-cycles", "tournaments")),
    ("spaces.reps_array.self_s", "s", "lower", ("wall_s,peak_rss_mb", "digon-cycles", "tournaments")),
    ("spaces.card.calls", "count", "lower", ("wall_s", "maxdeg2", "digon-cycles")),
    ("spaces.card.self_s", "s", "lower", ("wall_s", "maxdeg2", "digon-cycles")),
    ("spaces.card.repeat_ratio", "ratio", "lower", ("wall_s", "maxdeg2", "digon-cycles")),
    ("census.run_census.self_s", "s", "lower", ("wall_s", "maxdeg2,tournaments", "")),
    ("census.group_by_deck.self_s", "s", "lower", ("wall_s", "maxdeg2,tournaments", "")),
    ("census.verify.candidates", "count", "lower", ("wall_s", "digon-cycles", "tournaments")),
    ("census.verify.members", "count", "higher", ("wall_s", "digon-cycles", "tournaments")),
    ("census.verify.precision", "ratio", "higher", ("wall_s", "digon-cycles", "tournaments")),
    ("census.dichotomy.self_s", "s", "lower", ("wall_s", "maxdeg2", "stable")),
    ("generate.gen_tournaments.self_s", "s", "lower", ("wall_s", "tournaments", "digon-cycles")),
    ("generate.gen_underlying_graphs.self_s", "s", "lower", ("wall_s", "stable", "digon-cycles")),
    ("generate.items", "count", "lower", ("wall_s", "tournaments,stable", "digon-cycles")),
    ("decks.t_deck.calls", "count", "lower", ("wall_s", "tournaments", "digon-cycles")),
    ("decks.t_deck.self_s", "s", "lower", ("wall_s", "tournaments", "digon-cycles")),
    ("decks.deck.calls", "count", "lower", ("wall_s", "tournaments", "digon-cycles")),
    ("switching.switch_vertex.calls", "count", "lower", ("wall_s", "tournaments", "digon-cycles")),
    ("switching.switch_vertex.self_s", "s", "lower", ("wall_s", "tournaments", "digon-cycles")),
    ("report.make_family.calls", "count", "lower", ("wall_s", "all four, must stay small", "")),
    ("report.make_family.self_s", "s", "lower", ("wall_s", "all four, must stay small", "")),
    ("stability.is_switching_stable.calls", "count", "lower", ("wall_s", "stable", "digon-cycles")),
    ("stability.is_switching_stable.self_s", "s", "lower", ("wall_s", "stable", "digon-cycles")),
    # self time summed over every traced function of one module
    ("digraph.self_s", "s", "lower", ("wall_s", "tournaments", "digon-cycles")),
    ("switching.self_s", "s", "lower", ("wall_s", "tournaments", "digon-cycles")),
    ("canon.self_s", "s", "lower", ("wall_s", "tournaments,stable", "digon-cycles")),
    ("decks.self_s", "s", "lower", ("wall_s", "tournaments", "digon-cycles")),
    ("spaces.self_s", "s", "lower", ("wall_s", "digon-cycles,maxdeg2", "tournaments,stable")),
    ("generate.self_s", "s", "lower", ("wall_s", "tournaments,stable", "digon-cycles,maxdeg2")),
    ("stability.self_s", "s", "lower", ("wall_s", "stable", "digon-cycles")),
    ("census.self_s", "s", "lower", ("wall_s", "maxdeg2,digon-cycles", "stable")),
    ("report.self_s", "s", "lower", ("wall_s", "all four, must stay small", "")),
    ("process.cpu_s", "s", "lower", ("", "all", "")),
    ("trace.overhead_s", "s", "lower", ("", "all", "")),
)

MODULES = ("digraph", "switching", "canon", "decks", "spaces", "generate",
           "stability", "census", "report")

CACHES = {"canon.canonical_code": "canonical_code",
          "canon.search": "_canonical_search",
          "canon.aut_group_undirected": "aut_group_undirected"}


def cache_counters(canon_module) -> dict[str, int]:
    """hits and misses of the canon caches, read from the unwrapped functions."""
    out = {}
    for prefix, attr in CACHES.items():
        info = getattr(canon_module, attr).cache_info()
        out[f"{prefix}.hits"] = info.hits
        out[f"{prefix}.misses"] = info.misses
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(spans: list[dict], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sample, except process.cpu_s and
    trace.overhead_s, which need the untraced sample beside it.

    counters holds the canon cache counters plus the tracer's card and
    verify counts.  A layer that never ran reads 0.
    """
    by_group: dict[str, list] = {}
    for row in spans:
        acc = by_group.setdefault(row["group"], [0, 0.0, 0.0, 0])
        acc[0] += row["calls"]
        acc[1] += row["total_s"]
        acc[2] += row["self_s"]
        acc[3] += row["items"]

    def get(group: str, field: str) -> float:
        calls, total, self_s, items = by_group.get(group, (0, 0.0, 0.0, 0))
        return {"calls": calls, "total_s": total, "self_s": self_s, "items": items,
                "items_per_s": _ratio(items, total)}[field]

    values: dict[str, float] = dict(counters)
    for name, *_ in PER_LAYER:
        if name in values or name in ("process.cpu_s", "trace.overhead_s"):
            continue
        group, field = name.rsplit(".", 1)
        if field == "hit_ratio":
            hits = counters[f"{group}.hits"]
            values[name] = _ratio(hits, hits + counters[f"{group}.misses"])
        elif name == "generate.items":
            values[name] = sum(acc[3] for g, acc in by_group.items() if g.startswith("generate."))
        elif group in MODULES:
            values[name] = sum(acc[2] for g, acc in by_group.items()
                               if g.split(".", 1)[0] == group)
        elif group == "spaces.card" and field == "repeat_ratio":
            values[name] = _ratio(counters["card_repeats"], get("spaces.card", "calls"))
        elif group == "census.verify" and field in ("candidates", "members"):
            values[name] = counters[f"verify_{field}"]
        elif group == "census.verify":
            values[name] = _ratio(counters["verify_members"], counters["verify_candidates"])
        else:
            values[name] = get(group, field)
    return {name: values[name] for name, *_ in PER_LAYER
            if name not in ("process.cpu_s", "trace.overhead_s")}
