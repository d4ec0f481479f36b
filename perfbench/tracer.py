"""Spans around switchdeck's layer boundaries, recorded from outside the package.

Tracer wraps the functions and methods listed in TARGETS.  A module-level
function is replaced at every place it is bound: its defining module and
every switchdeck module that imported it by name (decks binds canonical_code,
census binds make_family, and so on), so calls that skip the defining module
are still seen.  Methods are replaced on their class.

Spans are aggregated in memory per (group, parent group) as calls, total_s,
self_s and items; self time is a span's duration minus the time its child
spans cover.  Generators are timed while they are consumed, one span per
resumption.  uninstall() puts every original object back.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

ROOT = "sample"

# (module, attribute path, group).  Several targets may share a group; the
# group is the name metrics use.
TARGETS = (
    ("digraph", "in_masks", "digraph.in_masks"),
    ("digraph", "components", "digraph.components"),
    ("switching", "switch_vertex", "switching.switch_vertex"),
    ("canon", "canonical_code", "canon.canonical_code"),
    ("canon", "_canonical_search", "canon.search"),
    ("canon", "aut_group_undirected", "canon.aut_group_undirected"),
    ("canon", "OrientationSpace.act_array", "canon.OrientationSpace.act_array"),
    ("canon", "OrientationSpace.orbit_min_array", "canon.OrientationSpace.orbit_min_array"),
    ("canon", "OrientationSpace.reps_array", "canon.OrientationSpace.reps_array"),
    ("decks", "deck", "decks.deck"),
    ("decks", "t_deck", "decks.t_deck"),
    ("spaces", "PathSpace.card", "spaces.card"),
    ("spaces", "CycleSpace.card", "spaces.card"),
    ("spaces", "PathSpace.orbit_min_array", "spaces.orbit_min_array"),
    # CycleSpace.orbit_min_array only forwards here, and reps_array calls it directly
    ("spaces", "CycleSpace._orbit_min_array", "spaces.orbit_min_array"),
    ("spaces", "PathSpace.domain_chunk", "spaces.domain_chunk"),
    ("spaces", "CycleSpace.domain_chunk", "spaces.domain_chunk"),
    ("spaces", "PathSpace.reps_array", "spaces.reps_array"),
    ("spaces", "CycleSpace.reps_array", "spaces.reps_array"),
    ("generate", "gen_tournaments", "generate.gen_tournaments"),
    ("generate", "gen_underlying_graphs", "generate.gen_underlying_graphs"),
    ("stability", "is_switching_stable", "stability.is_switching_stable"),
    ("stability", "classify_stable_connected", "stability.classify_stable_connected"),
    ("census", "run_census", "census.run_census"),
    ("census", "group_by_deck", "census.group_by_deck"),
    ("census", "_verify_candidates", "census.verify"),
    ("census", "_check_dichotomy", "census.dichotomy"),
    ("report", "make_family", "report.make_family"),
)


# group -> items counted per call, from the call's positional arguments
_ITEMS = {
    "canon.OrientationSpace.act_array": lambda args: len(args[2]),        # (self, action, xs)
    "canon.OrientationSpace.orbit_min_array": lambda args: len(args[1]),  # (self, xs)
    "spaces.orbit_min_array": lambda args: len(args[1]),                  # (self, xs)
    "spaces.domain_chunk": lambda args: args[2] - args[1],                # (self, start, stop)
}


class Tracer:
    """Aggregated spans plus the traffic counters some layers need."""

    def __init__(self):
        self.stats: dict[tuple[str, str], list] = {}   # [calls, total_s, self_s, items]
        self._stack: list[list] = [[ROOT, 0.0]]        # [group, child_s] per open span
        self._patched: list[tuple[object, str, object]] = []
        self.card_seen: set[tuple] = set()
        self.card_repeats = 0
        self.verify_candidates = 0
        self.verify_members = 0

    # -- accounting --------------------------------------------------------

    def _record(self, group: str, frame: list, t0: float, calls: int, items: int):
        dt = perf_counter() - t0
        self._stack.pop()
        parent = self._stack[-1]
        parent[1] += dt
        rec = self.stats.get((group, parent[0]))
        if rec is None:
            rec = self.stats[(group, parent[0])] = [0, 0.0, 0.0, 0]
        rec[0] += calls
        rec[1] += dt
        rec[2] += dt - frame[1]
        rec[3] += items

    def _wrap_function(self, fn, group: str):
        items_of = _ITEMS.get(group)
        observe = {"spaces.card": self._observe_card,
                   "census.verify": self._observe_verify}.get(group)
        stack = self._stack
        record = self._record

        def wrapper(*args, **kwargs):
            frame = [group, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record(group, frame, t0, 1, items_of(args) if items_of else 0)
            if observe is not None:
                observe(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, group: str):
        stack = self._stack
        record = self._record

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            calls = 1
            try:
                while True:
                    frame = [group, 0.0]
                    stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        record(group, frame, t0, calls, 0)
                        return
                    except BaseException:
                        record(group, frame, t0, calls, 0)
                        raise
                    record(group, frame, t0, calls, 1)
                    calls = 0
                    yield item
            finally:
                it.close()

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_card(self, args, _out):
        space, x, v = args
        key = (type(space).__name__, space.n, getattr(space, "digons", False), x, v)
        if key in self.card_seen:
            self.card_repeats += 1
        else:
            self.card_seen.add(key)

    def _observe_verify(self, args, families):
        self.verify_candidates += len(args[1])
        self.verify_members += sum(fam.size for fam in families)

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every target at every site that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        package = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "switchdeck" or name.startswith("switchdeck."))]
        for mod_name, path, group in TARGETS:
            owner = sys.modules[f"switchdeck.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._patch(cls, attr, orig, self._wrap(orig, group))
                continue
            orig = getattr(owner, path)
            wrapped = self._wrap(orig, group)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, orig, wrapped)
        return self

    def _wrap(self, fn, group: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, group)
        return self._wrap_function(fn, group)

    def _patch(self, owner, attr: str, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, orig))

    def uninstall(self):
        """Put back every original; safe to call twice."""
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def spans(self) -> list[dict]:
        """The aggregate, one row per (group, parent)."""
        return [{"group": g, "parent": p, "calls": c, "total_s": t, "self_s": s, "items": i}
                for (g, p), (c, t, s, i) in sorted(self.stats.items())]
