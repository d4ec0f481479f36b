"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import run
import sample
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_lists_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, *_ in metrics.END_TO_END]
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, *_ in metrics.PER_LAYER]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    result = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}


def test_corrupted_reference_counts_as_failure(monkeypatch):
    monkeypatch.setitem(workloads.MAXDEG2_COUNTS, 5, 36)
    raw = {"plain": [sample.run_sample("maxdeg2", smoke=True)], "traced": [],
           "setups": [0.1]}
    result = run.summarize(raw, trace=False)
    assert result["attempted"] == len(workloads.operations("maxdeg2", smoke=True))
    assert result["failed"] == 1 and not result["correct"]
    failed = [op["op"] for op in raw["plain"][0]["ops"] if op["error"]]
    assert failed == ["maxdeg2-5"]


def test_raising_operation_is_counted_and_the_rest_still_run(monkeypatch):
    ops = workloads.operations("stable", smoke=True)
    ops[0] = workloads.Op("boom", lambda sd: 1 / 0, lambda out: None)
    monkeypatch.setattr(workloads, "operations", lambda *_: ops)
    out = sample.run_sample("stable", smoke=True)
    assert [op["error"] is not None for op in out["ops"]] == [True] + [False] * (len(ops) - 1)


def _bindings() -> dict:
    """Every attribute of every switchdeck module and class, by identity."""
    seen = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "switchdeck" or name.startswith("switchdeck."):
            for attr, value in vars(mod).items():
                seen[(name, attr)] = id(value)
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        seen[(name, attr, cattr)] = id(cvalue)
    return seen


def test_traced_run_restores_every_wrapped_function():
    before = _bindings()
    out = sample.run_sample("maxdeg2", trace=True, smoke=True)
    assert _bindings() == before
    assert out["layers"]["spaces.card.calls"] > 0


def test_tracer_sees_calls_through_import_sites():
    import switchdeck

    orig = switchdeck.canon.canonical_code
    with Tracer() as tracer:
        # decks binds canonical_code and switch_vertex by name
        assert switchdeck.decks.canonical_code is not orig
        switchdeck.deck(switchdeck.parse_digraph6("&BP_"))
    spans = tracer.spans()
    calls = {g: sum(r["calls"] for r in spans if r["group"] == g)
             for g in ("switching.switch_vertex", "decks.deck")}
    assert calls == {"switching.switch_vertex": 3, "decks.deck": 1}
    assert "decks.deck" in {r["parent"] for r in spans if r["group"] == "canon.canonical_code"}
    assert switchdeck.decks.canonical_code is orig


def test_generator_spans_cover_consumption_not_creation():
    import switchdeck

    with Tracer() as tracer:
        gen = switchdeck.generate.gen_tournaments(4)
        assert tracer.spans() == []
        items = list(gen)
    row = next(r for r in tracer.spans() if r["group"] == "generate.gen_tournaments")
    assert row["calls"] == 1 and row["items"] == len(items) == 4
    assert row["self_s"] > 0


def test_run_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                           "--workload", "maxdeg2", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
