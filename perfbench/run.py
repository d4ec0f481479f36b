"""switchdeck benchmark: census and stable-classification workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S      # table of every workload

Run from any directory; the program is imported from src/ next to this
directory.  Every sample is a fresh interpreter (sample.py), so every
lru_cache starts empty as in a command-line run, and samples run one at a
time.  Within --seconds the run spawns set-up probes that only import
switchdeck, then whole samples for as long as the next one and the closing
probes are expected to fit (always at least one), then the closing probes.

--trace 0 reports the end-to-end metrics: wall_s, the median over samples of
the summed time of the workload's public calls; setup_s, the median time
from interpreter start to `import switchdeck` done over probes and samples;
peak_rss_mb, the median of each sample's peak resident set.  --trace 1
alternates untraced and traced samples and reports the per-layer metrics of
metrics.PER_LAYER as medians over the traced samples, plus process.cpu_s
(untraced) and trace.overhead_s (traced minus untraced wall_s).

The workloads are exhaustive and deterministic, so --seed changes no input;
it is recorded with the result.  Every operation's output is checked against
reference facts; the last stdout line is the JSON result.  The run exits with
a non-zero code and prints no result if a sample cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SAMPLE = HERE / "sample.py"
PYCACHE = ROOT / ".bench_build" / "pycache"
PROBES = 10           # counted set-up probes per run, after one warm-up probe
SAMPLE_TIMEOUT_S = 150


class SampleError(RuntimeError):
    pass


def _spawn(args: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # set-up is timed with compiled bytecode, as an installed package has it,
    # whatever the caller's environment says; the cache stays in the checkout
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env["SWITCHDECK_BENCH_SPAWN"] = repr(time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(SAMPLE), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"sample {args} exceeded {SAMPLE_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise SampleError(f"sample {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise SampleError(f"sample {args} printed no result:\n{proc.stderr[-2000:]}") from exc


def measure(workload: str, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Probes and samples for one run; returns the raw records."""
    start = time.monotonic()
    versions = _spawn(["--probe"])["versions"]       # warm-up: fills the bytecode cache
    # set-up time drifts with machine state over seconds, so half the probes
    # run before the samples and half after them
    setups = [_spawn(["--probe"])["setup_s"] for _ in range(PROBES // 2)]
    reserve = time.monotonic() - start
    base = ["--workload", workload] + (["--smoke"] if smoke else [])
    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    while True:
        t0 = time.monotonic()
        plain.append(_spawn(base))
        if trace:
            traced.append(_spawn(base + ["--trace"]))
        durations.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(durations) + reserve > seconds:
            break
    setups += [_spawn(["--probe"])["setup_s"] for _ in range(PROBES - PROBES // 2)]
    setups += [s["setup_s"] for s in plain + traced]
    return {"versions": versions, "setups": setups, "plain": plain, "traced": traced}


def summarize(raw: dict, trace: bool) -> dict:
    """The result object: correct, attempted, failed and the metrics."""
    samples = raw["plain"] + raw["traced"]
    attempted = sum(len(s["ops"]) for s in samples)
    failed = sum(1 for s in samples for op in s["ops"] if op["error"] is not None)
    plain = raw["plain"]
    if trace:
        values = {name: statistics.median(s["layers"][name] for s in raw["traced"])
                  for name in raw["traced"][0]["layers"]}
        values["process.cpu_s"] = statistics.median(s["cpu_s"] for s in plain)
        values["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in raw["traced"])
                                      - statistics.median(s["wall_s"] for s in plain))
        units = {name: unit for name, unit, *_ in metrics.PER_LAYER}
    else:
        values = {"wall_s": statistics.median(s["wall_s"] for s in plain),
                  "setup_s": statistics.median(raw["setups"]),
                  "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain)}
        units = {name: unit for name, unit, _ in metrics.END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units}}


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(versions: dict, seed: int, seconds: float) -> dict:
    """Machine, toolchain and code identity recorded with every result."""
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    in_git = _git("rev-parse", "--show-toplevel") == str(ROOT)
    sha = _git("rev-parse", "HEAD") if in_git else None
    status = _git("status", "--porcelain", "--", "src") if in_git else None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model, **versions,
            "git_sha": sha, "git_dirty": None if status is None else bool(status),
            "src_sha256": digest.hexdigest(), "seed": seed, "seconds": seconds}


def _table(seconds: float, smoke: bool) -> None:
    """Every end-to-end metric plus failed_frac, one row per workload and metric."""
    print(f"{'workload':<14} {'metric':<12} {'value':>12} unit")
    for name in workloads.NAMES:
        result = summarize(measure(name, seconds, trace=False, smoke=smoke), trace=False)
        for metric, m in result["metrics"].items():
            print(f"{name:<14} {metric:<12} {m['value']:>12.4f} {m['unit']}")
        print(f"{name:<14} {'failed_frac':<12} {result['failed'] / result['attempted']:>12.4f} "
              f"ratio ({result['failed']} of {result['attempted']} operations)", flush=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run the small configuration the self-tests use")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "switchdeck").is_dir():
        print(f"no switchdeck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            _table(args.seconds, args.smoke)
            return 0
        raw = measure(args.workload, args.seconds, bool(args.trace), args.smoke)
    except SampleError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps({"provenance": provenance(raw["versions"], args.seed, args.seconds)}))
    print(json.dumps({"samples": len(raw["plain"]), "traced_samples": len(raw["traced"]),
                      "wall_s": [s["wall_s"] for s in raw["plain"]],
                      "setup_s": raw["setups"],
                      "caches": [s["caches"] for s in raw["plain"]]}))
    if args.trace:
        print(json.dumps({"spans": raw["traced"][-1]["spans"]}))
    for s in raw["plain"] + raw["traced"]:
        for op in s["ops"]:
            if op["error"] is not None:
                print(f"FAILED {op['op']}: {op['error']}", file=sys.stderr)
    print(json.dumps(summarize(raw, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
