"""Record a before/after benchmark comparison as a BENCH_<n>.json file.

    python3 tools/bench_record.py --parent PARENT_CHECKOUT --out BENCH_6.json

Compares two full checkouts of the repository: ``--parent`` and ``--change``
(by default the checkout holding this script). Everything runs one process
at a time, from each tree's own files:

- for each workload, ``--pairs`` pairs of
  ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``,
  alternating which tree runs first, with seed ``--seed-base + k`` for pair k;
- ``TRACED_RUNS`` traced runs (``--trace 1 --seed 0``) per workload and
  tree, alternating which tree runs first;
- the C07/C08 acceptance fixture's sweep (360 Dantzig trials), run alone in
  a fresh interpreter and timed; nothing is written (Tier-1 pins the files
  ``write_sweep`` writes from its records);
- the Tier-1 suite, timed.

The file holds each tree's ``src/`` line count, every run's end-to-end
metrics, each metric's median and quartiles per side, the pairs the change
wins and loses on each end-to-end metric (in the direction the change
checkout's ``BENCHMARK.json`` calls better; a tie counts for neither side),
one verdict per workload and end-to-end metric (see ``verdict``), every
traced run's per-layer metrics with each metric's median, min and max per
side, and the host's core count and RAM.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("sweep-dantzig", "pipeline-large", "sweep-population")
SIDES = ("parent", "change")
# a single traced reading of a per-layer time can move 1.7x with nothing
# behind it, so each side's per-layer metrics are read over several runs
TRACED_RUNS = 3

# Runs the C07 grid, which the trend_records fixture of
# tests/test_acceptance.py runs: C07_SWEEP of the tree's own tests/helpers.py.
# It calls run_sweep alone, so it runs on trees before and after any change
# to the writers.
C07_GRID = """
import diffdag as dd
from helpers import C07_SWEEP
dd.run_sweep(C07_SWEEP)
"""


def _env(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    return env


def src_lines(tree: Path) -> int:
    """Newlines in the tree's ``src/**/*.py`` files, the count ``wc -l`` gives."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src").rglob("*.py"))


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last stdout line of one perfbench run, plus its ``# env`` line."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed in {tree.name}:\n{out.stderr}")
    result = json.loads(lines[-1])
    env_line = next(line for line in lines if line.startswith("# env "))
    result["env"] = json.loads(env_line[len("# env "):])
    return result


def traced(tree: Path, workload: str) -> dict:
    result = run_bench(tree, workload, 0, 0.0, 1)
    with open(tree / "perfbench" / "out" / f"{workload}-seed0-trace.json", encoding="utf-8") as fh:
        absent = json.load(fh)["absent"]
    return {"absent": absent, "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def layer_spread(runs: list[dict]) -> dict:
    """Each per-layer metric's median, min and max over ``runs``, one dict
    of metric values per traced run."""
    values: dict = {}
    for run in runs:
        for name, value in run.items():
            values.setdefault(name, []).append(value)
    return {name: {"median": statistics.median(v), "min": min(v), "max": max(v)}
            for name, v in values.items()}


def traced_runs(trees: dict, workload: str) -> dict:
    """Per side, ``TRACED_RUNS`` traced runs, the first tree alternating
    from run to run, and their ``layer_spread``."""
    runs: dict = {side: [] for side in SIDES}
    for k in range(TRACED_RUNS):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            runs[side].append(traced(trees[side], workload))
    return {side: {"runs": runs[side], "summary": layer_spread([r["metrics"] for r in runs[side]])}
            for side in SIDES}


def c07_grid(tree: Path) -> dict:
    env = _env(tree)
    env["PYTHONPATH"] += os.pathsep + str(tree / "tests")
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", C07_GRID], env=env, check=True)
    return {"s": time.perf_counter() - t}


def tier1(tree: Path) -> dict:
    t = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=tree, env=_env(tree), capture_output=True, text=True, check=False,
    )
    seconds = time.perf_counter() - t
    return {"s": seconds, "summary": out.stdout.strip().splitlines()[-1]}


def pair_count(text: str) -> int:
    """``--pairs``: quartiles need at least two runs per side."""
    pairs = int(text)
    if pairs < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {pairs}")
    return pairs


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def directions(benchmark: Path, field: str = "better") -> dict:
    """Each end-to-end metric of a ``BENCHMARK.json``, mapped to its better
    side, or with ``field="bound"`` to its bound."""
    with open(benchmark, encoding="utf-8") as fh:
        return {m["name"]: m[field] for m in json.load(fh)["end_to_end"]}


def tally(runs: list[dict], better: dict) -> dict:
    """Per end-to-end metric, the pairs the change wins and loses; a pair
    with equal values counts for neither."""
    sign = {"higher": 1.0, "lower": -1.0}
    out = {}
    for metric, side in better.items():
        gains = [sign[side] * (r["change"][metric] - r["parent"][metric]) for r in runs]
        out[metric] = {"wins": sum(g > 0 for g in gains), "losses": sum(g < 0 for g in gains),
                       "pairs": len(runs)}
    return out


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """One end-to-end metric's verdict over paired runs (``parent[k]`` and
    ``change[k]`` ran as pair k). ``bound`` is the fraction of the parent's
    median by which the metric may worsen; the first rule that holds decides:

    - "gain": the change wins at least 9 in 10 pairs (a tie counts for
      neither side), and its median is better by more than the parent's
      q3 - q1;
    - "regressed": its median is worse by more than the bound;
    - "unresolved": the parent's q3 - q1 exceeds the bound, unless every
      change run is better than every parent run;
    - "within bound".
    """
    sign = 1.0 if better == "higher" else -1.0
    ours, theirs = [sign * v for v in change], [sign * v for v in parent]
    base, after = spread(parent), spread(change)
    iqr, allowed = base["q3"] - base["q1"], bound * abs(base["median"])
    gain = sign * (after["median"] - base["median"])
    if 10 * sum(c > p for p, c in zip(theirs, ours)) >= 9 * len(parent) and gain > iqr:
        return "gain"
    if gain < -allowed:
        return "regressed"
    if iqr > allowed and min(ours) <= max(theirs):
        return "unresolved"
    return "within bound"


def compare_workload(trees: dict, workload: str, pairs: int, seconds: float, seed_base: int,
                     better: dict, bounds: dict) -> dict:
    runs = []
    for k in range(pairs):
        seed = seed_base + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            result = run_bench(trees[side], workload, seed, seconds, 0)
            pair[side] = {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                **{name: m["value"] for name, m in result["metrics"].items()},
            }
            env = result["env"]
        runs.append(pair)
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{side} {pair[side]['ops_per_s']:.4f}/s" for side in SIDES), flush=True)
    metrics = [m for m in runs[0]["parent"] if m not in ("correct", "attempted", "failed")]
    summary = {m: {side: spread([r[side][m] for r in runs]) for side in SIDES} for m in metrics}
    return {
        "env": {k: env[k] for k in ("nproc", "cpus_usable", "ram_mb", "python", "numpy", "scipy")},
        "summary": summary,
        "wins": tally(runs, better),
        "verdicts": {m: verdict([r["parent"][m] for r in runs], [r["change"][m] for r in runs],
                                better[m], bounds[m]) for m in better},
        "runs": runs,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=pair_count, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed-base", type=int, default=100)
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better = directions(trees["change"] / "BENCHMARK.json")
    bounds = directions(trees["change"] / "BENCHMARK.json", "bound")

    record: dict = {
        "command": f"python3 perfbench/run.py --seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "src_lines": {side: src_lines(trees[side]) for side in SIDES},
        "workloads": {},
        "traced": {},
    }

    def save() -> None:
        # after every stage, so a failed later stage keeps the earlier ones
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for workload in WORKLOADS:
        record["workloads"][workload] = compare_workload(
            trees, workload, args.pairs, args.seconds, args.seed_base, better, bounds)
        print(f"{workload} verdicts: " + ", ".join(
            f"{m} {v}" for m, v in record["workloads"][workload]["verdicts"].items()), flush=True)
        save()
    for workload in WORKLOADS:
        record["traced"][workload] = traced_runs(trees, workload)
        save()
    record["c07_grid"] = {side: c07_grid(trees[side]) for side in SIDES}
    save()
    record["tier1"] = {side: tier1(trees[side]) for side in SIDES}
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
