"""Write a BENCH_*.json file: the benchmark's end-to-end metrics for a base
revision and the working tree, from unchanged `perfbench/run.py` runs.

    python3 tools/bench_file.py --base 979d424 --out BENCH_7.json

Each side runs from its own files: the base revision is exported with
`git archive` into a temporary directory, the working tree runs in place.
Every workload of BENCHMARK.json gets PAIRS pairs of runs, each as long as
its `run_seconds`.  Pair i runs both sides on seed SEED0 + i, the base
first in even pairs and the working tree first in odd ones, so a drift in
machine speed falls on both.  The file keeps every run, with its length
in seconds (the harness's checks after the run included) and its `rounds`
line, and, per metric, each side's median and quartiles and the number of
pairs the working tree won.  A metric is `unresolved` when the base
side's quartile spread over its median exceeds the metric's bound in
BENCHMARK.json and not every working-tree run beats every base run: at that
spread a comparison of medians against the bound can fail on noise alone.
Unresolved metrics are named on stderr.  `run_length_s` gives each side's
median run length, which is also printed per workload, naming any side
whose median run is longer than RUN_LENGTH_LIMIT_S.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED0 = 701
PAIRS = 10
# The longest run, set-up and checks after it included, with which the
# benchmark fitted its 70 runs into 3,420 s.
RUN_LENGTH_LIMIT_S = 46.0


def run_harness(tree: Path, workload: str, seed: int, seconds: float):
    """One run's end-to-end metrics, its elapsed seconds (the harness's
    checks after the run included) and its `rounds ... attempted ...` line."""
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    elapsed = time.perf_counter() - start
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "elapsed_s": elapsed,
            "rounds": next(line for line in lines if line.startswith("rounds ")),
            **{k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarize(pairs, end_to_end):
    """Per end-to-end metric of BENCHMARK.json (name, bound, better), each
    side's quartiles, the pairs the working tree won, and `unresolved`."""
    summary = {}
    for metric in end_to_end:
        name = metric["name"]
        base = [p["base"][name] for p in pairs]
        head = [p["head"][name] for p in pairs]
        spread = quartiles(base)
        beats = (lambda h, b: h < b) if metric["better"] == "lower" else (lambda h, b: h > b)
        summary[name] = {"base": spread, "head": quartiles(head),
                         "head_wins": sum(beats(h, b) for b, h in zip(base, head)),
                         "pairs": len(pairs),
                         "unresolved": (spread["q3"] - spread["q1"]
                                        > metric["bound"] * abs(spread["median"])
                                        and not all(beats(h, b) for h in head for b in base))}
    # A change that makes operations faster fits more rounds, and so more
    # checks, into each run: the run length shows it.
    summary["run_length_s"] = {side: statistics.median(p[side]["elapsed_s"] for p in pairs)
                               for side in ("base", "head")}
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    base_rev = subprocess.run(["git", "rev-parse", "--short", args.base], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    doc = {"schema": "polyprog-bench/1",
           "command": "python3 tools/bench_file.py " + " ".join(argv or sys.argv[1:]),
           "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                       "platform": platform.platform()},
           "base": base_rev, "head": "working tree", "seconds": seconds,
           "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "base.tar"
        subprocess.run(["git", "archive", "-o", str(archive), base_rev], cwd=ROOT, check=True)
        base_tree = Path(tmp) / "base"
        with tarfile.open(archive) as tar:
            tar.extractall(base_tree)
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for i in range(PAIRS):
                seed = SEED0 + i
                order = [("base", base_tree), ("head", ROOT)]
                if i % 2:
                    order.reverse()
                pair = {"seed": seed, "first": order[0][0]}
                for side, tree in order:
                    pair[side] = run_harness(tree, workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: wall_s {pair[side]['wall_s']:.3f} "
                          f"peak_rss_mb {pair[side]['peak_rss_mb']:.1f} "
                          f"run {pair[side]['elapsed_s']:.1f} s", file=sys.stderr)
                pairs.append(pair)
            summary = summarize(pairs, bench["end_to_end"])
            doc["workloads"][workload] = {"summary": summary, "runs": pairs}
            for name in (m["name"] for m in bench["end_to_end"]):
                if summary[name]["unresolved"]:
                    print(f"{workload} {name} unresolved: the base quartile spread exceeds "
                          f"its bound", file=sys.stderr)
            for side, length in summary["run_length_s"].items():
                over = f", above {RUN_LENGTH_LIMIT_S:.0f} s" if length > RUN_LENGTH_LIMIT_S else ""
                print(f"{workload} {side} median run length {length:.1f} s{over}",
                      file=sys.stderr)
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
