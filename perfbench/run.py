"""Benchmark of the polyprog CLI: one workload, one seed, one result line.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 40 --trace 0

Operations run in process through `polyprog.cli.main`, so argument parsing,
report building and emission are measured; interpreter start-up, imports
and input generation are `setup_s`.  Rounds of operations repeat until the
next round would end past `--seconds`.  Every report is then checked
against independent computations (see checks.py).

`--trace 0` prints the end-to-end metrics.  Each operation's times are
scaled by the machine's speed while it ran, read from a fixed unit of
reference work that a timer runs during the operations (see reference.py).
`--trace 1` runs each round twice on the same inputs, untraced and then
traced, checks that both passes wrote the same bytes, and prints the
per-layer metrics, also written to
perfbench/out/trace-<workload>-<seed>.json.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# One thread for numpy's BLAS, as for the program's own `--threads 1`: on a
# few shared cores, extra threads measure the scheduler, not the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import reference  # noqa: E402  (numpy reads the variables above on import)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

REFERENCE_EVERY_S = 0.25

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_s": "s",
              "peak_rss_mb": "MB"}


def process_age():
    """Seconds since this process started (Linux /proc), so interpreter
    start-up is part of the set-up time."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_op(cli, argv):
    """One CLI command: (exit code, stdout, stderr, wall s, cpu s)."""
    out, err = io.StringIO(), io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = -1
        err.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return rc, out.getvalue(), err.getvalue(), wall, cpu


def run_pass(cli, tracer, ops, cold, meter=None):
    """Run one round; returns per-op (rc, stdout, stderr, wall, cpu, start,
    end).  With `cold`, the package's caches are emptied before each op, as
    in a new CLI process.  With a reference `meter` running, the reference
    work done during an op is taken out of its times."""
    results = []
    for op in ops:
        if cold:
            tracer.clear_caches()
        wall0, cpu0 = meter.taken() if meter else (0.0, 0.0)
        start = time.perf_counter()
        rc, out, err, wall, cpu = run_op(cli, op.argv)
        end = time.perf_counter()
        if meter:
            wall1, cpu1 = meter.taken()
            wall, cpu = wall - (wall1 - wall0), cpu - (cpu1 - cpu0)
        results.append((rc, out, err, wall, cpu, start, end))
    return results


def check_round(checks, ops, results, problems):
    """Check every report of a round, adding what is wrong to `problems`;
    returns the number of failed operations, which are not checked."""
    failed = 0
    for op, (rc, out, err, *_) in zip(ops, results):
        if rc != 0:
            failed += 1
            print(f"failed: {' '.join(op.argv[:2])}: exit {rc}: {err.strip()[-300:]}",
                  file=sys.stderr)
            continue
        try:
            errs = checks.CHECKS[op.kind](op.meta, json.loads(out))
        except (ValueError, KeyError, TypeError, IndexError, ArithmeticError) as exc:
            errs = [f"unreadable report: {exc!r}"]
        problems.extend(f"{' '.join(op.argv[:2])}: {e}" for e in errs)
    return failed


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "polyprog").is_dir():
        print(f"no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from polyprog import cli
    import checks
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = HERE / "out" / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        return measure(args, cli, checks, tracer, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, cli, checks, tracer, workload):
    ops = workload.round_ops(0)
    setup_s = process_age()
    meter = None
    if not args.trace:
        reference.UNITS[workload.reference]()   # warm its code and buffers
        meter = reference.Meter(REFERENCE_EVERY_S, workload.reference)
    start = time.perf_counter()
    rounds, walls, cpus, op_walls = [], [], [], []
    trace = tracer.Tracer() if args.trace else None
    overhead = []
    r = 0
    mismatched = []
    with meter or contextlib.nullcontext():
        while True:
            if trace:
                tracer.clear_caches()
            results = run_pass(cli, tracer, ops, workload.cold, meter)
            rounds.append((ops, results))
            walls.append(sum(res[3] for res in results))
            cpus.append(sum(res[4] for res in results))
            op_walls.extend(res[3] for res in results)
            if trace:
                tracer.clear_caches()
                trace.install()
                try:
                    traced = run_pass(cli, tracer, ops, workload.cold)
                finally:
                    trace.remove()
                trace.read_caches()
                overhead.append(sum(res[3] for res in traced) - walls[-1])
                mismatched += [op.argv[1] for op, a, b in zip(ops, results, traced)
                               if (a[0], a[1]) != (b[0], b[1])]
            r += 1
            if r == 1:
                # The first round only, so that the figure does not depend on
                # how many rounds fit.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / r > args.seconds:
                break
            ops = workload.round_ops(r)

    problems = [f"traced report differs from untraced: {name}" for name in mismatched]
    attempted = failed = 0
    for round_ops, results in rounds:
        attempted += len(round_ops)
        failed += check_round(checks, round_ops, results, problems)
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    if trace:
        metrics = trace.metrics(len(rounds), statistics.median(overhead))
        units = tracer.metric_units()
        out = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
        out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                   "rounds": len(rounds), "metrics": metrics,
                                   "units": units}, indent=2) + "\n")
    else:
        units = len(meter.ticks)
        print(f"unscaled: wall_s {statistics.median(walls):.6g} cpu_s "
              f"{statistics.median(cpus):.6g} op_p50_s {statistics.median(op_walls):.6g}; "
              f"reference unit {meter.wall / units:.6g} s wall, "
              f"{meter.cpu / units:.6g} s CPU, over {units} units")
        walls, cpus, op_walls = [], [], []
        for _, results in rounds:
            scaled = []
            for res in results:
                wall_scale, cpu_scale = meter.scales(res[5], res[6])
                scaled.append((res[3] * wall_scale, res[4] * cpu_scale))
            walls.append(sum(w for w, _ in scaled))
            cpus.append(sum(c for _, c in scaled))
            op_walls.extend(w for w, _ in scaled)
        metrics = {"setup_s": setup_s, "wall_s": statistics.median(walls),
                   "cpu_s": statistics.median(cpus),
                   "op_p50_s": statistics.median(op_walls),
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"rounds {len(rounds)} attempted {attempted} failed {failed} "
          f"problems {len(problems)}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
