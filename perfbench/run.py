"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload layerquad-paths --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
With `--trace 0` the result holds the end-to-end metrics.  With
`--trace 1` the untraced loop runs in-process and one more round runs
traced; the result holds the per-layer metrics and the spans go to
`.perfbench_out/`.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's `src/` first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "monocover" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {src / 'monocover'}; "
                 "run from the root of a checkout")
    sys.path.insert(0, str(src))
    import monocover
    if Path(monocover.__file__).resolve().parent != (src / "monocover").resolve():
        sys.exit(f"error: imported monocover from {monocover.__file__}, not {src}")


def op_wall(rec: dict) -> float:
    return sum(rec.get("steps", {}).values())


def attempt(run, op, k) -> dict:
    try:
        return run(op, k)
    except Exception:  # an operation that raises is counted as failed
        return {"error": traceback.format_exc()}


def timed(func):
    t0 = time.perf_counter()
    out = func()
    return out, time.perf_counter() - t0


def run_rounds(wl, run, seconds: float) -> tuple[list[tuple[int, dict]], list[float]]:
    """Whole rounds of `wl.ops`, at least `wl.min_rounds`, until `seconds`
    have passed: the records and the set-up times.

    Set-up runs once before the first round and again after each round, so
    that its times come from the whole run, as the operations' do.  The
    later set-ups make the same operations; the first ones are kept."""
    wl.ops, first = timed(wl.setup)
    setup_s, records = [wl.watch(first)], []
    t_start = time.perf_counter()
    while len(records) < wl.min_rounds * len(wl.ops) or time.perf_counter() - t_start < seconds:
        for i, op in enumerate(wl.ops):
            records.append((i, attempt(run, op, len(records))))
        setup_s.append(wl.watch(timed(wl.setup)[1]))
    return records, setup_s


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    run_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        return measure(workloads.WORKLOADS[args.workload](ROOT, args.seed, run_dir), args)
    finally:
        shutil.rmtree(run_dir)


def measure(wl, args) -> int:
    run = wl.replay if args.trace else wl.run
    records, setup_s = run_rounds(wl, run, args.seconds)
    peak_rss_mb = wl.peak_rss_mb([r for _, r in records])
    traced = []
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        with tracer.installed():
            for i, op in enumerate(wl.ops):
                traced.append((i, attempt(wl.replay, op, len(records) + i)))

    # Every check runs here, after the timed phase.
    untraced = {i: rec["result"] for i, rec in records if "error" not in rec}
    checked, branches, failures = {}, {}, []
    for j, (i, rec) in enumerate(records + traced):
        if "error" in rec:
            failures.append(f"op {i} raised:\n{rec['error']}")
            continue
        key = (i, rec["result"])
        if key not in checked:
            try:
                checked[key] = wl.check(wl.ops[i], rec)
            except Exception:  # a check that cannot read the output fails the op
                checked[key] = [f"check raised:\n{traceback.format_exc()}"]
        problems = list(checked[key])
        if j >= len(records) and rec["result"] != untraced.get(i):
            problems.append("traced result differs from the untraced one")
        if problems:
            failures.append(f"op {i}: " + "; ".join(problems))
        elif rec["branch"] is not None:
            branches[rec["branch"]] = branches.get(rec["branch"], 0) + 1

    for line in failures[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    print("branches " + json.dumps(branches, sort_keys=True))

    if args.trace:
        metrics = tracer.metrics()
        # Against the fastest untraced round: the first one can pay for
        # heap growth that later rounds reuse.
        size = len(wl.ops)
        rounds = [sum(op_wall(r) for _, r in records[k:k + size])
                  for k in range(0, len(records), size)]
        metrics["trace.overhead_s"] = (sum(op_wall(r) for _, r in traced) - min(rounds), "s")
        tracer.save(OUT / f"spans-{wl.name}-seed{args.seed}.npz")
    else:
        # An operation's time is the sum over its steps of each step's
        # fastest repetition in the run: other tenants of the machine only
        # ever slow a repetition down.
        best = {}
        for i, rec in records:
            if "error" not in rec:
                for step, s in rec["steps"].items():
                    by_op = best.setdefault(step, {})
                    by_op[i] = min(by_op.get(i, math.inf), s)
        ops = {i for by_op in best.values() for i in by_op}
        op_best = [sum(by_op[i] for by_op in best.values()) for i in ops]
        # A step named "scan/j" is slice j of the step "scan".
        steps = {}
        for step, by_op in best.items():
            whole = step.split("/")[0]
            steps[whole] = steps.get(whole, 0.0) + statistics.median(by_op.values())
        print("steps " + json.dumps(steps))
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "op_s": (statistics.mean(op_best or [0.0]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    failed = len(failures)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records) + len(traced),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
