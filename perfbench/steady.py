"""Run every workload many times and report how steady each end-to-end metric is.

    python3 perfbench/steady.py --runs 10 --sets 2 --traced

Every workload of ``BENCHMARK.json`` runs for its ``run_seconds``, each
run with its own seed: 1 to ``--runs`` in the first set, the next ``--runs``
seeds in the second. For every workload and metric this prints the median,
the quartiles and the spread (interquartile distance over the median) of
each set, the spread as a share of the metric's bound, and, with two sets,
how much the second median is worse than the first. ``--traced`` adds one
untraced and one traced run per workload, with seed 1, and reports the
tracing overhead between them, the p90 and the triad rate. The raw values go
to ``perfbench/out/steady.json``.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 1


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall_s = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(command[1:])} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"error: {workload} seed {seed} produced wrong outputs")
    notes = "; ".join(line for line in proc.stderr.splitlines() if line.startswith(("setup", "loop")))
    print(f"    {workload} seed {seed} trace {trace}: {wall_s:.1f} s wall; {notes}", flush=True)
    result["wall_s"] = wall_s
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worsening(metric, first, second):
    """Share by which the second median is worse than the first (negative: better)."""
    change = second / first - 1.0
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    report = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for k in range(args.sets):
            seeds = range(FIRST_SEED + k * args.runs, FIRST_SEED + (k + 1) * args.runs)
            results = [run_once(workload, seed, seconds, 0) for seed in seeds]
            sets.append(results)
            runs.append(results)
            shares = {r["failed"] / r["attempted"] for r in results}
            print(f"{workload} set {k + 1}: failed share {sorted(shares)}", flush=True)
        entry = {"sets": [[r["metrics"] for r in results] for results in sets], "metrics": {}}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = [summary([r["metrics"][name]["value"] for r in results]) for results in sets]
            line = f"  {workload:12s} {name:12s} bound {metric['bound']:.2f}"
            for s in stats:
                line += (f" | median {s['median']:.4g} q1 {s['q1']:.4g} q3 {s['q3']:.4g}"
                         f" spread {s['spread']:.3f} ({s['spread'] / metric['bound']:.2f} of bound)")
            row = {"bound": metric["bound"], "sets": stats}
            if len(stats) == 2:
                row["worsening"] = worsening(metric, stats[0]["median"], stats[1]["median"])
                line += f" | set 2 worse by {row['worsening']:+.3f}"
            entry["metrics"][name] = row
            print(line, flush=True)
        if args.traced:
            # Set against an untraced run of the same seed just before it,
            # since the speed of a shared machine can drift over minutes.
            untraced = run_once(workload, FIRST_SEED, seconds, 0)["metrics"]["op_p50_ms"]["value"]
            run_once(workload, FIRST_SEED, seconds, 1)
            trace = json.loads((HERE / "out" / f"trace-{workload}-{FIRST_SEED}.json").read_text())
            figures = trace["figures"]
            figures["untraced_op_p50_ms"] = untraced
            figures["tracing_overhead"] = figures["traced_op_p50_ms"] / untraced - 1.0
            entry["traced"] = figures
            print(f"  {workload:12s} traced: p50 {figures['traced_op_p50_ms']:.4g} ms"
                  f" (overhead {figures['tracing_overhead']:+.3f}), p90 {figures['traced_op_p90_ms']:.4g} ms,"
                  f" triad {figures['triad_gbps']:.3g} GB/s", flush=True)
        report["workloads"][workload] = entry
    walls = [r["wall_s"] for results in runs for r in results]
    print(f"{len(walls)} runs took {sum(walls):.0f} s, {max(walls):.1f} s the longest", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(report, indent=1), encoding="utf-8")


if __name__ == "__main__":
    main()
