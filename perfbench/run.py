"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload statevector --seed 1 --seconds 25 --trace 0

Run from the root of a qsim checkout; the program is imported from ``src``.
``--trace 0`` prints the end-to-end metrics of an untraced run. ``--trace 1``
wraps qsim's public names in spans, prints the per-layer metrics, and writes
the spans and reference figures to ``perfbench/out/trace-<workload>-<seed>.json``.
The last line of stdout is the result; diagnostics go to stderr.
"""

import os

# One BLAS thread: with two, OpenBLAS showed outliers of up to 3.5x on
# 16-qubit circuits on a 2-core machine; with one, none.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up samples taken before and again after the timed loop, so that their
# median spans the run rather than one moment of a machine whose speed drifts.
SETUP_SAMPLES = 3
WORKLOAD_NAMES = ("statevector", "shots", "density", "analysis")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up, print "ready" and exit; one sample of setup_s.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` first on the path, refusing any other qsim."""
    if not (ROOT / "src" / "qsim" / "__init__.py").is_file():
        sys.exit(f"error: no qsim sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import qsim

    if pathlib.Path(qsim.__file__).resolve().parent != ROOT / "src" / "qsim":
        sys.exit(f"error: imported qsim from {qsim.__file__}, not from this checkout")


def setup_samples(args):
    """Times from starting a workload process to its first timed operation."""
    samples = []
    command = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"error: set-up process exited with {code} before it was ready")
        samples.append(ready - start)
    return samples


def measure(workload, seconds, tracer, failure):
    """Whole rounds of operations until ``seconds`` of loop time have passed.

    Time spent checking outputs is excluded from the loop time. Returns the
    time of every operation, the throughput of every round and the counts.
    Every operation that returned is timed, whether or not its output passes
    the check: the one known fault is counted in ``failed`` only, so mending
    it does not move the speed metrics. Stops at the first output that fails
    its check with ``failure`` and reports it.
    """
    op_scope = tracer.operation if tracer else contextlib.nullcontext
    times, rates, attempted, failed, check_s, seen = [], [], 0, 0, 0.0, set()
    start = time.perf_counter()
    while time.perf_counter() - start - check_s < seconds:
        round_start, round_check_s = time.perf_counter(), check_s
        for i in range(workload.size):
            with op_scope(attempted):
                t0 = time.perf_counter()
                out = workload.run(i)
                t1 = time.perf_counter()
            attempted += 1
            try:
                ok = workload.check(i, out, i not in seen)
            except failure as exc:
                print(f"error: check failed: {exc}", file=sys.stderr)
                return None, None, attempted, failed
            del out
            seen.add(i)
            times.append(t1 - t0)
            failed += not ok
            check_s += time.perf_counter() - t1
        rates.append(workload.size / (time.perf_counter() - round_start - (check_s - round_check_s)))
    loop_s = time.perf_counter() - start - check_s
    print(f"loop {loop_s:.1f} s, checks {check_s:.1f} s, {attempted} ops in {len(rates)} rounds, "
          f"{len(times) / loop_s:.4g} ops/s over the whole loop", file=sys.stderr)
    return times, rates, attempted, failed


def main(argv=None):
    args = parse_args(argv)
    import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    timed = not (args.setup_only or args.trace)
    setup = setup_samples(args) if timed else []

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT / f"work-{os.getpid()}")
    try:
        workload.warm_up()
        if args.setup_only:
            print("ready", flush=True)
            return 0
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            workload.span = tracer.span
        times, rates, attempted, failed = measure(workload, args.seconds, tracer, workloads.CheckFailed)
        if times is None:
            print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
            return 1

        if timed:
            setup += setup_samples(args)
            print("setup samples " + " ".join(f"{x:.3f}" for x in setup) + " s", file=sys.stderr)
            values = {
                "setup_s": statistics.median(setup),
                "ops_per_s": statistics.median(rates),
                "op_p50_ms": statistics.median(times) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            wanted = spec["end_to_end"]
        else:
            values = spans.per_layer(workload, tracer, range(attempted), getattr(workload, "SHOTS", None))
            wanted = spec["per_layer"]
            unknown = set(values) - {m["name"] for m in wanted}
            if unknown:
                sys.exit(f"error: per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
            figures = {
                "workload": args.workload,
                "seed": args.seed,
                "ops": len(times),
                "traced_op_p50_ms": statistics.median(times) * 1e3,
                "traced_op_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
                "triad_gbps": spans.triad_gbps(),
                "triad_array_mib": spans.TRIAD_ELEMENTS * 8 / 2**20,
                "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            }
            print(json.dumps(figures), file=sys.stderr)
            OUT.mkdir(exist_ok=True)
            trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
            trace_file.write_text(json.dumps({"figures": figures, "spans": tracer.dump()}), encoding="utf-8")
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
        print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
