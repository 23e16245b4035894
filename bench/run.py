"""Benchmark harness: run one workload (or all of them), print every metric
with its unit, check the outputs, and end with one JSON result line.

    python3 bench/run.py --workload acceptance_sweep --seed 1 --seconds 60 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in the
library.  ``--trace 1`` installs span wrappers around every layer's public
functions, runs each op both untraced and traced, and reports the per-layer
metrics; the traced ops' slowdown against their untraced twins is
``trace.overhead_frac``.  ``--workload all`` runs every workload one after
another in this process.

BENCHMARK.json bounds acceptance_sweep and scenario_n240.  The others stay
runnable here but unbounded: fresh scenarios of sweep_n30, detect_n120 and
oracle_direct now and then reach the oracle's consensus matrix iteration,
which has taken minutes per call (an oracle_direct call at n=40 took
235 s on a 2-vCPU machine), and detect_n120 fits too few ops in a run to be steady across seeds.

Of the timing metrics, BENCHMARK.json bounds ``setup_s`` and ``op_tail_ms``;
``ops_per_s`` and ``op_p50_ms`` are printed but not bounded.  On a shared
2-vCPU VM the host's speed drifts by up to 1.4x from one minute-long run to
the next, in CPU time as much as in wall time, so across ten runs of the
same code the mean and the median op latency spread (quartile distance over
median) from 0.1 in a quiet hour to 0.35 in a busy one, past the largest
bound allowed (0.25).  The tail spread 0.04 to 0.12.  On scenario_n240,
whose ops cost about the same, the tail op is one that ran while the host
was slowest, and that speed varies little.  On acceptance_sweep, whose
trials differ in cost up to 25-fold, a slower run completes fewer ops, so
the ten-above rule reads a lower percentile; this also hides part of a real
slowdown there (replaying measured runs 1.3x slower raises that tail about
1.2x).

The library is imported from ``src/`` next to this directory, never from an
installed copy.  The process exits 1 when an output check fails and 2 when
the library or an argument is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 5

# End-to-end metrics printed for every workload: name -> unit.  BOUNDED are
# the ones BENCHMARK.json bounds; the outcome metrics only exist on the
# workloads that produce them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "f1_ecdi": "ratio",
    "f1_cdi": "ratio",
    "verdict_accuracy": "ratio",
}
BOUNDED = ("setup_s", "op_tail_ms", "peak_rss_mb")


def load_library():
    """Import the workloads, and with them numpy and the library."""
    if not os.path.isfile(os.path.join(SRC, "swarmsentry", "__init__.py")):
        print(f"error: no library source at {SRC}/swarmsentry", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, BENCH_DIR]
    import workloads
    import swarmsentry
    if os.path.dirname(os.path.abspath(swarmsentry.__file__)) != os.path.join(SRC, "swarmsentry"):
        print(f"error: swarmsentry imported from {swarmsentry.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return workloads


def import_seconds() -> float:
    """Median time to import the workloads (numpy and the library with them)
    in a fresh interpreter: an import happens once per process, so repeats
    need new processes."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
            "import workloads; print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code, SRC, BENCH_DIR], capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def machine_facts(numpy) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "loadavg_at_start": list(os.getloadavg()),
    }


def measure(wl, state, seconds: float, tracer=None) -> list[dict]:
    """Closed loop: run ops for ``seconds``.

    With a tracer (installed by the caller), each op runs twice back to back
    on the same input, untraced and traced, so the pair sees the same machine
    speed; the order alternates, because a repeat of the same input runs
    faster.  The untraced and traced passes are returned in that order.
    """
    passes = [{"latencies": [], "records": [], "raised": 0} for _ in range(2 if tracer else 1)]
    patches = []
    for module, attr, callback in wl.captures():
        patches += tracing.patch_everywhere(module, attr, tracing.after_call(callback))
    try:
        # Op 0 is a warm-up, neither timed nor traced nor checked, so
        # first-call costs (lazy imports, BLAS start-up) stay out of the
        # timed ops; ops that fail are counted among the timed ones.
        with contextlib.suppress(Exception):
            wl.run_op(wl.op_input(state, 0))
        cpu0, wall0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        k = 1
        while k == 1 or time.perf_counter() - wall0 < seconds:
            inp = wl.op_input(state, k)
            contexts = (contextlib.nullcontext(), tracer and tracer.op(k))
            order = range(len(passes)) if k % 2 == 0 else reversed(range(len(passes)))
            for log, context in ((passes[i], contexts[i]) for i in order):
                t0 = time.perf_counter()
                try:
                    with context:
                        out = wl.run_op(inp)
                except Exception:  # an op failure is counted, the run goes on
                    log["latencies"].append(time.perf_counter() - t0)
                    log["raised"] += 1
                    traceback.print_exc()
                else:
                    log["latencies"].append(time.perf_counter() - t0)
                    rec = wl.record(inp, out)
                    rec["digest"] = hashlib.sha256("\n".join(rec.pop("lines")).encode()).hexdigest()
                    log["records"].append(rec)
            k += 1
    finally:
        tracing.undo(patches)
    cpu1, wall1 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
    passes[0]["cpu_per_wall"] = cpu / (wall1 - wall0)
    return passes


def end_to_end(setup_s: float, run: dict) -> tuple[dict, dict]:
    """The timing metrics of an untraced run, and how the tail was taken."""
    lat = run["latencies"]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail = tracing.tail_latency(lat)
    info = {"ops": len(lat), "latencies_ms": [1000.0 * x for x in lat]}
    if tail is not None:
        metrics["op_tail_ms"] = 1000.0 * tail[0]
        info.update(tail_percentile=tail[1], tail_samples=tail[2])
    return metrics, info


def run_workload(wl, seed: int, seconds: float, trace: bool, import_s: float, facts: dict) -> bool:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup(seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    if trace:
        tracer = tracing.Tracer()
        with tracer:
            plain, traced_run = measure(wl, state, seconds, tracer)
    else:
        [plain] = measure(wl, state, seconds)

    records = plain["records"]
    checks, outcomes = wl.check(records) if records else ({}, {})
    checks["no_op_raised"] = plain["raised"] == 0
    attempted = len(plain["latencies"])
    unknown = sum(r["unknown"] for r in records)
    failed_frac = (plain["raised"] + unknown) / attempted
    digest_src = [r["digest"] for r in records[: wl.digest_ops]]
    summary = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "facts": facts, "setup_times_s": setup_times, "import_s": import_s,
        "digest": hashlib.sha256("\n".join(digest_src).encode()).hexdigest(),
        "digest_ops": len(digest_src),
    }

    os.makedirs(OUT_DIR, exist_ok=True)
    if trace:
        checks["traced_outputs_identical"] = (
            [r["digest"] for r in traced_run["records"]] == [r["digest"] for r in records])
        checks["traced_feasible_has_positions"] = tracer.counters["feasible_without_positions"] == 0
        metrics = tracer.layer_metrics(len(traced_run["latencies"]))
        metrics["process.cpu_per_wall"] = plain["cpu_per_wall"]
        # Geometric mean of the per-op ratios: with the order alternating, the
        # speed-up of running an input a second time cancels out of it.
        logs = [math.log(t / p) for t, p in zip(traced_run["latencies"], plain["latencies"])]
        metrics["trace.overhead_frac"] = math.exp(statistics.fmean(logs)) - 1.0
        units = tracing.PER_LAYER_UNITS
        report = {name: (metrics[name], units[name]) for name in units}
        tracer.write(os.path.join(OUT_DIR, f"{wl.name}.spans.jsonl"))
    else:
        metrics, info = end_to_end(setup_s, plain)
        summary.update(info)
        full = {**metrics, "failed_frac": failed_frac, **outcomes}
        report = {name: (full.get(name), unit) for name, unit in END_TO_END_UNITS.items()}
        metrics = {name: metrics[name] for name in BOUNDED if name in metrics}

    correct = all(checks.values())
    print(f"# workload {wl.name} seed={seed} seconds={seconds} trace={int(trace)} ops={attempted}")
    print(f"# facts {json.dumps(facts, sort_keys=True)}")
    for name, (value, unit) in report.items():
        extra = ""
        if name == "op_tail_ms" and "tail_percentile" in summary:
            extra = f"  (p{summary['tail_percentile']:.1f} of {summary['tail_samples']} ops, 10 above it)"
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"# metric {name} {shown} {unit}{extra}")
    for name, ok in checks.items():
        print(f"# check {name} {'PASS' if ok else 'FAIL'}")
    print(f"# digest {summary['digest']} over first {summary['digest_ops']} ops")

    summary.update(checks=checks, report={k: v for k, (v, _u) in report.items()})
    with open(os.path.join(OUT_DIR, f"{wl.name}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    units = tracing.PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": plain["raised"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    # One BLAS thread, set before numpy loads: one n=120 ecdi ran about 15%
    # slower with OpenBLAS's default two threads on a 2-core machine, and a
    # single thread keeps the process at one core, so runs disturb each
    # other less.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    workloads = load_library()
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    import numpy

    import_s = import_seconds()

    facts = machine_facts(numpy)
    chosen = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in chosen:
        ok &= run_workload(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                           import_s, facts)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
