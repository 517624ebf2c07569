"""The siegel-kit benchmark: one seeded workload, timed, checked and reported.

    python3 bench/run.py --workload exact-group --seed 1 --seconds 20 --trace 0

The program is imported from the ``src`` of the checkout this file sits
in. One client runs a closed loop, with no threads and at most one
child process at a time: the next operation starts when the previous
one has returned and its answer has been checked.

``--trace 0`` sets up the workload (import, input generation, oracle
answers and a warm-up of each operation family; set-up is repeated and
its median taken), then cycles through the operation list for
``--seconds`` of operation time, and at least 100 operations, and
reports the end-to-end metrics of BENCHMARK.json. Times are scaled to an
unloaded host with a probe timed around every operation (see
PROBE_REF_S); the unscaled figures are kept in the run record.

``--trace 1`` replays a fixed prefix of the same list once untraced and
once with span wrappers installed (see tracing.py), and reports the
per-layer metrics. For cli-calls the prefix is replayed in-process with
``cli.main``; the other workloads append the light cli-calls requests,
replayed the same way, so every layer is measured on every workload.
Every traced run also measures the interpreter, import and per-call
costs of ``siegel-kit`` processes with separate child processes.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A run record with the
machine, versions, seed and every derived figure (``error_rate``
included) is written to ``bench/out``, with the spans of a traced run
beside it. Without program sources the run exits non-zero.
"""

import argparse
import functools
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
# Per size: set-up repeats (median reported), the fewest timed
# operations (ten latencies beyond p90), and repeats of each process
# probe of the traced cli-calls run. "tiny" is for the benchmark's tests.
PROFILES = {
    "full": {"setup_repeats": 3, "min_ops": 100, "probes": 5},
    "tiny": {"setup_repeats": 1, "min_ops": 1, "probes": 1},
}


# The host's speed swings by up to 1.8x, with CPU time equal to wall
# time, and stays in one state for a fraction of a second or longer. A
# fixed pure-Python probe is timed between operations on the same CPU
# (see pin_to_one_cpu), and each time is scaled by PROBE_REF_S over the
# mean of the probes on either side of it, so figures read as times on
# an unloaded host. PROBE_REF_S is the probe's time on an unloaded core
# of the 2-core Xeon box the benchmark was defined on.
PROBE_REF_S = 0.000125


def probe_kernel(n=12):
    """Fraction-free elimination on a fixed integer matrix."""
    M = [[(i * 7 + j * 13) % 17 - 8 + (i == j) * 30 for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return M[n - 1][n - 1]


def probe():
    """The host's current slowdown: best of two probe runs over PROBE_REF_S."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        probe_kernel()
        best = min(best, time.perf_counter() - start)
    return best / PROBE_REF_S


def import_program():
    """Import siegelkit from the checkout; returns the import time in seconds."""
    src = ROOT / "src"
    if not (src / "siegelkit" / "cli.py").is_file():
        sys.exit(f"bench: no siegelkit sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import siegelkit.cli  # noqa: F401  (the whole package, numpy included)

    return time.perf_counter() - start


def run_op(op, call=None):
    """Time one operation and check its answer outside the timed call.

    Returns (passed, seconds). Any exception, refusal or wrong answer is
    a failure.
    """
    call = call or op.call
    start = time.perf_counter()
    try:
        result = call()
    except Exception:
        return False, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    try:
        return bool(op.check(result, op.expected)), elapsed
    except Exception:
        return False, elapsed


def percentile(values, q):
    """Nearest-rank percentile; a failed operation carries infinity."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def set_up(name, seed, size):
    """Build the workload and run its warm-up; returns (workload, failures)."""
    import workloads

    wl = workloads.build(name, seed, str(ROOT), size)
    return wl, sum(not run_op(op)[0] for op in wl.warmup)


def timed_phase(ops, seconds, min_ops):
    """Cycle through ``ops`` for ``seconds`` of operation time, and ``min_ops`` ops.

    Returns each run's latency (infinite when it failed), the slowdown
    around it, and the operation time.
    """
    latencies, slowdowns = [], []
    busy = 0.0
    before = probe()
    while busy < seconds or len(latencies) < min_ops:
        passed, elapsed = run_op(ops[len(latencies) % len(ops)])
        after = probe()
        busy += elapsed
        latencies.append(elapsed if passed else math.inf)
        slowdowns.append((before + after) / 2)
        before = after
    return latencies, slowdowns, busy


def untraced_run(args, import_s):
    """End-to-end metrics: set-up median, then the probe-scaled timed phase."""
    profile = PROFILES[args.size]
    reps, raw_reps, wl, warm_failed = [], [], None, 0
    for _ in range(profile["setup_repeats"]):
        before = probe()
        start = time.perf_counter()
        wl, fails = set_up(args.workload, args.seed, args.size)
        raw_reps.append(time.perf_counter() - start)
        reps.append(raw_reps[-1] / ((before + probe()) / 2))
        warm_failed += fails
    gc.collect()
    latencies, slowdowns, busy = timed_phase(wl.ops, args.seconds, profile["min_ops"])
    scaled = [x / s for x, s in zip(latencies, slowdowns)]
    failed = sum(x == math.inf for x in latencies)
    passed_time = sum(x for x in scaled if x != math.inf)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-calls" else resource.RUSAGE_SELF
    values = {
        "throughput_ops_s": (len(scaled) - failed) / passed_time if passed_time else 0.0,
        "latency_p50_ms": percentile(scaled, 0.5) * 1e3,
        "latency_p90_ms": percentile(scaled, 0.9) * 1e3,
        "setup_s": import_s + statistics.median(reps),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "error_rate": failed / len(latencies),
        "slowdown_mean": statistics.mean(slowdowns),
        "raw_throughput_ops_s": (len(latencies) - failed) / busy,
        "raw_latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "raw_latency_p90_ms": percentile(latencies, 0.9) * 1e3,
        "raw_setup_s": statistics.median(raw_reps),
    }
    by_family = {}
    for i, x in enumerate(scaled):
        by_family.setdefault(wl.ops[i % len(wl.ops)].family, []).append(x * 1e3)
    extra = {
        "family_median_ms": {f: statistics.median(v) for f, v in by_family.items()},
        "import_s": import_s,
        "setup_repeats_s": reps,
        "timed_phase_s": busy,
        "operations": len(latencies),
        "distinct_operations": len(wl.ops),
        "warmup_failed": warm_failed,
    }
    return values, len(latencies), failed + warm_failed, extra


def replay_pass(ops, calls, tracer=None):
    """Run each op once; returns (probe-scaled time of each op, failures)."""
    times, failed = [], 0
    for i, (op, call) in enumerate(zip(ops, calls)):
        before = probe()
        if tracer is not None:
            passed, elapsed = run_op(op, lambda: tracer.run(i, call))
        else:
            passed, elapsed = run_op(op, call)
        times.append(elapsed / ((before + probe()) / 2))
        failed += not passed
    return times, failed


def _child(argv, env):
    """Run one child process; returns (probe-scaled seconds, slowdown, process)."""
    before = probe()
    start = time.perf_counter()
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
    )
    elapsed = time.perf_counter() - start
    slowdown = (before + probe()) / 2
    return elapsed / slowdown, slowdown, proc


def cli_process_costs(wl, probes):
    """Interpreter, import and per-call costs of one ``siegel-kit`` process.

    The import cost is the time of a process that only imports
    ``siegelkit.cli`` minus that of a bare interpreter; numpy's share
    comes from ``-X importtime``. Probe-scaled medians of ``probes``
    repeats.
    """
    import workloads

    _, env = workloads.cli_command(str(ROOT))
    bare, imports, numpy_imports = [], [], []
    for _ in range(probes):
        bare.append(_child([sys.executable, "-c", "pass"], env)[0])
        imports.append(_child([sys.executable, "-c", "import siegelkit.cli"], env)[0])
        _, slowdown, proc = _child(
            [sys.executable, "-X", "importtime", "-c", "import siegelkit.cli"], env
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                numpy_imports.append(int(parts[1]) / 1e6 / slowdown)
    calls, failed = [], 0
    for op in wl.ops[: 5 * probes]:
        before = probe()
        passed, elapsed = run_op(op)
        calls.append(elapsed / ((before + probe()) / 2))
        failed += not passed
    interpreter = statistics.median(bare)
    return {
        "cli.interpreter_ms": interpreter * 1e3,
        "cli.import_ms": (statistics.median(imports) - interpreter) * 1e3,
        "cli.import_numpy_ms": statistics.median(numpy_imports) * 1e3,
        "cli.call_ms": statistics.median(calls) * 1e3,
    }, len(calls), failed


def traced_run(args):
    """Per-layer metrics from one untraced and one traced replay of the trace prefix.

    In-process workloads append the light cli requests, replayed
    in-process, and every workload measures the costs of cli processes,
    so that each layer has a figure on every workload.
    """
    import tracing
    import workloads

    wl, warm_failed = set_up(args.workload, args.seed, args.size)
    if args.workload == "cli-calls":
        cli_wl = wl
        ops = wl.ops[: wl.trace_ops]
        calls = [functools.partial(workloads.replay, op.request) for op in ops]
        front = range(len(ops))
    else:
        cli_wl = workloads.build("cli-calls", args.seed, str(ROOT), "tiny")
        front_ops = workloads.front_end_ops(args.seed)
        ops = wl.ops[: wl.trace_ops] + front_ops
        calls = [op.call for op in ops]
        front = range(len(ops) - len(front_ops), len(ops))
    gc.collect()
    plain, plain_failed = replay_pass(ops, calls)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        gc.collect()
        traced, traced_failed = replay_pass(ops, calls, tracer)
    finally:
        tracer.uninstall()
    values = tracing.derive(tracer.spans)
    values["trace.overhead_ratio"] = sum(traced) / sum(plain)
    values["trace.untraced_s"] = sum(plain)
    costs, n_calls, calls_failed = cli_process_costs(cli_wl, PROFILES[args.size]["probes"])
    values.update(costs)
    values["cli.main_ms"] = statistics.median(plain[i] for i in front) * 1e3
    values["jsonio.decode_us"] = tracing.jsonio_per_request_us(tracer.spans, "decode", front)
    values["jsonio.encode_us"] = tracing.jsonio_per_request_us(tracer.spans, "encode", front)
    values["cli.other_ms"] = (
        costs["cli.call_ms"]
        - costs["cli.interpreter_ms"]
        - costs["cli.import_ms"]
        - values["cli.main_ms"]
    )
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")
    attempted = 2 * len(ops) + n_calls
    failed = warm_failed + plain_failed + traced_failed + calls_failed
    return values, attempted, failed, {"spans": len(tracer.spans), "traced_ops": len(ops)}


def git_sha():
    """HEAD of the checkout's own .git, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None, size="full"):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.size = size

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"bench: unknown workload {args.workload!r}")
    before = probe()
    import_s = import_program()
    import_s /= (before + probe()) / 2
    if args.trace:
        values, attempted, failed, extra = traced_run(args)
        wanted = spec["per_layer"]
    else:
        values, attempted, failed, extra = untraced_run(args, import_s)
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }

    import numpy
    import workloads

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "all_values": values,
        "details": extra,
        "excluded_queries": workloads.EXCLUDED,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def pin_to_one_cpu():
    """Keep this process, its probe and its child processes on one CPU.

    The host's CPUs slow down independently, and the probe only sees the
    CPU it runs on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


if __name__ == "__main__":
    pin_to_one_cpu()
    sys.exit(main())
