"""momentflow benchmark: one closed-loop client, one process, one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes over the workload's operations until `--seconds` is spent (at
least two), checks every output, and prints human-readable lines followed by
one JSON line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 untraced and traced
passes alternate and the metrics are the per-layer ones.  NOTES.md defines
every metric.

Timings are speed-normalized: a fixed reference probe runs right before and
right after each timed call, and every SAMPLE_INTERVAL_S while it runs; the
call's wall time, less the probes inside it, is scaled by PROBE_NOMINAL_S
over the probes' mean.  Raw wall times are printed alongside.

The program is imported from the checkout's own src/; the command fails when
that source is missing.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("monte-carlo", "operator-algebra", "moment-flow-dbm")
MIN_PASSES = 2
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
# Per-operation figures, printed in every run and reported by traced runs (as
# 0 where the workload has no such operation).
EXPERIMENT_KINDS = ("assumptions", "generator-validate", "operator-suite", "mixing",
                    "fsp", "joint-normality", "ansatz-compare")
OP_UNITS = {**{f"experiment_s.{kind}": "s" for kind in EXPERIMENT_KINDS},
            "trials_per_s.gw200": "1/s", "trials_per_s.er500": "1/s",
            "see_path_steps_per_s": "1/s", "flow_steps_per_s": "1/s",
            "ops_failed_ratio": "ratio"}
# Duration of reference_probe in the fast phases of the machine the benchmark
# was defined on (2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6).
PROBE_NOMINAL_S = 0.0015
PROBE_LOOP = 20_000
END_PROBES = 5            # probes right before and right after a timed call
SAMPLE_INTERVAL_S = 0.1   # and one per interval while it runs (untraced only)


def _use_checkout_source():
    if not os.path.isfile(os.path.join(SRC, "momentflow", "__init__.py")):
        sys.exit(f"perfbench: no momentflow source at {SRC}; "
                 "run from the root of a full checkout")
    sys.path.insert(0, SRC)


def reference_probe():
    """Seconds of fixed benchmark-owned work: a pure Python loop.

    It calls no BLAS, so a program that changes BLAS threading cannot move it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


class SpeedSampler:
    """The machine's speed over one timed call, as its mean reference probe.

    On a shared VM the speed swings by up to 1.7x in phases of about 10 s, so
    probes at the ends of a multi-second call miss most of what it saw.  While
    the call runs, an interval timer interrupts it every SAMPLE_INTERVAL_S to
    run one probe.  Python runs the handler between bytecodes, so a long C
    call only delays a sample.  `spent` is the time the interruptions took,
    which the caller subtracts from the call.
    """

    def __init__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_probe())
        self.spent += time.perf_counter() - t0

    def start(self, during=True):
        self.samples = [reference_probe() for _ in range(END_PROBES)]
        self.spent = 0.0
        if during:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        """The mean probe from start to now."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.samples += [reference_probe() for _ in range(END_PROBES)]
        return statistics.fmean(self.samples)


# ----------------------------------------------------------------------------
# set-up time


def setup_probe(workload, seed):
    """Child process: time importing momentflow and building the inputs."""
    _use_checkout_source()
    started = time.perf_counter()
    import momentflow  # noqa: F401  (the import is what is timed)
    import workloads
    workloads.build(workload, seed, ROOT)
    print(repr(time.perf_counter() - started))


def measure_setup(workload, seed, speed):
    """Median over fresh processes of the set-up time, normalized and raw.

    Nothing probes while a child runs, so the child has the CPU to itself."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        speed.start(during=False)
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        probe = speed.stop()
        raw.append(float(done.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * PROBE_NOMINAL_S / probe)
    return statistics.median(scaled), statistics.median(raw)


# ----------------------------------------------------------------------------
# provenance


def _git_revision():
    git = os.path.join(ROOT, ".git")
    if not os.path.isfile(os.path.join(git, "HEAD")):
        return "unavailable (not a git checkout)"
    with open(os.path.join(git, "HEAD")) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if os.path.isfile(os.path.join(git, ref)):
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    if os.path.isfile(os.path.join(git, "packed-refs")):
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return f"unresolved ref {ref}"


def _blas():
    """BLAS vendor and the thread count its library reports."""
    import ctypes
    import glob

    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    vendor = f"{info.get('name')} {info.get('version')}"
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                return vendor, getter()
    return vendor, os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed):
    import numpy as np
    import scipy
    vendor, threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_revision": _git_revision(),
        "workload": workload,
        "seed": seed,
    }


# ----------------------------------------------------------------------------
# passes


def run_pass(ops, state, tracer, traced):
    """One pass over the ops.

    Per op call it records (run s, emission s, mean probe s), the checks, or
    the error; in a traced pass also the index of the op's first span.  A
    traced pass probes only at the ends of a call, so that no probe lands
    inside a program span.
    """
    from momentflow.harness import emit_report
    speed = state["speed"]
    records = []
    first_span = len(tracer.spans)
    for op in ops:
        rec = {"op": op, "calls": [], "checks": [], "errors": [], "spans": []}
        for _ in range(op.repeats):
            try:
                thunk = op.bind(state)
                gc.collect()
                speed.start(during=not traced)
                tracer.enabled = traced
                first = len(tracer.spans)
                with tracer.op(op.label):
                    t0 = time.perf_counter()
                    result = thunk()
                    t1 = time.perf_counter()
                    s1 = speed.spent
                    if op.emit_dir is not None:
                        emit_report(result, fmt="csv", out_dir=op.emit_dir)
                    t2 = time.perf_counter()
                    s2 = speed.spent
                tracer.enabled = False
                call = (t1 - t0 - s1, t2 - t1 - (s2 - s1), speed.stop())
                checks = op.check(state, result)
                rec["calls"].append(call)
                rec["checks"].append(checks)
                if traced:
                    rec["spans"].append(first)
            except Exception:  # a failing operation is a result, not a crash
                tracer.enabled = False
                speed.stop()
                rec["errors"].append(traceback.format_exc(limit=3).strip())
        records.append(rec)
    return {"traced": traced, "records": records, "spans": (first_span, len(tracer.spans))}


def scaled(call, emit=True):
    run, emission, probe = call
    return (run + (emission if emit else 0.0)) * PROBE_NOMINAL_S / probe


def pass_wall(p, scale=True):
    """One pass: the sum over ops of their median call (run + emission)."""
    return sum(statistics.median(scaled(c) if scale else c[0] + c[1] for c in rec["calls"])
               for rec in p["records"] if rec["calls"])


def op_times(passes, label, emit=True, scale=True):
    return [scaled(c, emit) if scale else c[0] + (c[1] if emit else 0.0)
            for p in passes for rec in p["records"]
            if rec["op"].label == label for c in rec["calls"]]


def run_wall(passes, ops, scale=True):
    """One pass as the run sees it: the sum over ops of the median of all of
    the op's calls in `passes` (run + emission).  A median over every call,
    rather than over pass sums, uses each call as a sample, so a pass that
    one long op dominates is as steady as one of many short ops."""
    return sum(statistics.median(t) for t in
               (op_times(passes, op.label, scale=scale) for op in ops) if t)


def tally(passes):
    """attempted, failed, errors, wrong checks and band misses per (op label,
    check name).

    A call fails when it raises or any of its checks is unsound (a wrong
    output).  A statistical check outside its band but within GROSS_SIGMAS
    standard errors is a band miss: printed, not a failure.
    """
    attempted = failed = 0
    errors = []
    wrong, misses = Counter(), Counter()
    for p in passes:
        for rec in p["records"]:
            label = rec["op"].label
            attempted += len(rec["calls"]) + len(rec["errors"])
            failed += len(rec["errors"])
            errors += [f"{label}: {e}" for e in rec["errors"]]
            for checks in rec["checks"]:
                failed += not all(c.sound for c in checks)
                wrong.update((label, c.name) for c in checks if not c.sound)
                misses.update((label, c.name) for c in checks if c.sound and not c.passed)
    return attempted, failed, errors, wrong, misses


def op_detail(passes, ops):
    """Per-operation figures: experiment_s.<kind> and the work rates."""
    out = {}
    kinds = defaultdict(set)
    for op in ops:
        if op.kind is not None:
            kinds[op.kind].add(op.label)
    for kind, labels in sorted(kinds.items()):
        per_pass = [sum(statistics.median(scaled(c, emit=False) for c in rec["calls"])
                        for rec in p["records"] if rec["op"].label in labels and rec["calls"])
                    for p in passes]
        out[f"experiment_s.{kind}"] = (statistics.median(per_pass), "s")
    rates = {"trials": "trials_per_s.{}", "path_steps": "see_path_steps_per_s",
             "rk4_steps": "flow_steps_per_s"}
    for op in ops:
        times = op_times(passes, op.label, emit=False)
        for key, name in rates.items():
            if key in op.work and times:
                out[name.format(op.label.split(".")[-1])] = (
                    op.work[key] / statistics.median(times), "1/s")
    return out


# ----------------------------------------------------------------------------
# traced-run analysis


def selftest(tracer, passes, expected_counts):
    """Exact call counts inside every traced op span; returns mismatch lines."""
    from tracing import LAYER, NAME, PARENT, nearest_caller
    spans = tracer.spans
    bad = set()
    for p in passes:
        for rec in p["records"] if p["traced"] else ():
            expected = expected_counts(rec["op"])
            for first in rec["spans"]:
                seen = Counter()
                k = first + 1
                while k < len(spans) and spans[k][PARENT] >= first:
                    if spans[k][LAYER] != "bench":
                        seen[(spans[k][NAME], None)] += 1
                        seen[(spans[k][NAME], nearest_caller(spans, k, first))] += 1
                    k += 1
                for (fn, caller), want in expected.items():
                    if seen[(fn, caller)] != want:
                        where = f" under {caller}" if caller else ""
                        bad.add(f"{rec['op'].label}: {fn}{where} called "
                                f"{seen[(fn, caller)]} times, expected {want}")
    return sorted(bad)


def traced_metrics(tracer, passes):
    """Median over traced passes of the per-layer metrics; and whether every
    pass's layer self times summed to no more than its traced wall time."""
    from tracing import layer_metrics
    per_pass, sums_ok = [], True
    for p in passes:
        if p["traced"]:
            m, wall, layer_sum = layer_metrics(tracer.spans, *p["spans"])
            sums_ok = sums_ok and layer_sum <= wall
            per_pass.append(m)
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}, sums_ok


# ----------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    _use_checkout_source()
    import momentflow
    import workloads
    from tracing import UNITS, Tracer

    prov = provenance(args.workload, args.seed)
    print("provenance: " + json.dumps(prov, sort_keys=True), flush=True)
    state = {"speed": SpeedSampler()}
    setup_s, setup_raw = measure_setup(args.workload, args.seed, state["speed"])
    ops = workloads.build(args.workload, args.seed, ROOT)
    tracer = Tracer()
    if args.trace:
        tracer.install(momentflow)

    passes = []
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append(run_pass(ops, state, tracer, traced))
        last = time.perf_counter() - t0
        if len(passes) == 1:  # later passes only re-use freed memory
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"pass {len(passes)} ({'traced' if traced else 'untraced'}): "
              f"{pass_wall(passes[-1]):.4f} s normalized, "
              f"{pass_wall(passes[-1], scale=False):.4f} s raw in ops, "
              f"{last:.4f} s elapsed", flush=True)
        if len(passes) >= MIN_PASSES and time.perf_counter() - started + last > args.seconds:
            break

    attempted, failed, errors, wrong, misses = tally(passes)
    correct = failed == 0
    plain = [p for p in passes if not p["traced"]]
    detail = op_detail(plain, ops)
    detail["ops_failed_ratio"] = (failed / attempted, "ratio")
    for e in errors:
        print("error " + e.replace("\n", " | "), file=sys.stderr)
    for (label, name), count in sorted(wrong.items()):
        print(f"check failed: {label}: {name} in {count} calls")
    for (label, name), count in sorted(misses.items()):
        print(f"statistical band missed (within {workloads.GROSS_SIGMAS:g} stderr, "
              f"not a failure): {label}: {name} in {count} calls")
    print(f"operations: attempted={attempted} failed={failed} correct={correct}")
    print(f"raw wall_s: {run_wall(plain, ops, scale=False):.6g} s; "
          f"raw setup_s: {setup_raw:.6g} s")
    for name, (value, unit) in sorted(detail.items()):
        print(f"{name}: {value:.6g} {unit}")

    if args.trace:
        metrics, sums_ok = traced_metrics(tracer, passes)
        metrics["trace.overhead_ratio"] = (
            run_wall([p for p in passes if p["traced"]], ops, scale=False)
            / run_wall(plain, ops, scale=False) - 1.0)
        bad = selftest(tracer, passes, workloads.expected_counts)
        for line in bad:
            print("selftest mismatch: " + line)
        print(f"selftest: {'FAIL' if bad else 'pass'}; "
              f"layer self times within traced wall: {sums_ok}")
        correct = correct and not bad and sums_ok
        shares = sorted(((k[6:], v) for k, v in metrics.items() if k.startswith("share.")),
                        key=lambda kv: -kv[1])
        print("layer shares of traced time: " + ", ".join(f"{k}={v:.4f}" for k, v in shares))
        out = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
        out.update({k: {"value": detail[k][0] if k in detail else 0.0, "unit": unit}
                    for k, unit in OP_UNITS.items()})
        tracer.uninstall()
        tracer.dump(os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json.gz"),
                    {"provenance": prov, "traced_passes": [p["traced"] for p in passes]})
    else:
        per_op = [statistics.median(t) for t in (op_times(passes, op.label) for op in ops) if t]
        out = {
            "wall_s": {"value": run_wall(passes, ops), "unit": "s"},
            "op_geomean_s": {"value": math.exp(statistics.fmean(map(math.log, per_op))),
                             "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in out.items():
        if name not in OP_UNITS:
            print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
