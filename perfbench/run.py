"""tricross benchmark: four closed-loop workloads, one per process.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 15 --trace 0

Run from the repository root.  The library is imported from ``src/`` of
that checkout, never from anywhere else.  ``--workload all`` runs the
four workloads one after another, each in its own process.

Phases: set-up (import, seeded input generation, one warm-up; each
timed several times and the median reported), the timed phase (whole
passes over the inputs, one operation at a time, until ``--seconds``
have passed, at least one pass), and the untimed check of every output
against an independent reference.  ``attempted`` and ``failed`` in the
result count inputs, not repeats: an input failed if any of its
operations raised or gave an output that failed the check.

Every time in the end-to-end metrics is normalized to a fixed host
speed (see hostspeed.py): a shared host can slow everything by up to
1.8x for minutes at a time (seen on a 2-vCPU cloud VM), more than any
bound could absorb.  The raw times are in the record.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run,
whose overhead is measured against untraced passes of the same inputs.
The line before it records the run: interpreter, commit, host, seed,
parameters, sample counts and the metrics under their workload-specific
names.  The same record goes to ``.bench_out/``.

Exit code 1 when a check fails, 2 on a usage or set-up error, else 0.
An operation that raises is a check failure too, except on ``reduce``,
where the reducer's known defects raise: there it counts as failed
without failing the run.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
NAMES = ("closure", "reduce", "oracle", "cluster")
# imports are timed SETUP_REPEATS times, each in a fresh interpreter,
# and set-up (wl.SETUP_RUNS times); the median of each is reported
SETUP_REPEATS = 5

# the throughput each workload reports, under its own name
WORK_NAMES = {"closure": "closure_vertices_per_s",
              "reduce": "reduce_ok_per_s",
              "oracle": "oracle_fillings_per_s",
              "cluster": "cluster_exchanges_per_s"}


def die(message):
    print("error: " + message, file=sys.stderr)
    raise SystemExit(2)


def load_library():
    """Import tricross from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "tricross" / "__init__.py").is_file():
        die("%s/tricross not found; run from a tricross checkout" % src)
    sys.path.insert(0, str(src))
    import tricross
    if Path(tricross.__file__).resolve().parent != src / "tricross":
        die("imported tricross from %s" % tricross.__file__)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_pass(wl, ops, firsts, tracer=None):
    """One operation per input, in order.  Appends (item index, start,
    end, error or None, fingerprint) to ``ops`` and keeps the first
    successful output of each input in ``firsts``."""
    for i, item in enumerate(wl.items):
        if tracer is not None:
            tracer.run_id = len(ops)
        t0 = time.perf_counter()
        try:
            out = wl.run(item)
            err = None
        except Exception as exc:  # a failed operation, not a crash
            out, err = None, "%s: %s" % (type(exc).__name__, exc)
        t1 = time.perf_counter()
        if err is None:
            firsts.setdefault(i, out)
            ops.append((i, t0, t1, None, wl.fingerprint(out)))
        else:
            ops.append((i, t0, t1, err, None))


def check_outputs(wl, ops, firsts):
    """Per operation: None if it verified, else why it failed; plus the
    number of check failures, which include raised errors unless the
    workload expects some (``wl.may_raise``)."""
    verdicts = {i: wl.check(wl.items[i], out) for i, out in firsts.items()}
    first_fp = {i: wl.fingerprint(out) for i, out in firsts.items()}
    reasons = []
    check_failures = 0
    for i, _, _, err, fp in ops:
        if err is not None:
            check_failures += not wl.may_raise
            reasons.append(err)
            continue
        why = verdicts[i] if fp == first_fp[i] \
            else "output differs between runs of the same input"
        check_failures += why is not None
        reasons.append(why)
    return reasons, check_failures


def summarize(wl, ops, reasons, firsts, latencies):
    """Throughput (1/s) and p50 and p90 latency (ms) of the timed phase.

    Throughput is the verified work of every operation of every pass
    divided by the summed latencies of all of them, failed ones too, so
    costs that build up across passes show.  The percentiles rank every
    operation of every pass; a failed one ranks slowest, so fixing a
    failure can never worsen a percentile, and a percentile that falls
    on one is None."""
    done = sum(wl.work(wl.items[op[0]], firsts[op[0]])
               for op, why in zip(ops, reasons) if why is None)
    ranked = sorted(t if why is None else math.inf
                    for t, why in zip(latencies, reasons))
    p50, p90 = (percentile(ranked, q) for q in (0.5, 0.9))
    return (done / sum(latencies),) + tuple(
        None if math.isinf(v) else 1000 * v for v in (p50, p90))


def commit_id():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def import_seconds():
    """Raw and normalized times of SETUP_REPEATS imports of the library
    and the workloads, each in a fresh interpreter that times reference
    loops just before and after its import."""
    code = ("import sys, time; sys.path[:0] = [%r, %r]; import hostspeed; "
            "ref = hostspeed.probe(20); t = time.perf_counter(); "
            "import workloads; dt = time.perf_counter() - t; "
            "ref = sorted(ref + hostspeed.probe(20)); "
            "print(dt, dt * hostspeed.REF_S / ref[len(ref) // 2])"
            % (str(ROOT / "src"), str(HERE)))
    raw, norm = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            die("importing the workloads failed:\n" + proc.stderr)
        r, n = map(float, proc.stdout.split())
        raw.append(r)
        norm.append(n)
    return raw, norm


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_one(args):
    load_library()
    import hostspeed
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    tracer = sampler = None
    import_raw = import_norm = []
    setups = []
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        wl = cls(args.seed)
        tracer.uninstall()
    else:
        import_raw, import_norm = import_seconds()
        sampler = hostspeed.Sampler()
        sampler.start()
    try:
        for _ in range(0 if tracer else cls.SETUP_RUNS):
            t0 = time.perf_counter()
            wl = None  # free the previous set-up's inputs first
            wl = cls(args.seed)
            setups.append((t0, time.perf_counter()))

        ops, firsts = [], {}
        plain = []
        passes = 0
        t_start = time.perf_counter()
        while passes < 1 or time.perf_counter() - t_start < args.seconds:
            if tracer is not None:
                # traced and untraced passes alternate, so that drift in
                # the host's speed cancels out of the overhead
                tracer.install()
                run_pass(wl, ops, firsts, tracer)
                tracer.uninstall()
                run_pass(wl, plain, {})
            else:
                run_pass(wl, ops, firsts)
            passes += 1
        if sampler is not None:
            # the last operation's speed also counts samples after it
            time.sleep(hostspeed.MARGIN_S)
    finally:
        if sampler is not None:
            sampler.stop()

    check_start = time.perf_counter()
    reasons, check_failures = check_outputs(wl, ops, firsts)
    failed_items = {op[0] for op, why in zip(ops, reasons) if why is not None}
    if sampler is not None:
        raw = [t1 - t0 - sampler.inside(t0, t1) for _, t0, t1, _, _ in ops]
        latencies = [sampler.normalized(t0, t1) for _, t0, t1, _, _ in ops]
        setup_raw = [t1 - t0 - sampler.inside(t0, t1) for t0, t1 in setups]
        setup_norm = [sampler.normalized(t0, t1) for t0, t1 in setups]
    else:
        raw = latencies = [t1 - t0 for _, t0, t1, _, _ in ops]
    work_per_s, p50, p90 = summarize(wl, ops, reasons, firsts, latencies)
    raw_work_per_s, raw_p50, raw_p90 = summarize(wl, ops, reasons, firsts,
                                                 raw)
    check_s = time.perf_counter() - check_start
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = Counter(why for why in reasons if why is not None)

    named = {WORK_NAMES[args.workload]: metric(work_per_s, "1/s"),
             "fail_share": metric(len(failed_items) / len(wl.items),
                                  "ratio"),
             "peak_rss_mib": metric(peak_mib, "MiB")}
    prefix = "reduce_" if args.workload == "reduce" else ""
    named[prefix + "p50_ms"] = metric(p50, "ms")
    named[prefix + "p90_ms"] = metric(p90, "ms")
    raw_metrics = {"work_per_s": raw_work_per_s, "p50_ms": raw_p50,
                   "p90_ms": raw_p90}
    if tracer is not None:
        overhead = sum(t1 - t0 for _, t0, t1, _, _ in ops) \
            / sum(t1 - t0 for _, t0, t1, _, _ in plain) - 1
        metrics = tracer.metrics(passes, overhead)
    else:
        setup_s = statistics.median(import_norm) \
            + statistics.median(setup_norm)
        raw_metrics["setup_s"] = statistics.median(import_raw) \
            + statistics.median(setup_raw)
        raw_metrics["ref_ms"] = 1000 * statistics.median(sampler.costs)
        named["setup_s"] = metric(setup_s, "s")
        # p90 is recorded, not gated: a tail moves with every burst of
        # other load on a shared host, a median much less
        metrics = {"setup_s": metric(setup_s, "s"),
                   "peak_rss_mib": metric(peak_mib, "MiB"),
                   "work_per_s": metric(work_per_s, "1/s"),
                   "p50_ms": metric(p50, "ms")}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "params": wl.params, "items": len(wl.items), "passes": passes,
        "timed_s": sum(raw), "check_s": check_s,
        "percentile_samples": len(ops),
        "host_speed_samples": len(sampler.costs) if sampler else 0,
        "import_s": import_raw, "import_norm_s": import_norm,
        "setup_runs_s": [t1 - t0 for t0, t1 in setups],
        "named_metrics": named, "raw_metrics": raw_metrics,
        "failures": errors, "python": platform.python_version(),
        "commit": commit_id(), "nproc": os.cpu_count(),
        "cpu": cpu_model(), "platform": platform.platform(),
    }
    result = {"correct": check_failures == 0, "attempted": len(wl.items),
              "failed": len(failed_items), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = "BENCH_%s_s%d_t%d" % (args.workload, args.seed, args.trace)
    (OUT / (stem + ".json")).write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / ("spans_%s_s%d.tsv.gz" % (args.workload,
                                                     args.seed)))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in a fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            return 2
        status = max(status, proc.returncode)
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            combined["metrics"]["%s.%s" % (name, key)] = value
    print(json.dumps(combined))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
