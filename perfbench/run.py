"""Benchmark entry point: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload sim-sweep --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a checkout; the program under test is imported
from ``src/`` there, never from an installed copy.  ``--trace 0``
prints every end-to-end metric, ``--trace 1`` runs the workload twice
(untraced, then traced over the same programs) and prints every
per-layer metric plus the tracing overhead.  The last stdout line is
the result object; the line before it is a record of the run's
metadata.  The exit code is 0 only when the correctness gate passed.
"""

import time

import hostspeed

PROBE_BEFORE = hostspeed.probe_every_cpu()
T0 = time.perf_counter()  # set-up is timed from here: imports count

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# Set-up is repeated this many times in fresh processes, besides the
# run's own, and setup_s is the median of all of them.
SETUP_REPEATS = 6
SETUP_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s", "programs_per_s": "1/s", "program_p50_s": "s",
    "program_tail_s": "s", "sim_steps_per_s": "1/s",
    "speedup_geomean": "ratio", "job_p50_s": "s", "job_tail_s": "s",
    "slo_met_share": "share", "verified_share": "share",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cfront.parse_s": "s", "cfront.lines_per_s": "1/s",
    "cfront.codegen_s": "s",
    "core.stage1_s": "s", "core.stage2_s": "s", "core.stage3_s": "s",
    "core.stage4_s": "s", "core.stage5_s": "s",
    "core.shared_vars": "count", "core.onchip_bytes": "bytes",
    "core.offchip_bytes": "bytes",
    "static.s": "s", "static.findings": "count",
    "sim.compile_unit_s": "s", "sim.pthread_s": "s", "sim.rcce_s": "s",
    "sim.steps": "count", "sim.cycles_pthread": "cycles",
    "sim.cycles_rcce": "cycles",
    "scc.core_accesses": "count", "scc.cache_hits": "count",
    "scc.cache_misses": "count", "scc.cache_hit_ratio": "ratio",
    "scc.dram_reads": "count", "scc.dram_writes": "count",
    "scc.dram_busy_cycles": "cycles", "scc.mpb_reads": "count",
    "scc.mpb_writes": "count",
    "rcce.barrier_rounds": "count", "rcce.lock_acquisitions": "count",
    "rcce.lock_contentions": "count", "rcce.messages_sent": "count",
    "rcce.put_bytes": "bytes", "rcce.get_bytes": "bytes",
    "rcce.mpb_fallbacks": "count",
    "sim.parallel.rcce_s": "s", "sim.parallel.reconciliations": "count",
    "sim.parallel.speedup_vs_jobs1": "ratio",
    "serve.generator_lag_s": "s", "serve.queue_wait_s": "s",
    "serve.run_s": "s", "serve.memo_hit_share": "share",
    "serve.retries": "count", "serve.rejected": "count",
    "serve.worker_busy_share": "share",
    "verify_s": "s", "other_s": "s", "trace.overhead_share": "share",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    return 2


def peak_rss_mb():
    """Peak resident set of this process plus that of its largest
    waited-for child (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def child_setup_seconds(args):
    """Set up once more in a fresh interpreter and return its time."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("set-up in a fresh process failed: %s"
                           % proc.stderr.strip()[-500:])
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def model_digest(keys):
    return hashlib.sha256(repr(keys).encode()).hexdigest()


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return fail("no repro package under %s; run from the root of a "
                    "checkout" % SRC)
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        return fail("imported repro from %s, not from %s"
                    % (repro.__file__, SRC))
    import stats
    import workloads
    from spans import SpanRecorder

    if args.workload not in workloads.NAMES:
        return fail("unknown workload %r (have: %s)"
                    % (args.workload, ", ".join(workloads.NAMES)))
    workload = workloads.build(args.workload)
    workload.setup(args.seed)
    setup_s = time.perf_counter() - T0
    setup_s *= hostspeed.scale([PROBE_BEFORE, hostspeed.probe_every_cpu()])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    passes = stats.pass_count(args.seconds, workload.pass_s,
                              workload.min_passes)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "passes": passes,
              "trace": args.trace,
              "host_cpus": os.cpu_count(),
              "python": platform.python_version(),
              "corpus_sha256": workload.digest}
    result = workload.loop(passes)
    workload.verify(result)
    keys = workload.model_keys(result)
    record["model_sha256"] = model_digest(keys)
    if args.trace:
        untraced = workload.mean_latency(result)
        recorder = SpanRecorder()
        traced = workload.loop(passes, recorder=recorder)
        workload.verify(traced)
        repeat_ok = workload.model_keys(traced) == keys
        record["repeat_exact"] = repeat_ok
        metrics = workload.per_layer(traced, recorder)
        overhead = workload.mean_latency(traced) / untraced - 1.0
        metrics["trace.overhead_share"] = (overhead, "share")
        record["tracing_overhead_share"] = overhead
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, "spans-%s-%d.json"
                                  % (args.workload, args.seed))
        recorder.write(spans_path)
        record["spans"] = os.path.relpath(spans_path, ROOT)
        for name, unit in PER_LAYER.items():
            metrics.setdefault(name, (0, unit))
        counted = workload.runs(result) + workload.runs(traced)
    else:
        repeat_ok = True
        metrics = workload.end_to_end(result)
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        samples = [setup_s] + [child_setup_seconds(args)
                               for _ in range(SETUP_REPEATS)]
        metrics["setup_s"] = (statistics.median(samples), "s")
        record["setup_samples_s"] = samples
        counted = workload.runs(result)
    expected = PER_LAYER if args.trace else END_TO_END
    unknown = sorted(set(metrics) ^ set(expected))
    if unknown:
        return fail("metric set differs from the declared one: %s"
                    % ", ".join(unknown))
    for name, (_, unit) in metrics.items():
        if unit != expected[name]:
            return fail("%s reported in %s, declared in %s"
                        % (name, unit, expected[name]))

    failed = [o for o in counted if not o.ok]
    record.update(workload.notes)
    record["errors"] = [o.error for o in failed][:10]
    correct = not failed and repeat_ok
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(counted),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
