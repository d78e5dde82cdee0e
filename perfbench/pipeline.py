"""One program through translate -> compile -> simulate -> verify.

Each layer is driven through its public function and timed from
outside; nothing goes through ``ExperimentHarness.run``, which memoizes
by (benchmark, configuration, UEs).  The untraced and traced runs make
the same calls in the same order: the traced run only adds a
``PipelineProfiler`` to the translation and records the spans.
"""

import time

from repro.bench.workloads import SCALED_ON_CHIP_CAPACITY, scaled_config
from repro.cfront.errors import CFrontError
from repro.cfront.frontend import parse_program
from repro.core.framework import TranslationFramework
from repro.obs.profile import PipelineProfiler
from repro.scc.chip import SCCChip
from repro.sim.compile import compile_unit
from repro.sim.interpreter import InterpreterError
from repro.sim.parallel import ParallelRunError
from repro.sim.runner import run_pthread_single_core, run_rcce
from repro.sim.watchdog import WatchdogError

MAX_STEPS = 50_000_000

# Model counters read from RunResult.metrics, summed over label sets.
COUNTERS = {
    "sim.steps": "sim_steps",
    "scc.core_accesses": "scc_core_accesses",
    "scc.cache_hits": "scc_cache_hits",
    "scc.cache_misses": "scc_cache_misses",
    "scc.dram_reads": "scc_dram_reads",
    "scc.dram_writes": "scc_dram_writes",
    "scc.dram_busy_cycles": "scc_dram_busy_cycles",
    "scc.mpb_reads": "scc_mpb_reads",
    "scc.mpb_writes": "scc_mpb_writes",
    "rcce.barrier_rounds": "rcce_barrier_rounds",
    "rcce.lock_acquisitions": "rcce_lock_acquisitions",
    "rcce.lock_contentions": "rcce_lock_contentions",
    "rcce.messages_sent": "rcce_messages_sent",
    "rcce.put_bytes": "rcce_put_bytes",
    "rcce.get_bytes": "rcce_get_bytes",
    "rcce.mpb_fallbacks": "rcce_mpb_fallbacks",
}


# Counters that read host state rather than simulated state:
# rcce_lock_contentions counts acquirers that found the *host* lock
# held (``threading.Lock.locked()``), so it varies with how the host
# interleaves the core threads while cycles do not.  They are reported
# but kept out of the exact-repeat check.
HOST_COUNTERS = ("rcce.lock_contentions",)


def model_counts(counts):
    """``counts`` without the host-dependent counters."""
    return {name: value for name, value in counts.items()
            if name not in HOST_COUNTERS}


class VerificationError(Exception):
    """A program's outputs or run metadata failed the benchmark's
    correctness gate."""


# Failures that count against verified_share instead of aborting.
TYPED_ERRORS = (CFrontError, InterpreterError, WatchdogError,
                ParallelRunError, VerificationError)


def counts_of(result):
    """The exact model counts of one RunResult."""
    counters = result.metrics.get("counters", {})
    return {name: sum(sample["value"]
                      for sample in counters.get(metric, ()))
            for name, metric in COUNTERS.items()}


# Units of the exact counts reported as per-layer metrics.
COUNT_UNITS = dict(
    [(name, "count") for name in COUNTERS]
    + [("scc.dram_busy_cycles", "cycles"), ("rcce.put_bytes", "bytes"),
       ("rcce.get_bytes", "bytes"), ("core.shared_vars", "count"),
       ("core.onchip_bytes", "bytes"), ("core.offchip_bytes", "bytes"),
       ("static.findings", "count"), ("sim.cycles_pthread", "cycles"),
       ("sim.cycles_rcce", "cycles")])


def count_metrics(counts):
    """Per-layer count metrics (plus the cache hit ratio) from summed
    counts; a count the workload never produced reads 0."""
    metrics = {name: (counts.get(name, 0), unit)
               for name, unit in COUNT_UNITS.items()}
    hits = counts.get("scc.cache_hits", 0)
    accesses = hits + counts.get("scc.cache_misses", 0)
    metrics["scc.cache_hit_ratio"] = (hits / accesses if accesses
                                      else 0.0, "ratio")
    return metrics


def add_counts(total, counts):
    for name, value in counts.items():
        total[name] = total.get(name, 0) + value
    return total


class Outcome:
    """What one program run produced (or how it failed)."""

    def __init__(self, program):
        self.program = program
        self.turnaround = None
        self.sim_seconds = 0.0
        self.scale = 1.0          # host-speed factor to reference seconds
        self.error = None
        self.pthread = None       # (cycles, stdout)
        self.rcce = None          # (cycles, stdout, per-core cycles)
        self.counts = {}
        self.core = {}            # translation-side counts
        self.lines = 0            # source lines parsed
        self.parallel = None      # stats["parallel"] of a jobs>1 run

    @property
    def ok(self):
        return self.error is None

    @property
    def steps(self):
        return self.counts.get("sim.steps", 0)

    def model_key(self):
        """Everything the model computed; must repeat exactly."""
        return (self.pthread[0] if self.pthread else None,
                self.rcce[0], tuple(sorted(self.rcce[2].items())),
                tuple(sorted(model_counts(self.counts).items())))


def check_outputs(program, pthread_stdout, rcce_stdout):
    """Every UE's RCCE stdout must equal the Pthreads stdout."""
    expected = pthread_stdout.strip()
    lines = rcce_stdout.strip().splitlines()
    if not expected or len(lines) != program.ues or \
            any(line != expected for line in lines):
        raise VerificationError(
            "%r: RCCE output %r does not match Pthreads output %r on "
            "every UE" % (program, lines[:2], expected))


def check_run(result, jobs):
    """No engine or backend downgrade may hide behind a result."""
    for diag in result.diagnostics:
        raise VerificationError("simulate reported %s"
                                % diag.format())
    if jobs > 1:
        parallel = result.stats.get("parallel") or {}
        if parallel.get("backend") != "process" or \
                parallel.get("jobs") != jobs:
            raise VerificationError(
                "requested the process backend with jobs=%d, ran %r"
                % (jobs, parallel))


def run_program(program, jobs=1, baseline=True, recorder=None,
                trace_id=None):
    """Run ``program`` end to end and return its :class:`Outcome`.

    ``baseline=False`` skips the Pthreads run (the caller verifies
    against references computed outside the timed phase).  With a
    ``recorder`` every layer call becomes a span of ``trace_id``."""
    outcome = Outcome(program)
    clock = time.perf_counter
    root = recorder.new_id() if recorder is not None else None
    config = scaled_config()

    def timed(name, call):
        start = clock()
        value = call()
        end = clock()
        if recorder is not None:
            recorder.add(trace_id, name, start, end, root)
        return value, end - start

    start = clock()
    try:
        unit, _ = timed("cfront.parse",
                        lambda: parse_program(program.source, share=True))
        profiler = PipelineProfiler() if recorder is not None else None
        framework = TranslationFramework(
            on_chip_capacity=SCALED_ON_CHIP_CAPACITY,
            partition_policy=program.policy,
            static_check=program.static_check, profiler=profiler)
        translated = framework.translate(program.source)
        if recorder is not None:
            recorder.add_profile(trace_id, root, profiler)
        if not translated.ok:
            raise VerificationError("translation of %r reported errors"
                                    % (program,))
        rcce_source, _ = timed("cfront.codegen",
                               lambda: translated.rcce_source)
        rcce_unit, _ = timed("cfront.parse",
                             lambda: parse_program(rcce_source,
                                                   share=True))
        timed("sim.compile_unit",
              lambda: (compile_unit(unit), compile_unit(rcce_unit)))
        if baseline:
            pthread, seconds = timed(
                "sim.pthread",
                lambda: run_pthread_single_core(
                    program.source, config, SCCChip(config),
                    max_steps=MAX_STEPS))
            outcome.sim_seconds += seconds
        rcce, seconds = timed(
            "sim.rcce" if jobs == 1 else "sim.parallel.rcce",
            lambda: run_rcce(rcce_source, program.ues, config,
                             SCCChip(config), max_steps=MAX_STEPS,
                             jobs=jobs))
        outcome.sim_seconds += seconds

        def verify():
            if baseline:
                check_run(pthread, 1)
                check_outputs(program, pthread.stdout(), rcce.stdout())
                outcome.pthread = (pthread.cycles, pthread.stdout())
                add_counts(outcome.counts, counts_of(pthread))
            check_run(rcce, jobs)
            outcome.rcce = (rcce.cycles, rcce.stdout(),
                            dict(rcce.per_core_cycles))
            add_counts(outcome.counts, counts_of(rcce))
            outcome.parallel = rcce.stats.get("parallel")
            plan = translated.plan
            outcome.core = {
                "core.shared_vars": len(translated.variables.shared()),
                "core.onchip_bytes": plan.on_chip_bytes,
                "core.offchip_bytes": plan.off_chip_bytes,
                "static.findings": len(translated.static_report.findings)
                if translated.static_report is not None else 0,
            }
            outcome.lines = (program.source.count("\n")
                             + rcce_source.count("\n"))

        timed("verify", verify)
    except TYPED_ERRORS as exc:
        outcome.error = "%s: %s" % (type(exc).__name__,
                                    str(exc).splitlines()[0]
                                    if str(exc) else "")
    end = clock()
    outcome.turnaround = end - start
    if recorder is not None:
        recorder.add(trace_id, "program", start, end, None, root)
    return outcome
