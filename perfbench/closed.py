"""Closed-loop workloads: one client runs programs back to back.

A run repeats the seeded corpus in a number of *passes* that
``--seconds`` alone fixes (see ``stats.pass_count``).  Each pass runs
in its own forked child (see ``isolate``), so every pass parses,
translates and compiles its programs afresh from the same warm state:
the same cold work each time.  Each program's time is scaled to the
reference host speed (see ``hostspeed``) and reported as its median
over the passes, which the probe's misses (a burst of other tenants'
work that starts and ends inside one program) move little.  Every pass
must compute exactly the same model outputs, which doubles as the
gate's repeat check.
"""

import statistics
import time

from repro.bench.workloads import scaled_config
from repro.scc.chip import SCCChip
from repro.sim.runner import run_pthread_single_core, run_rcce

import corpus
import hostspeed
import isolate
import pipeline
import spans
import stats


class ClosedLoop:
    """A closed loop over ``rounds`` seeded rounds of programs.

    With ``jobs > 1`` the timed pass runs only the RCCE program, through
    the parallel backend; the Pthreads baseline and a ``jobs=1``
    reference of each program are computed once, after the timed phase,
    and every pass must match them byte for byte.
    """

    def __init__(self, spec, warm_spec, rounds, slo_s, pass_s, jobs=1,
                 min_passes=3):
        self.spec = spec
        self.warm_spec = warm_spec
        self.rounds = rounds
        self.slo_s = slo_s
        self.jobs = jobs
        self.pass_s = pass_s
        self.min_passes = min_passes
        self.corpus = []
        self.digest = None
        self.references = {}
        self.notes = {}

    # -- set-up ------------------------------------------------------------

    def setup(self, seed):
        warm = corpus.rounds(self.warm_spec, 0, 1)
        self.corpus = corpus.rounds(self.spec, seed, self.rounds,
                                    avoid={p.source for p in warm})
        self.digest = corpus.digest(self.corpus)
        for program in warm:
            outcome = self._run(program)
            if not outcome.ok:
                raise RuntimeError("warm-up %r failed: %s"
                                   % (program, outcome.error))

    def _run(self, program, recorder=None, trace_id=None):
        return pipeline.run_program(program, jobs=self.jobs,
                                    baseline=self.jobs == 1,
                                    recorder=recorder, trace_id=trace_id)

    # -- measurement -------------------------------------------------------

    def loop(self, passes, recorder=None):
        """Run ``passes`` passes; returns the per-pass outcome lists."""
        result = []
        for index in range(passes):
            outcomes, pass_spans = isolate.in_child(
                self._pass, index, recorder is not None)
            result.append(outcomes)
            if recorder is not None:
                recorder.spans.extend(pass_spans)
        return result

    def _pass(self, index, traced):
        """One pass over the corpus; trace ids are unique per run.  The
        host-speed probe runs between programs, so each program is
        scaled by the probes right before and right after it.  A
        ``jobs=1`` program runs on one CPU at a time: it is pinned to
        the CPU that probes fastest just before it and probed there;
        a parallel run is probed on every CPU."""
        recorder = spans.SpanRecorder() if traced else None
        base = index * len(self.corpus)
        outcomes = []
        for offset, program in enumerate(self.corpus):
            if self.jobs == 1:
                before = hostspeed.pin_fastest()
                outcome = self._run(program, recorder, base + offset)
                after = hostspeed.probe()
            else:
                before = hostspeed.probe_every_cpu()
                outcome = self._run(program, recorder, base + offset)
                after = hostspeed.probe_every_cpu()
            outcome.scale = hostspeed.scale([before, after])
            outcomes.append(outcome)
        return outcomes, recorder.spans if traced else []

    @staticmethod
    def runs(result):
        return [outcome for one in result for outcome in one]

    # -- correctness -------------------------------------------------------

    def verify(self, result):
        """The post-run part of the gate: parallel runs must match
        their references, and every program must compute exactly the
        same model outputs in every pass."""
        if self.jobs > 1:
            if not self.references:
                self.references = _references(self.corpus)
            for outcome in self.runs(result):
                self._check_reference(outcome)
            methods = {o.parallel.get("start_method")
                       for o in self.runs(result) if o.parallel}
            self.notes["start_method"] = sorted(m for m in methods if m)
        varied = self.notes.setdefault("host_counts_varied", [])
        for column in zip(*result):
            if not all(o.ok for o in column):
                continue
            if len({o.model_key() for o in column}) != 1:
                for outcome in column:
                    outcome.error = ("%r did not repeat exactly across "
                                     "passes" % (outcome.program,))
            for name in pipeline.HOST_COUNTERS:
                values = [o.counts.get(name, 0) for o in column]
                if len(set(values)) > 1:
                    varied.append([repr(column[0].program), name, values])

    def _check_reference(self, outcome):
        if not outcome.ok:
            return
        ref = self.references[outcome.program.source]
        if "error" in ref:
            outcome.error = "reference failed: %s" % ref["error"]
        elif outcome.rcce != ref["rcce"] or \
                pipeline.model_counts(outcome.counts) \
                != pipeline.model_counts(ref["counts"]):
            outcome.error = ("jobs=%d run of %r differs from its jobs=1 "
                             "reference" % (self.jobs, outcome.program))
        else:
            outcome.pthread = (ref["pthread_cycles"], None)

    # -- metrics -----------------------------------------------------------

    def typical(self, result):
        """Per program: ``(turnaround, simulate seconds, first pass
        outcome)``, each time the median over the passes in reference
        seconds, or a turnaround of None when any pass failed."""
        rows = []
        for column in zip(*result):
            if all(o.ok for o in column):
                rows.append((
                    statistics.median(o.turnaround * o.scale
                                      for o in column),
                    statistics.median(o.sim_seconds * o.scale
                                      for o in column),
                    column[0]))
            else:
                rows.append((None, None, column[0]))
        return rows

    def model_keys(self, result):
        """What the model computed, per corpus program."""
        return [o.model_key() if o.ok else None for o in result[0]]

    def mean_latency(self, result):
        times = [t for t, _, _ in self.typical(result) if t is not None]
        return sum(times) / len(times)

    def end_to_end(self, result):
        """Every end-to-end metric, from each program's median over the
        passes; in a closed loop each program is one job."""
        rows = self.typical(result)
        ok = [row for row in rows if row[0] is not None]
        times = [t for t, _, _ in ok]
        pct = stats.tail_percentile(len(rows))
        p50 = statistics.median(times)
        tail = stats.percentile(times, pct)
        sim_seconds = sum(s for _, s, _ in ok)
        runs = self.runs(result)
        met = sum(1 for t in times if t <= self.slo_s)
        self.notes.update({
            "tail_percentile": pct, "samples": len(rows),
            "pass_seconds": [sum(o.turnaround for o in one)
                             for one in result],
            "host_scale_median": statistics.median(o.scale for o in runs),
            "slo_s": self.slo_s})
        return {
            "programs_per_s": (len(ok) / sum(times), "1/s"),
            "program_p50_s": (p50, "s"),
            "program_tail_s": (tail, "s"),
            "sim_steps_per_s": (sum(o.steps for _, _, o in ok)
                                / sim_seconds, "1/s"),
            "speedup_geomean": (stats.geomean(
                [o.pthread[0] / o.rcce[0] for _, _, o in ok]), "ratio"),
            "job_p50_s": (p50, "s"),
            "job_tail_s": (tail, "s"),
            "slo_met_share": (met / len(rows), "share"),
            "verified_share": (sum(1 for o in runs if o.ok)
                               / len(runs), "share"),
        }

    def per_layer(self, result, recorder):
        """Layer metrics of a traced run: mean self seconds per program
        run from the spans, exact model counts summed over the corpus."""
        total, n = spans.layer_totals(recorder.spans)
        metrics = {metric: (total.get(span_name, 0.0) / n, "s")
                   for span_name, metric in LAYER_TIMES.items()}
        parse_s = total.get("cfront.parse", 0.0)
        metrics["cfront.lines_per_s"] = (
            sum(o.lines for o in self.runs(result)) / parse_s, "1/s")
        first = [o for o in result[0] if o.ok]
        counts = {}
        for outcome in first:
            pipeline.add_counts(counts, outcome.counts)
            pipeline.add_counts(counts, outcome.core)
        counts["sim.cycles_pthread"] = sum(o.pthread[0] for o in first)
        counts["sim.cycles_rcce"] = sum(o.rcce[0] for o in first)
        metrics.update(pipeline.count_metrics(counts))
        if self.jobs > 1:
            metrics.update(self._parallel_layer(result))
        return metrics

    def _parallel_layer(self, result):
        ratios = [self.references[o.program.source]["jobs1_seconds"] / s
                  for _, s, o in self.typical(result) if s is not None]
        self.notes["speedup_vs_jobs1_base"] = (
            "reference seconds of a jobs=1 run_rcce of the same "
            "rcce_source, measured once after the timed phase while the "
            "Pthreads baselines ran on the other CPU, over the median "
            "pass of the jobs=%d run" % self.jobs)
        return {
            "sim.parallel.reconciliations": (
                sum(o.parallel["reconciliations"] for o in result[0]
                    if o.ok), "count"),
            "sim.parallel.speedup_vs_jobs1": (stats.geomean(ratios),
                                              "ratio"),
        }


def _references(programs):
    """Pthreads baseline and ``jobs=1`` RCCE run of each program, by
    source, outside both the timed phase and set-up.  The two kinds run
    at once, in two forked children, one per host CPU."""
    baselines, runs = isolate.in_children([(_baselines, (programs,)),
                                           (_jobs1_runs, (programs,))])
    references = {}
    for program in programs:
        pthread, rcce = baselines[program.source], runs[program.source]
        try:
            for half in (pthread, rcce):
                if "error" in half:
                    raise pipeline.VerificationError(half["error"])
            pipeline.check_outputs(program, pthread["stdout"],
                                   rcce["rcce"][1])
        except pipeline.VerificationError as exc:
            references[program.source] = {"error": str(exc)}
        else:
            references[program.source] = dict(
                rcce, pthread_cycles=pthread["cycles"])
    return references


def _baselines(programs):
    config = scaled_config()
    baselines = {}
    for program in programs:
        try:
            result = run_pthread_single_core(
                program.source, config, SCCChip(config),
                max_steps=pipeline.MAX_STEPS)
            pipeline.check_run(result, 1)
            baselines[program.source] = {"cycles": result.cycles,
                                         "stdout": result.stdout()}
        except pipeline.TYPED_ERRORS as exc:
            baselines[program.source] = {"error": "%s: %s" % (
                type(exc).__name__, exc)}
    return baselines


def _jobs1_runs(programs):
    config = scaled_config()
    runs = {}
    for program in programs:
        try:
            rcce_source = pipeline.TranslationFramework(
                on_chip_capacity=pipeline.SCALED_ON_CHIP_CAPACITY,
                partition_policy=program.policy).translate(
                program.source).rcce_source
            before = hostspeed.pin_fastest()
            start = time.perf_counter()
            result = run_rcce(rcce_source, program.ues, config,
                              SCCChip(config),
                              max_steps=pipeline.MAX_STEPS)
            seconds = time.perf_counter() - start
            seconds *= hostspeed.scale([before, hostspeed.probe()])
            pipeline.check_run(result, 1)
            runs[program.source] = {
                "rcce": (result.cycles, result.stdout(),
                         dict(result.per_core_cycles)),
                "counts": pipeline.counts_of(result),
                "jobs1_seconds": seconds,
            }
        except pipeline.TYPED_ERRORS as exc:
            runs[program.source] = {"error": "%s: %s" % (
                type(exc).__name__, exc)}
    return runs


# Layer span -> metric reported as mean self seconds per program run.
LAYER_TIMES = {name: name + "_s" for name in (
    "cfront.parse", "cfront.codegen", "core.stage1", "core.stage2",
    "core.stage3", "core.stage4", "core.stage5", "sim.compile_unit",
    "sim.pthread", "sim.rcce", "sim.parallel.rcce", "verify", "other")}
LAYER_TIMES["static"] = "static.s"
