"""Open-loop workload: independent users submit into a job service.

Programs arrive on a fixed schedule, ``rate`` per second, into an
in-process ``repro.serve.Scheduler`` whose worker pool is at most the
host's CPU count.  Each program is two jobs due at the same moment:
the Pthreads baseline (``mode="pthread"``) and the translated RCCE run,
so the pair verifies itself and gives the simulated speed-up.  A fixed
number of programs, at seeded places, repeat an earlier (source,
``JobSpec``) pair due long enough before to have finished, so the
result memo serves it.  Every job is timed from its due time, not from
when the generator got round to submitting it, and the generator's
lateness is recorded as its own span.

Like the closed loops, a run plays the schedule in a number of passes
that ``--seconds`` alone fixes, each with a fresh scheduler and memo,
and reports each job's median over the passes, in reference seconds
(see ``hostspeed``).
"""

import math
import os
import random
import statistics
import time

from repro.bench.workloads import SCALED_ON_CHIP_CAPACITY
from repro.scc.chip import SCCChip
from repro.scc.config import Table61Config
from repro.serve import (
    BackpressureError,
    Job,
    JobSpec,
    ResultMemo,
    Scheduler,
    execute_job,
)
from repro.serve.job import DONE, FAILED, RUNNING
from repro.sim.runner import run_pthread_single_core, run_rcce

import corpus
import hostspeed
import isolate
import pipeline
import spans
import stats

POLL_S = 0.002
# An idle generator probes the host speed at most this often, and only
# with at least this long to go before the next job is due.
PROBE_EVERY_S = 0.1
PROBE_GAP_S = 0.02
DRAIN_TIMEOUT_S = 60.0
MODES = ("pthread", "rcce")


def job_spec(program, mode):
    """The ``JobSpec`` of ``program``'s job in ``mode``."""
    if mode == "pthread":
        return JobSpec(mode="pthread", num_ues=program.ues)
    return JobSpec(mode="rcce", num_ues=program.ues,
                   policy=program.policy,
                   capacity=SCALED_ON_CHIP_CAPACITY)


class Submission:
    """One job of one pass and what was observed of it."""

    __slots__ = ("index", "program", "mode", "due", "fresh", "job",
                 "submitted", "running", "done", "error", "scale")

    def __init__(self, index, program, mode, due, fresh):
        self.index = index
        self.program = program
        self.mode = mode
        self.due = due
        self.fresh = fresh        # False for a repeat the memo may serve
        self.job = None
        self.submitted = self.running = self.done = None
        self.error = None
        self.scale = 1.0          # host-speed factor of its pass

    def spec(self):
        return job_spec(self.program, self.mode)

    @property
    def ok(self):
        return self.error is None and self.done is not None

    @property
    def latency(self):
        return self.done - self.due


class ServeOpen:
    min_passes = 3

    def __init__(self, spec, warm_spec, rounds, repeats, rate,
                 repeat_gap_s, slo_s, pool_size, pass_s):
        self.spec = spec
        self.warm_spec = warm_spec
        self.rounds = rounds
        self.repeats = repeats
        self.rate = rate
        self.repeat_gap_s = repeat_gap_s
        self.slo_s = slo_s
        self.pool_size = pool_size
        self.pass_s = pass_s
        self.schedule = []         # (due, Program, fresh) per arrival
        self.digest = None
        self.notes = {}
        self.references = {}       # source -> direct-run reference
        self.executed = {}         # submission index -> execute_job model

    # -- set-up ------------------------------------------------------------

    def setup(self, seed):
        """Draw ``rounds`` rounds of fresh programs and place
        ``repeats`` repeats among them, at seeded positions at least
        ``repeat_gap_s`` into the schedule."""
        warm = corpus.rounds(self.warm_spec, 0, 1)
        fresh = iter(corpus.rounds(self.spec, seed, self.rounds,
                                   avoid={p.source for p in warm}))
        count = self.rounds * len(self.spec.strata()) + self.repeats
        rng = random.Random("serve-open:%d" % seed)
        gap = int(math.ceil(self.repeat_gap_s * self.rate))
        repeats = set(rng.sample(range(gap, count), self.repeats))
        self.schedule = []
        for index in range(count):
            due = index / self.rate
            if index in repeats:
                earlier = [p for d, p, f in self.schedule
                           if f and d <= due - self.repeat_gap_s]
                self.schedule.append((due, rng.choice(earlier), False))
            else:
                self.schedule.append((due, next(fresh), True))
        self.digest = corpus.digest([p for _, p, _ in self.schedule])
        self.seed = seed
        # pool start and warm-up: the first forks happen here
        scheduler = self._scheduler()
        jobs = [scheduler.submit(program.source, job_spec(program, mode))
                for program in warm for mode in MODES]
        scheduler.run_until_idle(timeout=DRAIN_TIMEOUT_S, poll=POLL_S)
        for job in jobs:
            if job.state != DONE:
                raise RuntimeError("warm-up job %s failed: %r"
                                   % (job.job_id, job.outcome))

    def _scheduler(self):
        return Scheduler(pool_size=self.pool_size, memo=ResultMemo())

    # -- measurement -------------------------------------------------------

    def loop(self, passes, recorder=None):
        """Play the schedule ``passes`` times; returns the per-pass
        submission lists."""
        result = []
        retries = 0
        for index in range(passes):
            subs, scheduler = self._play()
            retries += scheduler.counts.get("serve_job_retries", 0)
            if recorder is not None:
                for sub in subs:
                    _record(recorder, index * len(subs) + sub.index, sub)
            result.append(subs)
        self.notes["retries"] = retries
        return result

    def _play(self):
        """One pass of the schedule into a fresh scheduler and memo.
        Times are seconds since the pass started.  The host-speed probe
        runs before and after the pass and whenever no job is live and
        the next one is not due for a while, so it delays no job; the
        median of its readings scales every job of the pass."""
        scheduler = self._scheduler()
        probes = [hostspeed.probe_every_cpu()]
        subs = [Submission(2 * index + offset, program, mode, due, fresh)
                for index, (due, program, fresh)
                in enumerate(self.schedule)
                for offset, mode in enumerate(MODES)]
        clock = time.perf_counter
        start = clock()
        probed = start
        live = []
        next_sub = 0
        while next_sub < len(subs) or live:
            now = clock() - start
            while next_sub < len(subs) and subs[next_sub].due <= now:
                sub = subs[next_sub]
                next_sub += 1
                sub.submitted = clock() - start
                try:
                    sub.job = scheduler.submit(sub.program.source,
                                               sub.spec())
                except BackpressureError as exc:
                    sub.error = "BackpressureError: %s" % exc
                    continue
                live.append(sub)
            scheduler.step()
            now = clock() - start
            still = []
            for sub in live:
                state = sub.job.state
                if state == RUNNING and sub.running is None:
                    sub.running = now
                if state in (DONE, FAILED):
                    sub.done = now
                    if sub.running is None:
                        sub.running = sub.submitted  # served by the memo
                    if state == FAILED:
                        sub.error = "%(error)s: %(message)s" \
                            % sub.job.outcome
                else:
                    still.append(sub)
            live = still
            if now > subs[-1].due + DRAIN_TIMEOUT_S:
                for sub in live + subs[next_sub:]:
                    sub.error = "not finished %gs after the last due " \
                        "time" % DRAIN_TIMEOUT_S
                scheduler.drain()
                break
            if not live and next_sub < len(subs) and \
                    subs[next_sub].due - now > PROBE_GAP_S and \
                    clock() - probed > PROBE_EVERY_S:
                probes.append(hostspeed.probe_every_cpu())
                probed = clock()
                continue
            pause = POLL_S
            if next_sub < len(subs):
                pause = min(pause, max(0.0, subs[next_sub].due - now))
            time.sleep(pause)
        probes.append(hostspeed.probe_every_cpu())
        factor = hostspeed.scale(probes)
        for sub in subs:
            sub.scale = factor
        return subs, scheduler

    @staticmethod
    def runs(result):
        return [sub for subs in result for sub in subs]

    # -- correctness -------------------------------------------------------

    def verify(self, result):
        """Pairs must agree with each other; every served result must
        equal a direct run with ``execute_job``'s semantics (which also
        gives its steps and model counts), so repeats equal their
        originals and every pass equals every other; two seeded fresh
        jobs must equal ``execute_job`` itself.  The direct runs happen
        in a forked child, after the timed phase."""
        if not self.references:
            fresh = [sub for sub in result[0] if sub.fresh]
            sample = random.Random(self.seed).sample(fresh, 2)
            self.references, self.executed = isolate.in_child(
                _direct_runs, [p for _, p, f in self.schedule if f],
                [(sub.index, sub.program, sub.spec()) for sub in sample])
        for subs in result:
            for pthread, rcce in _pairs(subs):
                if pthread.ok and rcce.ok:
                    self._check_pair(pthread, rcce)
            for index, model in self.executed.items():
                sub = subs[index]
                if sub.ok and model != _model(sub.job.result):
                    sub.error = "served result of %r differs from " \
                        "execute_job: %r" % (sub.program, model)

    def _check_pair(self, pthread, rcce):
        ref = self.references[pthread.program.source]
        try:
            if "error" in ref:
                raise pipeline.VerificationError(ref["error"])
            pipeline.check_outputs(pthread.program,
                                   pthread.job.result["stdout"],
                                   rcce.job.result["stdout"])
            for sub in (pthread, rcce):
                if sub.job.result["diagnostics"]:
                    raise pipeline.VerificationError(
                        "job reported %s"
                        % sub.job.result["diagnostics"][0])
                if _model(sub.job.result) != ref[sub.mode]:
                    raise pipeline.VerificationError(
                        "%s job of %r differs from its direct run"
                        % (sub.mode, sub.program))
        except pipeline.TYPED_ERRORS as exc:
            pthread.error = rcce.error = "%s: %s" % (
                type(exc).__name__, exc)

    # -- metrics -----------------------------------------------------------

    def _references_ok(self):
        return [ref for ref in self.references.values()
                if "error" not in ref]

    def model_keys(self, result):
        """Every job's simulated outcome, in schedule order."""
        return [_model(s.job.result) if s.ok else None
                for s in result[0]]

    def _typical(self, result):
        """Per job: its median latency over the passes in reference
        seconds, or None when it failed in any pass."""
        return [statistics.median(s.latency * s.scale for s in column)
                if all(s.ok for s in column) else None
                for column in zip(*result)]

    def mean_latency(self, result):
        latencies = [t for t in self._typical(result) if t is not None]
        return sum(latencies) / len(latencies)

    def end_to_end(self, result):
        jobs = self._typical(result)
        programs = [None if None in pair else max(pair)
                    for pair in _pairs(jobs)]
        job_lat = [t for t in jobs if t is not None]
        program_lat = [t for t in programs if t is not None]
        prog_pct = stats.tail_percentile(len(programs))
        job_pct = stats.tail_percentile(len(jobs))
        refs = self._references_ok()
        speedups = [ref["pthread"][0] / ref["rcce"][0] for ref in refs]
        met = sum(1 for t in job_lat if t <= self.slo_s)
        runs = self.runs(result)
        # the pass length follows the arrival schedule, not the host
        # speed, so it stays in raw seconds
        spans_s = [max(s.done for s in subs if s.done is not None)
                   for subs in result]
        self.notes.update({
            "tail_percentile": {"program": prog_pct, "job": job_pct},
            "samples": {"program": len(programs), "job": len(jobs)},
            "slo_s": self.slo_s,
            "host_scale": [subs[0].scale for subs in result],
            "rate_programs_per_s": self.rate,
            "pool_size": self.pool_size,
            "generator_lag_max_s": max(s.submitted - s.due for s in runs
                                       if s.submitted is not None),
        })
        return {
            "programs_per_s": (len(program_lat)
                               / statistics.median(spans_s), "1/s"),
            "program_p50_s": (statistics.median(program_lat), "s"),
            "program_tail_s": (stats.percentile(program_lat, prog_pct),
                               "s"),
            "sim_steps_per_s": (self._served_steps_per_s(result), "1/s"),
            "speedup_geomean": (stats.geomean(speedups), "ratio"),
            "job_p50_s": (statistics.median(job_lat), "s"),
            "job_tail_s": (stats.percentile(job_lat, job_pct), "s"),
            "slo_met_share": (met / len(jobs), "share"),
            "verified_share": (sum(1 for s in runs if s.ok) / len(runs),
                               "share"),
        }

    def _served_steps_per_s(self, result):
        """Simulated steps per host second of the jobs the workers ran:
        each job's exact step count, from its direct run, over the
        ``wall_seconds`` its worker reported, the median over the
        passes that ran it, in reference seconds.  Memo hits ran
        nothing and are left out.  An RCCE job's seconds include its
        translation, which ``execute_job`` does first."""
        steps = seconds = 0
        for column in zip(*result):
            ran = [s.job.result["wall_seconds"] * s.scale for s in column
                   if s.ok and not s.job.result.get("cached")]
            ref = self.references[column[0].program.source]
            if ran and "error" not in ref:
                steps += ref["steps"][column[0].mode]
                seconds += statistics.median(ran)
        return steps / seconds

    def per_layer(self, result, recorder):
        total, n = spans.layer_totals(recorder.spans)
        refs = self._references_ok()
        counts = {}
        for ref in refs:
            pipeline.add_counts(counts, ref["counts"])
        counts["sim.cycles_pthread"] = sum(ref["pthread"][0]
                                           for ref in refs)
        counts["sim.cycles_rcce"] = sum(ref["rcce"][0] for ref in refs)
        runs = self.runs(result)
        hits = sum(1 for s in runs if s.ok and s.job.result.get("cached"))
        busy = self.pool_size * sum(
            max(s.done for s in subs if s.done is not None)
            for subs in result)
        metrics = {
            "serve.generator_lag_s": (total.get("serve.generator_lag",
                                                0.0) / n, "s"),
            "serve.queue_wait_s": (total.get("serve.queue_wait", 0.0)
                                   / n, "s"),
            "serve.run_s": (total.get("serve.run", 0.0) / n, "s"),
            "serve.memo_hit_share": (hits / len(runs), "share"),
            "serve.retries": (self.notes.get("retries", 0), "count"),
            "serve.rejected": (sum(1 for s in runs if s.job is None
                                   and s.submitted is not None),
                               "count"),
            "serve.worker_busy_share": (total.get("serve.run", 0.0)
                                        / busy, "share"),
            "other_s": (total.get("other", 0.0) / n, "s"),
        }
        metrics.update(pipeline.count_metrics(counts))
        return metrics


def _direct_runs(programs, sample):
    """References for ``programs`` (by source) and ``execute_job``
    models for the ``(index, program, spec)`` sample (by index)."""
    references = {}
    for program in programs:
        try:
            references[program.source] = _reference(program)
        except pipeline.TYPED_ERRORS as exc:
            references[program.source] = {"error": "%s: %s" % (
                type(exc).__name__, exc)}
    executed = {}
    for index, program, spec in sample:
        try:
            executed[index] = _model(execute_job(
                Job("check", program.source, spec)))
        except pipeline.TYPED_ERRORS as exc:
            executed[index] = "%s: %s" % (type(exc).__name__, exc)
    return references, executed


def _reference(program):
    """Direct runs of one program with ``execute_job``'s semantics
    (default chip configuration, the JobSpec's framework)."""
    spec = job_spec(program, "rcce")
    translated = spec.framework().translate(program.source)
    config = Table61Config()
    pthread = run_pthread_single_core(program.source, config,
                                      SCCChip(config),
                                      max_steps=spec.max_steps)
    rcce = run_rcce(translated.unit, program.ues, config, SCCChip(config),
                    max_steps=spec.max_steps)
    pthread_counts = pipeline.counts_of(pthread)
    rcce_counts = pipeline.counts_of(rcce)
    return {"pthread": _model_of(pthread), "rcce": _model_of(rcce),
            "counts": pipeline.add_counts(dict(pthread_counts),
                                          rcce_counts),
            "steps": {"pthread": pthread_counts["sim.steps"],
                      "rcce": rcce_counts["sim.steps"]}}


def _record(recorder, trace_id, sub):
    """Spans of one job, in seconds since its pass started: generator
    lag (due -> submitted), queue wait (submitted -> seen running) and
    run (seen running -> seen done)."""
    if sub.submitted is None:
        return
    end = sub.done if sub.done is not None else sub.submitted
    root = recorder.new_id()
    recorder.add(trace_id, "job", sub.due, end, None, root)
    recorder.add(trace_id, "serve.generator_lag", sub.due, sub.submitted,
                 root)
    if sub.done is not None:
        recorder.add(trace_id, "serve.queue_wait", sub.submitted,
                     sub.running, root)
        recorder.add(trace_id, "serve.run", sub.running, sub.done, root)


def _pairs(items):
    """(pthread, rcce) items per program, in schedule order."""
    return [items[i:i + 2] for i in range(0, len(items), 2)]


def _model(payload):
    """The simulated outcome of a job payload."""
    return (payload["cycles"], payload["stdout"],
            dict(payload["per_core_cycles"]))


def _model_of(result):
    """A RunResult in the shape of :func:`_model`."""
    return (result.cycles, result.stdout(),
            {str(k): v for k, v in result.per_core_cycles.items()})


def pool_size():
    return max(1, min(2, os.cpu_count() or 1))
