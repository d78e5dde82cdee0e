"""The supervising scheduler: a bounded worker pool over the queue.

One :class:`Scheduler` owns a :class:`~repro.serve.queue.JobQueue`,
at most ``pool_size`` worker *processes* (one job per worker — a
crashing or hung job can only take its own process down, never the
pool), and the supervision ladder:

* **deadline enforcement** — a job past its wall-clock deadline is
  killed (``terminate``) and fails with a typed
  :class:`~repro.serve.job.JobDeadlineError`; deadline kills are
  policy, never retried;
* **bounded retry with exponential backoff** — a worker that dies to
  a restartable error (the supervisor's ``RESTARTABLE_ERRORS``
  taxonomy, plus bare worker death) is retried up to
  ``job.max_retries`` times, re-entering the queue with a
  ``retry_base * 2**(attempt-1)`` backoff (capped);
* **preemption/resume** — when a strictly higher-priority job is
  ready and the pool is full, the lowest-priority running preemptible
  job is asked (over its control pipe) to checkpoint at the next
  barrier round and unwind; it resumes later from that snapshot via
  verified replay, so its final result is byte-identical to an
  uninterrupted run.  A worker that ignores the request past
  ``preempt_grace`` seconds is terminated and requeued from its
  newest checkpoint;
* **chaos** — a :class:`~repro.faults.ServeFaultPlan` (``job_kill`` /
  ``job_stall`` rules) is evaluated scheduler-side, deterministically,
  and its actions shipped into the worker, so every rung of this
  ladder is testable without real crashes.

Everything observable flows through a
:class:`~repro.obs.MetricsRegistry` (counters, queue/worker gauges,
a wall-seconds histogram, per-worker collectors).
"""

import multiprocessing
import os
import time

from repro.faults import ServeFaultPlan, parse_fault_spec
from repro.serve.job import (
    DONE,
    FAILED,
    PENDING,
    PREEMPTED,
    RUNNING,
    BackpressureError,
    Job,
    JobSpec,
    UnknownJobError,
    _job_worker_main,
)
from repro.serve.memo import ResultMemo
from repro.serve.queue import JobQueue

DEFAULT_POOL_SIZE = 2
DEFAULT_RETRY_BASE = 0.05
DEFAULT_RETRY_CAP = 1.0
DEFAULT_PREEMPT_GRACE = 30.0


def _poll_outcome(conn):
    """The worker's message waiting on ``conn``, or None."""
    try:
        if conn.poll(0):
            return conn.recv()
    except (EOFError, OSError):
        pass
    return None


class _WorkerHandle:
    __slots__ = ("job", "proc", "conn", "ctl", "started",
                 "deadline_at", "preempt_requested_at",
                 "checkpoint_path")

    def __init__(self, job, proc, conn, ctl, started, deadline_at,
                 checkpoint_path):
        self.job = job
        self.proc = proc
        self.conn = conn
        self.ctl = ctl
        self.started = started
        self.deadline_at = deadline_at
        self.preempt_requested_at = None
        self.checkpoint_path = checkpoint_path


class Scheduler:
    def __init__(self, pool_size=DEFAULT_POOL_SIZE, queue=None,
                 state_dir=None, memo=None, registry=None, chaos=None,
                 clock=time.monotonic, retry_base=DEFAULT_RETRY_BASE,
                 retry_cap=DEFAULT_RETRY_CAP,
                 preempt_grace=DEFAULT_PREEMPT_GRACE,
                 start_method=None):
        self.pool_size = pool_size
        # not ``queue or JobQueue()``: an empty JobQueue is falsy
        self.queue = queue if queue is not None else JobQueue()
        self.state_dir = state_dir
        if state_dir is not None:
            os.makedirs(state_dir, exist_ok=True)
        self.memo = memo if memo is not None else ResultMemo(
            os.path.join(state_dir, "memo")
            if state_dir is not None else None)
        self.registry = registry
        if isinstance(chaos, str):
            _other, serve_rules = _split_serve(chaos)
            chaos = ServeFaultPlan(serve_rules)
        self.chaos = chaos
        self.clock = clock
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        self.preempt_grace = preempt_grace
        method = start_method
        if method is None:
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else methods[0]
        self._ctx = multiprocessing.get_context(method)
        self.jobs = {}            # job_id -> Job, insertion ordered
        self.running = {}         # job_id -> _WorkerHandle
        self._deadline_at = {}    # job_id -> absolute monotonic bound
        self._next_index = 0
        self.counts = {}          # metric name or (name, label) -> n
        self._wall = None
        if registry is not None:
            self._wall = registry.histogram(
                "serve_job_wall_seconds",
                "wall seconds per completed job attempt")
            registry.register_collector("serve.scheduler",
                                        self._collect_metrics,
                                        self.counts.clear)

    # -- metrics ------------------------------------------------------------

    def _count(self, name, label=None, amount=1):
        key = (name, label) if label is not None else name
        self.counts[key] = self.counts.get(key, 0) + amount

    def _collect_metrics(self):
        rows = [
            ("gauge", "serve_queue_depth", {}, len(self.queue)),
            ("gauge", "serve_running_workers", {}, len(self.running)),
            ("gauge", "serve_pool_size", {}, self.pool_size),
        ]
        for key, value in sorted(self.counts.items(),
                                 key=lambda item: str(item[0])):
            if isinstance(key, tuple):
                name, label = key
                labels = {"reason": label} \
                    if name == "serve_jobs_rejected" \
                    else {"outcome": label}
            else:
                name, labels = key, {}
            rows.append(("counter", name, labels, value))
        for handle in self.running.values():
            rows.append(("gauge", "serve_worker_busy",
                         {"worker": handle.proc.pid or 0,
                          "job": handle.job.job_id}, 1))
        for job in self.jobs.values():
            rows.append(("gauge", "serve_job_attempts",
                         {"job": job.job_id, "state": job.state},
                         job.attempts))
        return rows

    # -- submission ---------------------------------------------------------

    def submit(self, source, spec=None, priority=0,
               deadline_seconds=None, max_retries=1,
               preemptible=False, checkpoint_every=1):
        """Admit one job (or raise
        :class:`~repro.serve.job.BackpressureError`); returns the
        :class:`Job`.  A memo hit completes immediately, without
        touching the queue."""
        job = Job("j%04d" % (self._next_index + 1), source,
                  spec=spec if isinstance(spec, JobSpec)
                  else JobSpec.from_dict(spec) if spec else JobSpec(),
                  priority=priority,
                  deadline_seconds=deadline_seconds,
                  max_retries=max_retries, preemptible=preemptible,
                  checkpoint_every=checkpoint_every)
        job.submit_index = self._next_index
        cached = self.memo.lookup(job)
        if cached is not None:
            self._next_index += 1
            job.state = DONE
            job.result = cached
            self.jobs[job.job_id] = job
            self._count("serve_jobs_submitted")
            self._count("serve_results_cached")
            self._count("serve_jobs_completed", "done")
            return job
        try:
            self.queue.admit(job)
        except BackpressureError as exc:
            self._count("serve_jobs_submitted")
            self._count("serve_jobs_rejected", exc.reason)
            raise
        self._next_index += 1
        self.jobs[job.job_id] = job
        self._count("serve_jobs_submitted")
        return job

    def get(self, job_id):
        job = self.jobs.get(job_id)
        if job is None:
            raise UnknownJobError("no such job: %s" % job_id)
        return job

    # -- the supervision loop ----------------------------------------------

    def step(self, now=None):
        """One scheduling round: reap, enforce deadlines, preempt,
        dispatch.  Returns ``True`` while there is live or pending
        work."""
        now = self.clock() if now is None else now
        self._reap(now)
        self._enforce_deadlines(now)
        self._maybe_preempt(now)
        self._dispatch(now)
        return bool(self.running) or len(self.queue) > 0

    def run_until_idle(self, timeout=300.0, poll=0.02):
        deadline = self.clock() + timeout
        while self.step():
            if self.clock() > deadline:
                raise TimeoutError(
                    "scheduler still busy after %gs (%d running, "
                    "%d queued)" % (timeout, len(self.running),
                                    len(self.queue)))
            time.sleep(poll)

    # -- internals ----------------------------------------------------------

    def _checkpoint_path(self, job):
        if self.state_dir is None or not job.preemptible:
            return None
        return os.path.join(self.state_dir,
                            "ckpt-%s.ckpt" % job.job_id)

    def _spawn(self, job, now):
        job.attempts += 1
        job.state = RUNNING
        checkpoint_path = self._checkpoint_path(job)
        restore = job.restore_from
        if restore is not None and not os.path.exists(restore):
            restore = None
        actions = []
        if self.chaos is not None and self.chaos.active:
            actions = self.chaos.on_job_start(job.submit_index,
                                              job.attempts)
            for action in actions:
                self._count("serve_chaos_actions", action[0])
        conn_recv, conn_send = self._ctx.Pipe(duplex=False)
        ctl_recv, ctl_send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_job_worker_main,
            args=(job.as_dict(), conn_send, ctl_recv,
                  checkpoint_path, restore, actions),
            daemon=True,
            name="repro-serve-%s" % job.job_id)
        proc.start()
        conn_send.close()
        ctl_recv.close()
        deadline_at = self._deadline_at.get(job.job_id)
        if deadline_at is None and job.deadline_seconds is not None:
            deadline_at = now + job.deadline_seconds
            self._deadline_at[job.job_id] = deadline_at
        self.running[job.job_id] = _WorkerHandle(
            job, proc, conn_recv, ctl_send, now, deadline_at,
            checkpoint_path)
        self.queue.running_bytes += job.estimate_bytes()
        if restore is not None:
            self._count("serve_jobs_resumed")

    def _dispatch(self, now):
        while len(self.running) < self.pool_size:
            job = self.queue.pop_ready(now)
            if job is None:
                return
            deadline_at = self._deadline_at.get(job.job_id)
            if deadline_at is not None and now >= deadline_at:
                self._fail(job, "JobDeadlineError",
                           "deadline expired while queued")
                continue
            self._spawn(job, now)

    def _reap(self, now):
        for job_id, handle in list(self.running.items()):
            message = _poll_outcome(handle.conn)
            alive = message is not None or handle.proc.is_alive()
            if not alive:
                # the worker may have sent its outcome and exited
                # between the poll and is_alive(): drain the pipe once
                # more before calling it dead
                message = _poll_outcome(handle.conn)
            if message is not None:
                self._finish_worker(handle)
                self._handle_message(handle, message, now)
            elif not alive:
                self._finish_worker(handle)
                if handle.preempt_requested_at is not None \
                        and handle.job.preemptible:
                    # died while unwinding; its newest checkpoint (if
                    # any) still resumes it
                    self._requeue_preempted(handle)
                else:
                    self._retry_or_fail(
                        handle.job, now, "JobWorkerDeathError",
                        "worker exited (code %s) without reporting "
                        "an outcome" % handle.proc.exitcode,
                        restartable=True)
            else:
                if handle.preempt_requested_at is not None and \
                        now - handle.preempt_requested_at \
                        > self.preempt_grace:
                    # ignored the request (e.g. stuck before its
                    # first barrier): evict and requeue
                    handle.proc.terminate()
                    handle.proc.join(5.0)
                    self._finish_worker(handle)
                    self._requeue_preempted(handle)
                continue

    def _enforce_deadlines(self, now):
        for job_id, handle in list(self.running.items()):
            if handle.deadline_at is None or now < handle.deadline_at:
                continue
            handle.proc.terminate()
            self._finish_worker(handle)
            self._fail(handle.job, "JobDeadlineError",
                       "wall-clock deadline (%gs) expired after "
                       "attempt %d ran %.2fs"
                       % (handle.job.deadline_seconds,
                          handle.job.attempts, now - handle.started))

    def _finish_worker(self, handle):
        self.running.pop(handle.job.job_id, None)
        self.queue.running_bytes = max(
            0, self.queue.running_bytes
            - handle.job.estimate_bytes())
        handle.proc.join(5.0)
        if handle.proc.is_alive():
            handle.proc.terminate()
            handle.proc.join(5.0)
        for conn in (handle.conn, handle.ctl):
            try:
                conn.close()
            except OSError:
                pass

    def _handle_message(self, handle, message, now):
        kind, body = message
        job = handle.job
        if kind == "ok":
            job.state = DONE
            job.result = body
            job.restore_from = None
            self.memo.store(job, body)
            self._count("serve_jobs_completed", "done")
            if self._wall is not None:
                self._wall.observe(body.get("wall_seconds", 0.0))
        elif kind == "preempted":
            self._requeue_preempted(handle)
        else:  # ("error", info)
            self._retry_or_fail(job, now, body.get("error", "Error"),
                               body.get("message", ""),
                               restartable=body.get("restartable",
                                                    False))

    def _requeue_preempted(self, handle):
        job = handle.job
        job.state = PREEMPTED
        job.preemptions += 1
        if handle.checkpoint_path is not None \
                and os.path.exists(handle.checkpoint_path):
            job.restore_from = handle.checkpoint_path
        self._count("serve_jobs_preempted")
        self.queue.requeue(job)

    def _retry_or_fail(self, job, now, error, message,
                       restartable=False):
        if restartable and job.attempts <= job.max_retries:
            self._count("serve_job_retries")
            backoff = min(self.retry_cap,
                          self.retry_base * (2 ** (job.attempts - 1)))
            self.queue.requeue(job, not_before=now + backoff)
            return
        if restartable and job.max_retries > 0:
            error = "JobRetriesExhaustedError"
            message = ("retry budget (%d) exhausted; last error: %s"
                       % (job.max_retries, message))
        self._fail(job, error, message)

    def _fail(self, job, error, message):
        job.state = FAILED
        job.outcome = {"error": error, "message": message}
        self._count("serve_jobs_completed", "failed")

    def _maybe_preempt(self, now):
        if len(self.running) < self.pool_size:
            return
        best = self.queue.max_ready_priority(now)
        if best is None:
            return
        victims = [handle for handle in self.running.values()
                   if handle.job.preemptible
                   and handle.preempt_requested_at is None
                   and handle.job.priority < best]
        if not victims:
            return
        victim = min(victims,
                     key=lambda h: (h.job.priority, h.started))
        self.preempt(victim.job.job_id, now)

    def preempt(self, job_id, now=None):
        """Ask a running job to checkpoint and unwind at its next
        barrier round."""
        handle = self.running.get(job_id)
        if handle is None:
            raise UnknownJobError("job %s is not running" % job_id)
        now = self.clock() if now is None else now
        if handle.preempt_requested_at is not None:
            return
        handle.preempt_requested_at = now
        try:
            handle.ctl.send("preempt")
        except (OSError, BrokenPipeError):
            pass  # the worker is already dying; _reap classifies it

    # -- shutdown and persistence ------------------------------------------

    def drain(self):
        """Graceful shutdown: preempt every preemptible running job
        (waiting for its checkpoint) and terminate the rest back into
        the queue, so :meth:`persist` captures a resumable picture."""
        for job_id in list(self.running):
            handle = self.running.get(job_id)
            if handle is None:
                continue
            if handle.job.preemptible:
                self.preempt(job_id)
            else:
                handle.proc.terminate()
        deadline = self.clock() + max(5.0, self.preempt_grace)
        while self.running and self.clock() < deadline:
            self._reap(self.clock())
            time.sleep(0.02)
        for job_id, handle in list(self.running.items()):
            handle.proc.terminate()
            self._finish_worker(handle)
            if handle.job.preemptible:
                self._requeue_preempted(handle)
            else:
                self.queue.requeue(handle.job)
        # _reap classified terminated non-preemptible workers as
        # worker deaths and may have parked them in retry backoff;
        # that is fine — persist() records them as pending
        for proc in multiprocessing.active_children():
            if proc.name.startswith("repro-serve-"):
                proc.terminate()
                proc.join(5.0)

    def persist(self, path):
        """Atomically write the queue + job table as JSON."""
        import json
        state = {
            "next_index": self._next_index,
            "jobs": [job.as_dict() for job in self.jobs.values()],
        }
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(state, handle)
        os.replace(tmp, path)

    def load(self, path):
        """Restore a persisted queue: pending and preempted (and any
        interrupted running) jobs re-enter the queue; finished jobs
        keep their outcomes for ``repro jobs``."""
        import json
        if not os.path.exists(path):
            return 0
        with open(path) as handle:
            state = json.load(handle)
        self._next_index = state.get("next_index", 0)
        requeued = 0
        for data in state.get("jobs", []):
            job = Job.from_dict(data)
            self.jobs[job.job_id] = job
            if job.state in (PENDING, PREEMPTED, RUNNING):
                if job.state == RUNNING:
                    # the previous daemon died mid-run; rerun (from
                    # the newest checkpoint when one exists)
                    ckpt = self._checkpoint_path(job)
                    if ckpt is not None and os.path.exists(ckpt):
                        job.restore_from = ckpt
                self.queue.requeue(job)
                requeued += 1
        return requeued


def _split_serve(spec):
    from repro.faults import split_serve_rules
    return split_serve_rules(parse_fault_spec(spec))
