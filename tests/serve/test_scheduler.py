"""The supervision ladder, rung by rung: deadlines, bounded retry,
backpressure, chaos, preemption/resume byte-identity, the memo."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry, series_value
from repro.serve import (
    BackpressureError,
    JobSpec,
    ResultMemo,
    Scheduler,
    execute_job,
)
from repro.serve.job import Job, JobPreempted
from repro.serve.queue import JobQueue

SMALL = {"num_ues": 4, "max_steps": 2_000_000}


def _scheduler(tmp_path, **kwargs):
    kwargs.setdefault("pool_size", 2)
    return Scheduler(state_dir=str(tmp_path / "state"), **kwargs)


class TestLifecycle:
    def test_healthy_job_byte_identical_to_direct(self, tmp_path,
                                                  pi_source):
        sched = _scheduler(tmp_path)
        job = sched.submit(pi_source, spec=JobSpec(**SMALL))
        sched.run_until_idle(timeout=120)
        direct = execute_job(Job("direct", pi_source,
                                 JobSpec(**SMALL)))
        assert job.state == "done"
        assert job.result["cycles"] == direct["cycles"]
        assert job.result["stdout"] == direct["stdout"]
        assert job.result["per_core_cycles"] == \
            direct["per_core_cycles"]

    def test_deadline_kill_mid_quantum(self, tmp_path,
                                       infinite_loop_source):
        sched = _scheduler(tmp_path)
        job = sched.submit(
            infinite_loop_source,
            spec=JobSpec(mode="pthread", max_steps=2_000_000_000),
            deadline_seconds=0.8)
        sched.run_until_idle(timeout=60)
        assert job.state == "failed"
        assert job.outcome["error"] == "JobDeadlineError"
        # the pool is not poisoned: a healthy job still runs
        healthy = sched.submit(
            "int main() { return 42; }",
            spec=JobSpec(mode="pthread", max_steps=100_000))
        sched.run_until_idle(timeout=60)
        assert healthy.state == "done"

    def test_retry_budget_exhaustion(self, tmp_path, pi_source):
        # a seeded core_crash re-fires deterministically on every
        # fresh worker, so the retry budget must run dry, typed
        sched = _scheduler(tmp_path)
        job = sched.submit(
            pi_source,
            spec=JobSpec(faults="core_crash:core=1,at=100", **SMALL),
            max_retries=2)
        sched.run_until_idle(timeout=120)
        assert job.state == "failed"
        assert job.attempts == 3
        assert job.outcome["error"] == "JobRetriesExhaustedError"
        assert "injected crash" in job.outcome["message"]

    def test_nonrestartable_error_fails_fast(self, tmp_path):
        sched = _scheduler(tmp_path)
        job = sched.submit("int main( { nope",
                           spec=JobSpec(num_ues=2), max_retries=3)
        sched.run_until_idle(timeout=60)
        assert job.state == "failed"
        assert job.attempts == 1
        assert job.outcome["error"] == "JobTranslationError"

    def test_backpressure_rejection(self, tmp_path, pi_source):
        sched = Scheduler(pool_size=1,
                          queue=JobQueue(max_depth=1),
                          state_dir=str(tmp_path / "state"))
        sched.queue.admit(Job("blocker", pi_source, JobSpec(**SMALL)))
        with pytest.raises(BackpressureError):
            sched.submit(pi_source, spec=JobSpec(**SMALL))


class _SendsThenExits:
    """A worker process stand-in that sends its outcome and exits
    exactly between the scheduler's pipe poll and its is_alive()."""

    exitcode = 0

    def __init__(self, send_conn, message):
        self._send_conn = send_conn
        self._message = message

    def is_alive(self):
        if self._send_conn is not None:
            self._send_conn.send(self._message)
            self._send_conn.close()
            self._send_conn = None
        return False

    def join(self, timeout=None):
        pass

    def terminate(self):
        pass


class TestReap:
    def test_outcome_sent_just_before_exit_is_not_a_death(self,
                                                           tmp_path):
        import multiprocessing

        from repro.serve.scheduler import _WorkerHandle
        sched = _scheduler(tmp_path)
        job = Job("raced", "int main() { return 0; }",
                  JobSpec(mode="pthread"))
        job.attempts = 1
        sched.jobs[job.job_id] = job
        recv_conn, send_conn = multiprocessing.Pipe(duplex=False)
        _, ctl_send = multiprocessing.Pipe(duplex=False)
        outcome = {"cycles": 7, "stdout": "", "wall_seconds": 0.0}
        sched.running[job.job_id] = _WorkerHandle(
            job, _SendsThenExits(send_conn, ("ok", outcome)),
            recv_conn, ctl_send, 0.0, None, None)
        sched._reap(0.0)
        assert not sched.running
        assert job.state == "done"
        assert job.result["cycles"] == 7
        assert job.attempts == 1


class TestChaos:
    def test_job_kill_is_retried_clean(self, tmp_path, pi_source):
        sched = _scheduler(tmp_path, pool_size=1,
                           chaos="job_kill:job=0,attempt=1")
        job = sched.submit(pi_source, spec=JobSpec(**SMALL),
                           max_retries=2)
        sched.run_until_idle(timeout=120)
        assert job.state == "done"
        assert job.attempts == 2  # killed once, clean on retry
        direct = execute_job(Job("direct", pi_source,
                                 JobSpec(**SMALL)))
        assert job.result["cycles"] == direct["cycles"]

    def test_job_stall_blows_the_deadline(self, tmp_path, pi_source):
        sched = _scheduler(tmp_path, pool_size=1,
                           chaos="job_stall:job=0,seconds=30")
        job = sched.submit(pi_source, spec=JobSpec(**SMALL),
                           deadline_seconds=0.8, max_retries=0)
        sched.run_until_idle(timeout=60)
        assert job.state == "failed"
        assert job.outcome["error"] == "JobDeadlineError"


class TestPreemption:
    def test_scheduler_preempts_for_higher_priority(
            self, tmp_path, pi_source, barrier_loop_source):
        sched = _scheduler(tmp_path, pool_size=1)
        low = sched.submit(barrier_loop_source,
                           spec=JobSpec(num_ues=4,
                                        max_steps=20_000_000),
                           priority=0, preemptible=True)
        deadline = time.monotonic() + 20
        while not sched.running and time.monotonic() < deadline:
            sched.step()
            time.sleep(0.005)
        assert sched.running, "low-priority job never started"
        high = sched.submit(pi_source, spec=JobSpec(**SMALL),
                            priority=5)
        sched.run_until_idle(timeout=180)
        assert high.state == "done"
        assert low.state == "done"
        assert low.preemptions >= 1
        direct = execute_job(Job("direct", barrier_loop_source,
                                 JobSpec(num_ues=4,
                                         max_steps=20_000_000)))
        assert low.result["cycles"] == direct["cycles"]
        assert low.result["stdout"] == direct["stdout"]
        assert low.result["per_core_cycles"] == \
            direct["per_core_cycles"]

    @given(preempt_round=st.integers(min_value=1, max_value=13))
    @settings(max_examples=6, deadline=None)
    def test_preempt_resume_byte_identity_property(
            self, tmp_path_factory, preempt_round):
        """Preempting at ANY barrier round and resuming by verified
        replay reproduces the uninterrupted run byte for byte."""
        from tests.serve.conftest import BARRIER_LOOP
        spec = JobSpec(num_ues=4, max_steps=20_000_000)
        base = execute_job(Job("base", BARRIER_LOOP, spec))
        state = tmp_path_factory.mktemp("preempt")
        ckpt = str(state / "job.ckpt")
        job = Job("p", BARRIER_LOOP, spec, preemptible=True,
                  checkpoint_every=1)
        try:
            execute_job(job, checkpoint_path=ckpt,
                        preempt_check=lambda r: r >= preempt_round)
            preempted = False
        except JobPreempted as exc:
            assert exc.round_id == preempt_round
            preempted = True
        assert preempted, "hook never fired"
        resumed = execute_job(job, checkpoint_path=ckpt,
                              restore=ckpt)
        assert resumed["cycles"] == base["cycles"]
        assert resumed["stdout"] == base["stdout"]
        assert resumed["per_core_cycles"] == base["per_core_cycles"]


class TestMemoAndMetrics:
    def test_memo_hit_marks_cached(self, tmp_path, pi_source):
        sched = _scheduler(tmp_path)
        first = sched.submit(pi_source, spec=JobSpec(**SMALL))
        sched.run_until_idle(timeout=120)
        second = sched.submit(pi_source, spec=JobSpec(**SMALL))
        assert second.state == "done"
        assert second.result["cached"] is True
        assert second.result["cycles"] == first.result["cycles"]
        assert second.attempts == 0  # never hit a worker

    def test_memo_skips_faulted_runs(self, tmp_path):
        memo = ResultMemo(str(tmp_path / "memo"))
        faulted = Job("f", "src", JobSpec(faults="mpb_flip:p=0.5"))
        memo.store(faulted, {"cycles": 1})
        assert memo.lookup(faulted) is None

    def test_memo_persists_across_instances(self, tmp_path):
        path = str(tmp_path / "memo")
        job = Job("a", "source text", JobSpec(num_ues=2))
        ResultMemo(path).store(job, {"cycles": 42, "stdout": ""})
        again = ResultMemo(path)
        hit = again.lookup(Job("b", "source text", JobSpec(num_ues=2)))
        assert hit is not None
        assert hit["cycles"] == 42
        assert hit["cached"] is True

    def test_metrics_tell_the_story(self, tmp_path, pi_source):
        registry = MetricsRegistry()
        sched = _scheduler(tmp_path, registry=registry)
        sched.submit(pi_source, spec=JobSpec(**SMALL))
        sched.run_until_idle(timeout=120)
        sched.submit(pi_source, spec=JobSpec(**SMALL))  # memo hit
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert series_value(counters, "serve_jobs_submitted") == 2
        assert series_value(counters, "serve_jobs_completed",
                            outcome="done") == 2
        assert series_value(counters, "serve_results_cached") == 1
        gauges = snapshot["gauges"]
        assert series_value(gauges, "serve_pool_size") == 2
