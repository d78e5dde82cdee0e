"""Tests of the benchmark itself: corpus determinism, the tail rule,
span conservation, exact repeats and the declared metric set.

    python3 -m pytest perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import corpus  # noqa: E402
import hostspeed  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


# -- corpus -----------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.NAMES)
def test_corpus_is_deterministic_by_seed(name):
    workload = workloads.build(name)
    first = corpus.rounds(workload.spec, 5, workload.rounds)
    again = corpus.rounds(workload.spec, 5, workload.rounds)
    other = corpus.rounds(workload.spec, 6, workload.rounds)
    assert corpus.digest(first) == corpus.digest(again)
    assert corpus.digest(first) != corpus.digest(other)


def test_every_round_holds_each_stratum_once():
    spec = workloads.TRANSLATE_HEAVY
    programs = corpus.rounds(spec, 1, 2)
    per_round = len(spec.strata())
    for start in (0, per_round):
        chunk = programs[start:start + per_round]
        assert sorted((p.family, p.ues, p.policy) for p in chunk) \
            == sorted(spec.strata())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_warm_and_timed_sources_never_meet(name):
    workload = workloads.build(name)
    warm = {p.source for p in corpus.rounds(workload.warm_spec, 0, 1)}
    timed = corpus.rounds(workload.spec, 3, workload.rounds, avoid=warm)
    sources = [p.source for p in timed]
    assert len(set(sources)) == len(sources)
    assert not warm & set(sources)


def test_lock_counter_takes_the_rcce_lock():
    program = corpus.Program("lockctr", 8, "size", False, {"iters": 3})
    outcome = pipeline.run_program(program)
    assert outcome.ok, outcome.error
    assert outcome.counts["rcce.lock_acquisitions"] == 8 * 3
    assert "counter = 24 " in outcome.pthread[1]


# -- percentile rule ----------------------------------------------------------

def test_tail_needs_ten_samples_beyond_it():
    assert stats.tail_percentile(19) is None
    for n in range(20, 400):
        pct = stats.tail_percentile(n)
        rank = math.ceil(pct / 100.0 * n)
        assert n - rank >= stats.TAIL_MIN_BEYOND
        # and it is the highest such whole percentile
        higher = math.ceil((pct + 1) / 100.0 * n)
        assert n - higher < stats.TAIL_MIN_BEYOND or pct == 99


def test_pass_count_follows_seconds_alone():
    assert stats.pass_count(15, 5.0, 4) == 4
    assert stats.pass_count(15, 5.0, 3) == 3
    assert stats.pass_count(60, 5.0, 3) == 12
    assert stats.pass_count(1, 5.0, 3) == 3


def test_host_speed_scale():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale([ref, ref]) == 1.0
    # a host running the probe half as fast halves every measured time
    assert hostspeed.scale([2 * ref, 2 * ref]) == 0.5
    # one probe hit by an interrupt does not move the median
    assert hostspeed.scale([ref, ref, 9 * ref]) == 1.0
    assert 0 < hostspeed.probe() < 1.0


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([3.0], 90) == 3.0


# -- spans ------------------------------------------------------------------

def test_layers_sum_to_turnaround():
    rec = spans.SpanRecorder()
    root = rec.new_id()
    rec.add(1, "program", 0.0, 10.0, None, root)
    child = rec.add(1, "sim.rcce", 2.0, 7.0, root)
    rec.add(1, "inner", 3.0, 4.0, child.span_id)
    rec.add(1, "verify", 7.0, 8.0, root)
    layers = spans.self_times(rec.spans)[1]
    assert layers == {"sim.rcce": 4.0, "inner": 1.0, "verify": 1.0,
                      "other": 4.0, "turnaround": 10.0}
    assert spans.conserved(layers)


def test_overrunning_children_are_refused():
    rec = spans.SpanRecorder()
    root = rec.new_id()
    rec.add(1, "program", 0.0, 1.0, None, root)
    rec.add(1, "a", 0.0, 0.8, root)
    rec.add(1, "b", 0.5, 1.0, root)
    with pytest.raises(ValueError):
        spans.self_times(rec.spans)


def test_traced_program_conserves_and_repeats_exactly():
    program = corpus.Program("pi", 8, "size", True, {"steps": 40})
    plain = pipeline.run_program(program)
    rec = spans.SpanRecorder()
    traced = pipeline.run_program(program, recorder=rec, trace_id=0)
    assert plain.ok and traced.ok
    assert plain.model_key() == traced.model_key()
    layers = spans.self_times(rec.spans)[0]
    assert spans.conserved(layers)
    assert layers["turnaround"] == pytest.approx(traced.turnaround)
    for name in ("cfront.parse", "core.stage1", "core.stage5", "static",
                 "sim.compile_unit", "sim.pthread", "sim.rcce",
                 "verify"):
        assert name in layers


# -- the declared contract ----------------------------------------------------

def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] \
        == list(workloads.NAMES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
