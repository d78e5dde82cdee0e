"""Differential suite: the closure-compiled engine must be trace-exact
against the reference tree-walker.

Every comparison checks simulated cycles, steps, program stdout, and
the chip's full metrics snapshot — not just the final answer — so a
compiled-engine shortcut that drifts the timing model by a single cycle
fails here.  The corpus is the benchmark suite (scaled down for test
speed; `benchmarks/bench_interp_speed.py` covers the full-size set)
plus hand-written kernels for each language feature, plus
hypothesis-generated arithmetic/pointer kernels.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import ExperimentHarness
from repro.bench.programs import benchmark_source
from repro.bench.workloads import Workload, scaled_config
from repro.cfront.frontend import parse_program
from repro.core.framework import TranslationFramework
from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig
from repro.sim.compile import compile_unit
from repro.sim.interpreter import Interpreter
from repro.sim.machine import Memory
from repro.sim.runner import (
    is_jobs1_fallback,
    run_pthread_single_core,
    run_rcce,
)

_TINY_CONFIG = dict(num_cores=4, mesh_columns=2, mesh_rows=1,
                    cores_per_tile=2, num_memory_controllers=1)


def _tiny_chip():
    return SCCChip(SCCConfig(**_TINY_CONFIG))


def _snapshot(result):
    return {
        "cycles": result.cycles,
        "per_core": dict(result.per_core_cycles),
        "stdout": result.stdout(),
        "metrics": result.metrics,
    }


def assert_engines_agree_pthread(source, max_steps=50_000_000):
    runs = {}
    for engine in ("tree", "compiled"):
        runs[engine] = _snapshot(run_pthread_single_core(
            source, chip=_tiny_chip(), max_steps=max_steps,
            engine=engine))
    assert runs["compiled"] == runs["tree"]
    return runs["compiled"]


# -- feature kernels -------------------------------------------------------------

FEATURE_KERNELS = {
    "arith_and_casts": """
        int main(void) {
            int a = 7, b = -3;
            long big = 100000;
            double x = 2.5;
            int c = (int)(x * a) + b / 2 - b % 2;
            float f = (float)c / 4;
            return c + (int)f + (int)(big % 97);
        }
    """,
    "control_flow": """
        int classify(int n) {
            switch (n % 4) {
            case 0: return 10;
            case 1:
            case 2: return 20;
            default: break;
            }
            return 30;
        }
        int main(void) {
            int total = 0, i = 0;
            for (i = 0; i < 20; i++) {
                if (i == 3) continue;
                if (i == 17) break;
                total += classify(i);
            }
            do { total++; } while (total < 0);
            while (total > 500) total -= 7;
            return total;
        }
    """,
    "pointers_and_arrays": """
        int sum(int *p, int n) {
            int total = 0;
            int *end = p + n;
            while (p < end) total += *p++;
            return total;
        }
        int main(void) {
            int data[16];
            int i;
            for (i = 0; i < 16; i++) data[i] = i * i;
            data[3] = -data[3];
            return sum(data, 16) + *(data + 5);
        }
    """,
    "globals_and_recursion": """
        int calls = 0;
        int fib(int n) {
            calls++;
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
        }
        int main(void) {
            int f = fib(10);
            return f + calls;
        }
    """,
    "float_kernels": """
        double dot(double *a, double *b, int n) {
            double acc = 0.0;
            int i;
            for (i = 0; i < n; i++) acc += a[i] * b[i];
            return acc;
        }
        int main(void) {
            double xs[8], ys[8];
            int i;
            for (i = 0; i < 8; i++) { xs[i] = i * 0.5; ys[i] = 8 - i; }
            return (int)dot(xs, ys, 8);
        }
    """,
}


@pytest.mark.parametrize("name", sorted(FEATURE_KERNELS))
def test_feature_kernel_differential(name):
    assert_engines_agree_pthread(FEATURE_KERNELS[name])


# -- benchmark corpus (scaled for test speed) ---------------------------------

_SMALL_WORKLOADS = {
    "pi": Workload("pi", {"steps": 512}, 32 * 8),
    "sum35": Workload("sum35", {"limit": 512}, 32 * 8),
    "primes": Workload("primes", {"limit": 256}, 32 * 4),
    "stream": Workload("stream", {"n": 128}, 3 * 128 * 8 + 32 * 8),
    "dot": Workload("dot", {"n": 192}, 2 * 192 * 8 + 32 * 8),
    "lu": Workload("lu", {"batch": 4, "dim": 8},
                   4 * 8 * 8 * 8 + 32 * 8),
}


def _small_harness(engine):
    return ExperimentHarness(num_ues=4, workloads=dict(_SMALL_WORKLOADS),
                             config_factory=scaled_config, engine=engine)


@pytest.mark.parametrize("name", sorted(_SMALL_WORKLOADS))
@pytest.mark.parametrize("configuration",
                         ["pthread", "rcce-off", "rcce-on"])
def test_bench_corpus_differential(name, configuration):
    runs = {}
    for engine in ("tree", "compiled"):
        run = _small_harness(engine).run(name, configuration)
        runs[engine] = {
            "cycles": run.cycles,
            "per_core": dict(run.result.per_core_cycles),
            "stdout": run.result.stdout(),
            "metrics": run.instrumentation["metrics"],
        }
    assert runs["compiled"] == runs["tree"]


# -- hypothesis: generated arithmetic/pointer kernels --------------------------

_ops = st.sampled_from(["+", "-", "*", "/", "%", "&", "|", "^",
                        "<<", ">>", "<", "<=", "==", "!=", ">", ">="])


@st.composite
def _expr(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return str(draw(st.integers(1, 50)))
        if choice == 1:
            return "v%d" % draw(st.integers(0, 3))
        return "data[%d]" % draw(st.integers(0, 7))
    op = draw(_ops)
    left = draw(_expr(depth=depth + 1))
    right = draw(_expr(depth=depth + 1))
    if op in ("/", "%"):
        right = "(%s | 1)" % right  # keep divisors nonzero
    if op in ("<<", ">>"):
        right = "(%s & 7)" % right  # keep shifts in range
    return "(%s %s %s)" % (left, op, right)


@given(exprs=st.lists(_expr(), min_size=1, max_size=4),
       seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_generated_kernel_differential(exprs, seed):
    body = "".join("acc += %s;\n        p[%d] = acc;\n"
                   % (expr, index % 8)
                   for index, expr in enumerate(exprs))
    source = """
        int data[8];
        int main(void) {
            int v0 = %d, v1 = 3, v2 = -7, v3 = 11;
            int acc = 0;
            int *p = data;
            int i;
            for (i = 0; i < 8; i++) data[i] = i + v0;
            %s
            return acc;
        }
    """ % (seed % 13, body)
    assert_engines_agree_pthread(source)


# -- unit tests: the machinery behind the speedup ------------------------------


def test_compiled_is_default_engine():
    unit = parse_program("int main(void) { return 0; }")
    interp = Interpreter(unit, _tiny_chip(), 0, Memory())
    assert interp.engine == "compiled"
    assert interp._compiled is not None


def test_unknown_engine_rejected():
    unit = parse_program("int main(void) { return 0; }")
    with pytest.raises(ValueError):
        Interpreter(unit, _tiny_chip(), 0, Memory(), engine="jit")


def test_compile_unit_cached_per_unit():
    unit = parse_program("int main(void) { return 4; }")
    assert compile_unit(unit) is compile_unit(unit)


def test_compiled_unit_dies_with_its_unit():
    unit = parse_program("int main(void) { return 5; }")
    compile_unit(unit)
    unit_ref = weakref.ref(unit)
    del unit
    gc.collect()
    assert unit_ref() is None


def test_goto_raises_identically_in_both_engines():
    """goto is unsupported at *runtime*: it compiles to a closure that
    raises the tree-walker's exact error when (and only when) executed."""
    source = """
        int main(void) {
            int n = 0;
            goto out;
        out:
            return n;
        }
    """
    from repro.sim.interpreter import InterpreterError
    messages = {}
    for engine in ("tree", "compiled"):
        unit = parse_program(source)
        interp = Interpreter(unit, _tiny_chip(), 0, Memory(),
                             engine=engine)
        with pytest.raises(InterpreterError) as excinfo:
            interp.run_main()
        messages[engine] = str(excinfo.value)
    assert messages["compiled"] == messages["tree"]


def test_uncompilable_function_falls_back_to_tree():
    """A construct the compiler cannot lower exactly (a non-case item
    in a switch body) marks the whole function for the tree-walker,
    which must still produce identical results."""
    from repro.cfront import c_ast

    source = """
        int main(void) {
            int x = 2, r = 0;
            switch (x) {
            case 1: r = 10; break;
            case 2: r = 20; break;
            default: r = 30;
            }
            return r;
        }
    """
    unit = parse_program(source)
    switch = unit.find_function("main").body.items[1]
    assert isinstance(switch, c_ast.Switch)
    # an unlabeled statement before any case is dead code in C; the
    # tree-walker skips it, the compiler refuses the whole function
    switch.body.items.insert(0, c_ast.EmptyStmt())
    compiled = compile_unit(unit)
    assert "main" in compiled.fallbacks()

    results = {}
    for engine in ("tree", "compiled"):
        interp = Interpreter(unit, _tiny_chip(), 0, Memory(),
                             engine=engine)
        value = interp.run_main()
        results[engine] = (value, interp.cycles, interp.steps)
    assert results["compiled"] == results["tree"]


def test_site_cache_filled_and_invalidated():
    source = """
        int counter = 0;
        int main(void) {
            int i;
            for (i = 0; i < 50; i++) counter += i;
            return counter;
        }
    """
    unit = parse_program(source)
    chip = _tiny_chip()
    interp = Interpreter(unit, chip, 0, Memory())
    interp.run_main()
    assert interp.site_fills > 0
    assert interp._site_cache
    fills_before = interp.site_fills
    # a layout/LUT change must drop every cached site entry
    chip._bump_mem_epoch()
    assert not interp._site_cache
    assert interp.site_fills == fills_before


def test_interpreters_on_one_core_share_fastpath_entries():
    unit = parse_program("""
        int counter = 0;
        int main(void) {
            int i;
            for (i = 0; i < 5; i++) counter += i;
            return counter;
        }
    """)
    chip = _tiny_chip()
    first = Interpreter(unit, chip, 0, Memory())
    first.run_main()
    second = Interpreter(unit, chip, 0, Memory())
    second.run_main()
    entries = {id(entry) for interp in (first, second)
               for entry in interp._site_cache.values()}
    assert second.site_fills > 0
    assert len(entries) < first.site_fills + second.site_fills
    assert len(entries) == len(chip._fastpaths[0])


def test_configure_window_invalidates_site_caches():
    chip = _tiny_chip()
    epoch = chip.mem_epoch
    chip.configure_window(1, 0x8000_0000, shared=True)
    assert chip.mem_epoch == epoch + 1


def test_split_alloc_invalidates_site_caches():
    chip = _tiny_chip()
    epoch = chip.mem_epoch
    chip.address_space.alloc_split(4096, 1024, label="t")
    assert chip.mem_epoch == epoch + 1


def _chip_with_layout():
    chip = _tiny_chip()
    layout = {
        "split": chip.address_space.alloc_split(4096, 1024, label="t"),
        "private": chip.address_space.alloc_private(0, 256, label="p"),
        "shared": chip.address_space.alloc_shared(256, label="s"),
        "mpb": chip.address_space.alloc_mpb(256, label="m"),
    }
    return chip, layout


def test_access_fastpath_matches_access_cost():
    """The inline-cache entry must charge exactly what the slow path
    charges — cost AND side effects — for every segment kind, within
    its declared window."""
    _, layout = _chip_with_layout()
    probes = [layout["private"].base, layout["private"].base + 128,
              layout["shared"].base, layout["mpb"].base,
              layout["split"].base,              # MPB head
              layout["split"].base + 2048]       # shared-DRAM tail
    for addr in probes:
        fast_chip, _ = _chip_with_layout()
        slow_chip, _ = _chip_with_layout()
        lo, hi, fn = fast_chip.access_fastpath(0, addr)
        assert lo <= addr < hi
        for offset in (0, 4, 8):
            for kind in ("read", "write"):
                assert (fn(addr + offset, kind, 0)
                        == slow_chip.access_cost(
                            0, addr + offset, kind))
        for attribute in ("hits", "misses", "evictions"):
            assert (getattr(fast_chip.cores[0].l1.stats, attribute)
                    == getattr(slow_chip.cores[0].l1.stats, attribute))
        assert fast_chip.cores[0].accesses == slow_chip.cores[0].accesses


# -- race detector: byte-identical timing, enabled or not ----------------------


def _pthread_signature(source, engine, race):
    result = run_pthread_single_core(source, chip=_tiny_chip(),
                                     max_steps=50_000_000,
                                     engine=engine, race=race)
    if race:
        assert result.race.ok, result.race.render()
    return (result.cycles, dict(result.per_core_cycles),
            result.stdout())


def _rcce_signature(unit, engine, race):
    chip = _tiny_chip()
    result = run_rcce(unit, 4, chip.config, chip,
                      max_steps=50_000_000, engine=engine, race=race)
    if race:
        assert result.race.ok, result.race.render()
    return (result.cycles, dict(result.per_core_cycles),
            result.stdout())


@pytest.mark.parametrize("engine", ["tree", "compiled"])
def test_race_detector_is_cycle_invisible_pthread(engine):
    """Auditing a race-free pthread program must not move a single
    cycle or output byte — the detector observes, never charges."""
    from repro.bench.programs import benchmark_source
    source = benchmark_source("pi", 4, steps=256)
    off = _pthread_signature(source, engine, race=False)
    on = _pthread_signature(source, engine, race=True)
    assert on == off


@pytest.mark.parametrize("engine", ["tree", "compiled"])
def test_race_detector_is_cycle_invisible_rcce(engine):
    from repro.bench.harness import SCALED_ON_CHIP_CAPACITY
    from repro.bench.programs import benchmark_source
    framework = TranslationFramework(
        on_chip_capacity=SCALED_ON_CHIP_CAPACITY,
        partition_policy="size")
    unit = framework.translate(
        benchmark_source("dot", 4, n=64)).unit
    off = _rcce_signature(unit, engine, race=False)
    on = _rcce_signature(unit, engine, race=True)
    assert on == off


# -- cycle attribution: byte-identical timing, enabled or not ------------------


def _pthread_attr_signature(source, engine, attribution):
    result = run_pthread_single_core(source, chip=_tiny_chip(),
                                     max_steps=50_000_000,
                                     engine=engine,
                                     attribution=attribution)
    return (result.cycles, dict(result.per_core_cycles),
            result.stdout(), result.metrics)


def _rcce_attr_signature(unit, engine, attribution):
    chip = _tiny_chip()
    result = run_rcce(unit, 4, chip.config, chip,
                      max_steps=50_000_000, engine=engine,
                      attribution=attribution)
    return result, (result.cycles, dict(result.per_core_cycles),
                    result.stdout())


def _translated_dot():
    from repro.bench.harness import SCALED_ON_CHIP_CAPACITY
    framework = TranslationFramework(
        on_chip_capacity=SCALED_ON_CHIP_CAPACITY,
        partition_policy="size")
    return framework.translate(benchmark_source("dot", 4, n=64)).unit


@pytest.mark.parametrize("engine", ["tree", "compiled"])
def test_attribution_is_cycle_invisible_pthread(engine):
    """Attributing every cycle must not move one — the engine watches
    the charges, it never makes them.  The metrics snapshot is part of
    the signature: only the attribution collector's own series may
    differ, so it is compared with those popped."""
    source = benchmark_source("pi", 4, steps=256)
    off = _pthread_attr_signature(source, engine, attribution=False)
    on = _pthread_attr_signature(source, engine, attribution=True)
    for snapshot in (on[3], off[3]):
        snapshot["counters"].pop("attr_cycles", None)
        snapshot["counters"].pop("attr_mem_ops", None)
        # attaching rebuilds the memory fast paths (an epoch bump),
        # which is bookkeeping, not timing
        snapshot["gauges"].pop("scc_mem_epoch", None)
    assert on == off


@pytest.mark.parametrize("engine", ["tree", "compiled"])
def test_attribution_is_cycle_invisible_rcce(engine):
    unit = _translated_dot()
    _, off = _rcce_attr_signature(unit, engine, attribution=False)
    _, on = _rcce_attr_signature(unit, engine, attribution=True)
    assert on == off


# -- parallel backend: sharding must never move a cycle -----------------------
#
# The contract (docs/performance.md): cycles, per-core cycles, and
# program stdout are byte-identical for every worker count and every
# quantum length.  Metrics are NOT part of the contract — histogram
# bucketing of host-side wait times is nondeterministic even
# sequentially — so these signatures deliberately exclude them.

_PARALLEL_SOURCES = {}
_PARALLEL_BASELINES = {}


def _parallel_source(name):
    """Translated RCCE source for a scaled workload (the process
    backend replicates the program from source in each worker)."""
    if name not in _PARALLEL_SOURCES:
        from repro.bench.harness import SCALED_ON_CHIP_CAPACITY
        framework = TranslationFramework(
            on_chip_capacity=SCALED_ON_CHIP_CAPACITY,
            partition_policy="size")
        workload = _SMALL_WORKLOADS[name]
        _PARALLEL_SOURCES[name] = framework.translate(
            benchmark_source(name, 4, **workload.sizes)).rcce_source
    return _PARALLEL_SOURCES[name]


def _parallel_signature(result):
    return (result.cycles, dict(result.per_core_cycles),
            result.stdout())


def _parallel_baseline(name):
    """jobs=1 run of the same source string, cached per workload."""
    if name not in _PARALLEL_BASELINES:
        chip = _tiny_chip()
        result = run_rcce(_parallel_source(name), 4, chip.config, chip,
                          max_steps=50_000_000)
        _PARALLEL_BASELINES[name] = _parallel_signature(result)
    return _PARALLEL_BASELINES[name]


@pytest.mark.parametrize("jobs", [2, 4, 8])
@pytest.mark.parametrize("name", sorted(_SMALL_WORKLOADS))
def test_process_backend_matches_sequential(name, jobs):
    """The process backend is byte-identical to the sequential engine
    for every shard count (jobs > num_ues clamps to num_ues)."""
    chip = _tiny_chip()
    result = run_rcce(_parallel_source(name), 4, chip.config, chip,
                      max_steps=50_000_000, jobs=jobs)
    assert _parallel_signature(result) == _parallel_baseline(name)
    assert result.stats["parallel"]["backend"] == "process"


@pytest.mark.parametrize("quantum", [1_000, 50_000, 10_000_000])
def test_process_backend_quantum_invariant(quantum):
    """The quantum is a non-blocking publication deadline, never a
    barrier — its length cannot change a single cycle."""
    chip = _tiny_chip()
    result = run_rcce(_parallel_source("dot"), 4, chip.config, chip,
                      max_steps=50_000_000, jobs=2, quantum=quantum)
    assert _parallel_signature(result) == _parallel_baseline("dot")
    assert result.stats["parallel"]["quantum"] == quantum


@given(name=st.sampled_from(sorted(_SMALL_WORKLOADS)),
       jobs=st.integers(1, 8),
       quantum=st.sampled_from([1_000, 7_919, 50_000, 1_000_000]))
@settings(max_examples=12, deadline=None)
def test_parallel_invariance_property(name, jobs, quantum):
    """Property (ISSUE 7 satellite): no (jobs, quantum) point changes
    cycles, outputs, or attribution conservation.  Attribution cannot
    be sharded, so every jobs > 1 point also pins the jobs=1 fallback:
    no parallel stats and one warning naming the reason."""
    chip = _tiny_chip()
    result = run_rcce(_parallel_source(name), 4, chip.config, chip,
                      max_steps=50_000_000, jobs=jobs, quantum=quantum,
                      attribution=True)
    assert _parallel_signature(result) == _parallel_baseline(name)
    for core, classes in result.attribution.per_core.items():
        assert sum(classes.values()) == result.per_core_cycles[core]
    assert "parallel" not in result.stats
    fallbacks = [diagnostic for diagnostic in result.diagnostics
                 if is_jobs1_fallback(diagnostic)]
    if jobs > 1:
        assert len(fallbacks) == 1
        assert "cycle attribution" in fallbacks[0].message
    else:
        assert not fallbacks


def test_attribution_identical_across_engines():
    """Enabled-mode parity: both engines must produce the same
    attribution breakdown, the same per-core memory-op counts, and the
    same critical path — the compiled fast paths bake the same cells
    the tree-walker bumps."""
    unit = _translated_dot()
    reports = {}
    for engine in ("tree", "compiled"):
        result, _ = _rcce_attr_signature(unit, engine, attribution=True)
        reports[engine] = result.attribution
    tree, compiled = reports["tree"], reports["compiled"]
    assert compiled.per_core == tree.per_core
    assert compiled.mem_ops == tree.mem_ops
    assert compiled.critical_path.as_dict() == \
        tree.critical_path.as_dict()


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_process_backend_start_method_invariant(method):
    """ISSUE 8 satellite: the process backend is byte-identical under
    both start methods — spawn workers inherit nothing from the
    parent, so this pins the 'everything the worker needs travels in
    the pickled job' property that verified-replay recovery also
    relies on."""
    import multiprocessing

    from repro.sim.parallel import run_rcce_parallel

    if method not in multiprocessing.get_all_start_methods():
        pytest.skip("start method %r unavailable" % method)
    chip = _tiny_chip()
    result = run_rcce_parallel(
        _parallel_source("dot"), 4, chip.config, chip, None,
        50_000_000, "compiled", 2, start_method=method)
    assert _parallel_signature(result) == _parallel_baseline("dot")
    assert result.stats["parallel"]["start_method"] == method
