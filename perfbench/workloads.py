"""The benchmark's workloads and the corpus each one draws from.

Size ranges are whole-number knobs of the generators in
``repro.bench.programs`` (plus ``corpus.lock_counter``), scaled down
from ``default_workloads()`` so that a run holds enough programs for
steady percentiles; the README gives the reason for each workload.
A timed range spans about +-5% of its centre (+-10% on
parallel-jobs2, where 7 distinct sizes per family are needed; LU's
batch as wide as distinct sources need).  A percentile lands on one
program, so the seed moves it by about as much as that program's size;
narrow ranges keep that small, yet no two programs of a run share a
source.
Warm-up ranges sit below the timed ones so they never share a source.
"""

from corpus import POLICIES, CorpusSpec
from closed import ClosedLoop
from serve_open import ServeOpen, pool_size

SIM_SWEEP = CorpusSpec({
    "pi": {"steps": (2100, 2300)},
    "sum35": {"limit": (2100, 2300)},
    "primes": {"limit": (305, 335)},
    "stream": {"n": (162, 178)},
    "dot": {"n": (305, 335)},
    "lu": {"batch": ("ues", 1.15, 1.3), "dim": (6, 6)},
    "lockctr": {"iters": (36, 40)},
}, ues=(8, 16, 32), policies=POLICIES)

SIM_SWEEP_WARM = CorpusSpec({
    "pi": {"steps": (512, 1000)},
    "sum35": {"limit": (512, 1000)},
    "primes": {"limit": (96, 180)},
    "stream": {"n": (48, 90)},
    "dot": {"n": (64, 150)},
    "lu": {"batch": ("ues", 1, 1), "dim": (3, 3)},
    "lockctr": {"iters": (4, 12)},
}, ues=(8,), policies=("size",))

TRANSLATE_HEAVY = CorpusSpec({
    "pi": {"steps": (100, 124)},
    "sum35": {"limit": (100, 124)},
    "primes": {"limit": (54, 66)},
    "stream": {"n": (64, 80)},
    "dot": {"n": (64, 80)},
    "lu": {"batch": ("ues", 1, 2), "dim": (3, 3)},
    "lockctr": {"iters": (28, 36)},
}, ues=(8,), policies=POLICIES, static_check=True)

TRANSLATE_HEAVY_WARM = CorpusSpec({
    "pi": {"steps": (257, 300)},
    "sum35": {"limit": (257, 300)},
    "primes": {"limit": (97, 110)},
    "stream": {"n": (129, 150)},
    "dot": {"n": (129, 150)},
    "lu": {"batch": ("ues", 1, 1), "dim": (6, 6)},
    "lockctr": {"iters": (65, 70)},
}, ues=(8,), policies=("size",), static_check=True)

SERVE_OPEN = CorpusSpec({
    "pi": {"steps": (2100, 2300)},
    "sum35": {"limit": (2100, 2300)},
    "primes": {"limit": (228, 252)},
    "stream": {"n": (162, 178)},
    "dot": {"n": (305, 335)},
    "lu": {"batch": ("ues", 1, 1.5), "dim": (5, 5)},
    "lockctr": {"iters": (36, 40)},
}, ues=(8,), policies=POLICIES)

SERVE_OPEN_WARM = CorpusSpec({
    "pi": {"steps": (64, 128)},
    "lockctr": {"iters": (2, 4)},
}, ues=(8,), policies=("size",))

PARALLEL = CorpusSpec({
    "lu": {"batch": ("ues", 1.05, 1.25), "dim": (8, 8)},
    "primes": {"limit": (670, 730)},
    "stream": {"n": (1750, 1850)},
}, ues=(32,), policies=("size",))

PARALLEL_WARM = CorpusSpec({
    "lu": {"batch": ("ues", 1, 1), "dim": (3, 3)},
}, ues=(32,), policies=("size",))


def build(name):
    """A fresh workload object by name."""
    if name == "sim-sweep":
        # the noisiest workload on a shared host: one more pass
        return ClosedLoop(SIM_SWEEP, SIM_SWEEP_WARM, rounds=1, slo_s=5.0,
                          pass_s=5.0, min_passes=4)
    if name == "translate-heavy":
        return ClosedLoop(TRANSLATE_HEAVY, TRANSLATE_HEAVY_WARM, rounds=4,
                          slo_s=1.0, pass_s=5.0)
    if name == "serve-open":
        return ServeOpen(SERVE_OPEN, SERVE_OPEN_WARM, rounds=2,
                         repeats=7, rate=5.0, repeat_gap_s=2.0,
                         slo_s=2.0, pool_size=pool_size(), pass_s=8.0)
    if name == "parallel-jobs2":
        return ClosedLoop(PARALLEL, PARALLEL_WARM, rounds=7, slo_s=5.0,
                          pass_s=8.0, jobs=2)
    raise KeyError(name)


NAMES = ("sim-sweep", "translate-heavy", "serve-open", "parallel-jobs2")
