"""Seeded program corpora for the benchmark workloads.

A *program* is one Pthreads C source plus the knobs the pipeline needs
to translate and run it: UE count, Stage 4 partition policy and whether
the static-analysis stage runs.  Sources come from the six Appendix-C
generators in ``repro.bench.programs`` plus a lock-counter family
defined here (no Appendix-C kernel takes a lock, so without it the
RCCE lock path gets no work).

Sequences are built in *rounds*: every round holds each stratum
(family x UEs x policy) exactly once, in a seeded order, with problem
sizes drawn from a continuous range per family.  Whole rounds keep the
mix identical across seeds, so only the drawn sizes differ, and a rank
swap near a percentile moves it little.  Every source in a sequence is
distinct, and warm-up corpora draw from size ranges disjoint from the
timed ones, so the sha256-keyed parse cache never serves a timed
program from warm-up or from an earlier timed program.
"""

import hashlib
import random

from repro.bench.programs import benchmark_source

POLICIES = ("size", "off-chip-only")

LOCK_COUNTER = r'''
#include <stdio.h>
#include <pthread.h>

#define NTHREADS %(nthreads)d
#define ITERS %(iters)d

pthread_mutex_t lock;
long counter = 0;
long partial[%(nthreads)d];

void *lock_worker(void *tid) {
    int id = (int)tid;
    int i;
    long local = 0;
    for (i = 0; i < ITERS; i++) {
        local = local + (i %% 7) + id;
        pthread_mutex_lock(&lock);
        counter = counter + 1;
        pthread_mutex_unlock(&lock);
    }
    partial[id] = local;
    pthread_exit(NULL);
}

int main() {
    pthread_t threads[%(nthreads)d];
    int t;
    long total = 0;
    pthread_mutex_init(&lock, NULL);
    for (t = 0; t < NTHREADS; t++) {
        pthread_create(&threads[t], NULL, lock_worker, (void *)t);
    }
    for (t = 0; t < NTHREADS; t++) {
        pthread_join(threads[t], NULL);
    }
    for (t = 0; t < NTHREADS; t++) {
        total += partial[t];
    }
    printf("counter = %%ld total = %%ld\n", counter, total);
    return 0;
}
'''


def lock_counter(nthreads=8, iters=32):
    """Every thread bumps one shared counter ``iters`` times under a
    mutex; translation turns the mutex into an RCCE test-and-set lock."""
    return LOCK_COUNTER % {"nthreads": nthreads, "iters": iters}


def family_source(family, nthreads, sizes):
    if family == "lockctr":
        return lock_counter(nthreads, **sizes)
    return benchmark_source(family, nthreads, **sizes)


class Program:
    """One corpus entry."""

    __slots__ = ("family", "ues", "policy", "static_check", "sizes",
                 "source")

    def __init__(self, family, ues, policy, static_check, sizes):
        self.family = family
        self.ues = ues
        self.policy = policy
        self.static_check = static_check
        self.sizes = dict(sizes)
        self.source = family_source(family, ues, self.sizes)

    def key(self):
        return (self.family, self.ues, self.policy, self.static_check,
                tuple(sorted(self.sizes.items())))

    def __repr__(self):
        return "Program(%s x%d %s %r)" % (self.family, self.ues,
                                          self.policy, self.sizes)


class CorpusSpec:
    """How one workload draws programs.

    ``ranges`` maps each family to ``{knob: (low, high)}``, drawn
    uniformly; ``("ues", low, high)`` scales the bounds by the UE count
    (LU's batch, so every UE owns at least one matrix).
    """

    def __init__(self, ranges, ues, policies, static_check=False):
        self.ranges = ranges
        self.ues = tuple(ues)
        self.policies = tuple(policies)
        self.static_check = static_check

    @property
    def families(self):
        return tuple(self.ranges)

    def strata(self):
        return [(family, ues, policy) for family in self.families
                for ues in self.ues for policy in self.policies]

    def draw_sizes(self, rng, family, ues):
        sizes = {}
        for knob, bound in sorted(self.ranges[family].items()):
            if bound[0] == "ues":
                bound = (int(bound[1] * ues), int(bound[2] * ues))
            sizes[knob] = rng.randint(bound[0], bound[1])
        return sizes


def rounds(spec, seed, count, avoid=()):
    """``count`` rounds of ``spec``'s strata as a flat program list.

    Deterministic in ``seed``.  No two programs share a source, and no
    source in ``avoid`` (e.g. the warm-up corpus) is drawn."""
    rng = random.Random("%s:%d" % (sorted(spec.ranges), seed))
    seen = set(avoid)
    programs = []
    for _ in range(count):
        strata = spec.strata()
        rng.shuffle(strata)
        for family, ues, policy in strata:
            for _attempt in range(1000):
                program = Program(family, ues, policy,
                                  spec.static_check,
                                  spec.draw_sizes(rng, family, ues))
                if program.source not in seen:
                    break
            else:
                raise ValueError("size range of %s at %d UEs is too "
                                 "narrow for %d rounds of distinct "
                                 "programs" % (family, ues, count))
            seen.add(program.source)
            programs.append(program)
    return programs


def digest(programs):
    """sha256 over the programs' knobs and sources, in order."""
    sha = hashlib.sha256()
    for program in programs:
        sha.update(repr(program.key()).encode())
        sha.update(program.source.encode())
    return sha.hexdigest()
