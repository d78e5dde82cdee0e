"""LUT (per-core page table) tests."""

import pytest

from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig
from repro.scc.lut import NUM_ENTRIES, WINDOW_BYTES, LookupTable
from repro.scc.memmap import (
    MPB_BASE,
    PRIVATE_BASE,
    PRIVATE_WINDOW,
    SHARED_BASE,
    SegmentKind,
)
from repro.scc.mesh import Mesh


@pytest.fixture
def chip():
    return SCCChip(SCCConfig())


@pytest.fixture
def lut(chip):
    return chip.luts[0]


class TestDefaults:
    def test_private_window_mapped_cacheable(self, lut):
        addr = PRIVATE_BASE + 100
        system, entry = lut.translate(addr)
        assert entry.kind is SegmentKind.PRIVATE
        assert entry.cacheable
        assert system == addr

    def test_shared_windows_uncacheable(self, lut):
        _, entry = lut.translate(SHARED_BASE + 12345)
        assert entry.kind is SegmentKind.SHARED
        assert not entry.cacheable

    def test_mpb_window(self, lut):
        _, entry = lut.translate(MPB_BASE + 16)
        assert entry.kind is SegmentKind.MPB

    def test_each_core_maps_its_own_private_window(self, chip):
        lut5 = chip.luts[5]
        own = PRIVATE_BASE + 5 * PRIVATE_WINDOW
        _, entry = lut5.translate(own)
        assert entry.kind is SegmentKind.PRIVATE

    def test_foreign_private_window_unmapped(self, chip):
        other = PRIVATE_BASE + 7 * PRIVATE_WINDOW
        with pytest.raises(KeyError):
            chip.luts[0].translate(other)

    def test_destination_is_nearest_controller(self, chip):
        mesh = Mesh(chip.config)
        _, entry = chip.luts[47].translate(
            PRIVATE_BASE + 47 * PRIVATE_WINDOW)
        assert entry.destination == mesh.controller_of(47)

    def test_window_granularity(self, lut):
        first = lut.lookup(SHARED_BASE)
        same_window = lut.lookup(SHARED_BASE + WINDOW_BYTES - 1)
        next_window = lut.lookup(SHARED_BASE + WINDOW_BYTES)
        assert first is same_window
        assert next_window is not first

    def test_invalid_index_rejected(self, lut):
        with pytest.raises(ValueError):
            lut.map_window(NUM_ENTRIES, SegmentKind.SHARED, 0, False, 0)


class TestReconfiguration:
    def test_mark_shared_flips_kind(self, lut):
        addr = PRIVATE_BASE + 64
        lut.mark_shared(addr)
        _, entry = lut.translate(addr)
        assert entry.kind is SegmentKind.SHARED
        assert not entry.cacheable

    def test_mark_private_round_trip(self, lut):
        addr = PRIVATE_BASE + 64
        lut.mark_shared(addr)
        lut.mark_private(addr)
        _, entry = lut.translate(addr)
        assert entry.kind is SegmentKind.PRIVATE
        assert entry.cacheable

    def test_chip_honours_reconfigured_window(self, chip):
        """Flipping a private page to shared makes accesses pay the
        uncached DRAM cost — the ablation knob for 'what if this data
        were not cacheable'."""
        segment = chip.address_space.alloc_private(0, 64)
        chip.access_cost(0, segment.base)
        warm = chip.access_cost(0, segment.base)
        assert warm == chip.config.l1_hit_cycles

        chip.configure_window(0, segment.base, shared=True)
        uncached = chip.access_cost(0, segment.base)
        assert uncached > chip.config.l2_hit_cycles
        # and it stays uncached: no refill happened
        assert chip.access_cost(0, segment.base) == uncached

    def test_reconfiguration_invalidates_caches(self, chip):
        segment = chip.address_space.alloc_private(0, 64)
        chip.access_cost(0, segment.base)
        chip.configure_window(0, segment.base, shared=True)
        assert not chip.cores[0].l1.contains(segment.base)

    def test_other_cores_unaffected(self, chip):
        """LUTs are per-core: core 1's view of shared memory does not
        change when core 0 remaps a window."""
        shared = chip.address_space.alloc_shared(64)
        before = chip.access_cost(1, shared.base)
        chip.configure_window(0, PRIVATE_BASE, shared=True)
        assert chip.access_cost(1, shared.base) == before

    def test_flip_back_to_private_recaches(self, chip):
        segment = chip.address_space.alloc_private(0, 64)
        chip.configure_window(0, segment.base, shared=True)
        chip.configure_window(0, segment.base, shared=False)
        chip.access_cost(0, segment.base)
        assert chip.access_cost(0, segment.base) == \
            chip.config.l1_hit_cycles


def _price_everything(chip):
    """A fixed access mix over every segment kind, before and after
    remapping windows, as (cost list, rendered chip report)."""
    from repro.scc.report import chip_report, render_report
    private = chip.address_space.alloc_private(0, 256)
    other = chip.address_space.alloc_private(3, 256)
    shared = chip.address_space.alloc_shared(256)
    costs = []

    def mix():
        for core, addr in ((0, private.base), (3, other.base),
                           (0, shared.base), (1, shared.base + 64),
                           (2, MPB_BASE + 32)):
            for kind in ("read", "write", "read"):
                costs.append(chip.access_cost(core, addr, kind))
            lo, hi, fn = chip.cached_fastpath(core, addr)
            costs.append((lo, hi, fn(addr, "read", 0)))

    mix()
    chip.configure_window(0, private.base, shared=True)
    chip.configure_window(3, SHARED_BASE, shared=False)
    mix()
    chip.configure_window(0, private.base, shared=False)
    mix()
    return costs, render_report(chip_report(chip))


class TestLazyTables:
    def test_no_table_built_until_read(self, chip):
        assert chip.luts._tables == [None] * chip.config.num_cores
        chip.access_cost(0, chip.address_space.alloc_private(0, 4).base)
        assert chip.luts._tables == [None] * chip.config.num_cores
        chip.configure_window(2, PRIVATE_BASE, shared=True)
        assert [core for core, table in enumerate(chip.luts._tables)
                if table is not None] == [2]

    def test_late_table_equals_eager_default_image(self):
        config = SCCConfig()
        mesh = Mesh(config)
        lazy = SCCChip(config).luts
        for core in (0, 17, 47, -1):
            eager = LookupTable(core % config.num_cores, config, mesh)
            late = lazy[core]
            assert late.core_id == eager.core_id
            assert sorted(late.entries) == sorted(eager.entries)
            for index, entry in eager.entries.items():
                assert repr(late.entries[index]) == repr(entry)
        assert len(lazy) == config.num_cores
        with pytest.raises(IndexError):
            lazy[config.num_cores]

    def test_lazy_chip_prices_and_reports_like_eager_chip(self):
        eager = SCCChip(SCCConfig())
        assert len(list(eager.luts)) == eager.config.num_cores
        lazy = SCCChip(SCCConfig())
        assert _price_everything(lazy) == _price_everything(eager)


class TestFastPathMemo:
    def test_one_entry_per_core_and_window(self, chip):
        segment = chip.address_space.alloc_private(0, 256)
        entry = chip.cached_fastpath(0, segment.base)
        assert chip.cached_fastpath(0, segment.base + 128) is entry
        assert chip.cached_fastpath(1, segment.base) is not entry
        shared = chip.address_space.alloc_shared(64)
        assert chip.cached_fastpath(0, shared.base) is not entry

    def test_epoch_bump_drops_the_memo(self, chip):
        segment = chip.address_space.alloc_private(0, 256)
        entry = chip.cached_fastpath(0, segment.base)
        chip.configure_window(0, segment.base, shared=True)
        remapped = chip.cached_fastpath(0, segment.base)
        assert remapped is not entry
        # the rebuilt entry honours the LUT: uncached shared pricing
        assert remapped[2](segment.base, "read", 0) == \
            remapped[2](segment.base, "read", 0) > \
            chip.config.l2_hit_cycles
        chip.address_space.alloc_split(4096, 1024, label="t")
        assert chip.cached_fastpath(0, segment.base) is not remapped

    def test_entry_built_across_a_bump_is_not_memoized(self, chip):
        segment = chip.address_space.alloc_private(0, 256)
        build = chip.access_fastpath

        def racing_build(core, addr):
            entry = build(core, addr)
            chip._bump_mem_epoch()   # another core remaps meanwhile
            return entry

        chip.access_fastpath = racing_build
        stale = chip.cached_fastpath(0, segment.base)
        chip.access_fastpath = build
        assert chip.cached_fastpath(0, segment.base) is not stale

    def test_concurrent_fills_and_remaps_leave_no_stale_entry(self,
                                                              chip):
        """Core threads fill the memo while another thread remaps a
        window; after every remap the live memo may hold only entries
        built against the new LUT image."""
        import sys
        import threading
        import time
        segment = chip.address_space.alloc_private(0, 256)
        addr = segment.base
        stop = threading.Event()
        errors = []

        def fill():
            try:
                while not stop.is_set():
                    chip.cached_fastpath(0, addr)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        def stale_entries(shared):
            stale = 0
            for lo, hi, fn in list(chip._fastpaths.get(0, ())):
                if lo <= addr < hi:
                    fn(addr, "read", 0)
                    # the second read hits in L1 only through a
                    # private-cacheable entry
                    hit = fn(addr, "read", 0) == \
                        chip.config.l1_hit_cycles
                    stale += hit == shared
            return stale

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=fill) for _ in range(4)]
        stale = 0
        try:
            for thread in threads:
                thread.start()
            for flip in range(1000):
                shared = flip % 2 == 0
                chip.configure_window(0, addr, shared=shared)
                time.sleep(0.0001)
                stale += stale_entries(shared)
        finally:
            stop.set()
            for thread in threads:
                thread.join(10.0)
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(thread.is_alive() for thread in threads)
        assert stale == 0
