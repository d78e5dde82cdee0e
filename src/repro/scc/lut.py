"""The SCC's per-core lookup tables (LUTs).

On the real chip every core translates its 32-bit addresses through a
256-entry LUT; each entry maps a 16 MB window to a destination on the
mesh — a DDR3 controller (private or shared DRAM), a tile's MPB, or
the system interface — and carries the *bypass* bit that decides
whether the window is cacheable.  Reprogramming LUT entries is exactly
how SCC software turns DRAM pages "shared-among-all-cores or
private-to-a-core" (paper §1).

The simulator's :class:`~repro.scc.memmap.AddressSpace` already encodes
the default configuration by address range; this module provides the
*mechanism view*: per-core tables, the default SCC image, and
reconfiguration — e.g. remapping a core's private window to shared
uncacheable DRAM, which the chip model then honours in its timing
(``SCCChip.configure_window``).
"""

import threading

from repro.scc.memmap import (
    MPB_BASE,
    PRIVATE_BASE,
    PRIVATE_WINDOW,
    SHARED_BASE,
    SHARED_SIZE,
    SegmentKind,
)

WINDOW_BYTES = 16 * 1024 * 1024   # one LUT entry maps 16 MB
NUM_ENTRIES = 256


class LUTEntry:
    """One 16 MB window mapping."""

    __slots__ = ("index", "kind", "destination", "cacheable",
                 "system_base")

    def __init__(self, index, kind, destination, cacheable,
                 system_base):
        self.index = index
        self.kind = kind                # SegmentKind of the target
        self.destination = destination  # controller id or tile id
        self.cacheable = cacheable
        self.system_base = system_base

    def __repr__(self):
        return ("LUTEntry(%d: %s via %s, %scacheable, 0x%x)"
                % (self.index, self.kind, self.destination,
                   "" if self.cacheable else "un", self.system_base))


class LookupTable:
    """One core's 256-entry LUT."""

    def __init__(self, core_id, config, mesh):
        self.core_id = core_id
        self.config = config
        self.mesh = mesh
        self.entries = {}
        self._install_defaults()

    def _install_defaults(self):
        """The default SCC image: a private cacheable DRAM window
        behind the core's nearest controller, a shared uncacheable
        DRAM window, and the MPB window."""
        controller = self.mesh.controller_of(self.core_id)
        private_base = PRIVATE_BASE + self.core_id * PRIVATE_WINDOW
        self.map_window(self._entry_of(private_base),
                        SegmentKind.PRIVATE, controller,
                        cacheable=True, system_base=private_base)
        shared_windows = max(SHARED_SIZE // WINDOW_BYTES, 1)
        for offset in range(shared_windows):
            base = SHARED_BASE + offset * WINDOW_BYTES
            self.map_window(self._entry_of(base), SegmentKind.SHARED,
                            controller, cacheable=False,
                            system_base=base)
        self.map_window(self._entry_of(MPB_BASE), SegmentKind.MPB,
                        self.mesh.tile_of(self.core_id),
                        cacheable=True, system_base=MPB_BASE)

    @staticmethod
    def _entry_of(addr):
        return (addr // WINDOW_BYTES) % NUM_ENTRIES

    def map_window(self, index, kind, destination, cacheable,
                   system_base):
        if not 0 <= index < NUM_ENTRIES:
            raise ValueError("LUT index %r out of range" % index)
        entry = LUTEntry(index, kind, destination, cacheable,
                         system_base)
        self.entries[index] = entry
        return entry

    def lookup(self, addr):
        """The entry translating ``addr``, or None if unmapped."""
        return self.entries.get(self._entry_of(addr))

    def translate(self, addr):
        """Core address -> (system address, entry).  Raises KeyError
        for unmapped windows, like a real bus error."""
        entry = self.lookup(addr)
        if entry is None:
            raise KeyError("core %d has no LUT mapping for 0x%x"
                           % (self.core_id, addr))
        return entry.system_base + addr % WINDOW_BYTES, entry

    def mark_shared(self, addr):
        """Flip the window holding ``addr`` to shared-uncacheable (the
        page-table reconfiguration of paper §1)."""
        index = self._entry_of(addr)
        entry = self.entries.get(index)
        controller = self.mesh.controller_of(self.core_id)
        return self.map_window(
            index, SegmentKind.SHARED, controller, cacheable=False,
            system_base=entry.system_base if entry
            else addr - addr % WINDOW_BYTES)

    def mark_private(self, addr):
        """Flip the window holding ``addr`` to private-cacheable."""
        index = self._entry_of(addr)
        entry = self.entries.get(index)
        controller = self.mesh.controller_of(self.core_id)
        return self.map_window(
            index, SegmentKind.PRIVATE, controller, cacheable=True,
            system_base=entry.system_base if entry
            else addr - addr % WINDOW_BYTES)


class CoreLUTs:
    """Every core's :class:`LookupTable`, indexed by core id, each
    built the first time it is read.

    Only reconfigured cores consult their table when pricing an access,
    so most chips never build one; a table built late holds exactly the
    default image an eager one would."""

    def __init__(self, config, mesh):
        self.config = config
        self.mesh = mesh
        self._tables = [None] * config.num_cores
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._tables)

    def __getitem__(self, core):
        table = self._tables[core]
        if table is None:
            core = range(len(self._tables))[core]
            with self._lock:
                table = self._tables[core]
                if table is None:
                    table = LookupTable(core, self.config, self.mesh)
                    self._tables[core] = table
        return table

    def __iter__(self):
        for core in range(len(self._tables)):
            yield self[core]
