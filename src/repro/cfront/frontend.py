"""One-call frontend: preprocess + parse raw C source.

``parse_program`` memoizes on a hash of the source (plus the
preprocessor inputs), so benchmark harnesses and test suites that parse
the same program repeatedly skip re-lexing and re-parsing.  Cache hits
return a private clone by default — callers (the translation
framework's passes) mutate their units freely — while read-only
consumers can pass ``share=True`` to receive the pristine cached master
itself.

Clones are unpickled from a snapshot of the master, which is several
times cheaper than ``copy.deepcopy``.  C types and source coordinates
are immutable value objects, so the snapshot refers to them by
persistent id and every clone shares the master's.
"""

import hashlib
import io
import pickle
from collections import OrderedDict

from repro.cfront.c_ast import Coord
from repro.cfront.ctypes import CType
from repro.cfront.parser import parse
from repro.cfront.preprocessor import preprocess

# Headers whose contents we model internally rather than reading from disk.
ENVIRONMENT_HEADERS = {
    "stdio.h", "stdlib.h", "string.h", "math.h", "pthread.h",
    "unistd.h", "sys/time.h", "time.h", "RCCE.h",
}

_PARSE_CACHE = OrderedDict()   # key -> _CacheEntry
_PARSE_CACHE_MAX = 64
_HITS = 0
_MISSES = 0


def _cache_key(source, filename, predefined, header_map):
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    try:
        predefined_key = (tuple(sorted(predefined.items()))
                          if predefined else ())
        header_key = (tuple(sorted(header_map.items()))
                      if header_map else ())
    except TypeError:
        return None  # unhashable inputs: skip the cache
    return digest, filename, predefined_key, header_key


_SHARED_BY_IDENTITY = (CType, Coord)


class _SnapshotPickler(pickle.Pickler):
    """Pickles an AST, leaving its immutable objects out by id."""

    def __init__(self, file, shared):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._shared = shared
        self._index = {}

    def persistent_id(self, obj):
        if not isinstance(obj, _SHARED_BY_IDENTITY):
            return None
        index = self._index.get(id(obj))
        if index is None:
            index = self._index[id(obj)] = len(self._shared)
            self._shared.append(obj)
        return index


class _SnapshotUnpickler(pickle.Unpickler):
    def __init__(self, file, shared):
        super().__init__(file)
        self._shared = shared

    def persistent_load(self, pid):
        return self._shared[pid]


class _CacheEntry:
    """A cached master unit and, once a caller asked for a private
    clone, the ``(pickle, shared objects)`` snapshot clones come from."""

    __slots__ = ("master", "snapshot")

    def __init__(self, master):
        self.master = master
        self.snapshot = None

    def clone(self):
        snapshot = self.snapshot
        if snapshot is None:
            shared = []
            buffer = io.BytesIO()
            _SnapshotPickler(buffer, shared).dump(self.master)
            snapshot = self.snapshot = (buffer.getvalue(), shared)
        blob, shared = snapshot
        return _SnapshotUnpickler(io.BytesIO(blob), shared).load()


def parse_program(source, filename="<source>", predefined=None,
                  header_map=None, share=False):
    """Preprocess and parse ``source``; returns a TranslationUnit whose
    ``includes`` records the headers the program asked for.

    Results are memoized on (source hash, filename, preprocessor
    inputs).  By default every call gets its own clone of the cached
    unit; ``share=True`` returns the cached master directly —
    only for callers that will never mutate the AST (this also lets
    repeat runs share downstream per-unit caches, e.g. the compiled
    closures in ``repro.sim.compile``).
    """
    global _HITS, _MISSES
    if not isinstance(source, str):
        return parse_program_uncached(source, filename, predefined,
                                      header_map)
    key = _cache_key(source, filename, predefined, header_map)
    if key is None:
        return parse_program_uncached(source, filename, predefined,
                                      header_map)
    entry = _PARSE_CACHE.get(key)
    if entry is not None:
        _PARSE_CACHE.move_to_end(key)
        _HITS += 1
    else:
        _MISSES += 1
        entry = _CacheEntry(parse_program_uncached(
            source, filename, predefined, header_map))
        _PARSE_CACHE[key] = entry
        while len(_PARSE_CACHE) > _PARSE_CACHE_MAX:
            _PARSE_CACHE.popitem(last=False)
    # the master just cached is what we hand out on a miss too: a
    # non-sharing caller gets a clone so it cannot poison the cache
    return entry.master if share else entry.clone()


def parse_program_uncached(source, filename="<source>", predefined=None,
                           header_map=None):
    result = preprocess(source, predefined=predefined,
                        header_map=header_map, filename=filename)
    return parse(result.text, filename, includes=result.includes)


def parse_cache_clear():
    """Drop every memoized parse (tests use this for isolation)."""
    global _HITS, _MISSES
    _PARSE_CACHE.clear()
    _HITS = 0
    _MISSES = 0


def parse_cache_info():
    return {"hits": _HITS, "misses": _MISSES,
            "entries": len(_PARSE_CACHE), "max": _PARSE_CACHE_MAX}
