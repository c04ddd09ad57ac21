"""The counted LRU shared by every kernel/workspace/prep cache.

:class:`KeyedLruCache` is the generic core of the per-process compiled
kernel cache (:func:`repro.simulation.kernel.shared_kernel`, keyed by circuit
digest), the per-kernel site-plan and per-width workspace caches below it,
and the service tier's ``ScenarioPrepCache`` (keyed by circuit digest and
config fingerprint).  The simulation layer sits *below* the campaign layer
in the import graph, so the class lives here in the dependency-free utility
package.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`KeyedLruCache`.

    Monotone non-decreasing; the service status endpoint exposes them, so
    they are plain ints with a dict view rather than anything fancier.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


_MISSING = object()


class KeyedLruCache:
    """A small counted LRU: the generic core of every kernel/prep cache.

    :meth:`lookup` returns the cached value for a key (a hit, moved to
    most-recently-used) or a default (a miss); :meth:`insert` adds a value,
    evicting least-recently-used entries beyond ``maxsize``;
    :meth:`get_or_build` is the two together.  Hits, misses and evictions
    are counted in :attr:`stats` -- the observability the service tier
    surfaces.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        self.stats = CacheStats()

    def lookup(self, key, default=None):
        """The cached value for ``key`` (counted hit), else ``default``
        (counted miss)."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.stats.misses += 1
            return default
        self.stats.hits += 1
        self._entries.move_to_end(key)
        return value

    def insert(self, key, value) -> None:
        """Cache ``value`` under ``key`` as most recently used (not counted
        as hit or miss: the preceding :meth:`lookup` counted the miss)."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def get_or_build(self, key, build):
        """The cached value for ``key``, calling ``build()`` on a miss."""
        value = self.lookup(key, _MISSING)
        if value is _MISSING:
            value = build()
            self.insert(key, value)
        return value

    def keys(self) -> list:
        """Cached keys, least- to most-recently used (test/diagnostic hook)."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
