"""A small thread-safe LRU map used for the MGU, canonical-renaming and
query-elimination caches.  Lookups and inserts may interleave across threads
that share one rewriter context; a stale miss only costs a recomputation."""

from __future__ import annotations

import threading
from collections import OrderedDict

# Capacities, in entries, of the rewriter's caches.
MGU_CACHE_SIZE = 4500
RENAME_CACHE_SIZE = 55000
ELIM_CACHE_SIZE = 2000


class LRUCache:
    def __init__(self, capacity: int):
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key, default=None):
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return default

    def put(self, key, value):
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def __len__(self):
        return len(self._data)
