"""A small LRU map.  Its only instances are the rewriter context's
`mgu_cache` and `rename_cache` and the elimination context's `cache`, all
of capacity 0 and never read by the program: no step unifies, renames or
eliminates through a memo.  They stay because the benchmark tracer reads
their hit counts (perfbench/tracing.py); deleting them, and this module,
waits for ROADMAP item 1."""

from __future__ import annotations

from collections import OrderedDict


class LRUCache:
    def __init__(self, capacity: int):
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key, default=None):
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        self.misses += 1
        return default

    def put(self, key, value):
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
