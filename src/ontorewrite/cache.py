"""A small LRU map used for the MGU memo of the rewriter's general step.

Only `rewriter.rewrite_step` reads the memo: a piece of two or more atoms,
or a rule head holding a constant or a repeated variable.  The common step,
one atom against a head of distinct variables, binds the head without an
`mgu`.  The memo stays because the benchmark tracer reads
`RewriterContext.mgu_cache` (perfbench/tracing.py); deleting it waits for
ROADMAP item 1."""

from __future__ import annotations

from collections import OrderedDict

# Capacity, in entries, of the rewriter's MGU cache.
MGU_CACHE_SIZE = 4500


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
