"""The hot-path performance layer: caches, spec tables, wire codec.

The layer is pure memoization and algorithmic fusion over functions
that are already deterministic — it may never change an output bit.
``repro.perf.caching`` holds the shared switch and cache registry,
``repro.perf.warm`` the prefix-closed site-spec tables and
``repro.perf.wire`` the shard-result codec.  Performance is measured
end to end by ``steadybench/`` (see ``steadybench/README.md`` and
``BENCHMARK.json``).
"""

from repro.perf.caching import (
    LruCache,
    cache_stats,
    clear_all_caches,
    enabled,
    register_clearer,
    set_enabled,
)

__all__ = [
    "LruCache",
    "cache_stats",
    "clear_all_caches",
    "enabled",
    "register_clearer",
    "set_enabled",
]
