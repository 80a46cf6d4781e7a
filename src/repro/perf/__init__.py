"""The hot-path performance layer: caches and spec tables.

The layer is pure memoization and algorithmic fusion over functions
that are already deterministic — it may never change an output bit.
``repro.perf.caching`` holds the shared switch and cache registry and
``repro.perf.warm`` the prefix-closed site-spec tables.  Performance is measured
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
