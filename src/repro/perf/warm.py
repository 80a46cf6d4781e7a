"""Process-lifetime site-spec tables, one per world key.

Every crawl shard takes its site specs from a prefix-closed table keyed
by the world key ``(seed, population size, generator config, site
overrides)``.  The table serves two purposes:

- **Correctness.**  A rank's spec is a pure function of the substrate
  tree (root seed) and the generator config, except for one cross-rank
  input: the host-collision set.  A table filled *prefix-closed* (see
  :meth:`~repro.web.generator.SiteGenerator.spec_for_rank`) makes rank
  ``r`` collide against exactly ranks ``1..r-1``, whichever shard,
  epoch or worker asks first.  Without it a shard would resolve
  collisions against only the ranks it happened to request, and its
  hosts would depend on how the ranked list was partitioned.
- **Speed.**  A process pool's workers keep their tables between the
  shards and epochs they run, so each worker generates each spec once.

Specs are frozen dataclasses and never mutated after generation, so
sharing them across shards in one process is safe.  The tables are
held through :class:`~repro.perf.caching.LruCache`, so
``set_enabled(False)`` / ``clear_all_caches`` empty them; a table
rebuilt from scratch holds the same specs, which is what keeps the
perf-disabled run byte-identical to the default one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable

from repro.perf import caching as _perf
from repro.web.spec import SiteSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.core.runner import ShardPlan
    from repro.web.generator import GeneratorConfig


@dataclass
class SpecCache:
    """A prefix-closed site-spec table shared by every shard of a world.

    Satisfies :class:`repro.web.generator.SpecCacheLike`: the generator
    consults ``specs`` before generating and shares ``hosts_taken`` so
    collision handling matches a single long-lived generator.
    """

    specs: dict[int, SiteSpec] = field(default_factory=dict)
    hosts_taken: set[str] = field(default_factory=set)


def _config_key(config: "GeneratorConfig | None") -> Hashable:
    """A generator config as a hashable field tuple (None-safe)."""
    if config is None:
        return None
    return tuple(
        (f.name, getattr(config, f.name)) for f in dataclasses.fields(config)
    )


def world_key(
    seed: int,
    population_size: int,
    generator_config: "GeneratorConfig | None",
    packed_overrides: tuple,
) -> Hashable:
    """The table key: every input that determines a world's site specs."""
    return (seed, population_size, _config_key(generator_config), packed_overrides)


#: Process-lifetime tables.  Small on purpose: one entry per distinct
#: world this process has run; campaigns use exactly one.
_TABLES = _perf.LruCache(maxsize=4, name="warm.spec_tables")


def spec_table_for_key(key: Hashable) -> SpecCache:
    """The (possibly fresh) spec table for a world key."""
    table = _TABLES.get(key)
    if table is None:
        table = SpecCache()
        _TABLES.put(key, table)
    return table  # type: ignore[return-value]


def spec_table_for_plan(plan: "ShardPlan") -> SpecCache:
    """The spec table a shard plan's world draws its site specs from."""
    return spec_table_for_key(
        world_key(
            plan.seed, plan.population_size, plan.generator_config, plan.site_overrides
        )
    )
