"""Shard-merge discipline shared by every per-shard artifact.

A sharded campaign produces one artifact per shard — attempt lists,
telemetry counters, :class:`~repro.faults.report.FaultReport`s and
observability journals — and every one of them must merge to the same
bytes regardless of how many workers ran the shards or in which order
they finished.  The discipline that guarantees it is always the same:

- fold **in shard-index order**, never completion order
  (:func:`fold_shard_ordered`), and
- combine counter records **field-wise by summation**
  (:func:`sum_counter_dataclasses`, :func:`merge_count_dicts`), which
  is associative, so the shard-ordered fold is a pure function of the
  shard set.

This module is the single home for that logic; ``core.runner``,
``faults.report`` and ``obs.journal`` all delegate here.  It lives in
``repro.obs`` (not ``repro.core``) because it must stay importable
from the faults layer, which the core package itself builds on.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
U = TypeVar("U")


def sum_counter_dataclasses(cls: type[T], reports: Iterable[T]) -> T:
    """Field-wise sum of counter dataclasses, as a new instance.

    Works for frozen and mutable dataclasses alike; every field must be
    summable (the counters are all ints).  An empty iterable yields the
    dataclass defaults.
    """
    names = [f.name for f in dataclasses.fields(cls)]  # type: ignore[arg-type]
    totals: dict[str, int] | None = None
    for report in reports:
        if totals is None:
            totals = {name: getattr(report, name) for name in names}
        else:
            for name in names:
                totals[name] += getattr(report, name)
    if totals is None:
        return cls()
    return cls(**totals)


def fold_shard_ordered(
    items: Sequence[T],
    index_of: Callable[[T], int],
    fold: Callable[[U, T], U],
    initial: U,
) -> U:
    """Fold shard artifacts in ascending shard-index order.

    The result is invariant to the order ``items`` arrives in (process
    pools complete shards in nondeterministic order), which
    is the heart of the bit-identical-for-any-worker-count contract.
    """
    result = initial
    for item in sorted(items, key=index_of):
        result = fold(result, item)
    return result


def _append_fold(acc: list[T], item: T) -> list[T]:
    """Append-based fold step: O(1) per item, unlike ``acc + [item]``."""
    acc.append(item)
    return acc


def collect_shard_ordered(
    items: Sequence[T], index_of: Callable[[T], int]
) -> list[T]:
    """Shard artifacts as a new list in ascending shard-index order.

    The common ``fold_shard_ordered`` specialization; the append-based
    fold keeps it linear where ``fold=lambda acc, x: acc + [x]`` copies
    the accumulator once per shard (quadratic over large shard counts).
    """
    return fold_shard_ordered(items, index_of=index_of, fold=_append_fold, initial=[])


def merge_count_dicts(mappings: Iterable[dict[str, int]]) -> dict[str, int]:
    """Key-wise sum of counter mappings, sorted by key."""
    totals: dict[str, int] = {}
    for mapping in mappings:
        for key, value in mapping.items():
            totals[key] = totals.get(key, 0) + value
    return dict(sorted(totals.items()))
