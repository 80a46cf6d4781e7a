"""The cross-run judge and the order statistics."""

import statistics

import pytest

from checks import judge
from stats import quartile_spread


def _record(journal="j1", detection="d1", logins=10):
    return {"journal_digest": journal, "detection_digest": detection,
            "counters": {"logins": logins, "engine": {"windows": 3}},
            "run_s": 1.0}


def test_judge_accepts_identical_fingerprints_despite_timings():
    first, second = _record(), _record()
    second["run_s"] = 2.0
    assert judge([first, second]) == [[], []]


def test_judge_names_each_differing_field():
    records = [_record(), _record(journal="j2"), _record(detection="d2", logins=11)]
    assert judge(records) == [
        [], ["journal_digest"], ["detection_digest", "counters"]]


def test_judge_of_nothing_is_empty():
    assert judge([]) == []


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 10.2, 11.8]
    first, _, third = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx(
        (third - first) / statistics.median(values))


def test_quartile_spread_of_constant_or_single_value_is_zero():
    assert quartile_spread([3.0, 3.0, 3.0]) == 0.0
    assert quartile_spread([3.0]) == 0.0
