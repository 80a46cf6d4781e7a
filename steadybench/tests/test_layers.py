"""The flight side channel cross-check arithmetic."""

import pytest

from layers import wall_gap


def test_wall_gap_uses_per_epoch_deltas_over_epoch_wall():
    cross_check = {
        "flushes": [
            {"epoch": 0, "wall": 12.0, "engine_logins": 0},
            {"epoch": 1, "wall": 14.0, "engine_logins": 1000},
            {"epoch": 2, "wall": 18.0, "engine_logins": 3000},
        ],
        "side_channel": [0.0, 5000.0, 1500.0],
    }
    rows = wall_gap(cross_check, run_start=10.0)
    assert [row["measured_logins_per_s"] for row in rows] == pytest.approx(
        [0.0, 500.0, 500.0])
    assert [row["side_channel_logins_per_s"] for row in rows] == [0.0, 5000.0, 1500.0]
