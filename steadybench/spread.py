"""Steadiness check: run one workload under several seeds, report spreads.

Usage (from the repository root):

    python3 steadybench/spread.py --workload crawl_store --seeds 1-10

Runs ``run.py`` once per seed (untraced) and prints, per end-to-end
metric, the ten values, their median and the quartile spread (first to
third quartile over the median) that the benchmark's bounds are set
against.  Exits non-zero if any run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import SPEC
from stats import quartile_spread

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds in BENCHMARK.json")
    args = parser.parse_args(argv)
    seconds = args.seconds or SPEC["run_seconds"]

    values: dict[str, list[float]] = {m["name"]: [] for m in SPEC["end_to_end"]}
    ok = True
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=False,
        )
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return 1
        lines = out.stdout.strip().splitlines()
        result, record = json.loads(lines[-1]), json.loads(lines[-2])
        ok = ok and result["correct"]
        if not result["metrics"]:
            print(f"seed {seed}: no metrics, failed={result['failed']}", file=sys.stderr)
            continue
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        probe = record["probe"]
        print(f"seed {seed}: correct={result['correct']} wall={record['wall_s']:.1f}s "
              f"setups={len(record['setup_samples'])} "
              f"probe_loop={probe['before']['python_loop_s']:.3f}/"
              f"{probe['after']['python_loop_s']:.3f}s "
              + " ".join(f"{name}={result['metrics'][name]['value']:.4g}"
                         for name in values), flush=True)
    for name, series in values.items():
        if not series:
            continue
        print(f"{name}: median={statistics.median(series):.6g} "
              f"spread={quartile_spread(series):.4f} values={series}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
