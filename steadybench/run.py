"""Steady-state ``repro serve`` benchmark: one workload, one seed.

Usage (from the repository root):

    python3 steadybench/run.py --workload traffic_steady --seed 1 \\
        --seconds 30 --trace 0

Each repetition is one full ``CampaignDaemon`` run in a fresh
interpreter (``rep.py``).  With ``--trace 0`` the benchmark runs
untraced repetitions until the next one would take the measured run
time past ``--seconds`` (at least two), adds set-up-only runs until it
has ``SETUP_MIN_SAMPLES`` set-up samples covering ``SETUP_SECONDS`` of
set-up time, and reports the medians of the end-to-end metrics.  With
``--trace 1`` it runs one untraced and one traced repetition and
reports the per-layer metrics of the traced one.  Either way every
repetition is checked, and all repetitions (of one seed) must agree on
journal digest, detection digest and counters.

The last stdout line is the result object; the line before it is the
full record (every repetition, the machine-speed probe, the layer
shares and the flight side channel cross-check).  A repetition that
crashes or fails a check makes the result ``correct: false``; the
metrics are left out when no repetition they need completed.  The exit
code is non-zero only when the harness itself cannot run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import judge
from probe import machine_probe
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: The benchmark's spec: the metrics printed, their units and order.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Set-up is sampled until there are at least this many samples ...
SETUP_MIN_SAMPLES = 4
#: ... and together they cover at least this much set-up time.
SETUP_SECONDS = 6.0
MIN_REPS = 2
#: Whole-invocation wall budget; the harness must exit within 180 s.
DEADLINE_S = 170.0


def _spawn(workload: str, seed: int, workdir: Path, *, trace: bool,
           setup_only: bool, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter; returns its record.

    The child gets its own session so that on timeout the whole group
    (the daemon and its worker pool) is killed and reaped.
    """
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--workdir", str(workdir)]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command += ["--spawned-at", repr(time.time())]
    child = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                             stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return {"error": "repetition timed out"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if child.returncode != 0:
        return {"error": f"repetition exited with {child.returncode}"}
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": "repetition printed no record"}


def _metrics(values: dict, kind: str) -> dict:
    """The ``kind`` metrics of the spec, in its order, with their units."""
    return {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in SPEC[kind]}


def end_to_end(untraced: list[dict], setups: list[float]) -> dict:
    """End-to-end values: medians over untraced repetitions and set-ups."""
    median = statistics.median
    return {
        "setup_s": median(setups),
        "run_s": median([r["run_s"] for r in untraced]),
        "logins_per_s": median([r["logins"] / r["run_s"] for r in untraced]),
        "sites_per_s": median([r["sites"] / r["run_s"] for r in untraced]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Run the repetitions; returns ``(result, record)``."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    workdir = ROOT / ".steadybench-work" / f"{workload}-{seed}-{os.getpid()}"
    probe_before = machine_probe()
    reps: list[dict] = []
    setup_runs: list[dict] = []
    try:
        plan = [False, True] if trace else [False] * MIN_REPS
        while True:
            if not plan:
                # Another untraced repetition only if the measured run
                # time stays within --seconds.
                measured = sum(r["run_s"] for r in reps)
                if trace or measured + reps[-1]["run_s"] > seconds:
                    break
                plan.append(False)
            traced = plan.pop(0)
            rep = _spawn(workload, seed, workdir / f"rep{len(reps)}", trace=traced,
                         setup_only=False, deadline=deadline)
            rep["traced"] = traced
            reps.append(rep)
            if "error" in rep:
                break
        setups = [r["setup_s"] for r in reps if "error" not in r]
        # Set-up samples, untraced only, and none after a failed run.
        while (not trace and reps and "error" not in (setup_runs or reps)[-1]
               and (len(setups) < SETUP_MIN_SAMPLES or sum(setups) < SETUP_SECONDS)):
            sample = _spawn(workload, seed, workdir / f"setup{len(setup_runs)}",
                            trace=False, setup_only=True, deadline=deadline)
            setup_runs.append(sample)
            if "error" not in sample:
                setups.append(sample["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    probe_after = machine_probe()

    completed = [r for r in reps if "error" not in r]
    mismatches = judge(completed)
    failed = sum(1 for r in reps + setup_runs if "error" in r)
    for rep, differing in zip(completed, mismatches):
        rep["mismatch"] = differing
        if rep["failures"] or differing:
            failed += 1
    record = {
        "workload": workload,
        "seed": seed,
        "shape": WORKLOADS[workload],
        "cpu_count": os.cpu_count(),
        "probe": {"before": probe_before, "after": probe_after},
        "setup_samples": setups,
        "setup_errors": [r for r in setup_runs if "error" in r],
        "reps": reps,
        "wall_s": time.monotonic() - started,
    }
    untraced = [r for r in completed if not r["traced"]]
    traced = [r for r in completed if r["traced"]]
    metrics = {}
    if trace and traced and untraced:
        layer = dict(traced[0]["per_layer"])
        layer["trace.overhead"] = traced[0]["run_s"] / untraced[0]["run_s"]
        metrics = _metrics(layer, "per_layer")
    elif not trace and untraced:
        metrics = _metrics(end_to_end(untraced, setups), "end_to_end")
    result = {
        "correct": failed == 0,
        "attempted": len(reps) + len(setup_runs),
        "failed": failed,
        "metrics": metrics,
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="steady-state serve benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="run time to measure across untraced repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"steadybench: no program source at {SRC}", file=sys.stderr)
        return 2
    # The build step: byte-compile the program so no repetition's
    # set-up pays for it.
    if not compileall.compile_dir(SRC, quiet=1):
        print("steadybench: program source does not compile", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
