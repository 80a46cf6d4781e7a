"""Named performance benches and the ``BENCH_<n>.json`` trajectory.

Every bench times the *same workload* twice — once with the perf layer
disabled (:func:`repro.perf.caching.set_enabled`) and once with it on —
so the reported speedup is an honest A/B on one machine, and the macro
benches additionally assert the two runs produce bit-identical results.

The suite writes a schema-versioned snapshot to ``BENCH_<n>.json`` at
the repo root (one file per performance PR, forming a trajectory), and
``--check`` gates against a committed baseline using speedup *ratios*
rather than absolute seconds, so the gate survives slow CI machines.
The budget is deliberately generous (a bench fails only after losing
more than half its recorded speedup): the gate catches "someone turned
the caches off", not scheduler noise.

Usage::

    PYTHONPATH=src python -m repro perf                 # full suite
    PYTHONPATH=src python -m repro perf --quick         # CI-sized
    PYTHONPATH=src python -m repro perf --quick \
        --check benchmarks/perf_baseline.json           # regression gate
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from dataclasses import dataclass, field

from repro.perf import caching as _perf

SCHEMA_VERSION = 1
#: Index of this snapshot in the repo-root BENCH trajectory (one file
#: per PR that touches the perf surface; BENCH_3 introduced the suite,
#: BENCH_4 added the obs-overhead bench, BENCH_5 the scale-out
#: executor bench).
BENCH_INDEX = 5

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
TRAJECTORY_PATH = REPO_ROOT / f"BENCH_{BENCH_INDEX}.json"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "perf_baseline.json"

#: A gated bench regresses only when it retains less than
#: ``1 / CHECK_BUDGET`` of the baseline's recorded speedup.
CHECK_BUDGET = 2.0


@dataclass
class BenchResult:
    """One bench's A/B timing plus bench-specific extras."""

    name: str
    kind: str  # "micro" | "macro"
    baseline_seconds: float
    optimized_seconds: float
    #: Whether --check gates this bench's speedup ratio.  Core-count
    #: dependent benches (the sharded campaign) record their numbers
    #: but are never gated: their ratio is a property of the machine,
    #: not of the code.
    gated: bool = True
    extras: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.optimized_seconds <= 0:
            return float("inf")
        return self.baseline_seconds / self.optimized_seconds

    def as_dict(self) -> dict:
        payload = {
            "kind": self.kind,
            "baseline_seconds": round(self.baseline_seconds, 4),
            "optimized_seconds": round(self.optimized_seconds, 4),
            "speedup": round(self.speedup, 2),
            "gated": self.gated,
        }
        payload.update(self.extras)
        return payload


def _best_of(fn, repeats: int = 3) -> float:
    """Wall time of ``fn()``, best of ``repeats`` (min rejects noise)."""
    best = float("inf")
    for _ in range(repeats):
        began = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - began)
    return best


def _ab_timing(workload, repeats: int = 3) -> tuple[float, float]:
    """Time ``workload()`` with the perf layer off, then on (warm)."""
    was_enabled = _perf.enabled()
    try:
        _perf.set_enabled(False)
        baseline = _best_of(workload, repeats)
        _perf.set_enabled(True)
        workload()  # warm the caches before timing
        optimized = _best_of(workload, repeats)
    finally:
        _perf.set_enabled(was_enabled)
    return baseline, optimized


# -- workload corpora --------------------------------------------------------


def _spec_matrix():
    """Deterministic specs spanning languages and label styles."""
    from repro.web.spec import BotCheck, SiteSpec

    specs = []
    for lang in ("en", "de", "es", "fr"):
        for style in ("for", "wrap", "placeholder", "adjacent"):
            specs.append(
                SiteSpec(
                    host=f"{lang}-{style}.bench.test",
                    rank=5,
                    category="News",
                    language=lang,
                    label_style=style,
                    wants_name=True,
                    wants_phone=True,
                    wants_confirm_password=True,
                    wants_terms_checkbox=True,
                    bot_check=BotCheck.CAPTCHA_IMAGE,
                )
            )
    return specs


def _page_bodies() -> list[str]:
    from repro.web.i18n import LEXICONS
    from repro.web.pages import render_homepage, render_registration_page

    bodies = []
    for spec in _spec_matrix():
        lex = LEXICONS[spec.language]
        bodies.append(render_homepage(spec, lex))
        bodies.append(render_registration_page(spec, lex, captcha_token="ch-bench-1"))
    return bodies


def _classify_corpus():
    """Form fields extracted from rendered registration pages."""
    from repro.html.forms import extract_form_model
    from repro.html.parser import parse_html
    from repro.web.i18n import LEXICONS
    from repro.web.pages import render_registration_page

    fields = []
    for spec in _spec_matrix():
        lex = LEXICONS[spec.language]
        dom = parse_html(render_registration_page(spec, lex, captcha_token="ch-bench-1"))
        form = dom.find_first("form")
        fields.extend(extract_form_model(dom, form).fields)
    return fields


# -- benches -----------------------------------------------------------------


def bench_classify(quick: bool) -> BenchResult:
    """Field classification: naive reference vs fused + LRU cache."""
    from repro.crawler.fields import classify_field, classify_field_reference
    from repro.crawler.langpacks import packs_for

    corpus = _classify_corpus()
    packs = packs_for({"de", "es", "fr"})
    iterations = 10 if quick else 40

    def run(impl):
        for _ in range(iterations):
            for item in corpus:
                impl(item, packs=packs)

    baseline = _best_of(lambda: run(classify_field_reference))
    was_enabled = _perf.enabled()
    try:
        _perf.set_enabled(True)
        mismatches = sum(
            classify_field(item, packs=packs)
            != classify_field_reference(item, packs=packs)
            for item in corpus
        )
        run(classify_field)  # warm the LRU
        optimized = _best_of(lambda: run(classify_field))
    finally:
        _perf.set_enabled(was_enabled)
    return BenchResult(
        name="classify_micro",
        kind="micro",
        baseline_seconds=baseline,
        optimized_seconds=optimized,
        extras={
            "fields": len(corpus),
            "iterations": iterations,
            "identical": mismatches == 0,
        },
    )


def bench_parse(quick: bool) -> BenchResult:
    """HTML parsing: tokenizer every time vs DOM cache + clone."""
    from repro.html.browser import _parse_body

    bodies = _page_bodies()
    iterations = 5 if quick else 20

    def run():
        for _ in range(iterations):
            for body in bodies:
                _parse_body(body)

    baseline, optimized = _ab_timing(run)
    return BenchResult(
        name="parse_micro",
        kind="micro",
        baseline_seconds=baseline,
        optimized_seconds=optimized,
        extras={"bodies": len(bodies), "iterations": iterations},
    )


def bench_render(quick: bool) -> BenchResult:
    """Page rendering: full DOM build vs render cache."""
    from repro.web.i18n import LEXICONS
    from repro.web.pages import render_homepage, render_registration_page

    specs = _spec_matrix()
    iterations = 5 if quick else 20

    def run():
        for _ in range(iterations):
            for index, spec in enumerate(specs):
                lex = LEXICONS[spec.language]
                render_homepage(spec, lex)
                render_registration_page(spec, lex, captcha_token=f"ch-bench-{index}")

    baseline, optimized = _ab_timing(run)
    return BenchResult(
        name="render_micro",
        kind="micro",
        baseline_seconds=baseline,
        optimized_seconds=optimized,
        extras={"specs": len(specs), "iterations": iterations},
    )


def _pilot_config(quick: bool):
    from repro.core.scenario import ScenarioConfig

    if quick:
        return ScenarioConfig(
            seed=31,
            population_size=150,
            seed_list_size=30,
            main_crawl_top=120,
            second_crawl_top=150,
            manual_top=10,
            breach_count=5,
            breach_hard_exposing=3,
            unused_account_count=40,
            control_account_count=3,
        )
    return ScenarioConfig(
        seed=31,
        population_size=350,
        seed_list_size=60,
        main_crawl_top=300,
        second_crawl_top=350,
        manual_top=15,
        breach_count=8,
        breach_hard_exposing=4,
        unused_account_count=80,
        control_account_count=4,
    )


def _pilot_fingerprint(result) -> list[tuple]:
    return [
        (a.site_host, a.identity.email_local, a.password_class.value,
         a.outcome.code.value, a.outcome.started_at, a.outcome.finished_at)
        for a in result.campaign.attempts
    ]


def bench_pilot(quick: bool) -> BenchResult:
    """One complete pilot, caches off vs on, results bit-identical."""
    from repro.core.scenario import PilotScenario

    config = _pilot_config(quick)
    was_enabled = _perf.enabled()
    try:
        _perf.set_enabled(False)
        began = time.perf_counter()
        off_result = PilotScenario(config).run()
        baseline = time.perf_counter() - began

        _perf.set_enabled(True)  # clears nothing; caches start cold
        _perf.clear_all_caches()
        began = time.perf_counter()
        cold_result = PilotScenario(config).run()
        cold = time.perf_counter() - began

        began = time.perf_counter()
        warm_result = PilotScenario(config).run()
        warm = time.perf_counter() - began
    finally:
        _perf.set_enabled(was_enabled)

    identical = (
        _pilot_fingerprint(off_result) == _pilot_fingerprint(cold_result)
        == _pilot_fingerprint(warm_result)
        and off_result.detected_hosts == cold_result.detected_hosts
        == warm_result.detected_hosts
    )
    return BenchResult(
        name="pilot_end_to_end",
        kind="macro",
        baseline_seconds=baseline,
        optimized_seconds=cold,
        extras={
            "population": config.population_size,
            "warm_seconds": round(warm, 4),
            "warm_speedup": round(baseline / warm, 2) if warm > 0 else float("inf"),
            "attempts": len(off_result.campaign.attempts),
            "detected": len(off_result.detected_hosts),
            "identical": identical,
        },
    )


def bench_sharded_campaign(quick: bool) -> BenchResult:
    """Registration campaign, serial vs process pool (never gated)."""
    from repro.core.runner import CampaignRunner
    from repro.core.substrate import WorldShard
    from repro.util.rngtree import RngTree

    seed, population, top, shards = (31, 150, 120, 4) if quick else (31, 350, 300, 8)
    cpu_count = os.cpu_count() or 1
    workers = min(4, cpu_count)
    listing = WorldShard(RngTree(seed)).build_population(population)
    sites = listing.alexa_top(top)

    def run_with(worker_count: int, executor: str):
        began = time.perf_counter()
        with CampaignRunner(
            seed=seed,
            population_size=population,
            shards=shards,
            workers=worker_count,
            executor=executor,
        ) as runner:
            result = runner.run(sites)
        return result, time.perf_counter() - began

    serial_result, serial_wall = run_with(1, "serial")
    sharded_result, sharded_wall = run_with(workers, "process")

    extras = {
        "cpu_count": cpu_count,
        "shards": shards,
        "workers": workers,
        "sites": len(sites),
        "identical": (
            serial_result.stats == sharded_result.stats
            and serial_result.telemetry == sharded_result.telemetry
        ),
    }
    if cpu_count == 1:
        extras["single_core_warning"] = (
            "only one CPU core visible: the process pool cannot run "
            "shards in parallel, so the sharded timing measures pure "
            "overhead and no speedup should be expected"
        )
    return BenchResult(
        name="sharded_campaign",
        kind="macro",
        baseline_seconds=serial_wall,
        optimized_seconds=sharded_wall,
        gated=False,
        extras=extras,
    )


#: Maximum tolerated slowdown of an *observed* pilot vs the no-op
#: default: obs must stay effectively free when disabled and cheap
#: when enabled, or nobody will leave it on.
OBS_OVERHEAD_BUDGET = 0.05


def bench_obs_overhead(quick: bool) -> BenchResult:
    """Pilot e2e, obs off vs on: same results, bounded overhead.

    Unlike the cache benches this is not an optimization A/B — it
    gates a *cost ceiling*.  ``baseline`` is the default no-op path,
    ``optimized`` the fully-observed run; the bench fails the suite
    when the observed run costs more than ``OBS_OVERHEAD_BUDGET``
    extra, or when observation perturbs the simulation at all.
    """
    import dataclasses

    from repro.core.scenario import PilotScenario

    config = _pilot_config(quick)
    observed = dataclasses.replace(config, obs_enabled=True)

    results: dict[str, object] = {}

    def run(cfg, key):
        results[key] = PilotScenario(cfg).run()

    run(config, "off")  # warm imports and caches for both legs
    run(observed, "on")
    # The budget is a few percent — well inside one CI load spike — so
    # no single wall-clock estimator can gate it.  The legs are
    # interleaved, automatic GC is off while a leg is timed (the
    # observed leg allocates far more, so cyclic collections it
    # triggers would scan whatever heap *earlier benches* left behind
    # and bill that to obs), collection runs between legs instead, and
    # the gate takes the *smaller* of two upward-noise-prone
    # estimators: the median per-pair ratio and the best-leg ratio.
    # Machine noise (load spikes, frequency states) rarely inflates
    # both at once; a real obs regression inflates both.
    import gc

    def timed_leg(cfg, key):
        gc.collect()
        gc.disable()
        try:
            began = time.perf_counter()
            for _ in range(batch):
                run(cfg, key)
            return (time.perf_counter() - began) / batch
        finally:
            gc.enable()

    batch = 2
    off_seconds = on_seconds = float("inf")
    ratios = []
    for _ in range(7):
        off_leg = timed_leg(config, "off")
        on_leg = timed_leg(observed, "on")
        off_seconds = min(off_seconds, off_leg)
        on_seconds = min(on_seconds, on_leg)
        ratios.append(on_leg / off_leg if off_leg > 0 else 1.0)
    identical = (
        _pilot_fingerprint(results["off"]) == _pilot_fingerprint(results["on"])
        and results["off"].detected_hosts == results["on"].detected_hosts
    )
    median_ratio = sorted(ratios)[len(ratios) // 2]
    floor_ratio = on_seconds / off_seconds if off_seconds > 0 else 1.0
    overhead = min(median_ratio, floor_ratio) - 1.0
    return BenchResult(
        name="obs_overhead",
        kind="macro",
        baseline_seconds=off_seconds,
        optimized_seconds=on_seconds,
        gated=False,  # the gate is within_budget, not a speedup floor
        extras={
            "population": config.population_size,
            "identical": identical,
            "median_ratio": round(median_ratio, 4),
            "floor_ratio": round(floor_ratio, 4),
            "overhead_fraction": round(overhead, 4),
            "budget": OBS_OVERHEAD_BUDGET,
            "within_budget": overhead < OBS_OVERHEAD_BUDGET,
        },
    )


BENCHES = {
    "classify": bench_classify,
    "parse": bench_parse,
    "render": bench_render,
    "pilot": bench_pilot,
    "campaign": bench_sharded_campaign,
    "obs": bench_obs_overhead,
}


# -- suite driver ------------------------------------------------------------


def run_suite(quick: bool = False, only: list[str] | None = None) -> dict:
    """Run the selected benches and assemble the snapshot payload."""
    names = only or list(BENCHES)
    results = []
    for name in names:
        print(f"bench {name} ...", file=sys.stderr, flush=True)
        results.append(BENCHES[name](quick))
    cpu_count = os.cpu_count() or 1
    payload = {
        "schema_version": SCHEMA_VERSION,
        "bench_index": BENCH_INDEX,
        "quick": quick,
        "cpu_count": cpu_count,
        "benches": {result.name: result.as_dict() for result in results},
    }
    if cpu_count == 1:
        payload["single_core_warning"] = (
            "recorded on a single-core machine; parallel speedups are "
            "meaningless here"
        )
    return payload


def check_against_baseline(
    payload: dict, baseline: dict, budget: float = CHECK_BUDGET
) -> list[str]:
    """Regression failures vs a committed baseline (empty = pass).

    Compares speedup *ratios*: a gated bench fails when it keeps less
    than ``1/budget`` of the baseline's recorded speedup, or when a
    bit-identity check that previously passed now fails.
    """
    failures = []
    for name, recorded in baseline.get("benches", {}).items():
        current = payload.get("benches", {}).get(name)
        if current is None:
            failures.append(f"{name}: missing from current run")
            continue
        if recorded.get("identical", True) and not current.get("identical", True):
            failures.append(f"{name}: optimized results no longer bit-identical")
        if not recorded.get("gated", True):
            continue
        floor = recorded["speedup"] / budget
        if current["speedup"] < floor:
            failures.append(
                f"{name}: speedup {current['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {recorded['speedup']:.2f}x / "
                f"budget {budget:g})"
            )
    return failures


def render_summary(payload: dict) -> str:
    """Human-readable one-line-per-bench table."""
    lines = [
        f"perf suite (schema v{payload['schema_version']}, "
        f"bench index {payload['bench_index']}, "
        f"cpu_count={payload['cpu_count']}"
        + (", QUICK" if payload.get("quick") else "") + "):"
    ]
    for name, bench in payload["benches"].items():
        flags = []
        if "identical" in bench:
            flags.append("identical" if bench["identical"] else "MISMATCH")
        if not bench.get("gated", True):
            flags.append("ungated")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        lines.append(
            f"  {name:<18} {bench['baseline_seconds']:>8.3f}s -> "
            f"{bench['optimized_seconds']:>8.3f}s  "
            f"{bench['speedup']:>6.2f}x{suffix}"
        )
    if "single_core_warning" in payload:
        lines.append(f"  WARNING: {payload['single_core_warning']}")
    return "\n".join(lines)


def add_suite_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the suite's options (shared with the ``repro perf`` CLI)."""
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized workloads (seconds, not minutes)")
    parser.add_argument("--only", action="append", choices=sorted(BENCHES),
                        help="run just this bench (repeatable)")
    parser.add_argument("--output", type=pathlib.Path, default=TRAJECTORY_PATH,
                        help=f"snapshot path (default {TRAJECTORY_PATH.name} "
                             "at the repo root)")
    parser.add_argument("--no-write", action="store_true",
                        help="print the summary without writing the snapshot")
    parser.add_argument("--check", type=pathlib.Path, metavar="BASELINE",
                        default=None,
                        help="gate against a committed baseline JSON "
                             f"(e.g. {DEFAULT_BASELINE.relative_to(REPO_ROOT)})")
    parser.add_argument("--budget", type=float, default=CHECK_BUDGET,
                        help="regression budget for --check: fail only below "
                             "baseline_speedup/budget (default %(default)s)")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"also record this run as "
                             f"{DEFAULT_BASELINE.relative_to(REPO_ROOT)}")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro perf",
        description="Run the A/B performance suite and write the "
                    f"BENCH_{BENCH_INDEX}.json snapshot.",
    )
    add_suite_arguments(parser)
    return parser


def run_from_args(args: argparse.Namespace) -> int:
    """Execute the suite from parsed arguments (CLI handler entry)."""
    payload = run_suite(quick=args.quick, only=args.only)
    print(render_summary(payload))

    serialized = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if not args.no_write:
        args.output.write_text(serialized, encoding="utf-8")
        print(f"wrote {args.output}", file=sys.stderr)
    if args.write_baseline:
        DEFAULT_BASELINE.write_text(serialized, encoding="utf-8")
        print(f"wrote {DEFAULT_BASELINE}", file=sys.stderr)

    mismatched = [name for name, bench in payload["benches"].items()
                  if bench.get("identical") is False]
    if mismatched:
        print(f"FAIL: results not bit-identical: {', '.join(mismatched)}")
        return 1
    over_budget = [
        f"{name} ({bench['overhead_fraction']:+.1%} > {bench['budget']:.0%})"
        for name, bench in payload["benches"].items()
        if bench.get("within_budget") is False
    ]
    if over_budget:
        print(f"FAIL: overhead above budget: {', '.join(over_budget)}")
        return 1
    if args.check is not None:
        baseline = json.loads(args.check.read_text(encoding="utf-8"))
        failures = check_against_baseline(payload, baseline, budget=args.budget)
        if failures:
            print("perf regression check FAILED:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"perf regression check passed against {args.check}")
    return 0


def main(argv: list[str] | None = None) -> int:
    return run_from_args(build_arg_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
