"""Micro-benchmarks for the substrate hot paths.

Not a paper artifact — these keep the simulator honest: page rendering
and parsing dominate crawl time, and a full-scale pilot (30k sites)
performs hundreds of thousands of these operations.
"""

import time

import pytest

from repro.core.runner import CampaignRunner
from repro.core.substrate import WorldShard
from repro.crawler.captcha import CaptchaSolverService
from repro.crawler.engine import CrawlerConfig, RegistrationCrawler
from repro.html.parser import parse_html
from repro.identity.generator import IdentityFactory
from repro.identity.passwords import PasswordClass
from repro.net.dns import DnsResolver
from repro.net.transport import Transport
from repro.net.whois import WhoisRegistry
from repro.sim.clock import SimClock
from repro.util.rngtree import RngTree
from repro.web.i18n import ENGLISH
from repro.web.pages import render_registration_page
from repro.web.population import InternetPopulation
from repro.web.spec import SiteSpec


@pytest.mark.benchmark(group="micro")
def test_bench_render_registration_page(benchmark):
    spec = SiteSpec(host="micro.test", rank=10, category="News", language="en",
                    wants_name=True, wants_phone=True, wants_confirm_password=True)
    html = benchmark(lambda: render_registration_page(spec, ENGLISH))
    assert "<form" in html


@pytest.mark.benchmark(group="micro")
def test_bench_parse_registration_page(benchmark):
    spec = SiteSpec(host="micro.test", rank=10, category="News", language="en",
                    wants_name=True, wants_phone=True, wants_confirm_password=True)
    html = render_registration_page(spec, ENGLISH)
    dom = benchmark(lambda: parse_html(html))
    assert dom.find_first("form") is not None


@pytest.mark.benchmark(group="micro")
def test_bench_single_site_crawl(benchmark):
    clock = SimClock()
    transport = Transport(clock)
    population = InternetPopulation(
        RngTree(71), clock, transport, WhoisRegistry(), DnsResolver(), size=5,
        overrides={1: {"bucket": "rest", "host": "crawlme.test",
                       "load_fails": False, "language": "en"}},
    )
    population.site_at_rank(1)
    crawler = RegistrationCrawler(
        transport, CaptchaSolverService(RngTree(72).rng()),
        RngTree(73).rng(), config=CrawlerConfig(system_error_rate=0.0),
    )
    factory = IdentityFactory(RngTree(74))

    def crawl_once():
        identity = factory.create(PasswordClass.HARD)
        return crawler.register_at("http://crawlme.test/", identity)

    outcome = benchmark(crawl_once)
    assert outcome.code is not None


#: Small sharded-campaign workload shared by the workers axis below.
_SHARDED_SEED = 97
_SHARDED_POPULATION = 220
_SHARDED_TOP = 32


@pytest.mark.benchmark(group="sharded-campaign")
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_bench_sharded_campaign_workers(benchmark, record_json, workers):
    """One campaign fan-out per worker count; serial is the baseline.

    Emits ``substrate_sharded_campaign_w<N>.json`` so the serial vs
    sharded wall-clock comparison is machine-readable.
    """
    from repro.util.rngtree import RngTree

    listing = WorldShard(RngTree(_SHARDED_SEED)).build_population(_SHARDED_POPULATION)
    sites = listing.alexa_top(_SHARDED_TOP)
    with CampaignRunner(
        seed=_SHARDED_SEED,
        population_size=_SHARDED_POPULATION,
        shards=4,
        workers=workers,
        executor="serial" if workers == 1 else "process",
    ) as runner:
        began = time.perf_counter()
        result = benchmark.pedantic(lambda: runner.run(sites), rounds=1, iterations=1)
        wall = time.perf_counter() - began

    record_json(f"substrate_sharded_campaign_w{workers}", {
        "workers": workers,
        "shards": 4,
        "executor": runner.executor,
        "sites": len(sites),
        "attempts": result.stats.attempts,
        "exposed_attempts": result.stats.exposed_attempts,
        "transport_requests": result.telemetry.transport_requests,
        "wall_seconds": wall,
    })
    assert result.stats.sites_considered == len(sites)
