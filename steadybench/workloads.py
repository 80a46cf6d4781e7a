"""The benchmark's workloads: each one a fixed-size ``ServiceConfig``.

The daemon is a closed loop (sim time advances only when work
finishes), so a workload is a stated input size and every end-to-end
metric is work per second of wall time.  All three run the process
executor with two workers, login batching on, and the flight recorder
and checkpoint flushed every epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seed-independent shape of every workload; the seed only changes
#: which sites, users and events the run draws.
WORKLOADS: dict[str, dict] = {
    # Steady-state benign traffic: the 30-day suspicion window means
    # epochs 2-4 run with compaction, eviction and the scalar replay
    # leak all active.  Bypasses the crawl (50 sites).
    "traffic_steady": {
        "population_size": 3000,
        "top": 50,
        "epochs": 4,
        "epoch_days": 30,
        "traffic_users": 100_000,
        "traffic_logins_per_day": 0.15,
        "traffic_mails_per_day": 0.5,
        "stuffing_interval_days": 0,
        "stuffing_site_density": 0.05,
        "world_store": False,
    },
    # Failure-heavy, eviction-heavy login path at 10x the state: a
    # stuffing wave every 3 sim days over a 10^6-user population.
    "stuffing_waves": {
        "population_size": 3000,
        "top": 100,
        "epochs": 4,
        "epoch_days": 30,
        "traffic_users": 1_000_000,
        "traffic_logins_per_day": 0.0025,
        "traffic_mails_per_day": 0.0025,
        "stuffing_interval_days": 3,
        "stuffing_site_density": 0.0125,
        "world_store": False,
    },
    # The only parallel layer plus both byte codecs and the durable
    # writes: a 10^4-site crawl over a store-backed 4x10^4-site world,
    # no benign traffic.  Bypasses the login path.
    "crawl_store": {
        "population_size": 40_000,
        "top": 10_000,
        "epochs": 24,
        "epoch_days": 5,
        "traffic_users": 0,
        "traffic_logins_per_day": 0.0,
        "traffic_mails_per_day": 0.0,
        "stuffing_interval_days": 0,
        "stuffing_site_density": 0.05,
        "world_store": True,
    },
}


@dataclass(frozen=True)
class Workload:
    """One named workload under one seed."""

    name: str
    seed: int

    @property
    def shape(self) -> dict:
        return WORKLOADS[self.name]

    @property
    def uses_store(self) -> bool:
        return bool(self.shape["world_store"])

    def config(self, world_store: str | None = None):
        """The workload's validated :class:`ServiceConfig`."""
        from repro.service import ServiceConfig
        from repro.util.timeutil import DAY

        shape = self.shape
        if self.uses_store and world_store is None:
            raise ValueError(f"workload {self.name} needs a world store path")
        return ServiceConfig(
            seed=self.seed,
            population_size=shape["population_size"],
            top=shape["top"],
            epochs=shape["epochs"],
            epoch_length=shape["epoch_days"] * DAY,
            traffic_users=shape["traffic_users"],
            traffic_logins_per_day=shape["traffic_logins_per_day"],
            traffic_mails_per_day=shape["traffic_mails_per_day"],
            stuffing_interval=shape["stuffing_interval_days"] * DAY,
            stuffing_site_density=shape["stuffing_site_density"],
            workers=2,
            executor="process",
            checkpoint_every=1,
            login_batching=True,
            world_store=world_store if self.uses_store else None,
        )
