"""The write path the traced run measures: a fixed CD-profile fleet
feed replayed as fast as possible through ``TripSessionizer`` ->
``AppendableArchiveWriter`` (segments plus ``.stiu`` sidecars), then
``drain_compactions`` and ``compact()`` to one archive.

The feed is fixed like the query archive, not drawn from ``--seed``, so
every traced run does the same write-path work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from common import DATASET_SEED, NETWORK_SCALE, PROFILE

#: vehicles in the fleet feed: enough trips for five 64-trip segments,
#: so compaction has a merge to do
VEHICLES = 300
#: GPS noise of the raw fixes, metres (``synthesize_raw_dataset``'s default)
NOISE_SIGMA = 15.0


class Feed:
    """The network, the raw feeds and their merged event order."""

    def __init__(self, vehicles: int = VEHICLES) -> None:
        from repro.mapmatching.noise import synthesize_raw_dataset
        from repro.network.generators import dataset_network
        from repro.stream import feed_events
        from repro.trajectories.datasets import profile

        self.profile = profile(PROFILE)
        self.network = dataset_network(
            PROFILE, scale=NETWORK_SCALE, seed=DATASET_SEED
        )
        self.feeds = synthesize_raw_dataset(
            self.network,
            self.profile.generation_config(),
            vehicles,
            seed=DATASET_SEED,
            noise_sigma=NOISE_SIGMA,
        )
        self.events = list(feed_events(self.feeds))

    def open(self, directory):
        """A fresh sessionizer and writer: the ingest set-up."""
        from repro.stream import AppendableArchiveWriter, TripSessionizer

        sessionizer = TripSessionizer(self.network)
        writer = AppendableArchiveWriter(
            directory,
            self.network,
            default_interval=self.profile.default_interval,
            eta_probability=self.profile.default_eta_probability,
            provenance={
                "profile": PROFILE,
                "dataset_seed": str(DATASET_SEED),
                "network_scale": str(NETWORK_SCALE),
            },
        )
        return sessionizer, writer


@dataclass
class Round:
    """What one round sealed, wrote and took."""

    trips: list
    output: Path
    seconds: float
    compaction: object  # the CompactionStats of drain_compactions
    merge_seconds: float


def ingest_round(feed: Feed, directory, *, instrument=None) -> Round:
    """Replay the feed, seal, compact.

    ``instrument(sessionizer, writer)``, when given, returns the
    observe function to call per fix in place of
    ``sessionizer.observe``; the traced run uses it to time layers.
    """
    from repro.stream import compact, drain_compactions

    sessionizer, writer = feed.open(directory)
    observe = (
        sessionizer.observe
        if instrument is None
        else instrument(sessionizer, writer)
    )
    trips = []
    output = directory / "compacted.utcq"
    started = time.perf_counter()
    for vehicle, point in feed.events:
        for trip in observe(vehicle, point):
            writer.append(trip)
            trips.append(trip)
    for trip in sessionizer.flush():
        writer.append(trip)
        trips.append(trip)
    writer.close()
    merge_started = time.perf_counter()
    compaction = drain_compactions(directory, network=feed.network)
    merge_seconds = time.perf_counter() - merge_started
    compact(directory, output, network=feed.network)
    return Round(
        trips,
        output,
        time.perf_counter() - started,
        compaction,
        merge_seconds,
    )
