"""The query workloads' archive and their seeded request streams.

The archive is the benchmark's fixed data set, not an input that varies
with ``--seed``: 6,000 CD-profile trajectories compressed once and cut
into four 1,500-trajectory shards, each saved with its ``.stiu``
sidecar.  1,500 trajectories per shard is more than the 1,024 that
``DecodeSpanCache`` keeps per shard by default, so uniform traffic
cannot live in the decode cache.  The archive is built on first use
inside the checkout, in a directory named after a digest of the
program's sources, and reused by later runs of the same sources.

The seed picks the requests.  Every request carries 16 queries: six
``where``, six ``when`` and four ``range``.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import pickle
import random
import shutil
from pathlib import Path

from common import DATASET_SEED, NETWORK_SCALE, PROFILE, ROOT, WORK

SHARDS = 4
PER_SHARD = 1500

REQUEST_SIZE = 16
WHERE_PER_REQUEST = 6
WHEN_PER_REQUEST = 6
RANGE_PER_REQUEST = 4
ALPHA = 0.25
GRID_CELLS_PER_SIDE = 32  # StIUIndex's default grid
RANGE_MARGIN = 200.0  # metres around a point the trajectory passes

#: query_hot's working set: trajectories drawn evenly from every shard
HOT_TRAJECTORIES = 200
HOT_WHERE_POOL = 400
HOT_WHEN_POOL = 400
HOT_RANGE_POOL = 200


def dataset():
    """``(network, trajectories)`` of the fixture, uncompressed.

    The trajectories are generated once, when the shards are built, and
    read back from the fixture directory afterwards.
    """
    from repro.network.generators import dataset_network
    from repro.trajectories.datasets import load_dataset

    saved = fixture_dir() / "trajectories.pickle"
    if saved.is_file():
        network = dataset_network(PROFILE, scale=NETWORK_SCALE,
                                  seed=DATASET_SEED)
        with open(saved, "rb") as stream:
            return network, pickle.load(stream)
    return load_dataset(
        PROFILE,
        SHARDS * PER_SHARD,
        seed=DATASET_SEED,
        network_scale=NETWORK_SCALE,
    )


def provenance() -> dict:
    return {
        "profile": PROFILE,
        "dataset_seed": str(DATASET_SEED),
        "network_scale": str(NETWORK_SCALE),
    }


@functools.cache
def fixture_dir() -> Path:
    """Where the archive of these program sources lives.

    The name is a digest of every file under ``src/repro`` and of the
    benchmark files that set the archive's make-up, so a change to the
    compressor, the format or the dataset gets an archive of its own.
    """
    digest = hashlib.sha256()
    here = Path(__file__).resolve().parent
    sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
    for path in sources + [here / "fixture.py", here / "common.py"]:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return WORK / ("fixture-" + digest.hexdigest()[:16])


def shard_paths() -> list[str]:
    """The shard files, building them first if these sources have none."""
    directory = fixture_dir()
    paths = [str(directory / f"shard-{i}.utcq") for i in range(SHARDS)]
    if (directory / "complete").is_file():
        return paths
    from repro.pipeline import compress_parallel, save_archive_with_index
    from repro.core.archive import CompressedArchive
    from repro.trajectories.datasets import profile

    for stale in WORK.glob("fixture-*"):
        shutil.rmtree(stale, ignore_errors=True)  # other sources' archives
    building = directory.with_name(directory.name + ".building")
    building.mkdir(parents=True)
    network, trajectories = dataset()
    prof = profile(PROFILE)
    archive, _report = compress_parallel(
        network,
        trajectories,
        default_interval=prof.default_interval,
        eta_probability=prof.default_eta_probability,
        workers=2,
    )
    for shard in range(SHARDS):
        part = CompressedArchive(
            params=archive.params,
            trajectories=archive.trajectories[
                shard * PER_SHARD:(shard + 1) * PER_SHARD
            ],
        )
        save_archive_with_index(
            part,
            building / f"shard-{shard}.utcq",
            network,
            provenance=provenance(),
        )
    with open(building / "trajectories.pickle", "wb") as stream:
        pickle.dump(trajectories, stream, protocol=pickle.HIGHEST_PROTOCOL)
    (building / "complete").write_text("ok\n")
    shutil.rmtree(directory, ignore_errors=True)
    os.replace(building, directory)
    return paths


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------
class IndexCells:
    """The cells of the grid ``StIUIndex`` lays over a network by
    default, worked out here from the vertex coordinates alone, without
    ``repro.network.grid``, so the streams are not chosen by the code
    they test."""

    def __init__(self, network) -> None:
        xs = [v.x for v in network.vertices()]
        ys = [v.y for v in network.vertices()]
        self.network = network
        self.min_x, self.min_y = min(xs), min(ys)
        self.width = (max(xs) - self.min_x) / GRID_CELLS_PER_SIDE
        self.height = (max(ys) - self.min_y) / GRID_CELLS_PER_SIDE

    def cell(self, x: float, y: float) -> tuple[int, int]:
        last = GRID_CELLS_PER_SIDE - 1
        col = math.floor((x - self.min_x) / self.width)
        row = math.floor((y - self.min_y) / self.height)
        return min(max(col, 0), last), min(max(row, 0), last)

    def crossed(self, edge, rd: float) -> bool:
        """Whether the edge's point at ``rd`` lies in a cell that holds
        an end of the edge or that the edge crosses for at least half a
        cell side, so that an index sampling the edge every half cell
        side must list it.

        ``GridPartition.cells_of_segment`` samples that way, so it can
        miss a cell an edge crosses for less, and ``when`` then finds
        nothing at a point there.  Such points fail on some seeds only,
        so the streams leave them out and every round sends the one
        fixed point of :func:`fault_probe` instead.
        """
        a = self.network.vertex(edge[0])
        b = self.network.vertex(edge[1])
        dx, dy = b.x - a.x, b.y - a.y
        col, row = self.cell(a.x + dx * rd, a.y + dy * rd)
        # Liang-Barsky: the share of the edge inside that cell
        low, high = 0.0, 1.0
        for delta, start, cell_low, size in (
            (dx, a.x, self.min_x + col * self.width, self.width),
            (dy, a.y, self.min_y + row * self.height, self.height),
        ):
            if delta == 0.0:
                continue
            t0 = (cell_low - start) / delta
            t1 = (cell_low + size - start) / delta
            low, high = max(low, min(t0, t1)), min(high, max(t0, t1))
        if low <= 0.0 or high >= 1.0:
            return True
        half_side = min(self.width, self.height) / 2.0
        # a hair over half: the program's grid box has a tiny margin
        return (high - low) * math.hypot(dx, dy) >= half_side * (1 + 1e-6)


def _where(rng, trajectory):
    from repro.query.engine import WhereQuery

    t = rng.randint(trajectory.start_time, trajectory.end_time)
    return WhereQuery(trajectory.trajectory_id, t, ALPHA)


def _when_at(network, trajectory, location):
    from repro.query.engine import WhenQuery

    rd = location.ndist / network.edge_length(*location.edge)
    return WhenQuery(
        trajectory.trajectory_id, location.edge, min(rd, 0.999), ALPHA
    )


def _when(rng, cells, trajectory):
    """A point the likeliest instance passes, in a cell its edge
    crosses (see :meth:`IndexCells.crossed`), or ``None`` when as many
    random draws as the instance has points find none."""
    locations = trajectory.best_instance().locations
    for _ in locations:
        query = _when_at(cells.network, trajectory, rng.choice(locations))
        if cells.crossed(query.edge, query.relative_distance):
            return query
    return None


def fault_probe(network, trajectories):
    """A ``when`` query the fault of :meth:`IndexCells.crossed` answers
    wrongly on every run: trajectory 1373's second fix lies in a cell
    its first edge clips and the index leaves out, so ``when`` returns
    nothing there."""
    trajectory = trajectories[1373]
    return _when_at(
        network, trajectory, trajectory.best_instance().locations[1]
    )


def _range(rng, network, trajectory):
    """A square around where the trajectory's likeliest instance is at
    one of its sample times, queried at that time."""
    from repro.network.grid import Rect
    from repro.query.engine import RangeQuery

    instance = trajectory.best_instance()
    index = rng.randrange(len(instance.locations))
    x, y = instance.locations[index].position(network)
    return RangeQuery(
        Rect(
            x - RANGE_MARGIN,
            y - RANGE_MARGIN,
            x + RANGE_MARGIN,
            y + RANGE_MARGIN,
        ),
        trajectory.times[index],
        ALPHA,
    )


def cold_stream(network, trajectories, seed: int):
    """Endless requests over uniformly drawn trajectories; no query
    repeats within a stream."""
    rng = random.Random(seed)
    cells = IndexCells(network)
    seen: set = set()

    def fresh(make):
        while True:
            query = make(rng.choice(trajectories))
            if query is not None and query not in seen:
                seen.add(query)
                return query

    while True:
        request = (
            [fresh(lambda t: _where(rng, t)) for _ in range(WHERE_PER_REQUEST)]
            + [
                fresh(lambda t: _when(rng, cells, t))
                for _ in range(WHEN_PER_REQUEST)
            ]
            + [
                fresh(lambda t: _range(rng, network, t))
                for _ in range(RANGE_PER_REQUEST)
            ]
        )
        yield request


def hot_pools(network, trajectories, seed: int):
    """Distinct where/when/range pools over ``HOT_TRAJECTORIES``
    trajectories, ``HOT_TRAJECTORIES // SHARDS`` from every shard."""
    rng = random.Random(seed)
    cells = IndexCells(network)
    hot = []
    for shard in range(SHARDS):
        members = trajectories[shard * PER_SHARD:(shard + 1) * PER_SHARD]
        hot.extend(rng.sample(members, HOT_TRAJECTORIES // SHARDS))

    def pool(make, size):
        found: dict = {}
        while len(found) < size:
            query = make(rng.choice(hot))
            if query is not None:
                found.setdefault(query, None)
        return list(found)

    return (
        pool(lambda t: _where(rng, t), HOT_WHERE_POOL),
        pool(lambda t: _when(rng, cells, t), HOT_WHEN_POOL),
        pool(lambda t: _range(rng, network, t), HOT_RANGE_POOL),
    )


def hot_stream(pools, seed: int):
    """Endless requests drawn from the pools with Zipf weights
    ``1 / (rank + 1)``: a few queries dominate, as popular places do."""
    rng = random.Random(seed + 1)
    where, when, range_ = pools
    weights = [[1.0 / (rank + 1) for rank in range(len(p))] for p in pools]
    while True:
        yield (
            rng.choices(where, weights=weights[0], k=WHERE_PER_REQUEST)
            + rng.choices(when, weights=weights[1], k=WHEN_PER_REQUEST)
            + rng.choices(range_, weights=weights[2], k=RANGE_PER_REQUEST)
        )


def warmup_requests(network, trajectories) -> list[list]:
    """What set-up ends with: every shard answers every query kind once.

    One request of ``where`` queries and one of ``when`` queries, one
    query per shard each, then one ``range`` request, which fans out to
    every shard.
    """
    rng = random.Random(0)
    cells = IndexCells(network)
    shards = [
        trajectories[shard * PER_SHARD:(shard + 1) * PER_SHARD]
        for shard in range(SHARDS)
    ]
    whens = [
        next(filter(None, (_when(rng, cells, t) for t in members)))
        for members in shards
    ]
    return [
        [_where(rng, members[0]) for members in shards],
        whens,
        [_range(rng, network, shards[0][0])],
    ]
