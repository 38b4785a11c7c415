"""``run.py --selftest``: the checks catch what they exist to catch.

Each case first shows the check passing on the program's real output,
then breaks that output on purpose and shows the check failing:

* an altered answer: one result dropped from a ``where``, a ``when``
  and a ``range`` answer, and a ``range`` answer given a trajectory
  that is nowhere near the rectangle;
* a flipped archive byte: one bit of one record of a freshly ingested
  and compacted archive.
"""

from __future__ import annotations

import random
import shutil
import sys

import fixture
import ingest
from checks import check_answer, check_crc, check_ingest, position_bound
from common import fresh_dir

SELFTEST_VEHICLES = 20


def _report(label: str, passed_clean: bool, caught: bool) -> bool:
    ok = passed_clean and caught
    state = "ok" if ok else "FAILED"
    print(f"{state:6} {label}: clean output "
          f"{'passes' if passed_clean else 'FAILS'}, broken output "
          f"{'caught' if caught else 'NOT caught'}")
    return ok


def altered_answers() -> bool:
    from repro.core.compressor import DEFAULT_ETA_DISTANCE
    from repro.query.brute import BruteForceOracle
    from repro.query.engine import RangeQuery, ShardedQueryEngine, WhenQuery
    from repro.query.engine import WhereQuery
    from repro.trajectories.datasets import profile

    network, trajectories = fixture.dataset()
    oracle = BruteForceOracle(network, trajectories)
    options = {
        "bound": position_bound(network, DEFAULT_ETA_DISTANCE),
        "eta_p": profile(fixture.PROFILE).default_eta_probability,
    }
    stream = fixture.cold_stream(network, trajectories, seed=0)
    wanted = {WhereQuery: None, WhenQuery: None, RangeQuery: None}
    ok = True
    with ShardedQueryEngine(
        fixture.shard_paths(), network=network, workers=1
    ) as engine:
        while None in wanted.values():
            request = next(stream)
            for query, answer in zip(request, engine.run(request)):
                if answer and wanted[type(query)] is None:
                    wanted[type(query)] = (query, answer)
    for kind, (query, answer) in wanted.items():
        clean = not check_answer(oracle, query, answer, **options)
        caught = bool(check_answer(oracle, query, answer[1:], **options))
        ok &= _report(f"{kind.__name__} with a result dropped", clean, caught)
    query, answer = wanted[RangeQuery]
    far = _far_trajectory(oracle, query, trajectories)
    caught = bool(
        check_answer(oracle, query, sorted(answer + [far]), **options)
    )
    ok &= _report("RangeQuery with a far trajectory added", True, caught)
    return ok


def _far_trajectory(oracle, query, trajectories) -> int:
    """A trajectory no PDDP error could put in the query's rectangle."""
    grown = query.rect.__class__(
        query.rect.min_x - 1000, query.rect.min_y - 1000,
        query.rect.max_x + 1000, query.rect.max_y + 1000,
    )
    near = set(oracle.range(grown, query.t, 1e-9))
    for trajectory in trajectories:
        if (
            trajectory.trajectory_id not in near
            and trajectory.start_time <= query.t <= trajectory.end_time
        ):
            return trajectory.trajectory_id
    raise RuntimeError("every trajectory is near the rectangle")


def flipped_byte() -> bool:
    from repro.io.format import read_header

    feed = ingest.Feed(vehicles=SELFTEST_VEHICLES)
    done = ingest.ingest_round(feed, fresh_dir("selftest-ingest"))
    problems, undecodable = check_ingest(
        feed.network, feed.feeds, done.trips, done.output,
        noise_sigma=ingest.NOISE_SIGMA,
    )
    clean = not problems and not undecodable
    broken = done.output.with_name("flipped.utcq")
    shutil.copyfile(done.output, broken)
    with open(broken, "rb") as stream:
        entry = random.Random(0).choice(read_header(stream).directory)
    with open(broken, "r+b") as stream:
        stream.seek(entry.offset + entry.length // 2)
        byte = stream.read(1)[0]
        stream.seek(entry.offset + entry.length // 2)
        stream.write(bytes([byte ^ 0x10]))
    caught = bool(check_crc(broken)) and bool(
        check_ingest(feed.network, feed.feeds, done.trips, broken,
                     noise_sigma=ingest.NOISE_SIGMA)[0]
    )
    return _report("archive with one record byte flipped", clean, caught)


def main() -> int:
    ok = altered_answers()
    ok &= flipped_byte()
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
