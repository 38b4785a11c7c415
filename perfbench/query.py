"""``query_cold`` and ``query_hot``: closed-loop requests of 16 queries
from one client over one loopback connection to a ``repro serve``
process.

The client waits for each reply before it sends the next request, as
every ``WireClient`` caller does.  Throughput and latency count only
the time spent inside ``WireClient.request``; making the next request
is left out.
"""

from __future__ import annotations

import random
import sys
import time

import fixture
from checks import check_answer, check_answers, position_bound
from common import Rounds, median, metric, percentile
from server import ServeProcess

#: ``repro serve`` is started this many times per run; setup_s is the median
SETUP_REPEATS = 3
#: requests sent, untimed, between set-up and measurement: query_hot's
#: fill every cache with the hot set; query_cold's fill the workers'
#: decode caches and range memos, until requests stop getting faster
WARMUP_REQUESTS = {"query_hot": 600, "query_cold": 400}
#: timed requests per round; every round ends with one untimed request
#: carrying ``fixture.fault_probe``, so a run is whole rounds
ROUND_REQUESTS = 50
#: counted requests a run needs at least: p99_ms needs ten beyond it
MIN_REQUESTS = 1000
#: answers held against the oracle, per query kind
ORACLE_SAMPLE = {"where": 48, "when": 48, "range": 16}
#: query_cold requests whose queries are re-answered in-process for the
#: wire-equality check; query_hot re-answers every distinct query
COLD_REPLAY_SAMPLE = 80


class Workload:
    """The fixture, its uncompressed twin, and the seeded stream."""

    def __init__(self, name: str, seed: int) -> None:
        from repro.core.compressor import DEFAULT_ETA_DISTANCE
        from repro.query.brute import BruteForceOracle
        from repro.trajectories.datasets import profile

        self.name = name
        self.seed = seed
        self.shards = fixture.shard_paths()
        self.network, self.trajectories = fixture.dataset()
        self.warmup = fixture.warmup_requests(self.network, self.trajectories)
        self.probe = fixture.fault_probe(self.network, self.trajectories)
        self.oracle = BruteForceOracle(self.network, self.trajectories)
        self.bound = position_bound(self.network, DEFAULT_ETA_DISTANCE)
        self.eta_p = profile(fixture.PROFILE).default_eta_probability
        if name == "query_hot":
            pools = fixture.hot_pools(self.network, self.trajectories, seed)
            self.stream = fixture.hot_stream(pools, seed)
        else:
            self.stream = fixture.cold_stream(
                self.network, self.trajectories, seed
            )

    def take(self, count: int) -> list[list]:
        return [next(self.stream) for _ in range(count)]


def set_up(workload: Workload, **serve_options):
    """Start ``repro serve`` and send the warm-up requests.

    Returns ``(server, client, seconds)``: the seconds run from launch
    until every shard has answered every query kind once.
    """
    from repro.serve import WireClient

    server = ServeProcess(workload.shards, **serve_options)
    client = WireClient(server.host, server.port, client_id="perfbench",
                        seed=workload.seed)
    try:
        for request in workload.warmup:
            client.request(request)
    except BaseException:
        client.close()
        server.kill()
        raise
    return server, client, time.perf_counter() - server.started


def timed_loop(client, workload: Workload, seconds: float):
    """Send whole rounds until the counted rounds hold ``seconds`` of
    request time and ``MIN_REQUESTS`` requests (see ``common.Rounds``).

    Returns ``(requests, answers, rounds, attempted, failed,
    problems)``.  A request that raises (shed, deadline, transport)
    fails; so does a fault probe whose answer the oracle rejects.  The
    probe's known wrong answer is the empty one: any other wrong answer
    is a problem.  Probes are not timed.
    """
    from repro.serve import ServeError, WireError

    requests, answers, problems = [], [], []
    rounds = Rounds(seconds, MIN_REQUESTS)
    attempted = failed = 0
    while not rounds.done():
        rounds.start()
        latencies = []
        for request in workload.take(ROUND_REQUESTS):
            attempted += 1
            started = time.perf_counter()
            try:
                result = client.request(request)
            except (ServeError, WireError, OSError) as error:
                failed += 1
                print(f"request failed: {error!r}", file=sys.stderr)
                continue
            latencies.append(time.perf_counter() - started)
            requests.append(request)
            answers.append(result.results)
        rounds.add(sum(latencies), latencies)
        attempted += 1
        answer = client.request([workload.probe]).results[0]
        wrong = check_answer(workload.oracle, workload.probe, answer,
                             bound=workload.bound, eta_p=workload.eta_p)
        if wrong:
            failed += 1
            if answer:
                problems += wrong
    return requests, answers, rounds, attempted, failed, problems


def check(workload: Workload, requests, answers) -> list:
    """Wire answers against the in-process sharded engine and against
    the brute-force oracle on the uncompressed trajectories."""
    from repro.query.engine import ShardedQueryEngine, WhenQuery, WhereQuery

    rng = random.Random(workload.seed * 7919 + 1)
    replayed = requests
    if workload.name == "query_cold" and len(requests) > COLD_REPLAY_SAMPLE:
        replayed = rng.sample(requests, COLD_REPLAY_SAMPLE)
    distinct = list(dict.fromkeys(q for request in replayed for q in request))
    local = {}
    with ShardedQueryEngine(
        workload.shards, network=workload.network, workers=1
    ) as engine:
        for start in range(0, len(distinct), fixture.REQUEST_SIZE):
            batch = distinct[start:start + fixture.REQUEST_SIZE]
            local.update(zip(batch, engine.run(batch)))
    pairs = [
        (query, answer)
        for request, got in zip(requests, answers)
        for query, answer in zip(request, got)
    ]
    problems = [
        f"wire vs in-process: {query} answered {answer!r}, "
        f"not {local[query]!r}"
        for query, answer in pairs
        if query in local and local[query] != answer
    ]

    by_kind = {"where": {}, "when": {}, "range": {}}
    for query, answer in pairs:
        kind = (
            "where" if isinstance(query, WhereQuery)
            else "when" if isinstance(query, WhenQuery)
            else "range"
        )
        by_kind[kind][query] = answer
    sample = []
    for kind, count in ORACLE_SAMPLE.items():
        distinct_answers = list(by_kind[kind].items())
        sample.extend(
            rng.sample(distinct_answers, min(count, len(distinct_answers)))
        )
    problems += check_answers(
        workload.oracle, sample, bound=workload.bound, eta_p=workload.eta_p
    )
    return problems


def run(name: str, seed: int, seconds: float):
    """One untraced run: ``(problems, attempted, failed, metrics)``."""
    workload = Workload(name, seed)
    setups, codes = [], []
    for _ in range(SETUP_REPEATS - 1):
        server, client, seconds_taken = set_up(workload)
        client.close()
        setups.append(seconds_taken)
        codes.append(server.stop())
    server, client, seconds_taken = set_up(workload)
    setups.append(seconds_taken)
    try:
        for request in workload.take(WARMUP_REQUESTS[name]):
            client.request(request)
        requests, answers, rounds, attempted, failed, problems = timed_loop(
            client, workload, seconds
        )
        rss = server.peak_rss_mb()
    finally:
        client.close()
        codes.append(server.stop())
    problems += [f"repro serve exited with {c}" for c in codes if c != 0]
    problems += check(workload, requests, answers)
    from repro.io.reader import FileBackedArchive

    original = compressed = 0
    for path in workload.shards:
        with FileBackedArchive.open(path) as archive:
            original += archive.stats.original.total
            compressed += archive.stats.compressed.total
    counted = rounds.counted()
    latencies = [s for _, _, kept in counted for s in kept]
    print(
        f"{len(counted)} of {len(rounds.rounds)} rounds counted, steal "
        f"{100 * max(r[0] for r in counted):.1f}% at most",
        file=sys.stderr,
    )
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "throughput_per_s": metric(
            fixture.REQUEST_SIZE * len(latencies) / sum(latencies), "1/s"
        ),
        "p50_ms": metric(1000.0 * median(latencies), "ms"),
        "p99_ms": metric(1000.0 * percentile(latencies, 0.99), "ms"),
        "compression_ratio": metric(original / compressed, "ratio"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    return problems, attempted, failed, metrics
