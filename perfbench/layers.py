"""The traced run: per-layer numbers from calls into each layer's public
entry points, made from outside the program.

Read path, top to bottom, each layer fed its own slice of the
workload's request stream (so ``query_cold`` stays cold in every
layer):

1. ``WireClient.request`` against a ``repro serve`` process started
   with ``--metrics-out`` (its counters are read after the drain);
2. ``QueryService.submit_many`` on an in-process service configured
   like ``repro serve`` (2 workers, 5 s deadline);
3. ``ShardedQueryEngine.run`` of that service's engine;
4. ``BatchQueryEngine.run`` of each shard's sub-batch of the same
   ``plan()``, in this process, plus the ``query.transport`` codec on
   its answers;
5. ``UTCQQueryProcessor.where/when/range``, one call at a time.

Write path: one ingest round of a fixed 300-vehicle fleet with every
``TripSessionizer.observe`` and ``AppendableArchiveWriter.seal_segment``
call timed, its compacted archive held against the sealed trips
(``checks.check_ingest``), then the sealed trips replayed through
``UTCQCompressor`` and ``StIUIndex``.

Every traced run measures both paths, so every per-layer metric has a
value on both workloads.
"""

from __future__ import annotations

import time

import fixture
import ingest
import query
from checks import check_ingest
from common import WORK, fresh_dir, median, metric, ratio, write_chars

#: requests each read-path layer replays
LAYER_REQUESTS = {"query_cold": 120, "query_hot": 400}


def run(name: str, seed: int, seconds: float):
    """One traced run: ``(problems, attempted, failed, metrics)``.

    ``seconds`` is unused: each layer replays a fixed number of
    operations, so the traced run's length does not depend on speed.
    """
    del seconds
    problems, requests, read = read_path(name, seed)
    write_problems, trips, failed, write = write_path()
    return (
        problems + write_problems, requests + trips, failed, {**read, **write}
    )


# ----------------------------------------------------------------------
# read path
# ----------------------------------------------------------------------
def _timed(call, *args):
    started = time.perf_counter()
    result = call(*args)
    return result, time.perf_counter() - started


def _warm(submit, workload) -> None:
    for request in workload.take(query.WARMUP_REQUESTS[workload.name]):
        submit(request)


def read_path(name: str, seed: int):
    from repro.obs.metrics import parse_prometheus
    from repro.query.engine import (
        BatchQueryEngine,
        RangeQuery,
        ShardedQueryEngine,
        WhereQuery,
    )
    from repro.query.queries import UTCQQueryProcessor
    from repro.query.stiu import StIUIndex
    from repro.query.transport import decode_answers_blob, encode_answers
    from repro.serve import QueryService, ServiceConfig

    workload = query.Workload(name, seed)
    count = LAYER_REQUESTS[name]
    out = {}

    # 1. the wire, against repro serve
    prom = WORK / "trace-serve.prom"
    prom.unlink(missing_ok=True)
    server, client, _ = query.set_up(workload, metrics_out=prom)
    try:
        _warm(client.request, workload)
        wire_requests = workload.take(count)
        wire_answers, wire_s = [], []
        for request in wire_requests:
            result, seconds = _timed(client.request, request)
            wire_answers.append(result.results)
            wire_s.append(seconds)
    finally:
        client.close()
        code = server.stop()
    problems = [] if code == 0 else [f"repro serve exited with {code}"]
    problems += query.check(workload, wire_requests, wire_answers)
    served = parse_prometheus(prom.read_text())
    out["serve.service.degraded_requests"] = metric(
        served.get('repro_service_served_total{mode="batch"}', 0.0)
        + served.get('repro_service_served_total{mode="single"}', 0.0),
        "count",
    )
    out["trace.throughput_per_s"] = metric(
        fixture.REQUEST_SIZE * count / sum(wire_s), "1/s"
    )

    # 2-3. the in-process service and its sharded engine
    service = QueryService(
        workload.shards,
        network=workload.network,
        workers=2,
        config=ServiceConfig(deadline=5.0),
    )
    try:
        before = service.supervisor.stats.snapshot()
        for request in workload.warmup:
            service.submit_many(request)
        during = service.supervisor.stats.snapshot()
        out["serve.supervisor.retries_setup"] = metric(
            during["retries"] - before["retries"], "count"
        )
        _warm(service.submit_many, workload)
        during = service.supervisor.stats.snapshot()
        service_s = []
        for request in workload.take(count):
            response, seconds = _timed(service.submit_many, request)
            if not response.ok:
                problems.append(f"service refused a request: {response.error}")
            service_s.append(seconds)
        after = service.supervisor.stats.snapshot()
        out["serve.supervisor.retries"] = metric(
            after["retries"] - during["retries"], "count"
        )
        out["serve.supervisor.hedges"] = metric(
            after["hedges_launched"] - during["hedges_launched"], "count"
        )
        engine = service.engine
        engine_s, tasks, distinct = [], [], []
        for request in workload.take(count):
            plan = engine.plan(request)
            tasks.append(len(plan.tasks))
            distinct.append(len(plan.slots))
            _, seconds = _timed(engine.run, request)
            engine_s.append(seconds)
    finally:
        service.close()
    out["serve.wire.tax_ms"] = metric(
        1000.0 * (median(wire_s) - median(service_s)), "ms"
    )
    out["serve.service.overhead_ms"] = metric(
        1000.0 * (median(service_s) - median(engine_s)), "ms"
    )
    out["query.engine.shard_tasks_per_request"] = metric(
        sum(tasks) / len(tasks), "count"
    )
    out["query.engine.distinct_per_request"] = metric(
        sum(distinct) / len(distinct), "count"
    )

    # 4. per-shard batch engines on the same plan(), opened here
    planner = ShardedQueryEngine(
        workload.shards, network=workload.network, workers=1
    )
    engines, open_s, first_range_s = {}, [], []
    probe = workload.warmup[-1]
    for path in workload.shards:
        index, seconds = _timed(
            StIUIndex.over_file, workload.network, path
        )
        open_s.append(seconds)
        engines[path] = BatchQueryEngine(workload.network, index.archive, index)
        _, seconds = _timed(engines[path].run, probe)
        first_range_s.append(seconds)
    out["query.stiu.open_ms"] = metric(1000.0 * median(open_s), "ms")
    out["query.stiu.first_range_ms"] = metric(
        1000.0 * median(first_range_s), "ms"
    )

    def run_plan(request, timings=None):
        plan = planner.plan(request)
        slowest = 0.0
        for path, specs in plan.tasks.items():
            answers, seconds = _timed(engines[path].run, specs)
            slowest = max(slowest, seconds)
            if timings is not None:
                blob, encode_s = _timed(encode_answers, answers)
                _, decode_s = _timed(decode_answers_blob, blob)
                timings["encode"].append(encode_s)
                timings["decode"].append(decode_s)
                timings["bytes"] += len(blob)
                timings["answers"] += len(answers)
        return slowest

    _warm(run_plan, workload)
    caches_before = [e.processor.cache.stats() for e in engines.values()]
    counters_before = [_counters(e.processor) for e in engines.values()]
    timings = {"encode": [], "decode": [], "bytes": 0, "answers": 0}
    shard_requests = workload.take(count)
    slowest = [run_plan(request, timings) for request in shard_requests]
    hits = misses = 0
    for engine, before in zip(engines.values(), caches_before):
        for section, counts in engine.processor.cache.stats().items():
            hits += counts["hits"] - before[section]["hits"]
            misses += counts["misses"] - before[section]["misses"]
    decoded = pruned = 0
    for engine, before in zip(engines.values(), counters_before):
        now = _counters(engine.processor)
        decoded += now["instances_decoded"] - before["instances_decoded"]
        pruned += now["trajectories_pruned"] - before["trajectories_pruned"]
    queries = sum(len(r) for r in shard_requests)
    ranges = sum(isinstance(q, RangeQuery) for r in shard_requests for q in r)
    out["query.engine.dispatch_ms"] = metric(
        1000.0 * (median(engine_s) - median(slowest)), "ms"
    )
    out["query.transport.encode_us"] = metric(
        1e6 * median(timings["encode"]), "us"
    )
    out["query.transport.decode_us"] = metric(
        1e6 * median(timings["decode"]), "us"
    )
    out["query.transport.bytes_per_answer"] = metric(
        ratio(timings["bytes"], timings["answers"]), "bytes"
    )
    out["core.decoder.cache_hit_ratio"] = metric(
        ratio(hits, hits + misses), "ratio"
    )
    out["query.queries.instances_decoded_per_query"] = metric(
        decoded / queries, "count"
    )
    out["query.queries.trajectories_pruned_per_range"] = metric(
        ratio(pruned, ranges), "count"
    )

    # 5. one query processor call at a time, each shard with a fresh cache
    processors = {
        path: UTCQQueryProcessor(
            workload.network, engine.processor.archive, engine.processor.index
        )
        for path, engine in engines.items()
    }

    def answer(query_):
        if isinstance(query_, RangeQuery):
            started = time.perf_counter()
            for processor in processors.values():
                processor.range(query_.rect, query_.t, query_.alpha)
            return "range", time.perf_counter() - started
        processor = processors[planner.shard_for(query_.trajectory_id)]
        if isinstance(query_, WhereQuery):
            _, seconds = _timed(
                processor.where, query_.trajectory_id, query_.t, query_.alpha
            )
            return "where", seconds
        _, seconds = _timed(
            processor.when,
            query_.trajectory_id,
            query_.edge,
            query_.relative_distance,
            query_.alpha,
        )
        return "when", seconds

    _warm(lambda request: [answer(q) for q in request], workload)
    by_kind = {"where": [], "when": [], "range": []}
    for request in workload.take(count):
        for query_ in request:
            kind, seconds = answer(query_)
            by_kind[kind].append(seconds)
    for kind, values in by_kind.items():
        out[f"query.queries.{kind}_ms"] = metric(1000.0 * median(values), "ms")
    planner.close()
    for engine in engines.values():
        engine.processor.archive.close()
    return problems, 5 * count, out


def _counters(processor) -> dict:
    counters = processor.counters
    return {
        "instances_decoded": counters.instances_decoded,
        "trajectories_pruned": counters.trajectories_pruned,
    }


# ----------------------------------------------------------------------
# write path
# ----------------------------------------------------------------------
def write_path():
    """``(problems, trips, failed trips, metrics)`` of the write path."""
    from repro.core.archive import CompressedArchive
    from repro.core.compressor import UTCQCompressor
    from repro.io.reader import FileBackedArchive
    from repro.query.stiu import StIUIndex

    feed = ingest.Feed()
    observe_s, seal_s = [], []
    opened = {}

    def instrument(sessionizer, writer):
        opened["sessionizer"] = sessionizer
        seal = writer.seal_segment

        def timed_seal():
            info, seconds = _timed(seal)
            seal_s.append(seconds)
            return info

        def timed_observe(vehicle, point):
            sealed, seconds = _timed(sessionizer.observe, vehicle, point)
            observe_s.append(seconds)
            return sealed

        # append() seals a full segment through this attribute
        writer.seal_segment = timed_seal
        return timed_observe

    written = write_chars()
    done = ingest.ingest_round(
        feed, fresh_dir("trace-ingest"), instrument=instrument
    )
    written = write_chars() - written
    problems, failed = check_ingest(
        feed.network, feed.feeds, done.trips, done.output,
        noise_sigma=ingest.NOISE_SIGMA,
    )
    out = {}
    cache = opened["sessionizer"].matcher.frontier_cache
    out["stream.session.observe_us"] = metric(
        1e6 * sum(observe_s) / len(observe_s), "us"
    )
    out["network.frontier_cache_hit_ratio"] = metric(
        ratio(cache.hits, cache.hits + cache.misses), "ratio"
    )
    out["stream.writer.seal_ms"] = metric(1000.0 * median(seal_s), "ms")
    out["stream.compaction.merge_s"] = metric(done.merge_seconds, "s")
    out["stream.compaction.bytes_rewritten"] = metric(
        done.compaction.bytes_written, "bytes"
    )
    archive_bytes = done.output.stat().st_size
    out["io.bytes_written_per_archive_byte"] = metric(
        written / archive_bytes, "ratio"
    )

    compressor = UTCQCompressor(
        network=feed.network,
        default_interval=feed.profile.default_interval,
        eta_probability=feed.profile.default_eta_probability,
    )
    with FileBackedArchive.open(done.output) as archive:
        params = archive.params
        stats = archive.stats
    compressed, compress_s = [], []
    for trip in done.trips:
        result, seconds = _timed(
            compressor.compress_trajectory,
            trip,
            params,
            compressor.trajectory_rng(trip.trajectory_id),
        )
        compressed.append(result)
        compress_s.append(seconds)
    out["core.compressor.compress_ms"] = metric(
        1000.0 * sum(compress_s) / len(compress_s), "ms"
    )
    build_s = []
    size = 64  # AppendableArchiveWriter's default segment size
    for start in range(0, len(compressed), size):
        segment = CompressedArchive(
            params=params, trajectories=compressed[start:start + size]
        )
        _, seconds = _timed(StIUIndex, feed.network, segment)
        build_s.append(seconds)
    out["query.stiu.build_ms"] = metric(1000.0 * median(build_s), "ms")
    points = sum(len(trip.times) for trip in done.trips)
    for component in ("time", "edge", "distance", "flags", "probability"):
        out[f"core.bits.{component}"] = metric(
            getattr(stats.compressed, component) / points, "bits/pt"
        )
    return problems, len(done.trips), failed, out
