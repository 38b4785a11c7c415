"""Correctness checks that do not trust the code under test.

Query answers are held against :class:`repro.query.brute.BruteForceOracle`
on the *uncompressed* trajectories; ingest output is held against the
trips the sessionizer sealed and the raw fixes they came from.  Each
check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import os
import zlib

#: a mapped fix may lie at most this many noise sigmas from its raw fix
SIGMA_MULTIPLE = 6.0


# ----------------------------------------------------------------------
# query answers
# ----------------------------------------------------------------------
def position_bound(network, eta_distance: float) -> float:
    """Metres a decoded position may stray: PDDP keeps every relative
    distance within ``eta_distance`` of the original, and a relative
    distance is a fraction of its edge's length."""
    return eta_distance * max(edge.length for edge in network.edges())


def _resized(rect, delta: float):
    from repro.network.grid import Rect

    min_x, min_y = rect.min_x - delta, rect.min_y - delta
    max_x, max_y = rect.max_x + delta, rect.max_y + delta
    if min_x > max_x or min_y > max_y:
        return None  # shrunk to nothing
    return Rect(min_x, min_y, max_x, max_y)


def check_answer(oracle, query, answer, *, bound: float, eta_p: float):
    """Problems with one answer, judged against the oracle.

    ``where`` must match the oracle's located instances exactly (F1 = 1)
    and ``when`` must find every passing instance (recall = 1).  A
    ``range`` answer may differ from the oracle only on a trajectory
    whose membership PDDP's error can flip: in the oracle's answer for
    the rectangle grown by ``bound`` at ``alpha - eta_p``, and not in it
    for the rectangle shrunk by ``bound`` at ``alpha + eta_p``.
    """
    from repro.query.engine import WhenQuery, WhereQuery
    from repro.query.metrics import when_accuracy, where_accuracy

    if isinstance(query, WhereQuery):
        expected = oracle.where(query.trajectory_id, query.t, query.alpha)
        report = where_accuracy(oracle.network, expected, answer)
        if report.f1 != 1.0:
            return [f"{query}: where F1 {report.f1:.4f} != 1"]
        return []
    if isinstance(query, WhenQuery):
        expected = oracle.when(
            query.trajectory_id,
            query.edge,
            query.relative_distance,
            query.alpha,
        )
        report = when_accuracy(expected, answer)
        if report.recall != 1.0:
            return [f"{query}: when recall {report.recall:.4f} != 1"]
        return []
    expected = set(oracle.range(query.rect, query.t, query.alpha))
    flips = expected.symmetric_difference(answer)
    if not flips:
        return []
    grown = set(
        oracle.range(
            _resized(query.rect, bound), query.t, query.alpha - eta_p
        )
    )
    shrunk_rect = _resized(query.rect, -bound)
    shrunk = (
        set(oracle.range(shrunk_rect, query.t, query.alpha + eta_p))
        if shrunk_rect is not None
        else set()
    )
    wrong = sorted(t for t in flips if t not in grown or t in shrunk)
    if wrong:
        return [f"{query}: range answer differs on {wrong} beyond PDDP error"]
    return []


def check_answers(oracle, pairs, *, bound: float, eta_p: float) -> list:
    """``pairs`` of ``(query, answer)``; all problems found."""
    problems = []
    for query, answer in pairs:
        problems.extend(
            check_answer(oracle, query, answer, bound=bound, eta_p=eta_p)
        )
    return problems


# ----------------------------------------------------------------------
# archives
# ----------------------------------------------------------------------
def check_crc(path) -> list:
    """Recompute every record's CRC-32 against the archive directory."""
    from repro.io.format import ArchiveFormatError, read_header

    problems = []
    try:
        with open(path, "rb") as stream:
            header = read_header(stream)
            for entry in header.directory:
                stream.seek(entry.offset)
                record = stream.read(entry.length)
                if zlib.crc32(record) & 0xFFFFFFFF != entry.crc32:
                    problems.append(
                        f"{os.path.basename(path)}: trajectory "
                        f"{entry.trajectory_id} fails its CRC"
                    )
    except ArchiveFormatError as error:
        problems.append(f"{os.path.basename(path)}: {error}")
    return problems


def check_ingest(network, feeds, trips, archive_path, *, noise_sigma):
    """The compacted archive holds exactly the sealed trips.

    * the archive passes its CRC check and holds the sealed trip ids;
    * decoding gives every trip's times and instance paths exactly, and
      its relative distances and probabilities within eta_d and eta_p;
    * probabilities sum to 1, before and after compression;
    * every mapped fix lies within ``SIGMA_MULTIPLE`` noise sigmas of
      the raw fix it was matched from.

    Returns ``(problems, undecodable)``.  ``undecodable`` counts the
    trips whose decode fails on a known fault: PDDP codes a probability
    within eta_p of zero as 0.0, which ``decode_trajectory`` rejects.
    Those trips failed; any other decode error is a problem.
    """
    from repro.core.decoder import decode_trajectory, decode_trajectory_tuples
    from repro.io.format import read_archive

    problems = check_crc(archive_path)
    if problems:
        return problems, 0
    archive = read_archive(archive_path)
    params = archive.params
    stored = {t.trajectory_id: t for t in archive.trajectories}
    sealed = {t.trajectory_id: t for t in trips}
    if set(stored) != set(sealed):
        missing = sorted(set(sealed) - set(stored))[:5]
        extra = sorted(set(stored) - set(sealed))[:5]
        return [f"archive ids differ from sealed trips: missing {missing}, "
                f"extra {extra}"], 0
    raw = _raw_index(feeds)
    limit = SIGMA_MULTIPLE * noise_sigma
    undecodable = 0
    for trajectory_id, trip in sealed.items():
        label = f"trip {trajectory_id}"
        total = sum(i.probability for i in trip.instances)
        if abs(total - 1.0) > 1e-9:
            problems.append(f"{label}: sealed probabilities sum to {total}")
        raw_probabilities = [
            t.probability
            for t in decode_trajectory_tuples(stored[trajectory_id], params)
        ]
        try:
            decoded = decode_trajectory(network, stored[trajectory_id], params)
        except ValueError as error:
            if min(raw_probabilities) > 0.0:
                problems.append(f"{label}: decode failed: {error}")
            else:
                undecodable += 1
            continue
        if list(decoded.times) != list(trip.times):
            problems.append(f"{label}: decoded times differ")
            continue
        if len(decoded.instances) != len(trip.instances):
            problems.append(f"{label}: decoded instance count differs")
            continue
        total = sum(i.probability for i in decoded.instances)
        if abs(total - 1.0) > 1e-9:
            problems.append(f"{label}: decoded probabilities sum to {total}")
        problems.extend(_check_probabilities(
            label, raw_probabilities, trip, params.eta_probability
        ))
        for index, (mine, theirs) in enumerate(
            zip(decoded.instances, trip.instances)
        ):
            where = f"{label} instance {index}"
            if list(mine.path) != list(theirs.path):
                problems.append(f"{where}: decoded path differs")
                continue
            for a, b in zip(mine.locations, theirs.locations):
                if a.edge != b.edge or abs(
                    a.relative_distance(network) - b.relative_distance(network)
                ) > params.eta_distance:
                    problems.append(f"{where}: location {a} vs {b}")
                    break
        problems.extend(_check_mapped(network, trip, raw, limit))
        if len(problems) > 20:
            break
    return problems, undecodable


def _check_probabilities(label, decoded, trip, eta) -> list:
    if len(decoded) != len(trip.instances):
        return [f"{label}: decoded instance count differs"]
    return [
        f"{label} instance {index}: probability {p} vs {i.probability}"
        for index, (p, i) in enumerate(zip(decoded, trip.instances))
        if abs(p - i.probability) > eta
    ]


def _raw_index(feeds) -> dict:
    """``(first time, second time)`` -> raw feeds starting a run there."""
    index: dict = {}
    for feed in feeds:
        points = list(feed)
        for i in range(len(points)):
            key = (points[i].t, points[i + 1].t if i + 1 < len(points) else None)
            index.setdefault(key, []).append((points, i))
    return index


def _check_mapped(network, trip, raw, limit: float) -> list:
    """Find the vehicle feed this trip's times came from, then measure
    every instance's mapped location against the raw fix."""
    times = list(trip.times)
    key = (times[0], times[1] if len(times) > 1 else None)
    for points, start in raw.get(key, ()):
        run = points[start:start + len(times)]
        if [p.t for p in run] != times:
            continue
        worst = 0.0
        for instance in trip.instances:
            for point, location in zip(run, instance.locations):
                x, y = location.position(network)
                worst = max(worst, ((x - point.x) ** 2 + (y - point.y) ** 2)
                            ** 0.5)
        if worst <= limit:
            return []
    return [f"trip {trip.trajectory_id}: no raw feed within {limit:.0f} m of "
            f"its mapped fixes"]
