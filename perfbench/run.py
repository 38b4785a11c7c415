"""Repo benchmark: ``query_cold`` and ``query_hot``.

Run from the checkout root::

    python3 perfbench/run.py --workload query_cold --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` is a separate run that calls into each
layer of the read and the write path from outside and reports the
per-layer metrics.  A failed
correctness check prints the result with ``correct: false`` and exits 1.
``--selftest`` shows that the checks catch an altered answer and a
flipped archive byte.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import common

WORKLOADS = ("query_cold", "query_hot")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that the checks catch faults, then exit")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_seconds() -> float:
    """``run_seconds`` of ``BENCHMARK.json``, the default run length."""
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        return float(json.load(stream)["run_seconds"])


def main(argv=None) -> int:
    args = parse(argv)
    try:
        common.import_repro()
    except common.BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    common.WORK.mkdir(parents=True, exist_ok=True)
    common.become_subreaper()
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _exit_on_signal)
    try:
        if args.selftest:
            import selftest

            return selftest.main()
        problems, attempted, failed, metrics = measure(args)
    finally:
        common.stop_children()
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    common.emit(not problems, attempted, failed, metrics)
    return 1 if problems else 0


def _exit_on_signal(signum, _frame):
    """Leave through ``main``'s clean-up, which stops every process."""
    raise SystemExit(128 + signum)


def measure(args):
    """``(problems, attempted, failed, metrics)`` of one run."""
    if args.trace:
        import layers

        return layers.run(args.workload, args.seed, args.seconds)
    import query

    return query.run(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
