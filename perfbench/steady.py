"""Steadiness: run each workload once per seed and print, for every
end-to-end metric, the median, the quartiles and the quartile spread as
a share of the median, beside the metric's bound in ``BENCHMARK.json``.

Run from the checkout root::

    python3 perfbench/steady.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/steady.py --workloads query_cold --seeds 1 2 3 --trace

``--trace`` also makes a traced run per seed and prints the tracing
overhead: the traced run's ``trace.throughput_per_s`` against the
untraced ``throughput_per_s`` of the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr[-2000:])
        raise SystemExit(
            f"{workload} seed {seed} trace {trace}: exit {completed.returncode}"
        )
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, q1, q3, (q3 - q1) / middle if middle else float("inf")


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int,
                        default=config["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for workload in args.workloads:
        runs, traced = [], []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, 0)
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']}",
                  flush=True)
            runs.append(result)
            if args.trace:
                traced.append(run_once(workload, seed, args.seconds, 1))
        print(f"\n{workload} ({len(runs)} seeds)")
        print(f"  {'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>8}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            middle, q1, q3, share = spread(values)
            flag = "" if name == "setup_s" or share <= bound / 3 else "  WIDE"
            print(f"  {name:<20}{middle:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                  f"{share:>9.3f}{bound:>8.2f}{flag}")
            print("    " + " ".join(f"{v:.4g}" for v in values))
        failed = {(r["failed"], r["attempted"]) for r in runs}
        print(f"  failed/attempted per run: {sorted(failed)}")
        if traced:
            overheads = [
                1.0 - t["metrics"]["trace.throughput_per_s"]["value"]
                / r["metrics"]["throughput_per_s"]["value"]
                for r, t in zip(runs, traced)
            ]
            print(f"  tracing overhead (throughput lost): median "
                  f"{100 * statistics.median(overheads):.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
