"""Steadiness check: repeat one workload and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload fpga --runs 10 --first-seed 1

Runs ``perfbench/run.py`` once per seed, one after another, and prints
for every metric its median, first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(q3 - q1) / median``, next to the bound ``BENCHMARK.json`` gives it.
With ``--compare`` it also prints how far each median moved from an
earlier output of the command (two sets of the same commit taken at
different times should agree within the bounds).  The last line is the
same summary as JSON.  The bounds in ``BENCHMARK.json`` were chosen
from this command's output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {done.returncode}\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def summarize(values: List[float]) -> Dict[str, float]:
    q1, middle, q3 = statistics.quantiles(values, n=4)
    return {"median": middle, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / middle if middle else 0.0,
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--compare", metavar="FILE",
                        help="an earlier output of this command; print "
                             "how far each median moved since")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, seconds)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"wall_s={result['wall_s']:.1f} "
              + " ".join(f"{name}={entry['value']:.6g}"
                         for name, entry in result["metrics"].items()),
              flush=True)

    shares = sorted({r["failed"] / r["attempted"] for r in results})
    summary = {"workload": args.workload, "runs": args.runs,
               "seconds": seconds, "correct": all(r["correct"]
                                                  for r in results),
               "failed_shares": shares, "metrics": {}}
    print(f"\n{'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        stats = summarize([r["metrics"][name]["value"] for r in results])
        stats["bound"] = bounds.get(name)
        summary["metrics"][name] = stats
        bound = "" if stats["bound"] is None else f"{stats['bound']:.2f}"
        print(f"{name:<32} {stats['median']:>14.6g} {stats['q1']:>14.6g} "
              f"{stats['q3']:>14.6g} {stats['spread']:>8.4f} {bound:>6}")
    print(f"failed share per run: {shares}")
    print(f"wall time per run: max {max(r['wall_s'] for r in results):.1f} s,"
          f" total {sum(r['wall_s'] for r in results):.0f} s")
    if args.compare:
        compare(summary, args.compare)
    print(json.dumps(summary, sort_keys=True))
    return 0


def compare(summary: dict, path: str) -> None:
    """Print each median's change against an earlier set of runs.

    The change is ``(new - old) / old``; ``over`` marks a change larger
    than the metric's bound in either direction.
    """
    with open(path) as handle:
        earlier = json.loads(handle.read().strip().splitlines()[-1])
    print(f"\n{'metric':<32} {'earlier':>14} {'now':>14} {'change':>8} "
          f"{'bound':>6}")
    for name, stats in summary["metrics"].items():
        before = earlier["metrics"][name]["median"]
        change = (stats["median"] - before) / before if before else 0.0
        bound = stats["bound"]
        flag = " over" if bound is not None and abs(change) > bound else ""
        print(f"{name:<32} {before:>14.6g} {stats['median']:>14.6g} "
              f"{change:>8.4f} {bound if bound is not None else '':>6}"
              f"{flag}")
        stats["change"] = change


if __name__ == "__main__":
    sys.exit(main())
