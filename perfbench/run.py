"""Run one benchmark workload and print its metrics as a JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 10 \\
        --trace 0

Workloads: ``compile``, ``yield``, ``fpga``, ``serve`` and ``cli`` (see
``perfbench/README.md``).  The program is imported from ``src/`` of the
checkout; nothing is installed.  Every run works in a fresh directory
under ``.bench_build/perfbench/`` and removes it when it ends.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``
with the end-to-end metrics (``--trace 0``) or the per-layer metrics of
a traced run (``--trace 1``).  The line before it records the run
context.  ``correct`` is false when an output is wrong or an operation
other than the workload's known failure failed.  Exit status is 0 when
the run completed, whether or not it was correct; set-up failures exit
2 and print no result.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("compile", "yield", "fpga", "serve", "cli")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="nominal length of the timed phase; sets the "
                             "number of rounds of fixed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_workload(name: str, bench):
    if name == "compile":
        from wl_compile import CompileWorkload as cls
    elif name == "yield":
        from wl_yield import YieldWorkload as cls
    elif name == "fpga":
        from wl_fpga import FpgaWorkload as cls
    elif name == "serve":
        from wl_serve import ServeWorkload as cls
    else:
        from wl_cli import CliWorkload as cls
    return cls(bench)


def rounds_for(workload, seconds: float, trace: bool) -> int:
    rounds = max(1, int(round(seconds / workload.ROUND_S)))
    # a traced run alternates plain and traced rounds in pairs
    return 2 * max(1, rounds // 2) if trace else rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources at {SRC}/repro; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    run_dir = os.path.join(ROOT, ".bench_build", "perfbench",
                           f"{args.workload}-{os.getpid()}-{time.time_ns()}")
    os.makedirs(run_dir)
    # the program's store lives in the run directory, never in the tree
    os.environ["REPRO_CACHE_DIR"] = os.path.join(run_dir, "store")

    import harness
    from tracing import Tracer

    bench = harness.Bench(root=ROOT, run_dir=run_dir, seed=args.seed,
                          src=SRC)
    workload = load_workload(args.workload, bench)
    n_rounds = rounds_for(workload, args.seconds, bool(args.trace))
    try:
        workload.setup(n_rounds // 2 if args.trace else n_rounds)
        workload.warm()
        setup_s = time.perf_counter() - T0
        tracer = None
        if args.trace:
            tracer = Tracer()
            workload.trace(tracer)
        ops, wall = harness.measure(workload, n_rounds, tracer)
        errors = workload.check(ops)
    finally:
        # stop the program's processes first: their peak memory is
        # counted once they have been waited for
        workload.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace:
        metrics = traced_metrics(workload, tracer, ops, wall, bench)
    else:
        metrics = end_to_end(workload, ops, wall, setup_s)
    context = harness.run_context(ROOT, SRC)

    result = verdict(ops, errors, workload.known_failures, metrics)
    for op in ops:
        if not op.ok:
            print(f"failed: {op.kind} (round {op.round}): {op.error}",
                  file=sys.stderr)
    for error in errors:
        print(f"wrong output: {error}", file=sys.stderr)
    context.update({"workload": args.workload, "seed": args.seed,
                    "rounds": n_rounds, "trace": args.trace})
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return 0


def verdict(ops, errors, known_failures, metrics) -> dict:
    """The result line.

    A run is correct when every output checked right and no operation
    failed except those of a kind in ``known_failures``: the metrics
    leave failed operations out, so an unexpected failure would
    otherwise read as a faster run or a smaller area.
    """
    failed = [op for op in ops if not op.ok]
    unexpected = [op for op in failed if op.kind not in known_failures]
    return {
        "correct": not errors and not unexpected,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def end_to_end(workload, ops, wall, setup_s) -> dict:
    import harness

    done = [op for op in ops if op.ok]
    area, fmax = workload.quality(ops)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(done) / wall["plain"],
        "p50_ms": harness.median(op.latency_s for op in done) * 1e3,
        "peak_rss_mb": harness.peak_rss_mb(),
        "area_l2": float(area),
        "fmax_mhz": fmax,
    }
    return {name: (values[name], unit)
            for name, (unit, _better) in harness.END_TO_END.items()}


def traced_metrics(workload, tracer, ops, wall, bench) -> dict:
    import harness
    import imports

    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    traced_rounds = len({op.round for op in traced})
    values = {name: 0.0 for name in harness.PER_LAYER}
    values.update(workload.layers(tracer, traced, traced_rounds))
    values.update(imports.import_times(bench))
    plain_rate = len(plain) / wall["plain"]
    traced_rate = len(traced) / wall["traced"]
    values["trace.overhead"] = plain_rate / traced_rate - 1.0
    values["trace.coverage"] = workload.coverage(tracer, traced,
                                                 wall["traced"])
    unknown = set(values) - set(harness.PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: (values[name], unit)
            for name, (unit, _better) in harness.PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(main())
