"""The measurement loop, metric names and run context shared by workloads.

A workload object provides:

* ``setup(n_draws)`` — make every round's inputs from the seed, start
  servers; untimed;
* ``warm()`` — run each distinct kind of operation once, untimed;
* ``run_round(draw)`` — run the operation list on input draw ``draw`` and
  return one :class:`Op` per operation (with its latency).  Every round
  has the same kinds of operation in the same order; where the inputs
  come from the seed, each round draws its own, so one run averages
  over several draws.  Optional ``prepare_round(draw, traced)`` and
  ``finish_round(draw, traced)`` run just outside the timed region;
* ``check(ops)`` — check every output; returns error strings;
* ``quality(ops)`` — ``(area_l2, fmax_mhz)`` over the distinct arrays;
* ``trace(tracer)`` — declare the layer boundaries to time;
* ``layers(tracer, traced_ops, n_rounds)`` — per-layer metrics;
* ``coverage(tracer, traced_ops, wall)`` — share of wall time the
  top-level layers explain;
* ``close()`` — stop every process the workload started.

``ROUND_S`` is the nominal time of one round on the reference host.  A
run does ``max(1, round(seconds / ROUND_S))`` rounds, so the work is
fixed by ``--seed`` and ``--seconds`` and does not depend on how fast
the host is.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "area_l2": ("L2", "lower"),
    "fmax_mhz": ("MHz", "higher"),
}

#: Per-layer metrics of the traced run: name -> (unit, better).  Times
#: and counts are per round of the workload's operation list; a layer
#: that does not run on a workload reads 0 there.
PER_LAYER = {
    "espresso.expand_s": ("s", "lower"),
    "espresso.reduce_s": ("s", "lower"),
    "espresso.irredundant_s": ("s", "lower"),
    "espresso.essential_s": ("s", "lower"),
    "espresso.make_sparse_s": ("s", "lower"),
    "espresso.phase_s": ("s", "lower"),
    "logic.complement_s": ("s", "lower"),
    "espresso.cubes_in": ("count", "lower"),
    "espresso.cubes_out": ("count", "lower"),
    "logic.taut_memo_hit_ratio": ("ratio", "higher"),
    "mapping.map_s": ("s", "lower"),
    "mapping.partition_s": ("s", "lower"),
    "store.get_s": ("s", "lower"),
    "store.put_s": ("s", "lower"),
    "store.hits": ("count", "higher"),
    "store.misses": ("count", "lower"),
    "store.bytes_written": ("bytes", "lower"),
    "defects.sample_s": ("s", "lower"),
    "repair.batch_s": ("s", "lower"),
    "repair.match_s": ("s", "lower"),
    "repair.match_calls": ("count", "lower"),
    "repair.reminimize_s": ("s", "lower"),
    "repair.reminimize_calls": ("count", "lower"),
    "repair.repaired_yield": ("ratio", "higher"),
    "repair.spare_rows_used": ("count", "lower"),
    "eval.batch.eval_s": ("s", "lower"),
    "eval.batch.pack_s": ("s", "lower"),
    "eval.batch.pairs": ("count", "lower"),
    "eval.batch.vectors": ("count", "lower"),
    "runner.overhead_s": ("s", "lower"),
    "fpga.netlist_s": ("s", "lower"),
    "fpga.place_s": ("s", "lower"),
    "fpga.route_s": ("s", "lower"),
    "fpga.timing_s": ("s", "lower"),
    "fpga.place.moves_evaluated": ("count", "lower"),
    "fpga.route.iterations": ("count", "lower"),
    "fpga.route.overflow_segments": ("count", "lower"),
    "fpga.route.wirelength": ("count", "lower"),
    "serve.evaluate_p50_ms": ("ms", "lower"),
    "serve.minimize_hit_p50_ms": ("ms", "lower"),
    "serve.minimize_miss_p50_ms": ("ms", "lower"),
    "serve.server_evaluate_p50_ms": ("ms", "lower"),
    "serve.batch.flush_p50_ms": ("ms", "lower"),
    "serve.batch.members_per_flush": ("count", "higher"),
    "serve.batch.full_flush_ratio": ("ratio", "higher"),
    "serve.errors": ("count", "lower"),
    "serve.worker.recycles": ("count", "lower"),
    "cli.help_ms": ("ms", "lower"),
    "cli.tech_ls_ms": ("ms", "lower"),
    "cli.table1_ms": ("ms", "lower"),
    "cli.info_ms": ("ms", "lower"),
    "cli.minimize_ms": ("ms", "lower"),
    "cli.cache_stats_ms": ("ms", "lower"),
    "cli.serve_stdio_ms": ("ms", "lower"),
    "import.repro_ms": ("ms", "lower"),
    "import.numpy_ms": ("ms", "lower"),
    "import.networkx_ms": ("ms", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
}


@dataclass
class Op:
    """One timed operation."""

    kind: str
    latency_s: float
    ok: bool = True
    output: Any = None
    error: Optional[str] = None
    round: int = 0
    traced: bool = False
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Bench:
    """Where the benchmark runs and with what."""

    root: str
    run_dir: str
    seed: int
    src: str

    def env(self, **extra: str) -> Dict[str, str]:
        """Environment for program subprocesses run from ``src``."""
        env = dict(os.environ)
        path = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = self.src + (os.pathsep + path if path else "")
        env.update(extra)
        return env


def timed(kind: str, fn, *args, **kwargs) -> Op:
    """Run one in-process operation and time it from outside."""
    start = time.perf_counter()
    try:
        output = fn(*args, **kwargs)
    except Exception as exc:  # an operation failure is counted, not fatal
        return Op(kind, time.perf_counter() - start, ok=False,
                  error=f"{type(exc).__name__}: {exc}")
    return Op(kind, time.perf_counter() - start, output=output)


def peak_rss_mb() -> float:
    """Largest resident set of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_context(root: str, src: str) -> Dict[str, Any]:
    """Commit, kernel backend, cores and interpreter versions."""
    commit = None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    import numpy
    from repro import kernels
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "commit": commit,
        "src_digest": _tree_digest(src),
        "backend": kernels.backend(),
        "cores": os.cpu_count(),
        "usable_cores": usable,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _tree_digest(src: str) -> str:
    """SHA-256 over the program's Python sources (for checkouts without
    git metadata: two runs with equal digests ran the same code)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def fresh_memos() -> None:
    """Empty the program's content-keyed tautology memo.

    Some inputs recur across rounds (the generated cells, Table 2's
    setting, the paired rounds of a traced run).  Without this a recurring
    input would find its tautology verdicts already memoized, as no
    process meeting it for the first time does; clearing the memo before
    each round makes every round start from the same state.
    """
    from repro.logic import tautology

    tautology._TAUT_MEMO.clear()


def measure(workload, n_rounds: int, tracer=None
            ) -> Tuple[List[Op], Dict[str, float]]:
    """Run the timed rounds.

    Untraced runs time every round plainly.  A traced run runs each
    round's inputs twice, plain and then traced, so its overhead is
    measured against the same work in the same run; per-layer figures
    come from traced rounds only.
    """
    from repro import perf

    ops: List[Op] = []
    wall = {"plain": 0.0, "traced": 0.0}
    prepare = getattr(workload, "prepare_round", None)
    finish = getattr(workload, "finish_round", None)
    for index in range(n_rounds):
        traced = tracer is not None and index % 2 == 1
        draw = index // 2 if tracer is not None else index
        fresh_memos()
        if prepare is not None:
            prepare(draw, traced)
        if traced:
            tracer.install()
            perf.reset()
        start = time.perf_counter()
        try:
            round_ops = workload.run_round(draw)
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.uninstall()
                snap = perf.snapshot()
                for name, entry in snap["timers"].items():
                    tracer.count("perf:" + name, entry["seconds"])
                for name, value in snap["counters"].items():
                    tracer.count("perf:" + name, value)
        if finish is not None:
            finish(draw, traced)
        for op in round_ops:
            op.round = index
            op.traced = traced
        ops.extend(round_ops)
        wall["traced" if traced else "plain"] += elapsed
    return ops, wall
