"""Lightweight profiling: accumulating phase timers and event counters.

The minimizer and the benchmark drivers need to answer "where did the
time go" without an external profiler: which Espresso phase dominates,
how often the tautology memo hits, how many raises EXPAND tested.  This
module keeps process-global accumulators that hot paths update with
near-zero overhead; :func:`snapshot` renders them into the plain dict
that the benchmark drivers embed in ``BENCH_perf.json``.

Usage::

    from repro import perf

    with perf.timer("espresso.expand"):
        ...                       # accumulates wall time + call count
    perf.count("taut.memo_hit")   # bumps a counter
    perf.observe("serve.evaluate", 0.0013)  # record a known duration

    perf.reset()                  # start a measurement window
    ...
    data = perf.snapshot()        # {"timers": {...}, "counters": {...}}

Each timer additionally keeps a **bounded latency reservoir**: a
fixed-size ring of the most recent per-call durations
(:data:`RESERVOIR_SIZE`), so :func:`snapshot` can report p50/p95/p99
quantiles — what the serving layer's per-endpoint metrics and the load
benchmarks are built on — without unbounded memory growth on hot paths
that fire millions of times.

The accumulators are per-process: parallel drivers collect a snapshot
inside each worker and merge them with :func:`merge` on the way out.
Quantiles cannot be merged from quantiles, so workers that need merged
tail latencies pass ``samples=True`` to :func:`snapshot`; :func:`merge`
then pools the raw reservoirs and recomputes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence

#: Per-timer latency samples retained for quantile estimation.  A ring:
#: sample ``k`` overwrites slot ``k % RESERVOIR_SIZE``, so long windows
#: keep a bounded, recency-biased population.
RESERVOIR_SIZE = 256

#: Quantiles reported by :func:`snapshot` for every sampled timer.
QUANTILES = (("p50_ms", 0.50), ("p95_ms", 0.95), ("p99_ms", 0.99))

# name -> [total_seconds, calls]
_timers: Dict[str, List[float]] = {}
# name -> count
_counters: Dict[str, int] = {}
# name -> bounded ring of per-call durations (seconds)
_samples: Dict[str, List[float]] = {}
# name -> total samples ever observed (ring write cursor)
_sample_counts: Dict[str, int] = {}


def observe(name: str, seconds: float) -> None:
    """Record one call of ``seconds`` under timer ``name``.

    Equivalent to a :func:`timer` block that took ``seconds``: bumps the
    total/count accumulators and pushes the duration into the bounded
    reservoir.  Callers that measure latency themselves (the serve
    request path times arrival-to-response across an await) use this
    instead of the context manager.
    """
    entry = _timers.get(name)
    if entry is None:
        _timers[name] = [seconds, 1]
    else:
        entry[0] += seconds
        entry[1] += 1
    ring = _samples.get(name)
    if ring is None:
        _samples[name] = [seconds]
        _sample_counts[name] = 1
    else:
        cursor = _sample_counts[name]
        if len(ring) < RESERVOIR_SIZE:
            ring.append(seconds)
        else:
            ring[cursor % RESERVOIR_SIZE] = seconds
        _sample_counts[name] = cursor + 1


@contextmanager
def timer(name: str) -> Iterator[None]:
    """Accumulate wall time, a call count and a latency sample."""
    start = time.perf_counter()
    try:
        yield
    finally:
        observe(name, time.perf_counter() - start)


def count(name: str, amount: int = 1) -> None:
    """Bump the counter ``name`` by ``amount``."""
    _counters[name] = _counters.get(name, 0) + amount


def reset() -> None:
    """Clear all accumulators (start of a measurement window)."""
    _timers.clear()
    _counters.clear()
    _samples.clear()
    _sample_counts.clear()


def quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` (0..1) of ``samples``.

    Deterministic and dependency-free (the benchmark drivers and the
    serve metrics share it); raises ``ValueError`` on an empty input.
    """
    if not samples:
        raise ValueError("quantile of empty sample set")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    lo = int(position)
    hi = min(lo + 1, len(ordered) - 1)
    frac = position - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def _quantile_fields(ring: Sequence[float]) -> Dict[str, float]:
    return {label: round(quantile(ring, q) * 1e3, 6)
            for label, q in QUANTILES}


def snapshot(samples: bool = False) -> dict:
    """The accumulators as a JSON-ready dict (accumulation continues).

    Timer entries carry ``seconds``/``calls`` plus the reservoir's
    ``p50_ms``/``p95_ms``/``p99_ms``.  With ``samples=True`` the raw
    reservoir rides along (millisecond floats) so :func:`merge` can
    pool reservoirs across workers and recompute honest quantiles.
    """
    timers = {}
    for name, entry in sorted(_timers.items()):
        record: dict = {"seconds": round(entry[0], 6), "calls": entry[1]}
        ring = _samples.get(name)
        if ring:
            record.update(_quantile_fields(ring))
            if samples:
                record["samples"] = [round(s * 1e3, 6) for s in ring]
        timers[name] = record
    return {"timers": timers, "counters": dict(sorted(_counters.items()))}


def merge(into: dict, other: dict) -> dict:
    """Merge one :func:`snapshot` dict into another (for parallel workers).

    Totals and counts add.  Quantiles are recomputed from the pooled
    raw samples when either side carries them (``snapshot(samples=
    True)``); entries without raw samples drop their quantile fields —
    a quantile of totals would be a lie.
    """
    for name, entry in other.get("timers", {}).items():
        dst = into.setdefault("timers", {}).setdefault(
            name, {"seconds": 0.0, "calls": 0})
        dst["seconds"] = round(dst["seconds"] + entry["seconds"], 6)
        dst["calls"] += entry["calls"]
        pooled = list(dst.get("samples", [])) + list(entry.get("samples", []))
        if pooled:
            pooled = pooled[-RESERVOIR_SIZE:]
            dst["samples"] = pooled
            dst.update({label: round(quantile(pooled, q), 6)
                        for label, q in QUANTILES})
        else:
            for label, _q in QUANTILES:
                dst.pop(label, None)
    for name, value in other.get("counters", {}).items():
        counters = into.setdefault("counters", {})
        counters[name] = counters.get(name, 0) + value
    return into


def timer_samples(name: str) -> List[float]:
    """The current reservoir of ``name`` in seconds (copy; may be empty)."""
    return list(_samples.get(name, ()))


__all__ = ["QUANTILES", "RESERVOIR_SIZE", "count", "merge", "observe",
           "quantile", "reset", "snapshot", "timer", "timer_samples"]
