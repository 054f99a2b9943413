"""Seeded chaos soak: the serving stack under a deterministic fault diet.

Two segments, one verdict:

* **store segment** — a deterministic ``eval_batch`` workload through a
  fresh :class:`~repro.store.service.SynthesisService` while the store
  disk tier misbehaves (torn writes, fsync errors, corrupt-on-read,
  lock stalls, publication hangs).  Every returned payload must be
  byte-identical to a fault-free oracle service's answer: the store is
  allowed to lose cache entries, never to serve wrong ones.
* **serve segment** — the PR 7 load shape (pipelined concurrent clients
  over loopback TCP, micro-batched evaluates plus minimize traffic)
  replayed twice: once fault-free (the oracle run) and once with worker
  crashes, poisoned results, connection resets mid-reply, delayed
  flushes and forced overload — while the resilient clients retry with
  jittered backoff and the worker bridge's circuit breaker guards the
  pool.  Invariants: **zero hangs** (every request resolves within its
  wall budget), **zero wrong bytes** (every *completed* reply equals
  the oracle run's reply), bounded p99 degradation.

Fault schedules are content-addressed (:meth:`FaultPlan.key`); the
whole soak is reproducible from ``(seed, spec)``.  Entry points:
``repro chaos`` (CLI) and ``benchmarks/bench_chaos.py`` (the
``chaos_soak`` BENCH_perf.json record).
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.registry import FaultPlan, parse_spec

#: Default store-segment schedule: every disk-tier failpoint armed at a
#: few percent (publication *hang*, not crash — the in-process segment
#: must not exit the harness).
DEFAULT_STORE_FAULTS = ("store.disk_write:torn@0.06;"
                        "store.disk_write:io_error@0.03;"
                        "store.fsync:io_error@0.04;"
                        "store.disk_read:corrupt@0.05;"
                        "store.lock:stall@0.03,ms=5;"
                        "store.publish:hang@0.02,ms=10")

#: Default serve-segment schedule: worker and connection failpoints at
#: a composite rate comfortably past the 2%% acceptance floor.
DEFAULT_SERVE_FAULTS = ("worker.task:crash@0.03;"
                        "worker.result:poison@0.04;"
                        "serve.conn:reset@0.04;"
                        "serve.flush:delay@0.05,ms=2;"
                        "serve.overload:force@0.03")


@dataclass
class ChaosSettings:
    """One soak's knobs (all deterministic given ``seed``)."""

    seed: int = 7
    store_ops: int = 80
    requests: int = 160
    clients: int = 4
    jobs: int = 2
    store_faults: str = DEFAULT_STORE_FAULTS
    serve_faults: str = DEFAULT_SERVE_FAULTS
    #: Per-request wall budget in the faulted serve pass; expiry is a
    #: *hang* (the invariant the soak exists to catch).
    hang_budget_s: float = 60.0
    #: Worker-bridge per-attempt timeout during the soak.
    worker_timeout_s: float = 10.0
    #: ``ok`` bound on faulted-vs-oracle p99 (recycles and retries cost
    #: real time; unbounded degradation would hide livelock).
    max_p99_ratio: float = 100.0


def fault_keys(settings: ChaosSettings) -> Dict[str, str]:
    """Content addresses of the soak's two fault schedules."""
    return {
        "store": FaultPlan(parse_spec(settings.store_faults),
                           settings.seed).key(),
        "serve": FaultPlan(parse_spec(settings.serve_faults),
                           settings.seed).key(),
    }


def _p99_ms(latencies: List[float]) -> float:
    from repro import perf
    if not latencies:
        return 0.0
    return round(perf.quantile(latencies, 0.99) * 1e3, 3)


def _fault_counters() -> Dict[str, int]:
    """The run's fault/retry/breaker counters out of the perf snapshot."""
    from repro import perf
    counters = perf.snapshot()["counters"]
    prefixes = ("faults.", "retries.", "breaker.", "serve.worker.",
                "store.put_errors", "store.corrupt", "store.orphans",
                "store.quarantine")
    return {name: value for name, value in sorted(counters.items())
            if name.startswith(prefixes)}


def _injected_rate(counters: Dict[str, int]) -> Tuple[int, int, float]:
    """(injected, checked, rate) across the parent-process failpoints."""
    injected = counters.get("faults.injected", 0)
    checked = sum(value for name, value in counters.items()
                  if name.startswith("faults.checked."))
    return injected, checked, (injected / checked if checked else 0.0)


# ----------------------------------------------------------------------
# store segment
# ----------------------------------------------------------------------
def _store_workload(seed: int, n_unique: int = 12):
    """Deterministic (covers, minterms) eval-batch requests."""
    from repro.logic.function import BooleanFunction

    covers = [BooleanFunction.random(6, 2, 8, seed=seed + s).on_set
              for s in range(4)]
    workload = []
    for i in range(n_unique):
        group = [covers[i % len(covers)], covers[(i + 1) % len(covers)]]
        minterms = [(i * 17 + j * 13 + 5) % 64 for j in range(6)]
        workload.append((group, minterms))
    return workload


def run_store_chaos(settings: ChaosSettings) -> Dict[str, Any]:
    """The store segment: byte identity while the disk tier misbehaves."""
    from repro import faults, perf
    from repro.serve import protocol
    from repro.store.service import SynthesisService
    from repro.store.store import ArtifactStore

    workload = _store_workload(settings.seed)

    # fault-free oracle answers (one per unique request)
    oracle_dir = tempfile.mkdtemp(prefix="repro-chaos-oracle-")
    oracle = SynthesisService(ArtifactStore(oracle_dir), enabled=True)
    expected = [protocol.dumps(
        {"masks": oracle.evaluate_batch(covers, minterms=minterms)})
        for covers, minterms in workload]

    # the faulted pass: memory tier off so repeats really hit the disk
    # tier (and its corrupt-on-read / quarantine paths)
    chaos_dir = tempfile.mkdtemp(prefix="repro-chaos-store-")
    service = SynthesisService(ArtifactStore(chaos_dir, memory_entries=0),
                               enabled=True)
    perf.reset()
    faults.configure(settings.store_faults, settings.seed)
    mismatches = failures = 0
    latencies: List[float] = []
    try:
        for i in range(settings.store_ops):
            covers, minterms = workload[i % len(workload)]
            t0 = time.perf_counter()
            try:
                masks = service.evaluate_batch(covers, minterms=minterms)
            except Exception:  # noqa: BLE001 - the soak counts, not raises
                failures += 1
                continue
            latencies.append(time.perf_counter() - t0)
            if protocol.dumps({"masks": masks}) != expected[i % len(workload)]:
                mismatches += 1
    finally:
        faults.configure(None)
    counters = _fault_counters()
    injected, checked, rate = _injected_rate(counters)
    store_stats = service.store.stats()
    return {
        "ops": settings.store_ops,
        "completed": len(latencies),
        "failures": failures,
        "mismatches": mismatches,
        "p99_ms": _p99_ms(latencies),
        "injected": injected,
        "checked": checked,
        "injected_rate": round(rate, 4),
        "quarantined": store_stats["quarantined"],
        "counters": counters,
    }


# ----------------------------------------------------------------------
# serve segment
# ----------------------------------------------------------------------
def _serve_workload(seed: int, n_requests: int):
    """Evaluate-heavy request mix with minimize traffic every 5th."""
    from repro.logic.function import BooleanFunction
    from repro.store import codecs

    covers = [codecs.encode_cover(
        BooleanFunction.random(6, 2, 8, seed=seed + s).on_set)
        for s in range(4)]
    minimizers = [codecs.encode_cover(
        BooleanFunction.random(6, 2, 10, seed=seed + 50 + s).on_set)
        for s in range(3)]
    requests = []
    for i in range(n_requests):
        if i % 5 == 4:
            requests.append(("minimize",
                             {"cover": minimizers[i % len(minimizers)]}))
        else:
            requests.append(("evaluate",
                             {"cover": covers[i % len(covers)],
                              "minterms": [(i * 13 + 5) % 64]}))
    return requests


async def _soak_pass(settings: ChaosSettings, workload, pool,
                     faulted: bool) -> Dict[str, Any]:
    """One serve pass; returns per-request outcomes and latencies."""
    from repro.serve import (AsyncServeClient, RetryPolicy, ServeConfig,
                             ServeError, SynthesisServer, WorkerBridge)
    from repro.serve.workers import CircuitBreaker
    from repro.serve import protocol

    server = SynthesisServer(
        ServeConfig(max_batch=8, linger_us=500, queue_limit=64),
        executor=WorkerBridge(pool=pool, timeout=settings.worker_timeout_s,
                              retries=3, backoff=0.05,
                              breaker=CircuitBreaker(threshold=5,
                                                     cooldown=0.5)))
    host, port = await server.start_tcp()
    clients = []
    for c in range(settings.clients):
        policy = RetryPolicy(retries=6, base=0.02, cap=0.5,
                             deadline=settings.worker_timeout_s * 2,
                             seed=settings.seed * 1000 + c)
        clients.append(await AsyncServeClient(policy).connect(host, port))

    outcomes: List[Optional[str]] = [None] * len(workload)
    errors: List[Optional[str]] = [None] * len(workload)
    latencies: List[Optional[float]] = [None] * len(workload)
    hangs = 0

    async def one(i: int, op: str, params: dict) -> None:
        nonlocal hangs
        t0 = time.perf_counter()
        try:
            result = await asyncio.wait_for(
                clients[i % len(clients)].request(op, params),
                timeout=settings.hang_budget_s)
        except asyncio.TimeoutError:
            hangs += 1
            errors[i] = "hang"
            return
        except ServeError as exc:
            errors[i] = exc.code
            return
        except Exception as exc:  # noqa: BLE001 - exhausted retries
            errors[i] = type(exc).__name__
            return
        outcomes[i] = protocol.dumps(result)
        latencies[i] = time.perf_counter() - t0

    await asyncio.gather(*[one(i, op, params)
                           for i, (op, params) in enumerate(workload)])
    for client in clients:
        try:
            await client.close()
        except Exception:  # noqa: BLE001 - resets mid-close are fine
            pass
    # drain twice, concurrently: the soak exercises drain idempotency
    # under whatever conn faults are still armed
    await asyncio.gather(server.drain(), server.drain())
    completed = [l for l in latencies if l is not None]
    return {"outcomes": outcomes, "errors": errors, "hangs": hangs,
            "completed": len(completed), "p99_ms": _p99_ms(completed),
            "faulted": faulted}


def run_serve_chaos(settings: ChaosSettings) -> Dict[str, Any]:
    """The serve segment: oracle pass, then the same load under faults."""
    from repro import faults, perf
    from repro.runner import WarmPool, run_tasks

    workload = _serve_workload(settings.seed, settings.requests)

    def one_pass(faulted: bool) -> Dict[str, Any]:
        os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(
            prefix="repro-chaos-serve-")
        from repro.store.service import reset_service
        reset_service()
        if faulted:
            faults.install(settings.serve_faults, settings.seed)
        pool = WarmPool(jobs=settings.jobs)
        try:
            # fork+import the workers up front so neither pass's
            # latency quantiles pay worker spin-up (the faulted pass's
            # recycles still pay theirs — that IS the degradation
            # being measured)
            run_tasks(_noop_probe, [("probe", None)], pool=pool,
                      timeout=120.0).raise_on_failure()
            return asyncio.run(_soak_pass(settings, workload, pool,
                                          faulted))
        finally:
            pool.shutdown()
            if faulted:
                faults.install(None)

    oracle = one_pass(faulted=False)
    if oracle["hangs"] or oracle["completed"] != len(workload):
        raise RuntimeError(
            f"oracle pass incomplete: {oracle['completed']}/"
            f"{len(workload)} completed, {oracle['hangs']} hangs")
    perf.reset()
    chaos = one_pass(faulted=True)

    mismatches = sum(
        1 for served, expect in zip(chaos["outcomes"], oracle["outcomes"])
        if served is not None and served != expect)
    counters = _fault_counters()
    injected, checked, rate = _injected_rate(counters)
    error_codes: Dict[str, int] = {}
    for code in chaos["errors"]:
        if code is not None:
            error_codes[code] = error_codes.get(code, 0) + 1
    return {
        "requests": len(workload),
        "clients": settings.clients,
        "completed": chaos["completed"],
        "failed": len(workload) - chaos["completed"],
        "error_codes": error_codes,
        "hangs": chaos["hangs"],
        "mismatches": mismatches,
        "oracle_p99_ms": oracle["p99_ms"],
        "faulted_p99_ms": chaos["p99_ms"],
        "injected": injected,
        "checked": checked,
        "injected_rate": round(rate, 4),
        "counters": counters,
    }


def _noop_probe(_payload):
    """Picklable worker warm-up task."""
    return None


def quiet_asyncio_log() -> None:
    """Silence asyncio's per-write warnings on aborted transports.

    Injected connection resets make the server write replies into
    aborted sockets by design; asyncio logs ``socket.send() raised
    exception`` for each one, which buries the soak's real output.
    """
    import logging
    logging.getLogger("asyncio").setLevel(logging.ERROR)


# ----------------------------------------------------------------------
# the whole soak
# ----------------------------------------------------------------------
def run_chaos(settings: Optional[ChaosSettings] = None) -> Dict[str, Any]:
    """Run both segments; returns the JSON-ready soak verdict.

    ``ok`` requires zero hangs, zero byte mismatches in either segment,
    and a completed-request majority in the faulted serve pass.
    """
    settings = settings or ChaosSettings()
    t0 = time.perf_counter()
    store = run_store_chaos(settings)
    serve = run_serve_chaos(settings)
    injected = store["injected"] + serve["injected"]
    checked = store["checked"] + serve["checked"]
    identical = store["mismatches"] == 0 and serve["mismatches"] == 0
    hangs = serve["hangs"]
    completed_frac = serve["completed"] / max(1, serve["requests"])
    p99_ratio = (serve["faulted_p99_ms"] / serve["oracle_p99_ms"]
                 if serve["oracle_p99_ms"] else 0.0)
    ok = (identical and hangs == 0 and store["failures"] == 0
          and completed_frac >= 0.5
          and p99_ratio <= settings.max_p99_ratio)
    return {
        "seed": settings.seed,
        "fault_keys": fault_keys(settings),
        "faults": {"store": settings.store_faults,
                   "serve": settings.serve_faults},
        "store": store,
        "serve": serve,
        "injected": injected,
        "checked": checked,
        "injected_rate": round(injected / checked, 4) if checked else 0.0,
        "hangs": hangs,
        "identical": identical,
        "completed_frac": round(completed_frac, 4),
        "p99_ratio": round(p99_ratio, 2),
        "wall_s": round(time.perf_counter() - t0, 3),
        "ok": ok,
    }


__all__ = ["ChaosSettings", "DEFAULT_SERVE_FAULTS", "DEFAULT_STORE_FAULTS",
           "fault_keys", "run_chaos", "run_serve_chaos", "run_store_chaos"]
