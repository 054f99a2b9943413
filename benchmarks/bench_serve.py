#!/usr/bin/env python
"""Serve-path load benchmark (lands ``serve_load`` in BENCH_perf.json).

Drives the asyncio synthesis server (:mod:`repro.serve`) end to end
over loopback TCP with pipelined concurrent clients and measures what
the serving layer actually sells:

* **micro-batching** — the same evaluate workload (>= 8 concurrent
  clients, pipelined single-cover requests) against an unbatched
  server (``max_batch=1``: one warm-pool round trip per request) and a
  batched one (``max_batch=64``: requests coalesce into one
  ``CoverArena`` pass per flush).  The acceptance gate
  (``acceptance_serve``) requires the batched throughput to be
  >= 3x the unbatched per-request path.
* **cold vs warm store** — a ``minimize`` request stream against a
  fresh artifact store, then repeated: the warm pass is served from
  the content-addressed store the first pass populated.
* **byte identity** — every served payload is compared, canonical
  JSON byte for byte, against the equivalent direct
  ``SynthesisService`` computation on the active ``REPRO_KERNEL``
  backend (CI runs both backends).

Both scenarios run against an in-process server on a real TCP socket
with the same single-worker warm pool, so the measured ratio isolates
exactly what batching amortizes: the per-request worker round trip
and the kernel pass's fixed costs.  Those fixed costs are what the
NumPy backend pays per arena call — the scalar fallback evaluates a
one-vector request almost for free, which narrows its ratio below the
gate — so the >= 3x acceptance is judged on the NumPy backend; the
scalar CI smoke runs with ``--no-gate`` and still enforces byte
identity.

The report record carries req/s plus p50/p99 latency quantiles (from
:func:`repro.perf.quantile` over per-request wall times) for each
scenario, and the run's ``serve.*`` perf counters.

By default the record and its acceptance block are merged into an
existing ``BENCH_perf.json`` (replacing a previous ``serve_load``);
``--report`` points elsewhere (CI updates ``/tmp/BENCH_quick.json``),
and a missing report file yields a standalone ``{results: [...],
acceptance_serve: ...}`` document.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [--quick]
        [--clients N] [--requests N] [--report FILE] [--no-gate]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import tempfile
import time
from typing import Dict, List, Tuple

#: Acceptance threshold: micro-batched evaluate throughput over the
#: unbatched per-request worker path, same workload, same pool.
SERVE_TARGET_SPEEDUP = 3.0

#: The gate never runs with fewer concurrent clients than this.
MIN_CLIENTS = 8


def _quantiles(latencies: List[float]) -> Dict[str, float]:
    from repro import perf
    return {"p50_ms": round(perf.quantile(latencies, 0.50) * 1e3, 3),
            "p99_ms": round(perf.quantile(latencies, 0.99) * 1e3, 3)}


def _stats(latencies: List[float], elapsed: float) -> Dict[str, float]:
    stats = _quantiles(latencies)
    stats["requests"] = len(latencies)
    stats["req_per_s"] = round(len(latencies) / elapsed, 1)
    stats["wall_s"] = round(elapsed, 6)
    return stats


async def _drive(server, n_clients: int, requests: List[Tuple[str, dict]],
                 ) -> Tuple[List[dict], List[float], float]:
    """Fan ``requests`` out over ``n_clients`` pipelined connections.

    Request ``i`` goes to client ``i % n_clients``; within one client
    all of its requests are issued concurrently (pipelined on one
    connection), which is exactly the pressure the micro-batcher needs
    to see to coalesce.  Returns (responses in request order,
    per-request latencies, total wall time).
    """
    from repro.serve import AsyncServeClient

    host, port = await server.start_tcp()
    clients = [await AsyncServeClient().connect(host, port)
               for _ in range(n_clients)]
    latencies: List[float] = [0.0] * len(requests)
    responses: List[dict] = [None] * len(requests)

    async def one(i: int, op: str, params: dict) -> None:
        t0 = time.perf_counter()
        responses[i] = await clients[i % n_clients].request(op, params)
        latencies[i] = time.perf_counter() - t0

    t0 = time.perf_counter()
    await asyncio.gather(*[one(i, op, params)
                           for i, (op, params) in enumerate(requests)])
    elapsed = time.perf_counter() - t0
    for client in clients:
        await client.close()
    await server.drain()
    return responses, latencies, elapsed


def _evaluate_workload(seed: int, n_requests: int) -> List[Tuple[str, dict]]:
    """Single-cover evaluate requests over a small pool of covers."""
    from repro.logic.function import BooleanFunction
    from repro.store import codecs

    covers = [codecs.encode_cover(
        BooleanFunction.random(6, 2, 8, seed=seed + s).on_set)
        for s in range(4)]
    return [("evaluate", {"cover": covers[i % len(covers)],
                          "minterms": [(i * 13 + 5) % 64]})
            for i in range(n_requests)]


def _run_evaluate_scenario(pool, workload, n_clients: int,
                           max_batch: int) -> Tuple[List[dict], dict]:
    from repro.serve import ServeConfig, SynthesisServer, WorkerBridge

    async def scenario():
        server = SynthesisServer(
            ServeConfig(max_batch=max_batch, linger_us=1000),
            executor=WorkerBridge(pool=pool))
        return await _drive(server, n_clients, workload)

    responses, latencies, elapsed = asyncio.run(scenario())
    return responses, _stats(latencies, elapsed)


def _check_evaluate_identity(workload, responses) -> None:
    """Every served evaluate payload == the direct service bytes."""
    from repro.serve import protocol
    from repro.store import codecs
    from repro.store.service import get_service

    service = get_service()
    direct_cache: Dict[str, str] = {}
    for (op, params), served in zip(workload, responses):
        key = protocol.dumps(params)
        if key not in direct_cache:
            cover = codecs.decode_cover(params["cover"])
            masks = service.evaluate_batch([cover],
                                           minterms=params["minterms"])
            direct_cache[key] = protocol.dumps({"masks": masks[0]})
        if protocol.dumps(served) != direct_cache[key]:
            raise SystemExit(f"serve/direct mismatch for {key}")


def _run_minimize_scenario(pool, seed: int, n_functions: int,
                           n_clients: int) -> Tuple[dict, dict]:
    """Cold-then-warm minimize stream; returns (cold, warm) stats."""
    from repro.logic.function import BooleanFunction
    from repro.serve import ServeConfig, SynthesisServer, WorkerBridge
    from repro.serve import protocol
    from repro.store import codecs
    from repro.store.service import get_service

    functions = [BooleanFunction.random(7, 3, 14, seed=seed + 100 + s)
                 for s in range(n_functions)]
    workload = [("minimize",
                 {"cover": codecs.encode_cover(f.on_set)})
                for f in functions]

    def one_pass():
        async def scenario():
            server = SynthesisServer(
                ServeConfig(), executor=WorkerBridge(pool=pool))
            return await _drive(server, n_clients, workload)
        return asyncio.run(scenario())

    cold_responses, cold_lat, cold_s = one_pass()
    warm_responses, warm_lat, warm_s = one_pass()

    service = get_service()
    for function, served in zip(functions, cold_responses + warm_responses):
        direct = service.minimize(BooleanFunction(function.on_set))
        expect = protocol.dumps({"cover": codecs.encode_cover(direct)})
        if protocol.dumps(served) != expect:
            raise SystemExit("serve/direct minimize mismatch")
    return _stats(cold_lat, cold_s), _stats(warm_lat, warm_s)


def _serve_perf_snapshot() -> dict:
    from repro import perf
    snapshot = perf.snapshot()
    return {"timers": {k: v for k, v in snapshot["timers"].items()
                       if k.startswith("serve.")},
            "counters": {k: v for k, v in snapshot["counters"].items()
                         if k.startswith("serve.")}}


def _merge_into_report(path: str, record: dict, acceptance: dict) -> None:
    """Add/replace ``serve_load`` in an existing report (or standalone)."""
    try:
        with open(path) as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError):
        report = {"suite": "bench_serve", "results": []}
    results = [r for r in report.get("results", [])
               if r.get("name") != record["name"]]
    results.append(record)
    report["results"] = results
    report["acceptance_serve"] = acceptance
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller request counts (CI smoke); the "
                             "client count never drops below 8")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--clients", type=int, default=MIN_CLIENTS,
                        help="concurrent pipelined connections "
                             "(minimum 8; default 8)")
    parser.add_argument("--requests", type=int, default=None,
                        help="total evaluate requests (default: 256, "
                             "or 96 with --quick)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="warm-pool worker processes (default 1: "
                             "both scenarios share one warm worker, so "
                             "the ratio isolates batching from "
                             "parallelism)")
    parser.add_argument("--report", default="BENCH_perf.json",
                        help="report to update in place (default: "
                             "BENCH_perf.json)")
    parser.add_argument("--no-gate", action="store_true",
                        help="record the ratio but do not fail on the "
                             "3x threshold (scalar-backend CI smoke; "
                             "byte-identity mismatches still fail)")
    args = parser.parse_args(argv)

    n_clients = max(args.clients, MIN_CLIENTS)
    n_requests = args.requests or (96 if args.quick else 256)
    n_functions = 6 if args.quick else 10

    # fresh store: the minimize cold pass must actually be cold, and
    # the identity checks must compare against this run's artifacts
    store_dir = tempfile.mkdtemp(prefix="repro-bench-serve-")
    os.environ["REPRO_CACHE_DIR"] = store_dir

    from repro import kernels, perf
    from repro.runner import WarmPool, run_tasks

    backend = kernels.backend()
    print(f"bench_serve (quick={args.quick}, clients={n_clients}, "
          f"requests={n_requests}, jobs={args.jobs}, backend={backend})")

    pool = WarmPool(jobs=args.jobs)
    try:
        # warm the workers once so neither scenario pays fork+import
        run_tasks(_noop_probe, [("probe", None)], pool=pool,
                  timeout=120.0).raise_on_failure()
        perf.reset()

        workload = _evaluate_workload(args.seed, n_requests)
        unbatched_responses, unbatched = _run_evaluate_scenario(
            pool, workload, n_clients, max_batch=1)
        batched_responses, batched = _run_evaluate_scenario(
            pool, workload, n_clients, max_batch=64)

        _check_evaluate_identity(workload, unbatched_responses)
        _check_evaluate_identity(workload, batched_responses)
        if [json.dumps(r, sort_keys=True) for r in unbatched_responses] != \
                [json.dumps(r, sort_keys=True) for r in batched_responses]:
            raise SystemExit("batched and unbatched responses differ")

        cold, warm = _run_minimize_scenario(pool, args.seed, n_functions,
                                            n_clients)
    finally:
        pool.shutdown()

    speedup = round(batched["req_per_s"] / unbatched["req_per_s"], 2)
    passed = speedup >= SERVE_TARGET_SPEEDUP
    record = {
        "name": "serve_load",
        "detail": f"{n_clients} pipelined clients, {n_requests} evaluate "
                  f"requests over TCP; micro-batch 64 vs per-request "
                  f"dispatch on a {args.jobs}-worker warm pool; "
                  f"{n_functions} minimize requests cold vs warm store "
                  f"({backend} backend)",
        # scalar_s/kernel_s keep the report-wide convention:
        # baseline (unbatched) vs optimized (batched) wall time
        "scalar_s": unbatched["wall_s"],
        "kernel_s": batched["wall_s"],
        "speedup": speedup,
        "backend": backend,
        "clients": n_clients,
        "identical": True,
        "unbatched": unbatched,
        "batched": batched,
        "minimize_cold": cold,
        "minimize_warm": warm,
        "perf": _serve_perf_snapshot(),
    }
    acceptance = {
        "metric": "serve_load",
        "speedup": speedup,
        "threshold": SERVE_TARGET_SPEEDUP,
        "pass": passed,
    }
    _merge_into_report(args.report, record, acceptance)

    print(f"  unbatched: {unbatched['req_per_s']:.0f} req/s "
          f"(p50 {unbatched['p50_ms']:.2f} ms, "
          f"p99 {unbatched['p99_ms']:.2f} ms)")
    print(f"  batched:   {batched['req_per_s']:.0f} req/s "
          f"(p50 {batched['p50_ms']:.2f} ms, "
          f"p99 {batched['p99_ms']:.2f} ms)")
    print(f"  minimize:  cold {cold['req_per_s']:.1f} req/s -> "
          f"warm {warm['req_per_s']:.1f} req/s")
    print(f"acceptance (serve): {speedup:.1f}x >= "
          f"{SERVE_TARGET_SPEEDUP}x batched/unbatched: "
          f"{'PASS' if passed else 'FAIL'}"
          f"{' (not gated)' if args.no_gate else ''}")
    print(f"updated {args.report}")
    return 0 if passed or args.no_gate else 1


def _noop_probe(_payload):
    """Picklable warm-up task: forks the workers, imports nothing new."""
    return None


if __name__ == "__main__":
    sys.exit(main())
