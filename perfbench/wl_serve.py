"""``serve``: a closed-loop client against ``repro serve --port 0``.

The server runs as a subprocess with its own store.  The benchmark
process is the only client: two TCP connections, each keeping a fixed
window of requests outstanding, sending the next request only when a
reply arrives (callers are scripts that wait for each reply).  A round
is a fixed request list:

* single-vector ``evaluate`` requests over a pool of covers, which the
  server micro-batches into arena passes;
* ``minimize`` requests, of which a fixed share repeat a cover
  minimized during set-up (store hits) and the rest are covers new to
  the server (Espresso plus a store write).

The request shapes and the mix are those of the repository's serve load
benchmark, ``benchmarks/bench_serve.py``: 256 single-vector
``evaluate`` requests over a pool of 4 random covers of 6 inputs, 2
outputs and 8 cubes, and 10 ``minimize`` covers of 7 inputs, 3 outputs
and 14 cubes sent cold and then again warm (10 misses, 10 hits).  Its 8
clients each pipeline 32 requests; here each of the 2 connections keeps
32 outstanding, so together they can fill one batch of the server's
default ``max_batch`` of 64.  Covers are drawn as ``Cover.random``
draws them (a ``-`` with probability 0.4, otherwise ``0`` or ``1``; a
non-empty output tag), from the benchmark's seed.

Latency is measured in the client, from writing a request to reading
its reply.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import checks
from harness import Op, median

CONNECTIONS = 2
#: Requests each connection keeps outstanding.
WINDOW = 32
#: Request mix of one round.
EVALUATES = 256
HITS = 10
MISSES = 10
#: Cover pool served by ``evaluate``.
POOL = 4
#: (inputs, outputs, cubes) of the ``evaluate`` and ``minimize`` covers.
EVALUATE_SHAPE = (6, 2, 8)
MINIMIZE_SHAPE = (7, 3, 14)
DASH_PROBABILITY = 0.4
#: Seconds to wait for the server to report its port, to answer one
#: round of requests, and to drain.
START_TIMEOUT = 60.0
ROUND_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


def random_cover(rng: random.Random, shape: Tuple[int, int, int]) -> dict:
    """A cover in the protocol's encoding (Berkeley rows)."""
    n, m, cubes = shape
    rows = []
    for _ in range(cubes):
        ins = "".join("-" if roll < DASH_PROBABILITY
                      else "0" if roll < (1 + DASH_PROBABILITY) / 2
                      else "1"
                      for roll in (rng.random() for _ in range(n)))
        tag = rng.randrange(1, 1 << m)
        outs = "".join("1" if (tag >> k) & 1 else "0" for k in range(m))
        rows.append(f"{ins} {outs}")
    return {"n_inputs": n, "n_outputs": m, "rows": rows}


def parsed(cover: dict) -> List[checks.Row]:
    return checks.parse_rows(cover["rows"], cover["n_inputs"],
                             cover["n_outputs"])


class ServeWorkload:
    name = "serve"
    ROUND_S = 0.16
    known_failures: Tuple[str, ...] = ()

    def __init__(self, bench) -> None:
        self.bench = bench
        self.proc = None
        self.loop = None
        self.streams = []
        self.pool: List[dict] = []
        self.hit_covers: List[dict] = []
        self.tables: Dict[int, List[int]] = {}
        self.round_requests: List[dict] = []
        self.stats_log: List[Tuple[dict, dict]] = []
        self.warm_replies: Dict[int, dict] = {}
        self._next_id = 0
        self._rounds = 0

    # ------------------------------------------------------------------
    # set-up and teardown
    # ------------------------------------------------------------------
    def setup(self, n_draws: int) -> None:
        rng = random.Random(self.bench.seed)
        self.pool = [random_cover(rng, EVALUATE_SHAPE) for _ in range(POOL)]
        self.hit_covers = [random_cover(rng, MINIMIZE_SHAPE)
                           for _ in range(HITS)]
        for index, cover in enumerate(self.pool):
            self.tables[index] = checks.cover_tables(
                cover["n_inputs"], cover["n_outputs"], parsed(cover))
        env = self.bench.env(REPRO_CACHE_DIR=os.path.join(
            self.bench.run_dir, "serve-store"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, start_new_session=True)
        host, port = self._ready_address()
        self.loop = asyncio.new_event_loop()
        for _ in range(CONNECTIONS):
            self.streams.append(self.loop.run_until_complete(
                asyncio.open_connection(host, port)))

    def _ready_address(self) -> Tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT
        seen = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stderr], [], [], 1.0)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = self.proc.stderr.readline()
            if not line:
                break
            seen += line
            text = line.decode(errors="replace")
            if text.startswith("serving on "):
                address = text.split()[2]
                host, _, port = address.rpartition(":")
                return host, int(port)
        raise RuntimeError(f"server did not start: {seen[-500:]!r}")

    def close(self) -> None:
        for _reader, writer in self.streams:
            writer.close()
        if self.loop is not None:
            self.loop.close()
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        try:  # workers the server left behind share its session
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stderr.close()

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def _request(self, kind: str, op: str, params: dict, **extra) -> dict:
        self._next_id += 1
        line = json.dumps({"id": self._next_id, "op": op,
                           "params": params}) + "\n"
        return {"id": self._next_id, "kind": kind,
                "line": line.encode(), **extra}

    def _evaluate(self, rng: random.Random) -> dict:
        index = rng.randrange(POOL)
        cover = self.pool[index]
        minterm = rng.randrange(1 << cover["n_inputs"])
        return self._request("evaluate", "evaluate",
                             {"cover": cover, "minterms": [minterm]},
                             pool=index, minterm=minterm)

    def warm(self) -> None:
        rng = random.Random(self.bench.seed * 31 + 7)
        requests = [self._evaluate(rng) for _ in range(2 * WINDOW)]
        requests += [self._request("minimize_miss", "minimize",
                                   {"cover": cover}, cover=cover)
                     for cover in self.hit_covers]
        ops = self._run(requests)
        requests = [self._request("minimize_hit", "minimize",
                                  {"cover": self.hit_covers[0]},
                                  cover=self.hit_covers[0])]
        ops += self._run(requests)
        for op in ops:
            if not op.ok:
                raise RuntimeError(f"warm-up request failed: {op.error}")
            request, result = op.output
            if request["kind"] == "minimize_miss":
                self.warm_replies[id(request["cover"])] = result

    def prepare_round(self, draw: int, traced: bool) -> None:
        """The round's request list: evaluates with minimizes spread in.

        ``draw`` picks the evaluate vectors; the miss covers come from a
        per-round counter, so they are new to the server every round.
        """
        if traced:
            self._stats_before = self.stats()
        self._rounds += 1
        fresh = random.Random((self.bench.seed * 1_000_003 + self._rounds)
                              % 2 ** 31)
        minimizes = [self._request("minimize_hit", "minimize",
                                   {"cover": cover}, cover=cover)
                     for cover in self.hit_covers]
        minimizes += [self._request("minimize_miss", "minimize",
                                    {"cover": cover}, cover=cover)
                      for cover in (random_cover(fresh, MINIMIZE_SHAPE)
                                    for _ in range(MISSES))]
        rng = random.Random((self.bench.seed * 7_000_003 + draw) % 2 ** 31)
        rng.shuffle(minimizes)
        every = EVALUATES // len(minimizes)
        requests = []
        for i in range(EVALUATES):
            requests.append(self._evaluate(rng))
            if i % every == every - 1 and minimizes:
                requests.append(minimizes.pop())
        self.round_requests = requests + minimizes

    def run_round(self, draw: int) -> List[Op]:
        ops = self._run(self.round_requests)
        for request in self.round_requests:
            del request["line"]  # keep only what the checks read
        return ops

    def _run(self, requests: List[dict]) -> List[Op]:
        ops: List[Op] = []
        shares = [requests[c::CONNECTIONS] for c in range(CONNECTIONS)]

        async def both() -> None:
            await asyncio.wait_for(asyncio.gather(*(
                self._connection(reader, writer, share, ops)
                for (reader, writer), share in zip(self.streams, shares))),
                ROUND_TIMEOUT)

        self.loop.run_until_complete(both())
        return ops

    async def _connection(self, reader, writer, requests: List[dict],
                          ops: List[Op]) -> None:
        window = asyncio.Semaphore(WINDOW)
        sent: Dict[int, Tuple[float, dict]] = {}

        async def receive() -> None:
            for _ in range(len(requests)):
                line = await reader.readline()
                now = time.perf_counter()
                if not line:
                    raise RuntimeError("server closed the connection")
                reply = json.loads(line)
                start, request = sent.pop(reply["id"])
                if reply["ok"]:
                    ops.append(Op(request["kind"], now - start,
                                  output=(request, reply["result"])))
                else:
                    ops.append(Op(request["kind"], now - start, ok=False,
                                  error=json.dumps(reply["error"])))
                window.release()

        receiver = asyncio.ensure_future(receive())
        try:
            for request in requests:
                await window.acquire()
                sent[request["id"]] = (time.perf_counter(), request)
                writer.write(request["line"])
            await receiver
        finally:
            if not receiver.done():
                receiver.cancel()

    def stats(self) -> dict:
        request = self._request("stats", "stats", {})
        ops = self._run([request])
        return ops[0].output[1]

    # ------------------------------------------------------------------
    # checks and metrics
    # ------------------------------------------------------------------
    def check(self, ops: List[Op]) -> List[str]:
        errors = []
        for op in ops:
            if not op.ok:
                continue
            request, result = op.output
            try:
                if request["kind"] == "evaluate":
                    tables = self.tables[request["pool"]]
                    m = request["minterm"]
                    expected = sum(1 << k for k, table in enumerate(tables)
                                   if (table >> m) & 1)
                    if result["masks"] != [expected]:
                        raise checks.CheckError(
                            f"evaluate cover {request['pool']} on {m}: "
                            f"{result['masks']}, expected [{expected}]")
                    continue
                cover = request["cover"]
                got = result["cover"]
                if (got["n_inputs"], got["n_outputs"]) != \
                        (cover["n_inputs"], cover["n_outputs"]):
                    raise checks.CheckError("minimize changed the shape")
                checks.check_equivalent(
                    cover["n_inputs"], cover["n_outputs"],
                    parsed(got), parsed(cover), what="minimize reply")
                warm = self.warm_replies.get(id(cover))
                if request["kind"] == "minimize_hit" and result != warm:
                    raise checks.CheckError("store hit differs from the "
                                            "reply that filled it")
            except (checks.CheckError, KeyError, TypeError) as exc:
                errors.append(f"{request['kind']} #{request['id']}: {exc}")
        return errors

    def _arrays(self, ops: List[Op]) -> Dict[str, Tuple[int, int, int]]:
        arrays = {}
        for op in ops:
            if op.ok and op.kind.startswith("minimize"):
                cover = op.output[1]["cover"]
                key = json.dumps(cover, sort_keys=True)
                arrays[key] = (cover["n_inputs"], cover["n_outputs"],
                               len(cover["rows"]))
        return arrays

    def quality(self, ops: List[Op]) -> Tuple[float, float]:
        from repro.core.area import CNFET_AMBIPOLAR, pla_area
        from repro.core.timing import PLATimingModel

        dims = list(self._arrays(ops).values())
        for n_in, n_out, n_p in dims:
            checks.check_area(pla_area(CNFET_AMBIPOLAR, n_in, n_out, n_p),
                              "cnfet", n_in, n_out, n_p)
        return (sum(checks.table1_area("cnfet", *d) for d in dims),
                checks.geomean([PLATimingModel(*d).max_frequency() / 1e6
                                for d in dims]))

    # ------------------------------------------------------------------
    # the traced run: client splits plus the server's own stats
    # ------------------------------------------------------------------
    def trace(self, tracer) -> None:
        """Nothing in this process to wrap: the server reports itself."""

    def finish_round(self, draw: int, traced: bool) -> None:
        if traced:
            self.stats_log.append((self._stats_before, self.stats()))

    def layers(self, tracer, traced_ops: List[Op], n_rounds: int) -> dict:
        def p50(kind: str) -> float:
            return median(op.latency_s for op in traced_ops
                          if op.kind == kind and op.ok) * 1e3

        counters: Dict[str, float] = {}
        server_s = 0.0
        for before, after in self.stats_log:
            for name, value in after["perf"]["counters"].items():
                counters[name] = counters.get(name, 0) + value - \
                    before["perf"]["counters"].get(name, 0)
            for name, entry in after["perf"]["timers"].items():
                if name.startswith("serve.request.") and \
                        name != "serve.request.stats":
                    server_s += entry["seconds"] - before["perf"][
                        "timers"].get(name, {}).get("seconds", 0.0)
        timers = self.stats_log[-1][1]["perf"]["timers"]
        flushes = counters.get("serve.batch.flushes", 0)
        self._server_s = server_s
        return {
            "serve.evaluate_p50_ms": p50("evaluate"),
            "serve.minimize_hit_p50_ms": p50("minimize_hit"),
            "serve.minimize_miss_p50_ms": p50("minimize_miss"),
            "serve.server_evaluate_p50_ms":
                timers.get("serve.request.evaluate", {}).get("p50_ms", 0.0),
            "serve.batch.flush_p50_ms":
                timers.get("serve.batch.flush", {}).get("p50_ms", 0.0),
            "serve.batch.members_per_flush":
                counters.get("serve.batch.members", 0) / flushes
                if flushes else 0.0,
            "serve.batch.full_flush_ratio":
                counters.get("serve.batch.flush_full", 0) / flushes
                if flushes else 0.0,
            "serve.errors": counters.get("serve.errors", 0) / n_rounds,
            "serve.worker.recycles":
                counters.get("serve.worker.recycles", 0) / n_rounds,
        }

    def coverage(self, tracer, traced_ops: List[Op], wall: float) -> float:
        """Share of client-side latency spent inside server request spans."""
        client_s = sum(op.latency_s for op in traced_ops)
        return self._server_s / client_s if client_s else 0.0
