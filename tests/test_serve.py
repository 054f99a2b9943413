"""End-to-end tests of the synthesis server over the pipe transport.

The server is transport-agnostic: these tests drive the *full* request
path (protocol framing -> admission -> micro-batcher -> endpoint ->
response) over a ``socketpair`` — the same streams as TCP without
binding ports — plus one TCP round trip for the listener itself.

The load-shed and drain tests use a gated executor so queue pressure is
deterministic rather than timing-dependent; everything else runs the
real endpoint code (inline or on a private warm pool).
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro import perf
from repro.logic.cover import Cover
from repro.logic.function import BooleanFunction
from repro.runner import WarmPool
from repro.serve import (AsyncServeClient, ServeConfig, ServeError,
                         SynthesisServer, WorkerBridge)
from repro.serve import protocol
from repro.serve.ops import dispatch
from repro.serve.workers import InlineBridge
from repro.store import codecs
from repro.store.service import get_service


def run(coro):
    return asyncio.run(coro)


async def pipe_client(server):
    """(client, connection_task) over a socketpair 'pipe' transport."""
    server_sock, client_sock = socket.socketpair()
    sreader, swriter = await asyncio.open_connection(
        sock=server_sock, limit=protocol.MAX_LINE_BYTES)
    creader, cwriter = await asyncio.open_connection(
        sock=client_sock, limit=protocol.MAX_LINE_BYTES)
    task = asyncio.create_task(server.serve_connection(sreader, swriter))
    client = AsyncServeClient().attach(creader, cwriter)
    return client, task


def inline_server(**config) -> SynthesisServer:
    return SynthesisServer(ServeConfig(**config), executor=InlineBridge())


def canon(document) -> str:
    return protocol.dumps(document)


XOR = Cover.from_strings(["10 1", "01 1"])
XOR_ENC = codecs.encode_cover(XOR)


class GatedBridge:
    """Executor that parks every op on an event (deterministic queues)."""

    def __init__(self):
        self.gate = None  # created inside the loop
        self.started = 0

    def ensure_gate(self):
        if self.gate is None:
            self.gate = asyncio.Event()

    async def run(self, op, params):
        self.ensure_gate()
        self.started += 1
        await self.gate.wait()
        return dispatch(op, params)

    def shutdown(self):
        pass


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_parse_roundtrip(self):
        line = protocol.encode_request(7, "evaluate", {"a": 1})
        rid, op, params = protocol.parse_request(line)
        assert (rid, op, params) == (7, "evaluate", {"a": 1})

    def test_bad_json_is_protocol_error(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_request(b"{nope\n")

    def test_missing_op_recovers_id(self):
        try:
            protocol.parse_request(b'{"id": 3, "params": {}}\n')
        except protocol.ProtocolError as exc:
            assert exc.request_id == 3
        else:  # pragma: no cover
            pytest.fail("expected ProtocolError")

    def test_canonical_encoding_is_sorted_and_compact(self):
        assert protocol.dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


# ----------------------------------------------------------------------
# serving correctness: served bytes == direct service bytes
# ----------------------------------------------------------------------
class TestServedEqualsDirect:
    def test_concurrent_evaluate_matches_direct(self):
        functions = [BooleanFunction.random(4, 2, 5, seed=s)
                     for s in range(6)]
        covers = [f.on_set for f in functions]
        requests = [(covers[i % len(covers)], [i % 16, (i * 7) % 16])
                    for i in range(24)]

        async def scenario():
            server = inline_server(max_batch=8, linger_us=500)
            client, task = await pipe_client(server)
            results = await asyncio.gather(*[
                client.request("evaluate",
                               {"cover": codecs.encode_cover(cover),
                                "minterms": minterms})
                for cover, minterms in requests])
            await client.close()
            await server.drain()
            return results

        results = run(scenario())
        service = get_service()
        for (cover, minterms), served in zip(requests, results):
            direct = service.evaluate_batch([cover], minterms=minterms)
            assert canon(served) == canon({"masks": direct[0]})

    def test_evaluate_batch_and_minimize_match_direct(self):
        function = BooleanFunction.random(5, 3, 8, seed=3)

        async def scenario():
            server = inline_server()
            client, task = await pipe_client(server)
            batch = await client.request("evaluate_batch", {
                "covers": [codecs.encode_cover(function.on_set)],
                "minterms": list(range(12))})
            mini = await client.request(
                "minimize", {"cover": codecs.encode_cover(function.on_set)})
            await client.close()
            await server.drain()
            return batch, mini

        batch, mini = run(scenario())
        service = get_service()
        direct_batch = service.evaluate_batch([function.on_set],
                                              minterms=list(range(12)))
        assert canon(batch) == canon({"masks": direct_batch})
        direct_cover = service.minimize(BooleanFunction(function.on_set))
        assert canon(mini) == canon(
            {"cover": codecs.encode_cover(direct_cover)})

    def test_yield_run_matches_direct(self):
        from repro.robustness.yield_engine import (YieldSettings,
                                                   estimate_yield)
        settings_raw = {"benchmark": "max46", "samples": 12, "seed": 5}

        async def scenario():
            server = inline_server()
            client, task = await pipe_client(server)
            result = await client.request("yield_run",
                                          {"settings": settings_raw})
            await client.close()
            await server.drain()
            return result

        served = run(scenario())
        direct = estimate_yield(YieldSettings(**settings_raw))
        assert canon(served) == canon(
            {"report": codecs.encode_yield_report(direct)})

    def test_place_route_matches_direct(self):
        from repro.fpga.emulate import run_emulation

        async def scenario():
            server = inline_server()
            client, task = await pipe_client(server)
            results = [await client.request("place_route",
                                            {"seed": 3, "grid": 4,
                                             "fabric": fabric})
                       for fabric in ("standard", "cnfet")]
            await client.close()
            await server.drain()
            return results

        served = run(scenario())
        report = run_emulation(seed=3, grid_side=4)
        for reply, direct in zip(served, (report.standard, report.cnfet)):
            assert canon(reply["place_route"]) == canon(
                codecs.encode_place_route(direct.placement, direct.routing))
            assert reply["summary"]["wirelength"] == direct.total_wirelength

    def test_warm_pool_bridge_serves_identical_payloads(self):
        pool = WarmPool(jobs=2)
        function = BooleanFunction.random(4, 2, 6, seed=9)
        enc = codecs.encode_cover(function.on_set)

        async def scenario():
            server = SynthesisServer(
                ServeConfig(max_batch=4, linger_us=500),
                executor=WorkerBridge(pool=pool))
            client, task = await pipe_client(server)
            rows = await asyncio.gather(*[
                client.request("evaluate", {"cover": enc, "minterms": [m]})
                for m in range(8)])
            mini = await client.request("minimize", {"cover": enc})
            await client.close()
            await server.drain()
            return rows, mini

        try:
            rows, mini = run(scenario())
        finally:
            pool.shutdown()
        service = get_service()
        direct = service.evaluate_batch([function.on_set],
                                        minterms=list(range(8)))
        for m, served in enumerate(rows):
            assert canon(served) == canon({"masks": [direct[0][m]]})
        direct_cover = service.minimize(BooleanFunction(function.on_set))
        assert canon(mini) == canon(
            {"cover": codecs.encode_cover(direct_cover)})


# ----------------------------------------------------------------------
# bad input: bad_request, checked before any work
# ----------------------------------------------------------------------
class TestBadRequests:
    @pytest.mark.parametrize("op,params", [
        ("yield_run", {"settings": {"benchmark": "nope", "samples": 10}}),
        ("yield_run", {"settings": {"benchmark": "max46", "samples": "10"}}),
        ("yield_run", {"settings": {"benchmark": "max46", "samples": 10,
                                    "spare_rows": -1}}),
        ("yield_run", {"settings": {"benchmark": "max46", "samples": 10,
                                    "seed": "x"}}),
        ("place_route", {"seed": "abc"}),
        ("place_route", {"grid": None}),
        ("workload", {"spec": "add2", "action": "eval", "words": "many"}),
        ("evaluate", {"cover": XOR_ENC, "minterms": ["x"]}),
        ("evaluate", {"cover": [], "minterms": [1]}),
    ])
    def test_replies_bad_request_without_running(self, op, params,
                                                 monkeypatch):
        import repro.runner

        def no_runner(*_args, **_kwargs):  # pragma: no cover - the bug
            raise AssertionError("bad settings reached the runner")

        monkeypatch.setattr(repro.runner, "run_tasks", no_runner)

        async def scenario():
            server = inline_server()
            client, task = await pipe_client(server)
            with pytest.raises(ServeError) as excinfo:
                await client.request(op, params)
            await client.close()
            await server.drain()
            return excinfo.value.code

        assert run(scenario()) == "bad_request"

    def test_workload_op_leaves_params_unchanged(self):
        import copy
        params = {"spec": "pop2", "action": "curve",
                  "curve": {"techs": ["cnfet"], "rates": [0.002],
                            "samples": 4, "stream_words": 2}}
        before = copy.deepcopy(params)
        dispatch("workload", params)
        assert params == before


# ----------------------------------------------------------------------
# micro-batcher triggers
# ----------------------------------------------------------------------
class TestBatchTriggers:
    def test_flush_on_size(self):
        perf.reset()

        async def scenario():
            # linger far beyond the test runtime: only the size trigger
            # can flush
            server = inline_server(max_batch=4, linger_us=30_000_000)
            client, task = await pipe_client(server)
            results = await asyncio.gather(*[
                client.request("evaluate",
                               {"cover": XOR_ENC, "minterms": [m]})
                for m in range(4)])
            await client.close()
            await server.drain()
            return results

        results = run(scenario())
        assert [r["masks"] for r in results] == [[0], [1], [1], [0]]
        counters = perf.snapshot()["counters"]
        assert counters["serve.batch.flush_full"] == 1
        assert counters["serve.batch.flushes"] == 1
        assert counters["serve.batch.members"] == 4
        assert counters["serve.batch.unique_covers"] == 1

    def test_flush_on_linger(self):
        perf.reset()

        async def scenario():
            server = inline_server(max_batch=64, linger_us=2000)
            client, task = await pipe_client(server)
            results = await asyncio.gather(
                client.request("evaluate", {"cover": XOR_ENC,
                                            "minterms": [1]}),
                client.request("evaluate", {"cover": XOR_ENC,
                                            "minterms": [2]}))
            await client.close()
            await server.drain()
            return results

        results = run(scenario())
        assert [r["masks"] for r in results] == [[1], [1]]
        counters = perf.snapshot()["counters"]
        assert counters["serve.batch.flush_linger"] >= 1
        assert counters.get("serve.batch.flush_full", 0) == 0

    def test_unbatched_mode_matches_batched(self):
        minterms = list(range(4))

        async def scenario(max_batch):
            server = inline_server(max_batch=max_batch, linger_us=1000)
            client, task = await pipe_client(server)
            results = await asyncio.gather(*[
                client.request("evaluate",
                               {"cover": XOR_ENC, "minterms": [m]})
                for m in minterms])
            await client.close()
            await server.drain()
            return results

        assert run(scenario(1)) == run(scenario(64))

    def test_bad_cover_fails_only_its_own_request(self):
        async def scenario():
            server = inline_server(max_batch=3, linger_us=30_000_000)
            client, task = await pipe_client(server)
            good1 = client.request("evaluate", {"cover": XOR_ENC,
                                                "minterms": [1]})
            bad = client.request("evaluate", {"cover": {"broken": True},
                                              "minterms": [1]})
            good2 = client.request("evaluate", {"cover": XOR_ENC,
                                                "minterms": [2]})
            results = await asyncio.gather(good1, bad, good2,
                                           return_exceptions=True)
            await client.close()
            await server.drain()
            return results

        first, second, third = run(scenario())
        assert first == {"masks": [1]}
        assert isinstance(second, ServeError)
        assert second.code == "bad_request"
        assert third == {"masks": [1]}

    def test_bad_minterm_fails_only_its_own_request(self):
        # refused before batching: a minterm outside uint64 used to
        # fail the whole arena pass, siblings included
        async def scenario():
            server = inline_server(max_batch=2, linger_us=30_000_000)
            client, task = await pipe_client(server)
            results = await asyncio.gather(*[
                client.request("evaluate", {"cover": XOR_ENC,
                                            "minterms": minterms})
                for minterms in ([1], [-1], [2**64], [2])],
                return_exceptions=True)
            await client.close()
            await server.drain()
            return results

        good1, low, high, good2 = run(scenario())
        assert good1 == {"masks": [1]} and good2 == {"masks": [1]}
        assert low.code == high.code == "bad_request"


# ----------------------------------------------------------------------
# backpressure and drain
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_load_shed_when_admission_queue_full(self):
        bridge = GatedBridge()

        async def scenario():
            server = SynthesisServer(
                ServeConfig(max_batch=1, linger_us=0, queue_limit=2),
                executor=bridge)
            client, task = await pipe_client(server)
            blocked = [
                asyncio.create_task(client.request(
                    "evaluate", {"cover": XOR_ENC, "minterms": [m]}))
                for m in range(2)]
            # wait until both requests are parked inside the executor
            while bridge.started < 2:
                await asyncio.sleep(0.001)
            with pytest.raises(ServeError) as excinfo:
                await client.request("evaluate", {"cover": XOR_ENC,
                                                  "minterms": [3]})
            assert excinfo.value.code == "overloaded"
            bridge.gate.set()
            admitted = await asyncio.gather(*blocked)
            await client.close()
            await server.drain()
            return admitted

        admitted = run(scenario())
        assert [r["masks"] for r in admitted] == [[0], [1]]

    def test_graceful_drain_completes_in_flight(self):
        bridge = GatedBridge()

        async def scenario():
            server = SynthesisServer(
                ServeConfig(max_batch=1, linger_us=0, queue_limit=8),
                executor=bridge)
            client, task = await pipe_client(server)
            in_flight = [
                asyncio.create_task(client.request(
                    "evaluate", {"cover": XOR_ENC, "minterms": [m]}))
                for m in (1, 2)]
            while bridge.started < 2:
                await asyncio.sleep(0.001)
            drain = asyncio.create_task(server.drain())
            await asyncio.sleep(0.01)
            assert not drain.done()  # waiting on the gated requests
            assert server.draining
            bridge.gate.set()
            results = await asyncio.gather(*in_flight)
            await drain
            # after the drain the connection is gone: new requests fail
            with pytest.raises((ServeError, ConnectionError, OSError)):
                await client.request("ping")
            await client.close()
            return results

        results = run(scenario())
        assert [r["masks"] for r in results] == [[1], [1]]

    def test_draining_server_sheds_new_requests(self):
        async def scenario():
            server = inline_server()
            client, task = await pipe_client(server)
            server.draining = True
            with pytest.raises(ServeError) as excinfo:
                await client.request("ping")
            await client.close()
            server.draining = False
            await server.drain()
            return excinfo.value.code

        assert run(scenario()) == "shutting_down"


# ----------------------------------------------------------------------
# transport-level behaviour
# ----------------------------------------------------------------------
class TestTransport:
    def test_tcp_round_trip(self):
        async def scenario():
            server = inline_server(host="127.0.0.1", port=0)
            host, port = await server.start_tcp()
            client = await AsyncServeClient().connect(host, port)
            pong = await client.request("ping")
            evaluated = await client.request(
                "evaluate", {"cover": XOR_ENC, "minterms": [0, 1, 2, 3]})
            await client.close()
            await server.drain()
            return pong, evaluated

        pong, evaluated = run(scenario())
        assert pong["pong"] is True
        assert evaluated == {"masks": [0, 1, 1, 0]}

    def test_malformed_line_gets_error_reply(self):
        async def scenario():
            server = inline_server()
            server_sock, client_sock = socket.socketpair()
            sreader, swriter = await asyncio.open_connection(
                sock=server_sock, limit=protocol.MAX_LINE_BYTES)
            creader, cwriter = await asyncio.open_connection(
                sock=client_sock, limit=protocol.MAX_LINE_BYTES)
            task = asyncio.create_task(
                server.serve_connection(sreader, swriter))
            cwriter.write(b"this is not json\n")
            await cwriter.drain()
            line = await creader.readline()
            cwriter.close()
            await task
            await server.drain()
            return protocol.parse_response(line)

        reply = run(scenario())
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad_request"

    def test_unknown_op_and_stats_endpoint(self):
        async def scenario():
            server = inline_server()
            client, task = await pipe_client(server)
            with pytest.raises(ServeError) as excinfo:
                await client.request("frobnicate")
            stats = await client.request("stats")
            await client.close()
            await server.drain()
            return excinfo.value.code, stats

        code, stats = run(scenario())
        assert code == "unknown_op"
        assert stats["queue_limit"] == SynthesisServer(
            ServeConfig(), executor=InlineBridge()).config.queue_limit
        assert "perf" in stats and "counters" in stats["perf"]

    def test_cli_server_process_and_sigterm_drain(self):
        """`repro serve` end to end: ready line, requests, clean drain."""
        import os
        import re
        import signal
        import subprocess
        import sys as _sys

        from repro.serve.client import ServeClient

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        try:
            line = proc.stderr.readline()
            match = re.search(r"serving on ([0-9.]+):(\d+)", line)
            assert match, f"no ready line, got: {line!r}"
            host, port = match.group(1), int(match.group(2))
            with ServeClient(host, port) as client:
                pong = client.request("ping")
                assert pong["pong"] is True
                result = client.request(
                    "evaluate", {"cover": XOR_ENC,
                                 "minterms": [0, 1, 2, 3]})
                assert result == {"masks": [0, 1, 1, 0]}
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            remainder = proc.stderr.read()
            assert "drained cleanly" in remainder
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup path
                proc.kill()
                proc.wait()
            proc.stderr.close()

    def test_cli_stdio_session_exits_cleanly(self, tmp_path):
        """`repro serve --stdio` replies, then exits 0 at end of input,
        with stdin and stdout each on a pipe or on a regular file."""
        import json
        import os
        import subprocess
        import sys as _sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"id": 1, "op": "ping"}\n'
                            '{"id": 2, "op": "ping"}\n')
        for stdin_kind in ("pipe", "file"):
            for stdout_kind in ("pipe", "file"):
                where = f"stdin on a {stdin_kind}, stdout on a {stdout_kind}"
                replies = tmp_path / f"replies-{stdin_kind}-{stdout_kind}"
                with open(requests) as source, open(replies, "w") as sink:
                    streams = {
                        "stdout": (subprocess.PIPE if stdout_kind == "pipe"
                                   else sink)}
                    if stdin_kind == "pipe":
                        streams["input"] = requests.read_text()
                    else:
                        streams["stdin"] = source
                    done = subprocess.run(
                        [_sys.executable, "-m", "repro", "serve", "--stdio"],
                        env=env, stderr=subprocess.PIPE, text=True,
                        timeout=120, **streams)
                out = done.stdout if stdout_kind == "pipe" \
                    else replies.read_text()
                assert done.stderr == "", f"{where}: {done.stderr}"
                assert done.returncode == 0, where
                lines = [json.loads(line) for line in out.splitlines()]
                assert sorted(r["id"] for r in lines) == [1, 2], where
                assert all(r["result"]["pong"] is True for r in lines), where

    def test_per_endpoint_latency_reservoirs(self):
        perf.reset()

        async def scenario():
            server = inline_server(max_batch=2, linger_us=100)
            client, task = await pipe_client(server)
            for m in range(4):
                await client.request("evaluate", {"cover": XOR_ENC,
                                                  "minterms": [m]})
            await client.close()
            await server.drain()

        run(scenario())
        timers = perf.snapshot()["timers"]
        entry = timers["serve.request.evaluate"]
        assert entry["calls"] == 4
        for field in ("p50_ms", "p95_ms", "p99_ms"):
            assert entry[field] >= 0.0
