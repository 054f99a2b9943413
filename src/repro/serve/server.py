"""The asyncio synthesis server: admission, dispatch, drain.

``SynthesisServer`` puts a network front end on the coalescing
``SynthesisService`` (ROADMAP: "Network-facing synthesis service").
One asyncio event loop handles connections and protocol framing; all
computation runs on the warm multi-process pool behind
:class:`~repro.serve.workers.WorkerBridge`; the ``evaluate`` hot path
goes through the :class:`~repro.serve.batcher.BatchCollector` so
concurrent clients share arena passes.

**Admission control / backpressure.**  A bounded admission budget
(``queue_limit``) caps requests in flight across all connections.  A
request arriving over budget is *shed immediately* with an
``overloaded`` error reply (the 429 analogue) — the client learns in
microseconds instead of queueing into a latency collapse.  Pipelined
requests on one connection dispatch concurrently; responses are
written as they finish and clients correlate by ``id``.

**Graceful drain.**  ``SIGINT``/``SIGTERM`` (or :meth:`drain`) stops
accepting new work: listeners close, fresh requests get
``shutting_down`` replies, the micro-batcher flushes its open batch,
in-flight requests run to completion and their responses are written,
then connections close and the worker bridge shuts down.

**Metrics.**  Every endpoint rides :mod:`repro.perf`:
``serve.request.<op>`` timers (bounded latency reservoirs → p50/p95/
p99 via ``perf.snapshot()``), ``serve.requests`` / ``serve.overloaded``
/ ``serve.errors`` counters, and the batcher's ``serve.batch.*``
family.  The ``stats`` endpoint exposes the snapshot plus the
synthesis-service store counters to remote scrapers.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import sys
import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from repro import faults, perf
from repro.serve import protocol
from repro.serve.batcher import (BatchCollector, DEFAULT_LINGER_US,
                                 DEFAULT_MAX_BATCH)
from repro.serve.ops import OPS, RequestError, _minterm_list, _require
from repro.serve.protocol import ProtocolError
from repro.serve.workers import DegradedError, WorkerBridge

#: Default admission budget: requests admitted concurrently before
#: load-shedding begins.
DEFAULT_QUEUE_LIMIT = 256

#: Every op a client may send: the server's own three plus the worker
#: ops, except the batcher's internal ``evaluate_flush``.
PUBLIC_OPS = frozenset({"ping", "stats", "evaluate"}
                       | (OPS.keys() - {"evaluate_flush"}))


def _hard_reset(writer: asyncio.StreamWriter) -> None:
    """Tear a connection down so the peer notices *immediately*.

    Warm-pool workers are plain forks, so each holds a duplicate of
    every descriptor the server had open when it forked — including
    this connection's.  ``transport.abort()`` only drops the server's
    own descriptor; the kernel keeps the connection alive for the
    duplicates and the peer's pending read blocks until its deadline.
    ``socket.shutdown`` acts on the socket itself, not a descriptor,
    so the peer sees the teardown no matter how many forks hold one.
    """
    transport = writer.transport
    if transport is None:
        return
    sock = transport.get_extra_info("socket")
    if sock is not None:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:  # pragma: no cover - already disconnected
            pass
    transport.abort()


class _StdoutWriter:
    """The reply side of ``repro serve --stdio``: blocking stdout writes.

    asyncio's write-pipe transport rejects regular files, so each reply
    is written and flushed whole instead, which works on a pipe, a
    terminal or a file alike.  Provides the part of the
    ``StreamWriter`` interface :meth:`SynthesisServer.serve_connection`
    uses.
    """

    transport = None  # nothing to hard-reset or to measure

    def __init__(self, stream) -> None:
        self._stream = stream

    def write(self, data: bytes) -> None:
        try:
            self._stream.write(data)
            self._stream.flush()
        except BrokenPipeError:  # the reader went away; nobody to tell
            pass

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


def _feed_stdin(loop: asyncio.AbstractEventLoop,
                reader: asyncio.StreamReader) -> None:
    """Thread body: copy this process's stdin into ``reader`` until EOF.

    Blocking reads work on a pipe, a terminal or a regular file, where
    asyncio's read-pipe transport rejects files.  ``os.read`` on the
    descriptor, not ``sys.stdin.buffer``: a daemon thread still blocked
    inside the buffered reader would hold its lock at interpreter exit.
    """
    fd = sys.stdin.fileno()
    try:
        while True:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            loop.call_soon_threadsafe(reader.feed_data, chunk)
        loop.call_soon_threadsafe(reader.feed_eof)
    except RuntimeError:  # the session ended first; its loop is closed
        pass


@dataclass
class ServeConfig:
    """Tunables of one server instance (``repro serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = DEFAULT_MAX_BATCH
    linger_us: int = DEFAULT_LINGER_US
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    jobs: Optional[int] = None  # None = cpu count


class SynthesisServer:
    """One serving instance: endpoints, batcher, admission, drain."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 executor: Optional[Any] = None) -> None:
        self.config = config or ServeConfig()
        self.executor = executor if executor is not None else \
            WorkerBridge(jobs=self.config.jobs)
        self.batcher = BatchCollector(
            lambda payload: self.executor.run("evaluate_flush", payload),
            max_batch=self.config.max_batch,
            linger_us=self.config.linger_us)
        self.draining = False
        self._active = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._tcp_server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[asyncio.Task] = set()
        self._drain_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def handle_request(self, line: bytes) -> bytes:
        """One request line in, one response line out."""
        try:
            request_id, op, params = protocol.parse_request(line)
        except ProtocolError as exc:
            perf.count("serve.errors")
            return protocol.encode_error(exc.request_id, exc.code, str(exc))

        if self.draining:
            perf.count("serve.shed_draining")
            return protocol.encode_error(request_id,
                                         protocol.ERR_SHUTTING_DOWN,
                                         "server is draining")
        if (self._active >= self.config.queue_limit
                or faults.check("serve.overload") is not None):
            perf.count("serve.overloaded")
            return protocol.encode_error(
                request_id, protocol.ERR_OVERLOADED,
                f"admission queue full "
                f"({self.config.queue_limit} in flight); retry later")

        self._active += 1
        self._idle.clear()
        perf.count("serve.requests")
        start = asyncio.get_running_loop().time()
        try:
            result = await self._dispatch(op, params)
            response = protocol.encode_response(request_id, result)
        except (RequestError, ProtocolError) as exc:
            perf.count("serve.errors")
            code = exc.code if isinstance(exc, ProtocolError) \
                else protocol.ERR_BAD_REQUEST
            response = protocol.encode_error(request_id, code, str(exc))
        except DegradedError as exc:
            perf.count("serve.degraded")
            response = protocol.encode_error(request_id,
                                             protocol.ERR_DEGRADED,
                                             str(exc))
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001 - fault barrier
            perf.count("serve.errors")
            response = protocol.encode_error(request_id,
                                             protocol.ERR_INTERNAL,
                                             repr(exc))
        finally:
            elapsed = asyncio.get_running_loop().time() - start
            # bound the timer-name space: arbitrary client op strings
            # must not grow the perf tables without limit
            label = op if op in PUBLIC_OPS else "unknown"
            perf.observe(f"serve.request.{label}", elapsed)
            self._active -= 1
            if self._active == 0:
                self._idle.set()
        return response

    async def _dispatch(self, op: str, params: Dict[str, Any]) -> Any:
        if op not in PUBLIC_OPS:
            raise ProtocolError(protocol.ERR_UNKNOWN_OP,
                                f"unknown op {op!r}")
        if op == "ping":
            from repro import kernels
            return {"pong": True, "backend": kernels.backend(),
                    "pid": os.getpid()}
        if op == "stats":
            return self._stats()
        if op == "evaluate":  # the micro-batched single-cover hot path
            cover = _require(params, "cover", dict)
            masks = await self.batcher.submit(cover, _minterm_list(params))
            return {"masks": masks}
        return await self.executor.run(op, params)

    def _stats(self) -> Dict[str, Any]:
        from repro.store.service import get_service
        breaker = getattr(self.executor, "breaker", None)
        data: Dict[str, Any] = {"perf": perf.snapshot(),
                                "active": self._active,
                                "draining": self.draining,
                                "queue_limit": self.config.queue_limit,
                                "max_batch": self.config.max_batch,
                                "linger_us": self.config.linger_us,
                                "breaker": (breaker.snapshot()
                                            if breaker is not None else None)}
        try:
            data["store"] = get_service().stats()
        except OSError:  # pragma: no cover - store root unavailable
            data["store"] = None
        return data

    # ------------------------------------------------------------------
    # transports
    # ------------------------------------------------------------------
    async def serve_connection(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        """Drive one duplex stream (TCP peer, socketpair, or stdio).

        Requests are dispatched as they arrive (pipelining); a per-
        connection lock serializes response writes.
        """
        write_lock = asyncio.Lock()
        pending: Set[asyncio.Task] = set()

        async def respond(line: bytes) -> None:
            response = await self.handle_request(line)
            flush_fault = faults.check("serve.flush")
            if flush_fault is not None:  # "delay": a stalled flush
                await asyncio.sleep(flush_fault.delay_s)
            if faults.check("serve.conn") is not None:
                # "reset": the peer sees a half-written reply then a
                # hard connection reset — the client must detect the
                # torn line and replay on a fresh connection
                writer.write(response[:max(1, len(response) // 2)])
                _hard_reset(writer)
                return
            # write() appends to the transport buffer synchronously
            # (responses never interleave); drain — two event-loop hops
            # — only once the peer stops keeping up
            writer.write(response)
            transport = writer.transport
            if transport is not None and \
                    transport.get_write_buffer_size() > 65536:
                async with write_lock:
                    await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, BrokenPipeError):
                    break
                except asyncio.CancelledError:
                    # drain cancels idle reader loops; in-flight
                    # responses were already awaited, so close cleanly
                    break
                except ValueError:
                    # line exceeded the stream limit; the framing is
                    # lost, so report and drop the connection
                    async with write_lock:
                        writer.write(protocol.encode_error(
                            None, protocol.ERR_BAD_REQUEST,
                            "request line too long"))
                        await writer.drain()
                    break
                if not line:
                    break
                task = asyncio.create_task(respond(line))
                pending.add(task)
                task.add_done_callback(pending.discard)
        finally:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            try:
                writer.close()
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError,
                    BrokenPipeError, OSError):
                # cancellation re-delivers here when drain tears the
                # connection down; the stream is closing either way.
                pass

    async def start_tcp(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""

        async def on_connect(reader, writer):
            task = asyncio.current_task()
            self._connections.add(task)
            try:
                await self.serve_connection(reader, writer)
            finally:
                self._connections.discard(task)

        self._tcp_server = await asyncio.start_server(
            on_connect, host=self.config.host, port=self.config.port,
            limit=protocol.MAX_LINE_BYTES)
        sockname = self._tcp_server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_stdio(self) -> None:
        """Same protocol over this process's stdin/stdout.

        Either stream may be a pipe, a terminal or a regular file: a
        daemon thread feeds stdin into the session's reader, and each
        reply is one blocking write + flush on stdout.
        """
        reader = asyncio.StreamReader(limit=protocol.MAX_LINE_BYTES)
        threading.Thread(target=_feed_stdin,
                         args=(asyncio.get_running_loop(), reader),
                         name="repro-serve-stdin", daemon=True).start()
        await self.serve_connection(reader, _StdoutWriter(sys.stdout.buffer))
        await self.drain()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Stop admitting, flush the batcher, finish in-flight work.

        Idempotent: concurrent callers (a second SIGTERM racing the
        stdio EOF path, tests draining twice) all await one shared
        drain task, so the teardown sequence runs exactly once and
        every caller returns only when it has fully finished.
        """
        if self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain_once())
        await self._drain_task

    async def _drain_once(self) -> None:
        self.draining = True
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        await self.batcher.drain()
        await self._idle.wait()
        # Straggler grace: lines already buffered on a connection when
        # draining flipped — e.g. racing a concurrently-flushing batch
        # window — must still be read and answered ``shutting_down``
        # rather than dying silently when the reader loops are
        # cancelled below.  A short yield window lets those reader
        # loops pick the lines up (their replies are synchronous
        # encode_error's, no worker round-trip).
        for _ in range(10):
            await asyncio.sleep(0.005)
            if self._idle.is_set():
                break
        await self._idle.wait()
        if self._connections:
            # in-flight requests are done; close the reader loops
            for task in list(self._connections):
                task.cancel()
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)
        self.executor.shutdown()

    async def run_tcp(self, ready=None) -> None:
        """Serve TCP until SIGINT/SIGTERM, then drain gracefully.

        ``ready`` (optional callable) receives the bound ``(host,
        port)`` once listening — the CLI prints it, the benchmarks
        parse it.
        """
        host, port = await self.start_tcp()
        if ready is not None:
            ready(host, port)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread / platform without signal support
        try:
            await stop.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.drain()


__all__ = ["DEFAULT_QUEUE_LIMIT", "ServeConfig", "SynthesisServer"]
