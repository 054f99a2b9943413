"""Clients for the newline-delimited JSON synthesis protocol.

Two flavours over the same wire format:

* :class:`AsyncServeClient` — asyncio, **pipelining**: many coroutines
  share one connection, requests are tagged with monotonically
  increasing ids and responses are matched back as they arrive (the
  server may reorder).  This is what the load generator and the
  concurrent-client tests use; it is also how the micro-batcher is fed
  enough simultaneous requests to batch.
* :class:`ServeClient` — blocking, strictly request/response: a thin
  synchronous wrapper that runs an :class:`AsyncServeClient` on a
  private event loop.  Convenient for scripts and debugging (``repro
  serve`` + a five-line client).

Both raise :class:`ServeError` for protocol-level error replies; the
error's ``code`` distinguishes load-shedding (``overloaded``) from
caller bugs (``bad_request``) so clients can implement retry policies.

**Resilience.**  The async client carries a :class:`RetryPolicy`:
capped exponential backoff with *full jitter* on ``overloaded``/
``degraded`` replies, on connection resets/EOF and on deadline expiry,
plus connect and per-request read deadlines so a dead or wedged server
can never hang a caller.  Replays are **idempotent by construction**:
a retried request keeps its original request id, and every server
reply is canonical JSON derived content-addressably from the request
— a replayed request yields byte-identical results, so retrying after
an ambiguous failure (reset mid-reply) cannot produce wrong answers,
only repeated work.
``shutting_down``/``bad_request``/``internal`` replies are never
retried.  On the blocking client a deadline expiry that outlives the
retries surfaces as :class:`repro.errors.ReproInputError` (the CLI's
clean exit), not an indefinite hang.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro import perf
from repro.errors import ReproInputError
from repro.serve import protocol

#: Error codes worth retrying: transient server states that a backoff
#: is expected to clear.  Everything else is final.
RETRYABLE_CODES = frozenset({protocol.ERR_OVERLOADED,
                             protocol.ERR_DEGRADED})


class ServeError(RuntimeError):
    """An error reply from the server (carries the protocol code)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


@dataclass
class RetryPolicy:
    """Capped exponential backoff with full jitter.

    ``delay(attempt)`` draws uniformly from ``[0, min(cap, base *
    2**attempt)]`` — full jitter decorrelates a thundering herd of
    clients all shed by the same ``overloaded`` burst.  ``seed`` makes
    the jitter sequence reproducible (the chaos harness pins it).

    ``deadline`` is the per-request read budget in seconds (``None``
    disables); ``connect_timeout`` bounds (re)connection attempts.
    """

    retries: int = 4
    base: float = 0.05
    cap: float = 2.0
    deadline: Optional[float] = 30.0
    connect_timeout: float = 10.0
    seed: Optional[int] = None
    _rng: random.Random = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def delay(self, attempt: int) -> float:
        """Jittered sleep before retry ``attempt`` (1-based)."""
        ceiling = min(self.cap, self.base * (2 ** max(0, attempt - 1)))
        return self._rng.uniform(0.0, ceiling)

    @staticmethod
    def retryable_error(exc: BaseException) -> bool:
        """Is this failure transient (retry) or final (raise)?"""
        if isinstance(exc, ServeError):
            return exc.code in RETRYABLE_CODES
        return isinstance(exc, (ConnectionResetError, BrokenPipeError,
                                ConnectionAbortedError, EOFError,
                                asyncio.IncompleteReadError))


def _unwrap(document: dict) -> Any:
    if document.get("ok"):
        return document.get("result")
    error = document.get("error") or {}
    raise ServeError(error.get("code", "internal"),
                     error.get("message", "unknown server error"))


class AsyncServeClient:
    """One pipelined connection; safe for concurrent ``request`` calls.

    A client built with :meth:`connect` owns its connection and will
    transparently reconnect and replay after a reset (same request id,
    content-addressed replies — see the module docstring); a client
    :meth:`attach`-ed to an existing stream pair cannot reconnect, so
    connection failures surface to the caller after in-place retries.
    """

    def __init__(self, retry: Optional[RetryPolicy] = None) -> None:
        self.retry = retry if retry is not None else RetryPolicy()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[int, "asyncio.Future[dict]"] = {}
        self._next_id = 0
        self._reader_task: Optional[asyncio.Task] = None
        self._write_lock = asyncio.Lock()
        self._address: Optional[Tuple[str, int]] = None
        self._connect_lock = asyncio.Lock()

    async def connect(self, host: str, port: int) -> "AsyncServeClient":
        self._address = (host, port)
        await self._open_connection()
        return self

    async def _open_connection(self) -> None:
        host, port = self._address
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port,
                                    limit=protocol.MAX_LINE_BYTES),
            timeout=self.retry.connect_timeout)
        self.attach(reader, writer)

    def attach(self, reader: asyncio.StreamReader,
               writer: asyncio.StreamWriter) -> "AsyncServeClient":
        """Adopt an existing stream pair (pipe/socketpair transports)."""
        self._reader = reader
        self._writer = writer
        self._reader_task = asyncio.create_task(self._read_loop())
        return self

    async def _read_loop(self) -> None:
        error: BaseException = ConnectionResetError("connection closed")
        reader = self._reader
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.endswith(b"\n"):
                    # torn final line (reset mid-reply): not a valid
                    # response, fail pending requests as a reset
                    break
                try:
                    document = protocol.parse_response(line)
                except ValueError:
                    continue  # not ours to crash on; skip the line
                future = self._pending.pop(document.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(document)
        except (ConnectionResetError, BrokenPipeError, ValueError,
                OSError) as exc:
            error = exc
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionResetError(repr(error))
                        if not isinstance(error, ConnectionResetError)
                        else error)
            self._pending.clear()

    async def _reconnect(self) -> bool:
        """Re-establish a :meth:`connect`-owned connection; False when
        this client cannot (attach mode)."""
        if self._address is None:
            return False
        async with self._connect_lock:
            # a live writer alone is not proof of health: after a
            # server-side abort the writer does not learn it is dead
            # until the next write, but the read loop does — require
            # both before declaring someone else already reconnected
            if (self._writer is not None and not self._writer.is_closing()
                    and self._reader_task is not None
                    and not self._reader_task.done()):
                return True
            await self._teardown()
            await self._open_connection()
            perf.count("retries.reconnects")
            return True

    async def _teardown(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None

    async def request(self, op: str, params: Optional[dict] = None,
                      deadline: Optional[float] = None) -> Any:
        """Send one request; resolves to its ``result`` (or raises).

        ``deadline`` overrides the policy's per-request read budget.
        Transient failures (``overloaded``/``degraded`` replies,
        connection resets, deadline expiry on a reconnectable client)
        are retried with jittered backoff under the *same* request id.
        """
        if self._writer is None:
            raise RuntimeError("client is not connected")
        if deadline is None:
            deadline = self.retry.deadline
        self._next_id += 1
        request_id = self._next_id
        attempt = 0
        while True:
            attempt += 1
            try:
                return await self._attempt(request_id, op, params, deadline)
            except BaseException as exc:  # noqa: BLE001 - classified below
                if isinstance(exc, asyncio.CancelledError):
                    raise
                timed_out = isinstance(exc, asyncio.TimeoutError)
                if timed_out and self._address is None:
                    raise TimeoutError(
                        f"request {op!r} exceeded its "
                        f"{deadline:.1f}s deadline") from exc
                retryable = (self.retry.retryable_error(exc)
                             or isinstance(exc, ConnectionError)
                             or timed_out)
                if not retryable or attempt > self.retry.retries:
                    if timed_out:
                        raise TimeoutError(
                            f"request {op!r} exceeded its "
                            f"{deadline:.1f}s deadline "
                            f"({attempt} attempt(s))") from exc
                    raise
                perf.count("retries.requests")
                if isinstance(exc, ServeError):
                    perf.count(f"retries.{exc.code}")
                else:
                    perf.count("retries.connection")
                await asyncio.sleep(self.retry.delay(attempt))
                if not isinstance(exc, ServeError):
                    # connection-level failure (reset / EOF / deadline):
                    # the stream state is unknown; replay needs a fresh
                    # connection when this client owns one
                    if not await self._reconnect():
                        raise

    async def _attempt(self, request_id: int, op: str,
                       params: Optional[dict],
                       deadline: Optional[float]) -> Any:
        if (self._writer is None or self._writer.is_closing()
                or (self._reader_task is not None
                    and self._reader_task.done())):
            # dead stream: fail fast (and reconnect, when possible)
            # instead of writing into the void and waiting out the
            # deadline
            raise ConnectionResetError("connection is closed")
        future: "asyncio.Future[dict]" = \
            asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            # write() buffers synchronously; draining per request would
            # cost two event-loop hops on every call, so only apply
            # flow control once the transport's buffer actually backs up
            self._writer.write(protocol.encode_request(request_id, op,
                                                       params))
            if self._writer.transport.get_write_buffer_size() > 65536:
                async with self._write_lock:
                    await self._writer.drain()
            if deadline is not None:
                document = await asyncio.wait_for(future, timeout=deadline)
            else:
                document = await future
        finally:
            pending = self._pending.pop(request_id, None)
            if pending is not None and not pending.done():
                pending.cancel()
        return _unwrap(document)

    async def close(self) -> None:
        await self._teardown()

    async def __aenter__(self) -> "AsyncServeClient":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()


class ServeClient:
    """Blocking request/response client: an :class:`AsyncServeClient`
    driven on a private event loop (scripts, debugging).

    ``timeout`` is the connect and per-reply deadline of its copy of
    ``retry``; an expired deadline is retried on a fresh connection, and
    once the retries are spent it raises
    :class:`repro.errors.ReproInputError` instead of hanging.
    """

    def __init__(self, host: str, port: int,
                 timeout: Optional[float] = 30.0,
                 retry: Optional[RetryPolicy] = None) -> None:
        self._address = (host, port)
        self._timeout = timeout
        policy = replace(retry or RetryPolicy(), deadline=timeout,
                         connect_timeout=timeout)
        self._loop = asyncio.new_event_loop()
        try:
            self._client = self._loop.run_until_complete(
                self._connect(policy))
        except BaseException:
            self._loop.close()
            raise
        self.retry = self._client.retry

    async def _connect(self, policy: RetryPolicy) -> AsyncServeClient:
        # built inside the private loop: on Python 3.9 asyncio.Lock
        # binds to whichever loop is current when it is constructed
        return await AsyncServeClient(policy).connect(*self._address)

    def request(self, op: str, params: Optional[dict] = None) -> Any:
        try:
            return self._loop.run_until_complete(
                self._client.request(op, params))
        except (TimeoutError, asyncio.TimeoutError) as exc:
            raise ReproInputError(
                f"server {self._address[0]}:{self._address[1]} did not "
                f"reply to {op!r} within {self._timeout:.1f}s") from exc

    def close(self) -> None:
        if not self._loop.is_closed():
            self._loop.run_until_complete(self._client.close())
            self._loop.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


__all__ = ["AsyncServeClient", "RETRYABLE_CODES", "RetryPolicy",
           "ServeClient", "ServeError"]
