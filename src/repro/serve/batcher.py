"""Adaptive micro-batching for the ``evaluate`` endpoint.

The serving hot path is inference-shaped: many concurrent clients, each
asking for one cover on one (or a few) input vectors.  Answering each
request alone wastes exactly what the batch arena was built to save —
per-call packing, kernel-launch overhead, and a worker-pool round trip
per request.  :class:`BatchCollector` turns concurrency into batch
shape:

* requests append to an open batch; the **first** member arms a linger
  timer (``linger_us``, default :data:`DEFAULT_LINGER_US`);
* the batch flushes when it reaches ``max_batch`` members (*size
  trigger*) or when the timer fires (*linger trigger*) — adaptive the
  same way Kafka's ``linger.ms``/``batch.size`` pair is: under load,
  batches fill before the timer and latency cost is ~0; when idle, a
  lone request waits at most ``linger_us`` microseconds;
* a flush **deduplicates** covers (by canonical encoding) and vectors
  across members, hands one ``{covers, minterms}`` payload to the
  flush function — one :func:`repro.eval.evaluate_covers` arena pass
  on the warm worker pool — and scatters each member's
  ``(cover, vector)`` cells back to its waiting future.

So N concurrent single-vector requests cost one vectorized kernel pass
and one worker round trip, not N.  Members of a failed flush all see
the exception; members never block each other beyond the shared pass.

Tuning: ``max_batch`` and ``linger_us`` (``repro serve --batch`` and
``--linger-us``, carried by :class:`repro.serve.server.ServeConfig`).
``max_batch=1`` degenerates to the unbatched per-request path the load
benchmark compares against.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

from repro import perf
from repro.serve import protocol

#: Default flush size: one arena pass per 64 concurrent requests.
DEFAULT_MAX_BATCH = 64

#: Default linger budget in microseconds — the most latency an idle-
#: period request trades for batching.
DEFAULT_LINGER_US = 1000


class _Member:
    """One queued ``evaluate`` request awaiting its flush."""

    __slots__ = ("cover_key", "cover_payload", "minterms", "future")

    def __init__(self, cover_key: str, cover_payload: dict,
                 minterms: List[int],
                 future: "asyncio.Future[List[int]]") -> None:
        self.cover_key = cover_key
        self.cover_payload = cover_payload
        self.minterms = minterms
        self.future = future


class BatchCollector:
    """Size-or-linger micro-batcher over an async flush function.

    ``flush_fn`` receives one ``{"covers": [...], "minterms": [...]}``
    payload (both axes deduplicated, first-seen order) and returns the
    ``{"masks": [[int]]}`` cross-product result; :meth:`submit` returns
    each member's own row of masks.
    """

    def __init__(self, flush_fn: Callable[[dict], Awaitable[dict]],
                 max_batch: int = DEFAULT_MAX_BATCH,
                 linger_us: int = DEFAULT_LINGER_US) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.flush_fn = flush_fn
        self.max_batch = max_batch
        self.linger_us = max(0, int(linger_us))
        self._members: List[_Member] = []
        self._timer: Optional[asyncio.TimerHandle] = None

    @property
    def pending(self) -> int:
        """Members waiting in the open batch."""
        return len(self._members)

    async def submit(self, cover_payload: dict,
                     minterms: List[int]) -> List[int]:
        """Queue one request; resolves to its per-vector output masks."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[List[int]]" = loop.create_future()
        key = protocol.dumps(cover_payload)
        self._members.append(_Member(key, cover_payload, minterms, future))
        perf.count("serve.batch.requests")
        if len(self._members) >= self.max_batch:
            perf.count("serve.batch.flush_full")
            self._flush_now()
        elif self._timer is None:
            if self.linger_us == 0:
                perf.count("serve.batch.flush_linger")
                self._flush_now()
            else:
                self._timer = loop.call_later(self.linger_us / 1e6,
                                              self._on_linger)
        return await future

    def _on_linger(self) -> None:
        self._timer = None
        if self._members:
            perf.count("serve.batch.flush_linger")
            self._flush_now()

    def _flush_now(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        members, self._members = self._members, []
        asyncio.get_running_loop().create_task(self._run_flush(members))

    async def drain(self) -> None:
        """Flush whatever is queued and wait for it (graceful shutdown)."""
        if self._members:
            perf.count("serve.batch.flush_drain")
            members, self._members = self._members, []
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            await self._run_flush(members)

    # ------------------------------------------------------------------
    # the flush: dedup -> one pass -> scatter
    # ------------------------------------------------------------------
    @staticmethod
    def _pack(members: List[_Member]
              ) -> Tuple[dict, List[int], List[List[int]]]:
        """Deduplicated payload + per-member (cover, vector) indices."""
        cover_index: Dict[str, int] = {}
        covers: List[dict] = []
        vector_index: Dict[int, int] = {}
        vectors: List[int] = []
        member_cover: List[int] = []
        member_vectors: List[List[int]] = []
        for member in members:
            ci = cover_index.get(member.cover_key)
            if ci is None:
                ci = cover_index[member.cover_key] = len(covers)
                covers.append(member.cover_payload)
            member_cover.append(ci)
            rows = []
            for minterm in member.minterms:
                vi = vector_index.get(minterm)
                if vi is None:
                    vi = vector_index[minterm] = len(vectors)
                    vectors.append(minterm)
                rows.append(vi)
            member_vectors.append(rows)
        payload = {"covers": covers, "minterms": vectors}
        return payload, member_cover, member_vectors

    async def _run_flush(self, members: List[_Member]) -> None:
        payload, member_cover, member_vectors = self._pack(members)
        perf.count("serve.batch.flushes")
        perf.count("serve.batch.members", len(members))
        perf.count("serve.batch.unique_covers", len(payload["covers"]))
        perf.count("serve.batch.unique_vectors",
                   len(payload["minterms"]))
        try:
            with perf.timer("serve.batch.flush"):
                result = await self.flush_fn(payload)
            masks = result["masks"]
            errors = result.get("errors", {})
        except BaseException as exc:  # noqa: BLE001 - fan the error out
            for member in members:
                if not member.future.done():
                    member.future.set_exception(exc)
            return
        for member, ci, rows in zip(members, member_cover, member_vectors):
            if member.future.done():
                continue
            if masks[ci] is None:
                from repro.serve.ops import RequestError
                member.future.set_exception(RequestError(
                    errors.get(str(ci), "undecodable cover")))
            else:
                member.future.set_result(
                    [int(masks[ci][vi]) for vi in rows])


__all__ = ["BatchCollector", "DEFAULT_LINGER_US", "DEFAULT_MAX_BATCH"]
