"""Bridge from the asyncio event loop to the warm worker pool.

The event loop must never run synthesis: a single Espresso pass would
stall every connection.  :class:`WorkerBridge` submits endpoint work to
the shared :class:`repro.runner.WarmPool` (live processes reused across
requests — no per-call executor spin-up) and exposes it as an
awaitable, keeping the resilient runner's semantics:

* **crash isolation** — a ``BrokenProcessPool`` (worker segfault,
  ``kill -9``) recycles the pool and retries the request up to
  ``retries`` times; other requests only ever see their own error.
  Recycles are deduplicated by pool generation: one crash breaks every
  in-flight future, and only the first observer actually replaces the
  pool;
* **timeouts** — a request over its wall budget (``REPRO_TASK_TIMEOUT``
  by default) recycles the pool (a wedged worker cannot be interrupted
  politely) and is retried, then reported as ``internal``;
* **circuit breaker** — ``threshold`` consecutive pool recycles (5 by
  default) trip the breaker: requests fail fast with
  :class:`DegradedError` (protocol code ``degraded``) instead of
  burning a worker spin-up per doomed attempt.  After ``cooldown``
  seconds (2 by default) the breaker half-opens and lets one probe
  request through; its success closes the breaker, its failure
  re-opens it;
* **result integrity** — when :mod:`repro.faults` is armed (or
  ``REPRO_SERVE_VERIFY=1``), work runs through
  :func:`repro.serve.ops.dispatch_checked` and the reply's digest is
  re-verified on the loop side, so a poisoned worker result is retried
  instead of served;
* **caller-error passthrough** — :exc:`repro.serve.ops.RequestError`
  raised in the worker is not retried (the request itself is wrong).

Tests substitute any object with the same ``async run(op, params)``
coroutine (e.g. a gated in-process executor) to make admission-queue
and drain behaviour deterministic.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, Optional

from repro import perf, runner
from repro.serve.ops import RequestError, dispatch, dispatch_checked

#: Force the result-integrity envelope even with no faults armed.
VERIFY_ENV = "REPRO_SERVE_VERIFY"

#: Consecutive pool recycles before the breaker trips (0 disables).
DEFAULT_BREAKER_THRESHOLD = 5
#: Seconds an open breaker waits before letting a probe through.
DEFAULT_BREAKER_COOLDOWN = 2.0


class DegradedError(RuntimeError):
    """Fail-fast reply while the worker pool is known-unhealthy."""


def _verify_enabled() -> bool:
    from repro import faults
    if os.environ.get(VERIFY_ENV, "").strip().lower() in ("1", "on", "yes",
                                                          "true"):
        return True
    return faults.active()


class CircuitBreaker:
    """Closed → open → half-open worker-health state machine.

    *Failures* are actual pool recycles (crash or wedge); a request
    that merely rides out a sibling's recycle does not count.  After
    ``threshold`` consecutive failures the breaker opens:
    :meth:`allow` answers False (callers fail fast with ``degraded``)
    until ``cooldown`` seconds pass, then exactly one probe request is
    let through.  The probe's success closes the breaker; its failure
    re-opens it for another cooldown.

    Counters: ``breaker.trips`` / ``breaker.fast_fails`` /
    ``breaker.probes`` / ``breaker.closes``.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, threshold: int = DEFAULT_BREAKER_THRESHOLD,
                 cooldown: float = DEFAULT_BREAKER_COOLDOWN,
                 clock=time.monotonic) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = self.CLOSED
        self.failures = 0
        self._opened_at = 0.0
        self._probing = False
        self._clock = clock

    @property
    def enabled(self) -> bool:
        return self.threshold > 0

    def allow(self) -> bool:
        """May a request proceed right now?  (Counts fast-fails.)"""
        if not self.enabled or self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if self._clock() - self._opened_at >= self.cooldown:
                self.state = self.HALF_OPEN
                self._probing = True
                perf.count("breaker.probes")
                return True
            perf.count("breaker.fast_fails")
            return False
        # half-open: exactly one probe in flight
        if self._probing:
            perf.count("breaker.fast_fails")
            return False
        self._probing = True
        perf.count("breaker.probes")
        return True

    def record_success(self) -> None:
        self.failures = 0
        self._probing = False
        if self.state != self.CLOSED:
            self.state = self.CLOSED
            perf.count("breaker.closes")

    def record_failure(self) -> None:
        """One actual pool recycle (not a deduplicated sibling)."""
        if not self.enabled:
            return
        self.failures += 1
        self._probing = False
        if self.state == self.HALF_OPEN or self.failures >= self.threshold:
            if self.state != self.OPEN:
                perf.count("breaker.trips")
            self.state = self.OPEN
            self._opened_at = self._clock()

    def snapshot(self) -> Dict[str, Any]:
        return {"state": self.state, "failures": self.failures,
                "threshold": self.threshold, "cooldown": self.cooldown}


class WorkerBridge:
    """Awaitable endpoint execution on a warm multi-process pool."""

    def __init__(self, pool: Optional[runner.WarmPool] = None,
                 jobs: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 2, backoff: float = 0.1,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        self.pool = pool if pool is not None else runner.shared_pool(jobs)
        self.timeout = timeout if timeout is not None \
            else runner.default_timeout()
        self.retries = retries
        self.backoff = backoff
        self.breaker = breaker if breaker is not None else CircuitBreaker()

    async def run(self, op: str, params: Dict[str, Any]) -> Any:
        """Execute ``ops.dispatch(op, params)`` in a worker, resiliently."""
        if not self.breaker.allow():
            raise DegradedError(
                f"worker pool degraded ({self.breaker.failures} consecutive "
                f"recycles); retry after "
                f"{self.breaker.cooldown:.1f}s")
        checked = _verify_enabled()
        entry = dispatch_checked if checked else dispatch
        attempt = 0
        while True:
            attempt += 1
            generation = self.pool.generation
            future = self.pool.submit(entry, op, params)
            try:
                reply = await asyncio.wait_for(asyncio.wrap_future(future),
                                               timeout=self.timeout)
                if checked:
                    reply = self._unseal(op, reply)
                self.breaker.record_success()
                return reply
            except RequestError:
                # the caller's fault; the pool is fine and retrying
                # cannot help
                self.breaker.record_success()
                raise
            except _PoisonedResult as exc:
                perf.count("serve.worker.poisoned")
                if attempt > self.retries:
                    raise RuntimeError(str(exc)) from None
                perf.count("serve.worker.retries")
            except (BrokenProcessPool, asyncio.TimeoutError) as exc:
                future.cancel()
                if self.pool.recycle(seen=generation):
                    # this failure actually replaced the pool; sibling
                    # requests broken by the same crash dedupe to a ride
                    perf.count("serve.worker.recycles")
                    self.breaker.record_failure()
                if attempt > self.retries:
                    if isinstance(exc, asyncio.TimeoutError):
                        raise TimeoutError(
                            f"op {op!r} timed out after "
                            f"{self.timeout:.1f}s "
                            f"({attempt} attempt(s))") from exc
                    raise
                perf.count("serve.worker.retries")
                if self.backoff:
                    await asyncio.sleep(self.backoff * (2 ** (attempt - 1)))

    @staticmethod
    def _unseal(op: str, envelope: Any) -> Any:
        """Verify a :func:`dispatch_checked` envelope; raise on poison."""
        from repro.store.keys import digest_of
        if (not isinstance(envelope, dict) or "result" not in envelope
                or "digest" not in envelope):
            raise _PoisonedResult(f"op {op!r}: malformed worker envelope")
        result = envelope["result"]
        if digest_of(result) != envelope["digest"]:
            raise _PoisonedResult(
                f"op {op!r}: worker result failed digest verification "
                f"(poisoned/corrupt reply)")
        return result

    def shutdown(self) -> None:
        """Stop the workers (only if this bridge owns a private pool)."""
        self.pool.shutdown()


class _PoisonedResult(RuntimeError):
    """A worker reply whose digest does not match its payload."""


class InlineBridge:
    """Same interface, computed on the event-loop thread (tests only)."""

    async def run(self, op: str, params: Dict[str, Any]) -> Any:
        return dispatch(op, params)

    def shutdown(self) -> None:  # pragma: no cover - nothing to stop
        pass


__all__ = ["CircuitBreaker", "DEFAULT_BREAKER_COOLDOWN",
           "DEFAULT_BREAKER_THRESHOLD", "DegradedError", "InlineBridge",
           "VERIFY_ENV", "WorkerBridge"]
