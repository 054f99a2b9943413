"""The in-process synthesis service: cached, coalesced computation.

:class:`SynthesisService` fronts the content-addressed
:class:`~repro.store.store.ArtifactStore` with the serving semantics
the drivers need:

* **get-or-compute** — every operation derives a canonical artifact
  key (inputs + normalized config + kernel backend + schema version),
  returns the decoded cached payload on a hit, and otherwise computes,
  publishes and returns;
* **request coalescing** — concurrent duplicate requests collapse onto
  one in-flight computation.  Within a process, follower threads block
  on the leader's event and reuse its payload; across processes, the
  per-key file lock serializes compute attempts and the waiters
  re-check the store after the holder publishes, so at most one
  process performs the work;
* **opt-out** — ``REPRO_CACHE=off`` turns every operation into a plain
  computation (nothing read, nothing written);
* **counters** — hits, misses and coalesced requests flow through
  :mod:`repro.perf` (``store.*``) and :meth:`SynthesisService.stats`.

The typed entry points (:meth:`minimize`, :meth:`place_route`,
:meth:`evaluate_batch`, :meth:`yield_run`) wrap
:meth:`get_or_compute` with the codecs of
:mod:`repro.store.codecs`; :meth:`evaluate_batch` computes a miss in
the calling process (a CLI command, a serve worker).  Drivers with
their own fan-out (Table 1, the suite) use :meth:`get_or_compute` per
task and delegate the misses to the resilient runner.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional

from repro import perf
from repro.store import codecs
from repro.store.keys import artifact_key
from repro.store.store import ArtifactStore, cache_enabled


class _InFlight:
    """One in-process leader computation that followers wait on."""

    __slots__ = ("event", "payload", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.payload: Any = None
        self.error: Optional[BaseException] = None


def _identity(value: Any) -> Any:
    return value


class SynthesisService:
    """Cached, coalescing facade over the synthesis pipelines.

    Parameters
    ----------
    store:
        The artifact store; defaults to a fresh store on the default
        root (``REPRO_CACHE_DIR`` / ``.repro/store``).
    enabled:
        Overrides the ``REPRO_CACHE`` opt-out (tests use this).
    """

    def __init__(self, store: Optional[ArtifactStore] = None,
                 enabled: Optional[bool] = None):
        self.store = store if store is not None else ArtifactStore()
        self._enabled_override = enabled
        self._lock = threading.Lock()
        self._inflight: Dict[str, _InFlight] = {}
        self.coalesced_threads = 0
        self.coalesced_processes = 0

    @property
    def enabled(self) -> bool:
        if self._enabled_override is not None:
            return self._enabled_override
        return cache_enabled()

    # ------------------------------------------------------------------
    # the serving core
    # ------------------------------------------------------------------
    def get_or_compute(self, kind: str, request: Any,
                       compute: Callable[[], Any],
                       encode: Callable[[Any], Any] = _identity,
                       decode: Callable[[Any], Any] = _identity) -> Any:
        """Serve one artifact request through the cache.

        ``request`` must be canonically JSON-serializable (it is key
        material); ``compute`` produces the result object on a miss;
        ``encode``/``decode`` map it to and from the stored JSON
        payload.  Concurrent duplicate requests (same key) collapse
        onto a single computation.
        """
        if not self.enabled:
            return compute()
        key = artifact_key(kind, request)
        hit, payload = self.store.get(key)
        if hit:
            return decode(payload)

        # --- in-process coalescing -----------------------------------
        with self._lock:
            entry = self._inflight.get(key)
            leader = entry is None
            if leader:
                entry = self._inflight[key] = _InFlight()
        if not leader:
            self.coalesced_threads += 1
            perf.count("store.coalesced_thread")
            entry.event.wait()
            if entry.error is not None:
                raise entry.error
            return decode(entry.payload)

        try:
            payload = self._compute_locked(kind, key, compute, encode)
        except BaseException as exc:
            entry.error = exc
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            entry.event.set()
        entry.payload = payload
        return decode(payload)

    def _compute_locked(self, kind: str, key: str,
                        compute: Callable[[], Any],
                        encode: Callable[[Any], Any]) -> Any:
        """Miss path under the cross-process per-key file lock."""
        with self.store.locked(key) as contended:
            if contended:
                # another process computed while we waited on its lock
                hit, payload = self.store.get(key)
                if hit:
                    self.coalesced_processes += 1
                    perf.count("store.coalesced_process")
                    return payload
            result = compute()
            payload = encode(result)
            self._put_tolerant(key, payload, kind, lock=False)
        return payload

    def _put_tolerant(self, key: str, payload: Any, kind: str,
                      lock: bool = True) -> None:
        """Publish, treating a failed cache write as a degraded cache.

        The payload in hand is still correct; a disk-tier write error
        (full disk, injected ``store.disk_write``/``store.fsync``
        fault) must cost a future recompute, not this request.
        """
        try:
            self.store.put(key, payload, kind=kind,
                           backend=_backend_name(), lock=lock)
        except OSError:
            perf.count("store.put_errors")

    def serve_cached(self, kind: str, request: Any,
                     decode: Callable[[Any], Any] = _identity):
        """Lookup-only half of :meth:`get_or_compute` (no computation).

        Returns the decoded payload or ``None`` on a miss.  Fan-out
        drivers (Table 1, the suite) use this to partition their task
        lists into hits and misses, dispatch the misses to the
        resilient runner in one batch, then :meth:`publish` the fresh
        results.
        """
        if not self.enabled:
            return None
        hit, payload = self.store.get(artifact_key(kind, request))
        return decode(payload) if hit else None

    def publish(self, kind: str, request: Any, payload: Any) -> None:
        """Publish an already-encoded payload for ``request``."""
        if not self.enabled:
            return
        self._put_tolerant(artifact_key(kind, request), payload, kind)

    # ------------------------------------------------------------------
    # typed operations
    # ------------------------------------------------------------------
    def minimize(self, function, cfg: Optional[dict] = None):
        """Espresso-minimize ``function``; returns the minimized cover.

        ``cfg`` normalizes to ``{"phase": bool}``; with ``phase`` the
        result is ``(cover, phases)`` — the free output-phase
        assignment of GNOR PLAs.
        """
        cfg = dict(cfg or {})
        phase = bool(cfg.pop("phase", False))
        if cfg:
            raise ValueError(f"unknown minimize config keys: {sorted(cfg)}")
        request = {
            "on": codecs.encode_cover(function.on_set),
            "dc": codecs.encode_cover(function.dc_set),
            "phase": phase,
        }

        if phase:
            def compute():
                from repro.espresso import assign_output_phases
                result = assign_output_phases(function)
                return result.cover, list(result.phases)

            def encode(value):
                cover, phases = value
                return {"cover": codecs.encode_cover(cover),
                        "phases": [bool(p) for p in phases]}

            def decode(payload):
                return (codecs.decode_cover(payload["cover"]),
                        [bool(p) for p in payload["phases"]])
        else:
            def compute():
                from repro.espresso import espresso
                return espresso(function).cover

            encode = codecs.encode_cover
            decode = codecs.decode_cover

        return self.get_or_compute("minimize", request, compute,
                                   encode=encode, decode=decode)

    def place_route(self, netlist, fabric, seed: int,
                    compute: Optional[Callable[[], tuple]] = None):
        """Place and route ``netlist`` on ``fabric``.

        Returns ``(placement, routing)``.  The default miss path runs
        the flow inline; drivers that fan out (Table 2 with ``jobs>1``)
        pass their own ``compute`` so misses go through the resilient
        runner.
        """
        request = {
            "netlist": codecs.describe_netlist(netlist),
            "fabric": codecs.describe_fabric(fabric),
            "seed": seed,
        }

        if compute is None:
            def compute():
                from repro.fpga.placement import place
                from repro.fpga.routing import route
                placement = place(netlist, fabric, seed=seed)
                routing = route(netlist, placement, fabric)
                return placement, routing

        return self.get_or_compute(
            "place_route", request, compute,
            encode=lambda pair: codecs.encode_place_route(*pair),
            decode=lambda payload: codecs.decode_place_route(payload,
                                                             netlist))

    def evaluate_batch(self, covers, minterms=None, stream=None):
        """Batched cover evaluation served through the store.

        Evaluates every cover of ``covers`` on a common vector batch —
        either an explicit ``minterms`` list or a deterministic LFSR
        ``stream`` spec (:func:`repro.testgen.lfsr.stream_spec`) — and
        returns per-cover output-mask lists (kind ``eval_batch``).  The
        miss path is one in-process :func:`repro.eval.evaluate_covers`
        call, so the arena fast path and its scalar oracle produce the
        same artifact; stream requests are keyed by the compact spec,
        not the expanded vectors.
        """
        if (minterms is None) == (stream is None):
            raise ValueError("pass exactly one of minterms= or stream=")
        covers = list(covers)
        request: Dict[str, Any] = {
            "covers": [codecs.encode_cover(cover) for cover in covers]}
        if stream is not None:
            from repro.testgen import lfsr
            request["stream"] = dict(stream)
            vectors = lfsr.stream_minterms(stream)
        else:
            vectors = [int(m) for m in minterms]
            request["minterms"] = vectors

        def compute():
            from repro import eval as batch_eval
            return batch_eval.evaluate_covers(covers, vectors)

        return self.get_or_compute(
            "eval_batch", request, compute,
            encode=lambda masks: {"masks": [[int(m) for m in row]
                                            for row in masks]},
            decode=lambda payload: [list(row)
                                    for row in payload["masks"]])

    def yield_run(self, settings, compute: Callable[[], Any]):
        """Serve a Monte Carlo yield report for ``settings``.

        The report aggregates deterministically from the settings (base
        seed included), so the whole report is one artifact; the miss
        path (``compute``) is the chunked resilient-runner sweep of
        :func:`repro.robustness.yield_engine.estimate_yield`.
        """
        from dataclasses import asdict
        return self.get_or_compute(
            "yield", {"settings": asdict(settings)}, compute,
            encode=codecs.encode_yield_report,
            decode=codecs.decode_yield_report)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Store stats plus the service's coalescing counters."""
        data = self.store.stats()
        data["coalesced_threads"] = self.coalesced_threads
        data["coalesced_processes"] = self.coalesced_processes
        return data


def _backend_name() -> str:
    from repro import kernels
    return kernels.backend()


# ----------------------------------------------------------------------
# the process-wide default service
# ----------------------------------------------------------------------
_default_service: Optional[SynthesisService] = None
_default_lock = threading.Lock()


def get_service() -> SynthesisService:
    """The shared default service (store root re-resolved on env change).

    Drivers call this instead of constructing their own service so the
    in-memory LRU tier and coalescing table are shared process-wide.
    A change of ``REPRO_CACHE_DIR`` (tests point it at temp dirs)
    transparently swaps in a fresh store.
    """
    global _default_service
    with _default_lock:
        from repro.store.store import default_root
        root = default_root()
        if _default_service is None or _default_service.store.root != root:
            _default_service = SynthesisService(ArtifactStore(root))
        return _default_service


def reset_service() -> None:
    """Drop the default service (tests isolate themselves with this)."""
    global _default_service
    with _default_lock:
        _default_service = None


__all__ = ["SynthesisService", "get_service", "reset_service"]
