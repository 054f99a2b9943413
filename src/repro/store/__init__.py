"""Content-addressed artifact store + concurrent synthesis service.

The serving layer of the reproduction: every expensive synthesis
artifact (minimized covers, FPGA place-and-route results, Monte Carlo
yield reports, Table 1 rows, suite entries) is computed once, addressed
by a canonical content hash of its inputs, and reused by every driver
and process that asks again.

Modules
-------
:mod:`repro.store.keys`
    Canonical request hashing (inputs + config + kernel backend +
    schema version).
:mod:`repro.store.store`
    :class:`ArtifactStore` — the persistent disk tier (atomic writes,
    digest verification, quarantine) under a bounded in-memory LRU,
    with per-key file locks for concurrent processes.
:mod:`repro.store.codecs`
    JSON codecs between result objects and stored payloads.
:mod:`repro.store.service`
    :class:`SynthesisService` — get-or-compute with request coalescing
    (duplicate concurrent requests block on one in-flight computation).

Opt-out: set ``REPRO_CACHE=off``; relocate with ``REPRO_CACHE_DIR``.
"""

from repro.store.keys import (SCHEMA_VERSIONS, artifact_key,
                              canonical_bytes, digest_of, schema_version)
from repro.store.store import (ArtifactStore, CACHE_DIR_ENV, CACHE_DISK_ENV,
                               CACHE_ENV, cache_enabled, default_disk_bytes,
                               default_root)
from repro.store.service import (SynthesisService, get_service,
                                 reset_service)

__all__ = [
    "ArtifactStore",
    "CACHE_DIR_ENV",
    "CACHE_DISK_ENV",
    "CACHE_ENV",
    "SCHEMA_VERSIONS",
    "SynthesisService",
    "artifact_key",
    "cache_enabled",
    "canonical_bytes",
    "default_disk_bytes",
    "default_root",
    "digest_of",
    "get_service",
    "reset_service",
    "schema_version",
]
