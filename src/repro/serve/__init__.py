"""Asynchronous synthesis serving: the network front end.

The serving layer stacks four pieces (DESIGN section 10):

* :mod:`repro.serve.protocol` — newline-delimited JSON over any byte
  stream (TCP, socketpair, stdio pipes);
* :mod:`repro.serve.batcher` — the adaptive micro-batcher that turns N
  concurrent ``evaluate`` requests into one batch-arena pass;
* :mod:`repro.serve.workers` — the bridge onto the warm multi-process
  pool (``repro.runner.WarmPool``: timeouts, retries, crash recovery,
  no per-call spin-up);
* :mod:`repro.serve.server` — admission control with load-shedding,
  per-endpoint latency metrics, graceful drain;

plus :mod:`repro.serve.client` (pipelined asyncio client + its blocking
wrapper)
and :mod:`repro.serve.ops` (the picklable worker-side endpoints over
the coalescing ``SynthesisService``).

Entry point: ``repro serve`` (see the CLI), or programmatically::

    from repro.serve import ServeConfig, SynthesisServer

    server = SynthesisServer(ServeConfig(port=7929))
    asyncio.run(server.run_tcp())
"""

from repro.serve.batcher import BatchCollector
from repro.serve.client import (AsyncServeClient, RetryPolicy, ServeClient,
                                ServeError)
from repro.serve.server import ServeConfig, SynthesisServer
from repro.serve.workers import (CircuitBreaker, DegradedError, InlineBridge,
                                 WorkerBridge)

__all__ = ["AsyncServeClient", "BatchCollector", "CircuitBreaker",
           "DegradedError", "InlineBridge", "RetryPolicy", "ServeClient",
           "ServeConfig", "ServeError", "SynthesisServer", "WorkerBridge"]
