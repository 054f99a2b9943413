"""Resilient parallel task runner.

The long-running drivers — ``repro suite``, the Table 1/2 benches, the
yield sweeps — fan independent tasks out over worker processes.  A bare
``ProcessPoolExecutor.map`` dies with the first worker: one segfaulting
task (or an operator's ``kill -9``) loses the whole sweep, and a hung
task blocks it forever.  :func:`run_tasks` wraps the pool with the
hardening the ROADMAP's production north star asks for:

* **per-task timeouts** — a task that exceeds its budget is recorded as
  ``timeout`` and the pool is recycled so its worker cannot wedge the
  sweep (default from ``REPRO_TASK_TIMEOUT`` seconds, unlimited when
  unset);
* **bounded retry with exponential backoff** — transient failures
  (including killed workers) are retried up to ``retries`` times;
* **crash isolation** — a ``BrokenProcessPool`` (worker killed,
  interpreter crash) marks only the in-flight tasks for retry, rebuilds
  the pool and continues;
* **JSON-lines checkpoints** — every finished task appends one line to
  the checkpoint file, so an interrupted sweep restarted with
  ``resume=True`` skips completed work and still produces bit-identical
  results (tasks must be deterministic in their payload, which every
  driver here guarantees by deriving per-task seeds from the task key);
* **structured failure reports** — the :class:`RunReport` lists every
  task's status/attempts/error instead of surfacing a mid-run
  traceback.

Results are returned in *task order* regardless of completion order, so
any driver that was bit-identical under ``pool.map`` stays bit-identical
under the resilient runner.

Every worker process of the package comes from a :class:`WarmPool`,
which always forks: a parallel :func:`run_tasks` call runs on a
private one, and serving keeps :func:`shared_pool` warm across
requests.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple)

#: Environment variable giving the default per-task timeout in seconds
#: (unset or empty = no timeout).
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"

#: Statuses a task can end in.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"


@dataclass
class TaskResult:
    """Outcome of one task.

    Attributes
    ----------
    key:
        The caller-chosen task identifier (checkpoint key; must be
        JSON-serializable and unique within the run).
    status:
        ``"ok"``, ``"failed"`` (raised after all retries) or
        ``"timeout"``.
    value:
        The task function's return value (``None`` unless ok).
    error:
        ``repr`` of the final exception for failed/timed-out tasks.
    attempts:
        How many executions were tried (including the successful one).
    elapsed:
        Wall seconds of the final attempt (0.0 when restored from a
        checkpoint).
    from_checkpoint:
        True when the result was restored rather than computed.
    """

    key: Any
    status: str
    value: Any = None
    error: Optional[str] = None
    attempts: int = 0
    elapsed: float = 0.0
    from_checkpoint: bool = False

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class RunReport:
    """Structured outcome of a whole run."""

    results: List[TaskResult]
    n_retried: int = 0
    n_pool_restarts: int = 0
    checkpoint_path: Optional[str] = None
    resumed: int = 0
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every task finished successfully."""
        return all(r.ok for r in self.results)

    def values(self) -> List[Any]:
        """Per-task values in task order; raises if any task failed."""
        self.raise_on_failure()
        return [r.value for r in self.results]

    def failures(self) -> List[TaskResult]:
        """The tasks that did not finish successfully."""
        return [r for r in self.results if not r.ok]

    def raise_on_failure(self) -> None:
        """Raise a :class:`TaskFailure` summarizing failed tasks, if any."""
        failed = self.failures()
        if failed:
            raise TaskFailure(failed)

    def summary(self) -> dict:
        """A JSON-ready digest (embedded in failure-report artifacts)."""
        return {
            "tasks": len(self.results),
            "ok": sum(1 for r in self.results if r.ok),
            "failed": sum(1 for r in self.results
                          if r.status == STATUS_FAILED),
            "timeout": sum(1 for r in self.results
                           if r.status == STATUS_TIMEOUT),
            "retried": self.n_retried,
            "pool_restarts": self.n_pool_restarts,
            "resumed": self.resumed,
            "wall_seconds": round(self.wall_seconds, 3),
            "failures": [{"key": r.key, "status": r.status,
                          "error": r.error, "attempts": r.attempts}
                         for r in self.failures()],
        }


class TaskFailure(RuntimeError):
    """Raised by :meth:`RunReport.values` when tasks failed."""

    def __init__(self, failed: Sequence[TaskResult]):
        self.failed = list(failed)
        lines = [f"{len(failed)} task(s) failed:"]
        for r in failed[:5]:
            lines.append(f"  {r.key!r}: {r.status} after {r.attempts} "
                         f"attempt(s): {r.error}")
        if len(failed) > 5:
            lines.append(f"  ... and {len(failed) - 5} more")
        super().__init__("\n".join(lines))


def default_timeout() -> Optional[float]:
    """Per-task timeout from ``REPRO_TASK_TIMEOUT`` (None = unlimited)."""
    raw = os.environ.get(TASK_TIMEOUT_ENV, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{TASK_TIMEOUT_ENV}={raw!r} is not a number")
    return value if value > 0 else None


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
def _key_token(key: Any) -> str:
    """Canonical JSON token of a task key (dict-lookup safe)."""
    return json.dumps(key, sort_keys=True)


def load_checkpoint(path: str) -> Dict[str, dict]:
    """Parse a JSONL checkpoint into ``{key_token: record}``.

    Truncated trailing lines (the interrupted write of a killed run) and
    unparsable lines are skipped — a checkpoint is a cache, never a
    source of errors.
    """
    records: Dict[str, dict] = {}
    if not os.path.exists(path):
        return records
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write from an interrupted run
            if not isinstance(record, dict) or "key" not in record:
                continue
            if record.get("status") == STATUS_OK:
                records[_key_token(record["key"])] = record
    return records


def _append_checkpoint(handle, key: Any, value: Any, elapsed: float) -> None:
    handle.write(json.dumps({"key": key, "status": STATUS_OK,
                             "value": value,
                             "elapsed": round(elapsed, 6)}) + "\n")
    handle.flush()
    os.fsync(handle.fileno())


# ----------------------------------------------------------------------
# worker process hygiene
# ----------------------------------------------------------------------
#: Worker pools always fork.  Workers share copy-on-write pages with
#: the submitting process, which on the single- and dual-core hosts
#: this project targets is worth a large fraction of batched serve
#: throughput (private pages mean the parent and worker evict each
#: other's cache lines on every context switch).  A fork child also
#: inherits the environment as it is at first submit, so ``REPRO_*``
#: switches set before then (fault schedules, the kernel backend)
#: reach the workers without any replay.
#:
#: Fork children do duplicate every file descriptor the parent has
#: open at fork time — including live TCP connections of ``repro
#: serve``.  A connection close/abort that relied on descriptor
#: refcounts would therefore never reach the peer while a worker holds
#: the duplicate; the server instead calls ``socket.shutdown`` on the
#: underlying socket wherever it tears a connection down deliberately
#: (``repro.serve.server._hard_reset``), which acts on the socket
#: itself and signals the peer no matter how many duplicates exist.
_FORK = multiprocessing.get_context("fork")


# ----------------------------------------------------------------------
# the warm pool
# ----------------------------------------------------------------------
class WarmPool:
    """A reusable, lazily-started worker pool with crash recovery.

    The one place this package builds a ``ProcessPoolExecutor``.  A
    parallel :func:`run_tasks` call runs on a private ``WarmPool`` it
    shuts down afterwards; serving keeps one alive across requests, so
    a request-rate workload does not pay worker spin-up (fork +
    import) per call:

    * **lazy** — no processes exist until the first :meth:`submit`;
    * **recyclable** — :meth:`recycle` replaces a broken/wedged pool
      (``BrokenProcessPool``, timeouts) with a fresh one, counted in
      :attr:`n_recycles`;
    * **shared** — :func:`shared_pool` hands out one process-wide
      instance for the serve worker bridge.

    Thread-safe: submissions and recycles serialize on an internal
    lock (futures themselves are waited on outside it).
    """

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 2)
        self.n_recycles = 0
        self._generation = 0
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None

    @property
    def started(self) -> bool:
        """True once worker processes exist (and were not shut down)."""
        return self._executor is not None

    @property
    def generation(self) -> int:
        """Bumped on every recycle; lets callers dedupe recycles.

        One crashed worker breaks *every* in-flight future, so N
        concurrent callers would otherwise recycle N times — enough to
        spuriously trip a circuit breaker on a single crash.  A caller
        snapshots the generation before submitting and passes it to
        :meth:`recycle` as ``seen``; only the first caller actually
        replaces the pool.
        """
        return self._generation

    def _ensure_locked(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs,
                                                 mp_context=_FORK)
        return self._executor

    def submit(self, fn: Callable[..., Any], *args: Any):
        """Submit ``fn(*args)``; starts the pool on first use.

        A pool found broken at submission time is recycled once before
        the submit is retried (the caller still owns result-side
        failures).  When ``worker.*`` failpoints are armed
        (:mod:`repro.faults`), the task is wrapped so the
        ``worker.task`` site runs inside the worker process.
        """
        from repro import faults
        if faults.env_mentions("worker."):
            args = (fn,) + args
            fn = _faulted_task
        with self._lock:
            try:
                return self._ensure_locked().submit(fn, *args)
            except (BrokenProcessPool, RuntimeError):
                self._recycle_locked()
                return self._ensure_locked().submit(fn, *args)

    def _recycle_locked(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None  # the next submit starts a fresh one
        self.n_recycles += 1
        self._generation += 1

    def recycle(self, seen: Optional[int] = None) -> bool:
        """Replace the pool (crashed or wedged workers) with a fresh one.

        ``seen`` is the :attr:`generation` the caller observed before
        its failure: if the pool was already recycled past it (another
        caller of the same crash got here first), this is a no-op.
        Returns True when this call actually recycled.
        """
        with self._lock:
            if seen is not None and self._generation != seen:
                return False
            self._recycle_locked()
            return True

    def shutdown(self, wait: bool = False) -> None:
        """Tear the workers down; the next submit lazily restarts."""
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=wait, cancel_futures=True)
                self._executor = None


def _faulted_task(fn: Callable[..., Any], *args: Any) -> Any:
    """Worker-side shim running the ``worker.task`` failpoint first.

    Top-level so it pickles; the fault decision happens *inside* the
    worker process, whose :mod:`repro.faults` plan comes from the
    inherited environment (``REPRO_FAULTS``) and therefore replays its
    own deterministic per-site sequence.
    """
    from repro import faults
    faults.maybe_fail_worker_task()
    return fn(*args)


_shared_pool: Optional[WarmPool] = None
_shared_pool_lock = threading.Lock()


def shared_pool(jobs: Optional[int] = None) -> WarmPool:
    """The process-wide :class:`WarmPool` (created on first call).

    ``jobs`` only sizes the first construction; later callers share
    whatever exists (a serving process has exactly one worker fleet).
    """
    global _shared_pool
    with _shared_pool_lock:
        if _shared_pool is None:
            _shared_pool = WarmPool(jobs)
        return _shared_pool


def reset_shared_pool() -> None:
    """Shut down and drop the shared pool (tests isolate with this)."""
    global _shared_pool
    with _shared_pool_lock:
        if _shared_pool is not None:
            _shared_pool.shutdown()
            _shared_pool = None


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
@dataclass
class _Pending:
    """Book-keeping of one not-yet-finished task."""

    index: int
    key: Any
    payload: Any
    attempts: int = 0
    last_error: Optional[str] = None
    next_eligible: float = 0.0
    started: float = 0.0
    future: Any = None


def run_tasks(fn: Callable[[Any], Any], tasks: Sequence[Tuple[Any, Any]],
              *, jobs: int = 1, timeout: Optional[float] = None,
              retries: int = 2, backoff: float = 0.25,
              checkpoint: Optional[str] = None, resume: bool = False,
              encode: Callable[[Any], Any] = lambda v: v,
              decode: Callable[[Any], Any] = lambda v: v,
              pool: Optional[WarmPool] = None) -> RunReport:
    """Run ``fn(payload)`` for every ``(key, payload)`` task, resiliently.

    Parameters
    ----------
    fn:
        Top-level (picklable) function of one payload argument.
    tasks:
        ``(key, payload)`` pairs; keys must be unique and
        JSON-serializable (they index the checkpoint file).
    jobs:
        Worker processes.  ``jobs <= 1`` runs inline (no pool, no
        timeout enforcement) — checkpoints and retries still apply;
        ``jobs > 1`` runs on a private :class:`WarmPool` shut down
        before returning.
    timeout:
        Per-task wall-second budget; defaults to ``REPRO_TASK_TIMEOUT``.
        On expiry the task is retried (fresh pool) until its retry
        budget is spent, then recorded as ``"timeout"``.
    retries:
        Extra executions allowed per task after its first.
    backoff:
        Base of the exponential retry delay: attempt ``k`` waits
        ``backoff * 2**(k-1)`` seconds (0 disables the delay).
    checkpoint:
        JSONL file path; finished tasks append ``{key, status, value}``
        records.  Values pass through ``encode`` (must become
        JSON-serializable).
    resume:
        Restore previously checkpointed tasks (through ``decode``)
        instead of recomputing them.
    pool:
        A :class:`WarmPool` to execute on instead of a private one.
        The pool stays warm afterwards (the caller owns its lifetime);
        crash/timeout recovery recycles it in place.  Implies pooled
        execution regardless of ``jobs``.
    """
    if timeout is None:
        timeout = default_timeout()

    tasks = list(tasks)
    tokens = [_key_token(key) for key, _payload in tasks]
    if len(set(tokens)) != len(tokens):
        raise ValueError("task keys must be unique")

    results: List[Optional[TaskResult]] = [None] * len(tasks)
    report = RunReport(results=[], checkpoint_path=checkpoint)
    start_time = time.perf_counter()

    # --- restore from the checkpoint ---------------------------------
    if checkpoint and resume:
        restored = load_checkpoint(checkpoint)
        for i, token in enumerate(tokens):
            record = restored.get(token)
            if record is not None:
                results[i] = TaskResult(
                    key=tasks[i][0], status=STATUS_OK,
                    value=decode(record.get("value")),
                    attempts=0, elapsed=0.0, from_checkpoint=True)
        report.resumed = sum(1 for r in results if r is not None)

    pending = [_Pending(index=i, key=key, payload=payload)
               for i, (key, payload) in enumerate(tasks)
               if results[i] is None]

    ckpt_handle = None
    if checkpoint:
        mode = "a" if resume else "w"
        os.makedirs(os.path.dirname(os.path.abspath(checkpoint)),
                    exist_ok=True)
        ckpt_handle = open(checkpoint, mode)

    owned = pool is None and jobs > 1
    if owned:
        pool = WarmPool(jobs)
    try:
        if pool is None:
            _run_inline(fn, pending, results, report, retries, backoff,
                        ckpt_handle, encode)
        else:
            _run_pooled(fn, pending, results, report, pool, timeout,
                        retries, backoff, ckpt_handle, encode)
    finally:
        if owned:
            pool.shutdown()
        if ckpt_handle is not None:
            ckpt_handle.close()

    report.results = [r for r in results if r is not None]
    report.wall_seconds = time.perf_counter() - start_time
    return report


def _record(results, report, pending: _Pending, result: TaskResult,
            ckpt_handle, encode) -> None:
    results[pending.index] = result
    if result.ok and ckpt_handle is not None:
        _append_checkpoint(ckpt_handle, result.key, encode(result.value),
                           result.elapsed)


def _retry_or_fail(pending: _Pending, retries: int, backoff: float,
                   status: str, error: str, queue: List[_Pending],
                   results, report, ckpt_handle, encode) -> None:
    """Requeue a failed attempt, or record the terminal failure."""
    if pending.attempts <= retries:
        delay = backoff * (2 ** (pending.attempts - 1)) if backoff else 0.0
        pending.next_eligible = time.monotonic() + delay
        pending.last_error = error
        report.n_retried += 1
        queue.append(pending)
    else:
        _record(results, report, pending,
                TaskResult(key=pending.key, status=status, error=error,
                           attempts=pending.attempts), ckpt_handle, encode)


def _run_inline(fn, pending, results, report, retries, backoff,
                ckpt_handle, encode) -> None:
    """Sequential execution with the same retry/checkpoint semantics."""
    queue = list(pending)
    while queue:
        item = queue.pop(0)
        wait_s = item.next_eligible - time.monotonic()
        if wait_s > 0:
            time.sleep(wait_s)
        item.attempts += 1
        started = time.perf_counter()
        try:
            value = fn(item.payload)
        except Exception as exc:  # noqa: BLE001 - structured reporting
            _retry_or_fail(item, retries, backoff, STATUS_FAILED,
                           repr(exc), queue, results, report,
                           ckpt_handle, encode)
            continue
        _record(results, report, item,
                TaskResult(key=item.key, status=STATUS_OK, value=value,
                           attempts=item.attempts,
                           elapsed=time.perf_counter() - started),
                ckpt_handle, encode)


def _run_pooled(fn, pending, results, report, pool: WarmPool, timeout,
                retries, backoff, ckpt_handle, encode) -> None:
    """Pool execution with crash isolation and timeout enforcement."""
    queue: List[_Pending] = list(pending)
    in_flight: Dict[Any, _Pending] = {}
    poll = 0.05 if timeout else 0.5

    def recycle_pool() -> None:
        pool.recycle()
        report.n_pool_restarts += 1

    while queue or in_flight:
        # fill the pool up to `pool.jobs` eligible tasks
        now = time.monotonic()
        submitted_any = False
        for item in list(queue):
            if len(in_flight) >= pool.jobs:
                break
            if item.next_eligible > now:
                continue
            queue.remove(item)
            item.attempts += 1
            item.started = time.monotonic()
            try:
                item.future = pool.submit(fn, item.payload)
            except BrokenProcessPool:
                recycle_pool()
                item.attempts -= 1
                queue.insert(0, item)
                continue
            in_flight[item.future] = item
            submitted_any = True

        if not in_flight:
            if queue and not submitted_any:
                # everything is backing off; sleep to the next slot
                wake = min(i.next_eligible for i in queue)
                time.sleep(max(0.0, wake - time.monotonic()) or 0.01)
            continue

        try:
            done, _ = wait(list(in_flight), timeout=poll,
                           return_when=FIRST_COMPLETED)
        except BrokenProcessPool:  # pragma: no cover - defensive
            done = set()

        for future in done:
            item = in_flight.pop(future)
            try:
                value = future.result()
            except BrokenProcessPool:
                # the worker died (kill -9, segfault): everything
                # in flight is suspect — requeue it all on a new pool
                _retry_or_fail(item, retries, backoff, STATUS_FAILED,
                               "worker process died (BrokenProcessPool)",
                               queue, results, report, ckpt_handle,
                               encode)
                for other_future, other in list(in_flight.items()):
                    in_flight.pop(other_future)
                    other.attempts -= 1  # not the other tasks' fault
                    _retry_or_fail(other, retries, backoff,
                                   STATUS_FAILED,
                                   "worker pool broke mid-task",
                                   queue, results, report,
                                   ckpt_handle, encode)
                recycle_pool()
                break
            except Exception as exc:  # noqa: BLE001
                _retry_or_fail(item, retries, backoff, STATUS_FAILED,
                               repr(exc), queue, results, report,
                               ckpt_handle, encode)
            else:
                _record(results, report, item,
                        TaskResult(key=item.key, status=STATUS_OK,
                                   value=value, attempts=item.attempts,
                                   elapsed=time.monotonic() - item.started),
                        ckpt_handle, encode)

        # enforce per-task timeouts on whatever is still running
        if timeout:
            now = time.monotonic()
            expired = [item for item in in_flight.values()
                       if now - item.started > timeout]
            if expired:
                # a stuck worker cannot be interrupted politely:
                # recycle the whole pool and retry the survivors
                for future, item in list(in_flight.items()):
                    in_flight.pop(future)
                    if item in expired:
                        _retry_or_fail(item, retries, backoff,
                                       STATUS_TIMEOUT,
                                       f"timed out after {timeout:.1f}s",
                                       queue, results, report,
                                       ckpt_handle, encode)
                    else:
                        item.attempts -= 1  # collateral, free retry
                        _retry_or_fail(item, retries, backoff,
                                       STATUS_FAILED,
                                       "pool recycled on a sibling "
                                       "timeout", queue, results,
                                       report, ckpt_handle, encode)
                recycle_pool()


__all__ = ["RunReport", "TaskFailure", "TaskResult", "TASK_TIMEOUT_ENV",
           "STATUS_FAILED", "STATUS_OK", "STATUS_TIMEOUT", "WarmPool",
           "default_timeout", "load_checkpoint", "reset_shared_pool",
           "run_tasks", "shared_pool"]
