"""Tests for the resilient parallel task runner (repro.runner)."""

import json
import os
import signal

import pytest

from repro.runner import (STATUS_FAILED, STATUS_OK, STATUS_TIMEOUT,
                          TaskFailure, default_timeout, load_checkpoint,
                          run_tasks)


# ---------------------------------------------------------------------
# worker functions (top level: picklable for the process pool)
# ---------------------------------------------------------------------
def _double(x):
    return x * 2


def _fail_always(_x):
    raise RuntimeError("boom")


def _fail_below(x):
    """Deterministic transient failure: odd payloads fail on the first
    attempt of a fresh process only if a marker file is absent."""
    marker = f"/tmp/repro-runner-marker-{os.getpid()}-{x}"
    if x % 2 and not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError(f"transient {x}")
    return x * 10


def _suicide(x):
    """Simulate a segfault / operator kill of the worker."""
    if x == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def _slow(x):
    import time
    if x == "hang":
        time.sleep(60)
    return x


#: Parent-side state a forked worker inherits; a worker started any
#: other way would re-import this module and see the initial value.
_FORK_MARKER = "imported"


def _fork_marker(_x):
    return _FORK_MARKER


class TestInline:
    def test_values_in_task_order(self):
        report = run_tasks(_double, [(i, i) for i in range(5)])
        assert report.ok
        assert report.values() == [0, 2, 4, 6, 8]

    def test_retry_then_success(self, tmp_path):
        report = run_tasks(_fail_below, [(i, i) for i in range(4)],
                           retries=2, backoff=0.0)
        assert report.ok
        assert report.values() == [0, 10, 20, 30]
        assert report.n_retried >= 2  # the two odd payloads
        retried = [r for r in report.results if r.attempts > 1]
        assert {r.key for r in retried} == {1, 3}

    def test_failure_report_structure(self):
        report = run_tasks(_fail_always, [("bad", 1), ("worse", 2)],
                           retries=1, backoff=0.0)
        assert not report.ok
        assert len(report.failures()) == 2
        for result in report.failures():
            assert result.status == STATUS_FAILED
            assert result.attempts == 2  # first try + one retry
            assert "boom" in result.error
        with pytest.raises(TaskFailure) as excinfo:
            report.values()
        assert "boom" in str(excinfo.value)
        digest = report.summary()
        assert digest["failed"] == 2 and digest["ok"] == 0

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            run_tasks(_double, [("k", 1), ("k", 2)])


class TestCheckpoint:
    def test_write_and_resume(self, tmp_path):
        path = str(tmp_path / "run.ckpt.jsonl")
        first = run_tasks(_double, [(i, i) for i in range(4)],
                          checkpoint=path)
        assert first.values() == [0, 2, 4, 6]
        lines = [json.loads(line) for line in open(path)]
        assert len(lines) == 4
        assert all(line["status"] == STATUS_OK for line in lines)

        resumed = run_tasks(_fail_always, [(i, i) for i in range(4)],
                            checkpoint=path, resume=True)
        # every task restored: the failing fn never ran
        assert resumed.ok
        assert resumed.resumed == 4
        assert resumed.values() == [0, 2, 4, 6]
        assert all(r.from_checkpoint for r in resumed.results)

    def test_partial_resume_computes_the_rest(self, tmp_path):
        path = str(tmp_path / "run.ckpt.jsonl")
        run_tasks(_double, [(0, 0), (1, 1)], checkpoint=path)
        report = run_tasks(_double, [(0, 0), (1, 1), (2, 2)],
                           checkpoint=path, resume=True)
        assert report.resumed == 2
        assert report.values() == [0, 2, 4]
        # the new task was appended to the checkpoint
        assert len(load_checkpoint(path)) == 3

    def test_torn_write_tolerated(self, tmp_path):
        path = str(tmp_path / "run.ckpt.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"key": 0, "status": "ok",
                                     "value": 99}) + "\n")
            handle.write('{"key": 1, "status": "ok", "val')  # torn
        records = load_checkpoint(path)
        assert list(records) == ["0"]
        report = run_tasks(_double, [(0, 0), (1, 1)],
                           checkpoint=path, resume=True)
        assert report.resumed == 1
        assert report.values() == [99, 2]  # 0 restored, 1 recomputed

    def test_encode_decode_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.ckpt.jsonl")
        run_tasks(_double, [(0, 2)], checkpoint=path,
                  encode=lambda v: {"doubled": v})
        report = run_tasks(_double, [(0, 2)], checkpoint=path, resume=True,
                           decode=lambda rec: rec["doubled"])
        assert report.values() == [4]


class TestPooled:
    def test_parallel_matches_inline(self):
        tasks = [(i, i) for i in range(8)]
        assert (run_tasks(_double, tasks, jobs=4).values()
                == run_tasks(_double, tasks).values())

    def test_worker_kill_is_isolated_and_retried(self):
        # "die" kills its worker once per fresh process; survivors and
        # the victim are retried on a recycled pool.  With retries the
        # run can still fail only if every retry lands on a suicide —
        # impossible here because the marker prevents repeats.
        tasks = [("a", "a"), ("b", "b"), ("kill", "die"), ("c", "c")]
        report = run_tasks(_suicide, tasks, jobs=2, retries=2, backoff=0.0)
        assert report.n_pool_restarts >= 1
        ok = {r.key: r for r in report.results if r.ok}
        assert set(ok) >= {"a", "b", "c"}  # collateral tasks all recovered
        dead = [r for r in report.results if not r.ok]
        assert [r.key for r in dead] in ([], ["kill"])

    def test_timeout_enforced(self):
        tasks = [("fast", "x"), ("hang", "hang")]
        report = run_tasks(_slow, tasks, jobs=2, timeout=1.0, retries=0,
                           backoff=0.0)
        by_key = {r.key: r for r in report.results}
        assert by_key["fast"].ok
        assert by_key["hang"].status == STATUS_TIMEOUT
        assert report.n_pool_restarts >= 1


class TestDefaults:
    def test_default_timeout_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        assert default_timeout() is None
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "12.5")
        assert default_timeout() == 12.5
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0")
        assert default_timeout() is None
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "nope")
        with pytest.raises(ValueError):
            default_timeout()


class TestWarmPool:
    def test_start_method_defaults_to_fork(self, monkeypatch):
        """Workers fork at first submit and see the parent's state then."""
        import sys
        from repro.runner import WarmPool
        pool = WarmPool(jobs=1)
        try:
            monkeypatch.setattr(sys.modules[__name__], "_FORK_MARKER",
                                "forked")
            assert pool.submit(_fork_marker, None).result(timeout=30) \
                == "forked"
        finally:
            pool.shutdown()

    def test_lazy_start_and_reuse(self):
        from repro.runner import WarmPool
        pool = WarmPool(jobs=2)
        try:
            assert not pool.started
            assert pool.submit(_double, 4).result(timeout=30) == 8
            assert pool.started
            # same warm workers serve repeated submits (no respawn)
            pids = {pool.submit(os.getpid).result(timeout=30)
                    for _ in range(6)}
            assert len(pids) <= 2
            assert pool.n_recycles == 0
        finally:
            pool.shutdown()
        assert not pool.started

    def test_run_recycles_on_worker_crash(self):
        from repro.runner import WarmPool
        pool = WarmPool(jobs=1)
        try:
            with pytest.raises(Exception):
                run_tasks(_suicide, [("die", "die")], pool=pool, retries=1,
                          backoff=0.0, timeout=30.0).raise_on_failure()
            assert pool.n_recycles >= 1
            # the recycled pool keeps serving
            assert run_tasks(_double, [(3, 3)], pool=pool,
                             timeout=30.0).values() == [6]
        finally:
            pool.shutdown()

    def test_run_timeout_recycles_and_raises(self):
        from repro.runner import WarmPool
        pool = WarmPool(jobs=1)
        try:
            with pytest.raises(TaskFailure) as failure:
                run_tasks(_slow, [("hang", "hang")], pool=pool, timeout=0.5,
                          retries=0, backoff=0.0).raise_on_failure()
            assert failure.value.failed[0].status == STATUS_TIMEOUT
            assert pool.n_recycles >= 1
        finally:
            pool.shutdown()

    def test_run_tasks_with_warm_pool_matches_inline(self):
        from repro.runner import WarmPool
        pool = WarmPool(jobs=2)
        try:
            tasks = [(i, i) for i in range(6)]
            warm = run_tasks(_double, tasks, pool=pool)
            inline = run_tasks(_double, tasks)
            assert warm.ok and inline.ok
            assert warm.values() == inline.values()
            # the caller's pool must survive run_tasks (not be shut down)
            assert pool.submit(_double, 5).result(timeout=30) == 10
        finally:
            pool.shutdown()

    def test_shared_pool_singleton_and_reset(self):
        from repro.runner import reset_shared_pool, shared_pool
        reset_shared_pool()
        try:
            a = shared_pool(jobs=1)
            assert a is shared_pool()
        finally:
            reset_shared_pool()
