"""Supervised execution: timeouts, retries, respawn, salvage, fallback.

The contract under test (docs/ROBUSTNESS.md): fault-free supervised
runs are byte-identical to the plain engine; every induced failure mode
— raising runners, SIGKILLed workers, deadline-blowing stalls, a pool
dead beyond its respawn budget — resolves to either a correct result
with a ``retried`` outcome or (salvage) a ``None`` placeholder, never
a hang and never a wrong value.

Runners live at module scope (they cross the worker pipe as pickles);
first-attempt-only faults use marker files so retries see a clean run,
and process-level faults are gated on ``WORKER_ENV`` so they can only
ever fire inside a supervised worker, not in this process.
"""

import functools
import os
import signal
import time
from pathlib import Path

import pytest

from repro.experiments.cache import ResultCache, task_key
from repro.experiments.parallel import WorkerError, run_many, run_many_report
from repro.resilience import Checkpoint, SupervisorPolicy, WORKER_ENV

pytestmark = pytest.mark.timeout(120)

#: Fast-failure policy: chaos timing in tens of milliseconds so the
#: whole module stays in tier-1 territory.
FAST = SupervisorPolicy(
    task_timeout_s=5.0,
    heartbeat_interval_s=0.05,
    heartbeat_grace_s=2.0,
    max_retries=2,
    backoff_base_s=0.01,
    backoff_max_s=0.05,
    speculate=False,
    seed=0,
)


def _square(x):
    return x * x


def _flaky(marker_dir, x):
    """Every task fails exactly once, then succeeds."""
    marker = Path(marker_dir) / f"flaky-{x}"
    if not marker.exists():
        marker.touch()
        raise ValueError(f"boom {x}")
    return x * x


def _boom_on_two(x):
    if x == 2:
        raise ValueError("boom")
    return x * x


def _kill_first(marker_dir, x):
    """Task 1's first supervised attempt SIGKILLs its worker.

    Healthy tasks sleep briefly so work is still pending when the parent
    notices the death — forcing a respawn rather than letting the
    surviving worker drain the queue first.
    """
    marker = Path(marker_dir) / f"kill-{x}"
    if x == 1 and os.environ.get(WORKER_ENV) and not marker.exists():
        marker.touch()
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.1)
    return x + 10


def _kill_always(x):
    """Every supervised attempt dies; only the parent can finish this."""
    if os.environ.get(WORKER_ENV):
        os.kill(os.getpid(), signal.SIGKILL)
    return x + 100


def _stall_first(marker_dir, x):
    """Task 0's first attempt sleeps far past the task deadline."""
    marker = Path(marker_dir) / f"stall-{x}"
    if x == 0 and os.environ.get(WORKER_ENV) and not marker.exists():
        marker.touch()
        time.sleep(30.0)
    return x * 3


def _slow_three(x):
    if x == 3:
        time.sleep(0.8)
    return x * x


# ----------------------------------------------------------------------
# Clean-path equivalence


def test_fault_free_run_matches_plain_engine():
    tasks = list(range(8))
    report = run_many_report(
        tasks, _square, workers=2, policy=FAST
    )
    assert report.results == run_many(tasks, _square, workers=2)
    assert report.results == [x * x for x in tasks]
    assert [o.status for o in report.outcomes] == ["ok"] * 8
    assert all(o.attempts == 1 for o in report.outcomes)
    stats = report.supervisor
    assert stats.retries == 0
    assert stats.timeouts == 0
    assert stats.worker_deaths == 0
    assert stats.salvaged == 0
    assert not stats.serial_fallback
    assert report.ok


def test_results_only_facade():
    assert run_many(
        list(range(5)), _square, workers=2, policy=FAST
    ) == [x * x for x in range(5)]


# ----------------------------------------------------------------------
# Retry / kill / timeout paths


def test_raising_attempts_are_retried(tmp_path):
    tasks = list(range(6))
    runner = functools.partial(_flaky, str(tmp_path))
    report = run_many_report(
        tasks, runner, workers=2, policy=FAST
    )
    assert report.results == [x * x for x in tasks]
    assert [o.status for o in report.outcomes] == ["retried"] * 6
    assert all(o.attempts == 2 for o in report.outcomes)
    assert report.supervisor.retries == 6
    assert report.ok


def test_sigkilled_worker_is_respawned_and_task_retried(tmp_path):
    tasks = list(range(6))
    runner = functools.partial(_kill_first, str(tmp_path))
    report = run_many_report(
        tasks, runner, workers=2, policy=FAST
    )
    assert report.results == [x + 10 for x in tasks]
    assert report.outcomes[1].status == "retried"
    assert report.supervisor.worker_deaths >= 1
    assert report.supervisor.respawns >= 1
    assert report.ok


def test_deadline_blown_attempt_times_out_and_retries(tmp_path):
    tasks = list(range(4))
    runner = functools.partial(_stall_first, str(tmp_path))
    policy = SupervisorPolicy(
        task_timeout_s=0.5,
        heartbeat_interval_s=0.05,
        # The stall sleeps (heartbeat thread keeps beating), so only the
        # per-task deadline may catch it — pin the grace well above it.
        heartbeat_grace_s=30.0,
        backoff_base_s=0.01,
        backoff_max_s=0.05,
        speculate=False,
    )
    report = run_many_report(
        tasks, runner, workers=2, policy=policy
    )
    assert report.results == [x * 3 for x in tasks]
    assert report.outcomes[0].status == "retried"
    assert report.supervisor.timeouts >= 1


def test_straggler_gets_a_speculative_duplicate():
    tasks = list(range(8))
    policy = SupervisorPolicy(
        task_timeout_s=30.0,
        heartbeat_grace_s=30.0,
        speculate=True,
        speculation_factor=3.0,
        speculation_min_done=3,
    )
    report = run_many_report(
        tasks, _slow_three, workers=2, policy=policy
    )
    assert report.results == [x * x for x in tasks]
    assert report.supervisor.speculative >= 1
    assert report.outcomes[3].speculated
    assert report.outcomes[3].status == "ok"


# ----------------------------------------------------------------------
# Exhaustion: salvage vs fatal


def test_salvage_resolves_exhausted_task_to_none():
    tasks = list(range(5))
    policy = SupervisorPolicy(
        max_retries=1, backoff_base_s=0.01, backoff_max_s=0.02,
        speculate=False, salvage=True,
    )
    report = run_many_report(
        tasks, _boom_on_two, workers=2, policy=policy
    )
    assert report.results == [0, 1, None, 9, 16]
    assert report.outcomes[2].status == "failed"
    assert report.outcomes[2].attempts == 2  # initial + one retry
    assert "boom" in report.outcomes[2].error
    assert not report.ok
    assert report.salvaged == 1
    assert report.supervisor.salvaged == 1


@pytest.mark.parametrize("workers", [0, 2])
def test_without_salvage_exhaustion_raises_worker_error(workers):
    policy = SupervisorPolicy(
        max_retries=1, backoff_base_s=0.01, backoff_max_s=0.02,
        speculate=False, salvage=False,
    )
    with pytest.raises(WorkerError) as exc_info:
        run_many_report(
            list(range(5)), _boom_on_two, workers=workers, policy=policy
        )
    err = exc_info.value
    assert err.index == 2
    assert err.task == 2
    assert "ValueError: boom" in (err.child_traceback or "")
    assert "worker traceback" in str(err)
    # The runner's own exception is chained, and its traceback is
    # printed once (not again inside a wrapping cause's message).
    assert isinstance(err.__cause__, ValueError)
    assert str(err).count("Traceback") == 1


# ----------------------------------------------------------------------
# Serial rungs


def test_workers_zero_supervises_in_process(tmp_path):
    tasks = list(range(5))
    runner = functools.partial(_flaky, str(tmp_path))
    report = run_many_report(
        tasks, runner, workers=0, policy=FAST
    )
    assert report.results == [x * x for x in tasks]
    assert [o.status for o in report.outcomes] == ["retried"] * 5
    # Requested mode, not a degradation.
    assert not report.supervisor.serial_fallback


def test_pool_dead_beyond_respawn_falls_back_to_serial():
    tasks = list(range(4))
    policy = SupervisorPolicy(
        max_respawns=0, max_retries=3, backoff_base_s=0.01,
        backoff_max_s=0.02, speculate=False,
    )
    report = run_many_report(
        tasks, _kill_always, workers=1, policy=policy
    )
    # WORKER_ENV is unset in the parent, so the fallback rung finishes
    # every task the dead pool could not.
    assert report.results == [x + 100 for x in tasks]
    assert report.supervisor.serial_fallback
    assert report.supervisor.worker_deaths >= 1


# ----------------------------------------------------------------------
# Cache + checkpoint integration


def test_cache_and_checkpoint_record_completed_tasks(tmp_path):
    tasks = list(range(6))
    cache = ResultCache(tmp_path / "cache")
    manifest = tmp_path / "run.manifest"
    with Checkpoint(manifest, run_id="run-a", total=6) as checkpoint:
        report = run_many_report(
            tasks, _square, workers=0, policy=FAST,
            cache=cache, checkpoint=checkpoint,
        )
    assert report.executed == 6
    assert Checkpoint.load(manifest)["keys"] == [task_key(t) for t in tasks]

    # A warm re-run replays everything from the cache and re-records.
    with Checkpoint(manifest, run_id="run-a", total=6) as checkpoint:
        assert len(checkpoint) == 6
        report = run_many_report(
            tasks, _square, workers=0, policy=FAST,
            cache=cache, checkpoint=checkpoint,
        )
    assert report.executed == 0
    assert report.cached == 6
    assert [o.status for o in report.outcomes] == ["cached"] * 6


def test_salvaged_tasks_are_not_recorded_complete(tmp_path):
    tasks = list(range(4))
    cache = ResultCache(tmp_path / "cache")
    policy = SupervisorPolicy(
        max_retries=0, backoff_base_s=0.01, speculate=False, salvage=True,
    )
    manifest = tmp_path / "run.manifest"
    with Checkpoint(manifest, run_id="run-b") as checkpoint:
        report = run_many_report(
            tasks, _boom_on_two, workers=0, policy=policy,
            cache=cache, checkpoint=checkpoint,
        )
    assert report.results[2] is None
    bad_key = task_key(2)
    assert not checkpoint.completed(bad_key)
    assert bad_key not in cache
    # The other three completed and are claimable on resume.
    assert len(Checkpoint.load(manifest)["keys"]) == 3
