"""Unit tests for the parallel experiment engine (`experiments.parallel`)."""

import math
import os
import signal
import threading
import time

import pytest

from repro.core.shardpool import ShardPool
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    Progress,
    WorkerError,
    run_many,
    run_many_report,
)
from repro.experiments import sweeps
from repro.resilience.workers import WORKER_ENV


# Runners must live at module scope so worker processes can unpickle them.

def _square(task):
    return task * task


def _pid_of(task):
    return os.getpid()


def _boom_on_three(task):
    if task == 3:
        raise ValueError("boom")
    return task


def _kill_self(task):
    os._exit(13)  # hard crash: the pool loses the worker entirely


def _freeze_on_one(task):
    if task == 1 and os.environ.get(WORKER_ENV):
        os.kill(os.getpid(), signal.SIGSTOP)  # silences the heartbeat too
    return task


def _fail_all_lowest_last(task):
    time.sleep(0.3 if task == 0 else 0.0)
    raise ValueError(f"bad point {task}")


def _unpicklable_result(task):
    return threading.Lock()


def _pool_in_worker(task):
    """Fork a shard worker from a run worker and round-trip one tick."""
    pool = ShardPool(1)
    try:
        assert pool.ensure_started({})
        return pool.compute({0: []}) == {} and pool._slots[0].proc.is_alive()
    finally:
        pool.shutdown()


# ------------------------------------------------------------------ ordering

def test_serial_parallel_equivalence():
    tasks = list(range(12))
    serial = run_many(tasks, _square, workers=0)
    parallel = run_many(tasks, _square, workers=4)
    assert serial == parallel == [t * t for t in tasks]


def _sleepy_identity(task):
    time.sleep(task / 1000.0)
    return task


def test_results_in_submission_order_not_completion_order():
    # Mixed durations reorder completions; submission order must win.
    tasks = [60, 1, 40, 2, 50, 3]
    assert run_many(tasks, _sleepy_identity, workers=3) == tasks


# ------------------------------------------------------------- workers=0 path

def test_workers_zero_runs_in_process():
    pids = run_many([1, 2, 3], _pid_of, workers=0)
    assert set(pids) == {os.getpid()}


def test_workers_positive_runs_out_of_process():
    pids = run_many([1, 2, 3, 4], _pid_of, workers=2)
    assert os.getpid() not in pids


# --------------------------------------------------------------- crash paths

@pytest.mark.parametrize("workers", [0, 2])
def test_runner_exception_surfaces_as_worker_error(workers):
    with pytest.raises(WorkerError) as exc_info:
        run_many([1, 2, 3, 4], _boom_on_three, workers=workers)
    err = exc_info.value
    assert err.index == 2
    assert err.task == 3
    assert isinstance(err.__cause__, ValueError)
    assert "boom" in str(err)


def test_dead_worker_process_surfaces_as_worker_error():
    with pytest.raises(WorkerError):
        run_many([1], _kill_self, workers=1)


@pytest.mark.timeout(60)
def test_frozen_worker_raises_after_heartbeat_grace():
    """A SIGSTOPped worker keeps its pipe open, so no EOF ever arrives;
    only its silent heartbeat can end the run — with an error naming
    the frozen task, not a hang."""
    t0 = time.monotonic()
    with pytest.raises(WorkerError) as exc_info:
        run_many([0, 1, 2, 3], _freeze_on_one, workers=2)
    assert exc_info.value.index == 1
    assert exc_info.value.child_traceback is None
    assert "heartbeat" in str(exc_info.value)
    assert time.monotonic() - t0 < 30.0


@pytest.mark.parametrize("workers", [0, 2])
def test_worker_error_names_the_lowest_failing_index(workers):
    """Task 1 fails first in time, task 0 later; the error names task 0
    — the task a serial run stops at — whatever the completion order."""
    with pytest.raises(WorkerError) as exc_info:
        run_many([0, 1, 2, 3], _fail_all_lowest_last, workers=workers)
    assert exc_info.value.index == 0
    assert isinstance(exc_info.value.__cause__, ValueError)


def test_unpicklable_result_chains_the_pickling_error():
    with pytest.raises(WorkerError) as exc_info:
        run_many([5], _unpicklable_result, workers=1)
    err = exc_info.value
    assert err.index == 0
    assert "pickle" in str(err.__cause__)
    assert "cannot pickle" in err.child_traceback


def test_unpicklable_task_names_the_task():
    tasks = [1, threading.Lock(), 3]
    with pytest.raises(WorkerError) as exc_info:
        run_many(tasks, _square, workers=2)
    assert exc_info.value.index == 1
    assert "pickle" in str(exc_info.value.__cause__)


@pytest.mark.timeout(60)
def test_run_worker_may_start_a_shard_pool():
    """Run workers are non-daemonic: a runner that steps its control
    plane on a shard pool forks shard workers from inside one."""
    assert run_many([0, 1], _pool_in_worker, workers=1) == [True, True]


# ------------------------------------------------------------------ progress

def test_progress_events_account_for_every_task():
    events = []
    run_many(list(range(5)), _square, workers=0, progress=events.append)
    assert all(isinstance(e, Progress) for e in events)
    final = events[-1]
    assert final.done == final.total == 5
    assert final.executed == 5 and final.cached == 0
    assert [e.done for e in events] == sorted(e.done for e in events)


# ------------------------------------------------------------------- caching

def test_cache_skips_execution_on_second_run(tmp_path):
    cache = ResultCache(tmp_path)
    first = run_many_report([2, 4, 6], _square, workers=0, cache=cache)
    assert first.executed == 3 and first.cached == 0
    second = run_many_report([2, 4, 6], _square, workers=0, cache=cache)
    assert second.executed == 0 and second.cached == 3
    assert second.results == first.results


def test_cache_partial_hit_only_runs_new_tasks(tmp_path):
    cache = ResultCache(tmp_path)
    run_many([2, 4], _square, workers=0, cache=cache)
    report = run_many_report([2, 4, 6], _square, workers=0, cache=cache)
    assert report.executed == 1 and report.cached == 2
    assert report.results == [4, 16, 36]


# ------------------------------------------- acceptance: closed-loop sweep

GRID = dict(betas=(0.5, 0.65, 0.8), gammas=(0.001, 0.005, 0.02),
            seeds=(3,), size_mb=96.0)


def test_closed_loop_sweep_parallel_matches_serial(tmp_path):
    """≥3×3 β/γ grid: workers=4 output identical to the serial run, and a
    warm-cache re-run executes zero simulations."""
    serial = sweeps.closed_loop_sweep(**GRID)
    assert len(serial) == 9

    cold_events = []
    parallel = sweeps.closed_loop_sweep(
        **GRID, workers=4, cache_dir=str(tmp_path),
        progress=cold_events.append)
    assert parallel == serial
    assert cold_events[-1].executed == 9

    warm_events = []
    runs_before = sweeps.POINT_RUNS
    warm = sweeps.closed_loop_sweep(
        **GRID, workers=4, cache_dir=str(tmp_path),
        progress=warm_events.append)
    assert warm == serial
    # Zero simulations executed: neither dispatched by the engine...
    assert warm_events[-1].executed == 0
    assert warm_events[-1].cached == 9
    # ...nor run in this process.
    assert sweeps.POINT_RUNS == runs_before


def test_closed_loop_sweep_workers_zero_uses_calling_process(tmp_path):
    small = dict(betas=(0.8,), gammas=(0.005,), seeds=(3,), size_mb=96.0)
    runs_before = sweeps.POINT_RUNS
    sweeps.closed_loop_sweep(**small, workers=0)
    assert sweeps.POINT_RUNS == runs_before + 1


def test_sweep_point_values_are_finite():
    points = sweeps.closed_loop_sweep(
        betas=(0.8,), gammas=(0.005,), seeds=(3,), size_mb=96.0)
    (point,) = points
    assert math.isfinite(point.victim_jct)
    assert math.isfinite(point.antagonist_ops_per_s)
    assert point.decrease_depth == pytest.approx(0.2)


def test_supervised_sweep_reports_salvaged_points_in_stats():
    """A point that fails every supervised attempt (invalid config) is
    salvaged to NaN, but the hole must be visible in ``stats`` so the
    CLI can refuse to exit 0 — a config error is not a quiet NaN."""
    stats = {}
    (point,) = sweeps.closed_loop_sweep(
        betas=(0.8,), gammas=(0.005,), seeds=(3,), size_mb=0.0,
        workers=0, supervise=True, stats=stats)
    assert stats["salvaged"] == 1
    assert math.isnan(point.victim_jct)


def test_plain_sweep_fills_stats_with_zero_salvage(tmp_path):
    stats = {}
    sweeps.closed_loop_sweep(
        betas=(0.8,), gammas=(0.005,), seeds=(3,), size_mb=96.0,
        workers=0, cache_dir=str(tmp_path), stats=stats)
    assert stats == {"executed": 1, "cached": 0, "salvaged": 0}

# ----------------------------------------------------- child tracebacks

@pytest.mark.parametrize("workers", [0, 2])
def test_worker_error_carries_formatted_child_traceback(workers):
    """The traceback text captured *inside* the worker travels with the
    error: frames of the runner itself, not just the pool plumbing."""
    with pytest.raises(WorkerError) as exc_info:
        run_many([1, 2, 3, 4], _boom_on_three, workers=workers)
    err = exc_info.value
    assert err.child_traceback is not None
    assert "_boom_on_three" in err.child_traceback
    assert "ValueError: boom" in err.child_traceback
    # The message embeds it for logs that only print str(err).
    assert "--- worker traceback ---" in str(err)
    assert "_boom_on_three" in str(err)


def test_dead_worker_error_names_the_task_without_a_traceback():
    with pytest.raises(WorkerError) as exc_info:
        run_many([7], _kill_self, workers=1)
    err = exc_info.value
    # A SIGKILLed worker produces no child traceback (nothing ran to
    # completion to format one) — the message still names the task.
    assert err.index == 0
    assert err.task == 7
    assert "task 0" in str(err)
