"""Deterministic fan-out of independent experiment runs.

:func:`run_many` dispatches a list of task descriptions to a runner
callable, in-process or across forked worker processes, optionally
backed by a :class:`~repro.experiments.cache.ResultCache`.  Every task
runs on one engine, the supervisor's scheduler
(:mod:`repro.resilience.supervisor`); a
:class:`~repro.resilience.supervisor.SupervisorPolicy` chooses what a
failure costs.  The default policy,
:data:`~repro.resilience.supervisor.STRICT`, gives these guarantees:

* **Order preservation** — results come back in submission order, so a
  caller that aggregates sequentially produces output byte-identical to
  the serial path regardless of completion order.
* **In-process execution** — ``workers=0`` runs everything in the
  calling process with no worker processes at all: tests and debuggers
  see ordinary stack traces and module-level counters keep working.
* **Crash surfacing** — an exception inside a runner (or an unpicklable
  task or result) is re-raised in the parent as :class:`WorkerError`
  carrying the task index, description, the exception as ``__cause__``
  and the **formatted child traceback**, never swallowed.  A worker
  that dies raises a :class:`WorkerError` naming its task too.  The
  error names the lowest failing index whatever the completion order:
  tasks below it still finish, tasks above it are dropped.
* **Frozen-worker detection** — every worker heartbeats; one that stops
  beating for the policy's grace period (``SIGSTOP``, a wedged
  interpreter) raises :class:`WorkerError` instead of hanging the run.
  No task deadline applies, so a long task is never killed.

Tasks and results must be picklable when ``workers > 0`` (they cross
the worker pipes); the runner is inherited by the forked workers.
Frozen dataclasses defined at module scope plus a module-level runner
function are the intended shape.

For execution that must *survive* wedged, killed or crashing workers —
per-task timeouts, retries, speculative re-dispatch and partial-result
salvage — pass a richer ``policy``; the returned :class:`RunReport`
carries per-task :class:`TaskOutcome` records and the supervision
counters either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.experiments.cache import ResultCache, task_key
from repro.resilience.supervisor import (
    STRICT,
    SupervisorPolicy,
    SupervisorStats,
    TaskOutcome,
    WorkerError,
    _Supervisor,
)

__all__ = [
    "Progress",
    "RunReport",
    "TaskOutcome",
    "WorkerError",
    "run_many",
    "run_many_report",
]


@dataclass(frozen=True)
class Progress:
    """Snapshot of a :func:`run_many` invocation, passed to ``progress``.

    ``done`` counts resolved tasks (executed or cache hits); ``executed``
    counts tasks dispatched to the runner — a warm-cache re-run finishes
    with ``executed == 0``.
    """

    done: int
    total: int
    executed: int
    cached: int
    elapsed: float


@dataclass
class RunReport:
    """Results plus execution accounting from :func:`run_many_report`."""

    results: List[Any]
    executed: int
    cached: int
    elapsed: float
    #: Per-task resolution records, in submission order.
    outcomes: List[TaskOutcome]
    #: What supervision had to do (all zero on a clean run).
    supervisor: SupervisorStats

    @property
    def ok(self) -> bool:
        """Every task produced a result (no salvaged holes)."""
        return all(o.ok for o in self.outcomes)

    @property
    def salvaged(self) -> int:
        """Tasks that resolved without a result (``None`` placeholder)."""
        return sum(1 for o in self.outcomes if not o.ok)


def run_many(
    tasks: Sequence[Any],
    runner: Callable[[Any], Any],
    **kwargs,
) -> List[Any]:
    """Run ``runner(task)`` for every task; results in submission order.

    Results-only façade over :func:`run_many_report`, which documents
    the keyword arguments.
    """
    return run_many_report(tasks, runner, **kwargs).results


def run_many_report(
    tasks: Sequence[Any],
    runner: Callable[[Any], Any],
    *,
    workers: int = 0,
    policy: Optional[SupervisorPolicy] = None,
    cache: Optional[ResultCache] = None,
    key_fn: Optional[Callable[[Any], str]] = None,
    progress: Optional[Callable[[Progress], None]] = None,
    checkpoint=None,
) -> RunReport:
    """Run every task; results plus run/hit counts, outcomes and stats.

    Parameters
    ----------
    workers:
        ``0`` — run in-process, serially (the debug/test path).
        ``N > 0`` — dispatch across ``N`` forked worker processes.
    policy:
        How much supervision the run gets; defaults to
        :data:`~repro.resilience.supervisor.STRICT` (a failure raises
        :class:`WorkerError` for the lowest failing index).  A salvaging policy resolves
        exhausted tasks to ``None`` placeholders instead — check
        ``report.ok``.  With ``workers=0`` retries and salvage still
        apply, but no timeout can be enforced.
    cache:
        Optional result store.  Hits skip execution entirely; misses are
        stored as each task succeeds.
    key_fn:
        Task → cache-key function; defaults to
        :func:`repro.experiments.cache.task_key` (stable hash of the
        task's fields plus the code version).
    progress:
        Called with a :class:`Progress` snapshot as tasks resolve.
    checkpoint:
        Optional :class:`repro.resilience.checkpoint.Checkpoint`; every
        completed task's cache key is recorded so a killed run can be
        resumed (requires ``cache`` so resumed tasks can replay).
    """
    tasks = list(tasks)
    total = len(tasks)
    start = time.perf_counter()
    results: List[Any] = [None] * total
    outcomes: List[Optional[TaskOutcome]] = [None] * total
    keys: List[Optional[str]] = [None] * total

    cached = 0
    if cache is not None:
        make_key = key_fn or task_key
        for i, task in enumerate(tasks):
            keys[i] = make_key(task)
            hit, value = cache.get(keys[i])
            if hit:
                results[i] = value
                outcomes[i] = TaskOutcome(index=i, status="cached", attempts=0)
                cached += 1
                if checkpoint is not None:
                    checkpoint.record(keys[i])

    pending = [i for i in range(total) if outcomes[i] is None]
    executed = len(pending)
    done = cached

    def emit() -> None:
        if progress is not None:
            progress(Progress(
                done=done, total=total, executed=executed, cached=cached,
                elapsed=time.perf_counter() - start,
            ))

    def settle(i: int, value: Any, outcome: TaskOutcome) -> None:
        nonlocal done
        results[i] = value
        outcomes[i] = outcome
        if outcome.ok:
            if cache is not None:
                cache.put(keys[i], value)
            if checkpoint is not None:
                checkpoint.record(keys[i])
        done += 1
        emit()

    emit()
    stats = SupervisorStats()
    if pending:
        _Supervisor(
            tasks, runner, pending, workers, policy or STRICT, settle, stats,
        ).run()
    return RunReport(
        results=results, executed=executed, cached=cached,
        elapsed=time.perf_counter() - start, outcomes=outcomes,
        supervisor=stats,
    )
