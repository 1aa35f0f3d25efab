"""The run-fan-out engine: a supervised pool that survives worker failure.

:func:`repro.experiments.parallel.run_many_report` runs every task
through :class:`_Supervisor`; a :class:`SupervisorPolicy` chooses how
much supervision a run gets.  The default, :data:`STRICT`, gives the
plain semantics — no retries, no speculation, no salvage, no task
deadline: a failure raises :class:`WorkerError` for the lowest failing
task index, and a long-running task is never killed.  It keeps
heartbeats on, so a frozen worker raises instead of hanging the run.
Callers that must *finish* even when workers crash, wedge or straggle
pass a richer policy, which layers on:

* **per-task wall-clock timeouts** — a dispatch that exceeds its budget
  gets its worker killed and the task rescheduled;
* **worker heartbeats** — each worker beats a shared monotonic-clock
  slot from a daemon thread (:mod:`repro.resilience.workers`); a silent
  worker (e.g. ``SIGSTOP``-frozen, where the pipe stays open so no EOF
  ever arrives) is detected and killed even though its task deadline
  may be far away;
* **bounded retries with seeded backoff** — failed attempts reschedule
  up to ``max_retries`` times with exponentially-growing, seeded-jitter
  delays;
* **dead-pool respawn** — killed/crashed workers are replaced from a
  bounded respawn budget, so one bad task cannot drain the pool;
* **speculative re-dispatch** — a task running far beyond the median of
  completed tasks gets a duplicate dispatched to an idle worker (the
  harness-level analogue of the paper's LATE straggler baseline);
  whichever attempt finishes first wins;
* **partial-result salvage** — with ``salvage=True`` a task that
  exhausts every attempt resolves to a ``None`` placeholder with a
  ``timed_out``/``failed`` outcome instead of aborting the whole run;
* **serial fallback** — if the pool dies faster than the respawn budget
  can replace it, the remaining tasks run in-process (the last rung:
  no timeout enforcement, but guaranteed progress).

Fault-free runs produce byte-identical results under every policy —
same values, same submission-order merge; the policy only changes what
a failure costs.
"""

from __future__ import annotations

import functools
import math
import pickle
import random
import statistics
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.resilience.workers import (
    WORKER_ENV,
    Worker,
    WorkerFactory,
    stop_workers,
)

__all__ = [
    "STRICT",
    "SupervisorPolicy",
    "SupervisorStats",
    "TaskOutcome",
    "WORKER_ENV",
    "WorkerError",
]


@dataclass(frozen=True)
class TaskOutcome:
    """How one task of a run resolved.

    ``status`` is one of:

    ``"cached"``
        Served from the result cache without executing.
    ``"ok"``
        Executed successfully on the first attempt.
    ``"retried"``
        Executed successfully, but only after at least one failed
        attempt (policies with retries only).
    ``"timed_out"``
        Every attempt exceeded its wall-clock deadline (or its worker
        wedged); no result (salvaging policies only).
    ``"failed"``
        Every attempt raised (or its worker died); no result
        (salvaging policies only).
    """

    index: int
    status: str
    #: Attempts dispatched (0 for a cache hit; >1 means retries and/or
    #: speculative duplicates).
    attempts: int = 1
    #: Wall-clock seconds from first dispatch to resolution.
    elapsed: float = 0.0
    #: Formatted traceback / reason of the *last* failed attempt.
    error: Optional[str] = None
    #: A speculative duplicate was dispatched for this task (straggler).
    speculated: bool = False

    @property
    def ok(self) -> bool:
        """Whether this task produced a result."""
        return self.status in ("cached", "ok", "retried")


class WorkerError(RuntimeError):
    """A task's runner raised (or its worker process died or froze).

    Carries ``index`` (position in the submitted task list) and ``task``
    so sweep failures name the exact grid point; the last attempt's
    exception is chained as ``__cause__`` and ``child_traceback`` holds
    the formatted traceback text captured *inside* the worker process —
    the exception itself crosses the pipe without its frames, so without
    it a crash would only be debuggable by re-running serially.  A
    worker that died or froze ran nothing to completion, so it carries
    no traceback.
    """

    def __init__(
        self,
        index: int,
        task: Any,
        cause: BaseException,
        child_traceback: Optional[str] = None,
    ) -> None:
        message = (
            f"task {index} ({task!r}) failed: {type(cause).__name__}: {cause}"
        )
        if child_traceback:
            message += f"\n--- worker traceback ---\n{child_traceback.rstrip()}"
        super().__init__(message)
        self.index = index
        self.task = task
        self.child_traceback = child_traceback


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs for supervised execution.  Defaults suit minutes-long tasks."""

    #: Wall-clock budget per dispatch; an attempt exceeding it is killed
    #: and counts as a timeout failure.
    task_timeout_s: float = 600.0
    #: How often each worker's daemon thread refreshes its heartbeat slot.
    heartbeat_interval_s: float = 0.2
    #: Heartbeat staleness that gets a worker declared wedged and killed.
    heartbeat_grace_s: float = 5.0
    #: Failed attempts a task may retry (total attempts = retries + 1).
    max_retries: int = 2
    #: First-retry backoff; doubles per subsequent failure of the task.
    backoff_base_s: float = 0.05
    #: Backoff ceiling.
    backoff_max_s: float = 2.0
    #: Seed for the backoff-jitter stream (never touches task results).
    seed: int = 0
    #: Dispatch a duplicate of a straggling task to an idle worker.
    speculate: bool = True
    #: Straggler threshold: elapsed > factor × median completed duration.
    speculation_factor: float = 3.0
    #: Completed-task sample required before the median is trusted.
    speculation_min_done: int = 3
    #: Replacement workers that may be spawned over the run's lifetime.
    max_respawns: int = 4
    #: Resolve exhausted tasks to ``None`` placeholders instead of raising.
    salvage: bool = True
    #: Parent poll cadence (pipe readiness + deadline scans).
    poll_interval_s: float = 0.02


#: The plain engine: a failure (a raise, a worker death, a frozen
#: worker) raises :class:`WorkerError` for the lowest failing task
#: index, and no deadline ever kills a long task.
STRICT = SupervisorPolicy(
    task_timeout_s=math.inf, max_retries=0, speculate=False, salvage=False,
)


@dataclass
class SupervisorStats:
    """What supervision had to do during one run (all zero ⇒ clean run)."""

    retries: int = 0
    timeouts: int = 0
    heartbeat_kills: int = 0
    worker_deaths: int = 0
    respawns: int = 0
    speculative: int = 0
    speculative_wins: int = 0
    salvaged: int = 0
    serial_fallback: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "heartbeat_kills": self.heartbeat_kills,
            "worker_deaths": self.worker_deaths,
            "respawns": self.respawns,
            "speculative": self.speculative,
            "speculative_wins": self.speculative_wins,
            "salvaged": self.salvaged,
            "serial_fallback": self.serial_fallback,
        }


# ----------------------------------------------------------------------
# Worker side


def _traced(runner: Callable[[Any], Any], message: Tuple[str, Any]):
    """Worker handler: run ``runner(task)``, capturing the traceback text.

    Returns ``("ok", pickled_value)`` or ``("err", traceback_text, exc)``.
    The value is pickled here, inside the error handling, so an
    unpicklable result fails its task with the real cause instead of
    killing the worker.  The exception travels back as a pickled *value*
    so the parent can chain it, while the formatted traceback (which
    pickling would lose) travels beside it as plain text.
    """
    try:
        value = pickle.dumps(runner(message[1]), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        text = traceback.format_exc()
        try:
            pickle.dumps(exc)
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        return ("err", text, exc)
    return ("ok", value)


# ----------------------------------------------------------------------
# Parent side


class _Task:
    """Supervision state for one submitted task."""

    __slots__ = (
        "index", "dispatches", "failures", "active", "eligible_at",
        "first_dispatch", "speculated", "resolved", "last_kind",
        "last_exc", "last_traceback",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.dispatches = 0          # attempts sent (incl. speculative)
        self.failures = 0            # attempts that failed
        self.active: Set[int] = set()  # worker slots running it right now
        self.eligible_at = 0.0       # earliest re-dispatch time (backoff)
        self.first_dispatch: Optional[float] = None
        self.speculated = False
        self.resolved = False
        self.last_kind = "failed"    # "failed" | "timed_out"
        #: The last failed attempt's exception, and the traceback text
        #: formatted where it was raised (None for a lost worker).
        self.last_exc: Optional[BaseException] = None
        self.last_traceback: Optional[str] = None


class _Supervisor:
    def __init__(
        self,
        tasks: Sequence[Any],
        runner: Callable[[Any], Any],
        pending: List[int],
        workers: int,
        policy: SupervisorPolicy,
        settle: Callable[[int, Any, TaskOutcome], None],
        stats: SupervisorStats,
    ) -> None:
        self.tasks = tasks
        self.runner = runner
        self.policy = policy
        self.settle = settle
        self.stats = stats
        self.target_workers = workers
        self.states = {i: _Task(i) for i in pending}
        self.unresolved: Set[int] = set(pending)
        self.durations: List[float] = []
        self.rng = random.Random(policy.seed)
        # One heartbeat slot per worker ever spawned, preallocated for
        # the full respawn budget.
        self.slots = workers + policy.max_respawns
        self.factory: Optional[WorkerFactory] = None
        self.spawned = 0
        #: Live workers by their pipe end.
        self.pool: Dict[Any, Worker] = {}
        #: Busy workers: slot → (task index, dispatch time).
        self.running: Dict[int, Tuple[int, float]] = {}
        #: Lowest-index task that exhausted under a non-salvaging policy.
        self.failed: Optional[_Task] = None

    # -- worker lifecycle ------------------------------------------------

    def _spawn(self) -> bool:
        if self.spawned >= self.slots:
            return False
        worker = self.factory.spawn(
            self.spawned, functools.partial(_traced, self.runner)
        )
        self.spawned += 1
        self.pool[worker.conn] = worker
        return True

    def _lose(self, worker: Worker, kind: str, reason: str) -> None:
        """Kill ``worker``; the task it was running takes a failed attempt."""
        del self.pool[worker.conn]
        worker.kill()
        state = self._release(worker)
        if state is not None:
            self._attempt_failed(state, kind, RuntimeError(reason))

    # -- attempt resolution ----------------------------------------------

    def _release(self, worker: Worker) -> Optional[_Task]:
        """Mark ``worker`` idle; the state of its task if still unresolved."""
        index, _ = self.running.pop(worker.slot, (None, None))
        if index is None:
            return None
        state = self.states[index]
        state.active.discard(worker.slot)
        return None if state.resolved else state

    def _backoff(self, state: _Task) -> float:
        backoff = min(
            self.policy.backoff_max_s,
            self.policy.backoff_base_s * (2 ** (state.failures - 1)),
        )
        # Seeded jitter in [0.5, 1.0]× so simultaneous retries from one
        # failure burst don't re-dispatch in lockstep.
        return backoff * (0.5 + 0.5 * self.rng.random())

    def _attempt_failed(self, state: _Task, kind: str, exc: BaseException,
                        text: Optional[str] = None) -> None:
        state.failures += 1
        state.last_kind = kind
        state.last_exc = exc
        state.last_traceback = text
        if state.active:
            return  # a sibling attempt is still running — let it race
        if state.failures <= self.policy.max_retries:
            state.eligible_at = time.monotonic() + self._backoff(state)
            self.stats.retries += 1
            return
        if not self.policy.salvage:
            self._fail(state)
            return
        self.stats.salvaged += 1
        self._resolve(state, None, TaskOutcome(
            index=state.index, status=kind, attempts=state.dispatches,
            elapsed=(time.monotonic() - state.first_dispatch
                     if state.first_dispatch else 0.0),
            error=text or str(exc), speculated=state.speculated,
        ))

    def _fail(self, state: _Task) -> None:
        """Stop the run at the lowest-index exhausted task.

        Every task above it is dropped (running ones are killed when the
        pool shuts down); the ones below still resolve, so the
        :class:`WorkerError` that :meth:`run` raises names the lowest
        failing index whatever the completion order.
        """
        if self.failed is None or state.index < self.failed.index:
            self.failed = state
        for index in list(self.unresolved):
            if index >= self.failed.index:
                self.states[index].resolved = True
                self.unresolved.discard(index)

    def _succeeded(self, state: _Task, value: Any, elapsed: float) -> None:
        self._resolve(state, value, TaskOutcome(
            index=state.index, status="retried" if state.failures else "ok",
            attempts=state.dispatches, elapsed=elapsed,
            speculated=state.speculated,
        ))

    def _resolve(self, state: _Task, value: Any, outcome: TaskOutcome) -> None:
        self.settle(state.index, value, outcome)
        state.resolved = True
        self.unresolved.discard(state.index)

    # -- scheduling ------------------------------------------------------

    def _runnable(self, now: float) -> List[int]:
        """Unresolved tasks with no active attempt, past their backoff."""
        return sorted(
            i for i in self.unresolved
            if not self.states[i].active and self.states[i].eligible_at <= now
        )

    def _dispatch(self, worker: Worker, index: int, now: float,
                  speculative: bool = False) -> None:
        state = self.states[index]
        state.dispatches += 1
        if state.first_dispatch is None:
            state.first_dispatch = now
        if speculative:
            state.speculated = True
            self.stats.speculative += 1
        state.active.add(worker.slot)
        self.running[worker.slot] = (index, now)
        try:
            payload = ForkingPickler.dumps(("task", self.tasks[index]))
        except Exception as exc:
            # An unpicklable task fails its attempt on the spot; the
            # worker stays idle and healthy.
            self._release(worker)
            self._attempt_failed(state, "failed", exc, traceback.format_exc())
            return
        try:
            worker.conn.send_bytes(payload)
        except (OSError, ValueError):
            # The worker died between polls; the normal retry path
            # reschedules the task.
            self.stats.worker_deaths += 1
            self._lose(worker, "failed", "worker process died")

    def _fill_idle(self, now: float) -> None:
        idle = [w for w in self.pool.values() if w.slot not in self.running]
        if not idle:
            return
        for index in self._runnable(now):
            if not idle:
                return
            self._dispatch(idle.pop(0), index, now)
        if not self.policy.speculate or not idle:
            return
        if len(self.durations) < self.policy.speculation_min_done:
            return
        threshold = (
            self.policy.speculation_factor * statistics.median(self.durations)
        )
        stragglers = sorted(
            i for i in self.unresolved
            if len(self.states[i].active) == 1
            and not self.states[i].speculated
            and self.states[i].first_dispatch is not None
            and now - self.states[i].first_dispatch > threshold
        )
        for index in stragglers:
            if not idle:
                return
            self._dispatch(idle.pop(0), index, now, speculative=True)

    # -- failure detection -----------------------------------------------

    def _reap(self, now: float) -> None:
        for worker in list(self.pool.values()):
            _, started = self.running.get(worker.slot, (None, now))
            if now - started > self.policy.task_timeout_s:
                self.stats.timeouts += 1
                self._lose(worker, "timed_out", "task deadline exceeded")
            elif (self.factory.silence(worker, now)
                  > self.policy.heartbeat_grace_s):
                self.stats.heartbeat_kills += 1
                self._lose(worker, "timed_out", "worker heartbeat lost")

    def _drain(self, worker: Worker) -> None:
        try:
            envelope = worker.conn.recv()
        except (EOFError, OSError):
            # Worker died (crash or external SIGKILL): pipe broke.
            self.stats.worker_deaths += 1
            self._lose(worker, "failed", "worker process died")
            return
        state = self._release(worker)
        if state is None:
            return  # a speculative sibling already won; result discarded
        if envelope[0] == "err":
            _, text, exc = envelope
            self._attempt_failed(state, "failed", exc, text)
            return
        if state.speculated and state.active:
            self.stats.speculative_wins += 1
        duration = time.monotonic() - state.first_dispatch
        self.durations.append(duration)
        self._succeeded(state, pickle.loads(envelope[1]), duration)

    # -- main loop -------------------------------------------------------

    def run(self) -> None:
        """Resolve every pending task (``workers=0``: in-process).

        Raises :class:`WorkerError` for the lowest-index task that
        exhausted its attempts under a non-salvaging policy.
        """
        if self.target_workers > 0:
            self._run_pool()
            if self.unresolved:
                self.stats.serial_fallback = True
        if self.unresolved:
            self._serial_rung()
        if self.failed is not None:
            state = self.failed
            raise WorkerError(
                state.index, self.tasks[state.index], state.last_exc,
                state.last_traceback,
            ) from state.last_exc

    def _run_pool(self) -> None:
        self.factory = WorkerFactory(
            self.slots, self.policy.heartbeat_interval_s, daemon=False
        )
        try:
            for _ in range(min(self.target_workers, len(self.unresolved))):
                self._spawn()
            while self.unresolved:
                now = time.monotonic()
                self._reap(now)
                # Keep the pool at strength while the respawn budget and
                # useful work both remain.
                while (len(self.pool) < min(self.target_workers,
                                            len(self.unresolved))
                       and self._spawn()):
                    self.stats.respawns += 1
                if not self.pool:
                    break  # pool is dead beyond respawn → fallback rung
                self._fill_idle(now)
                ready = connection_wait(
                    list(self.pool), timeout=self.policy.poll_interval_s,
                )
                for conn in ready:
                    self._drain(self.pool[conn])
        finally:
            workers = list(self.pool.values())
            self.pool.clear()
            for worker in workers:
                if worker.slot in self.running:
                    worker.kill()
            stop_workers(w for w in workers if w.slot not in self.running)

    def _serial_rung(self) -> None:
        """Last rung: finish remaining tasks in-process.

        No timeout enforcement is possible here (there is no worker to
        kill), but progress is guaranteed and chaos kill-wrappers stay
        inert because :data:`WORKER_ENV` is unset in the parent.
        """
        for index in sorted(self.unresolved):
            state = self.states[index]
            while not state.resolved:
                state.dispatches += 1
                if state.first_dispatch is None:
                    state.first_dispatch = time.monotonic()
                try:
                    value = self.runner(self.tasks[index])
                except Exception as exc:
                    self._attempt_failed(
                        state, "failed", exc, traceback.format_exc()
                    )
                    time.sleep(max(0.0, state.eligible_at - time.monotonic()))
                    continue
                self._succeeded(
                    state, value, time.monotonic() - state.first_dispatch
                )
