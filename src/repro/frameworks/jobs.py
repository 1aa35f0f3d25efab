"""Framework-agnostic job / task / attempt lifecycle.

Work model
----------
A task's :class:`TaskWork` is a vector of independent resource dimensions
(CPU core-seconds, disk bytes/ops in each direction, shuffle bytes per
source VM).  Dimensions drain concurrently at whatever rates the hardware
grants; the task completes when *every* dimension is exhausted — so its
runtime is the max over dimensions, and contention on any one dimension
(e.g. a fio antagonist squeezing disk grants) directly lengthens the
task.  This is how stragglers *emerge* in the reproduction.

Attempts
--------
A :class:`Task` can have several :class:`TaskAttempt`\\ s: the original
plus speculative copies (LATE) or clone-job copies (Dolly).  The first
attempt to finish completes the task; the rest are killed.  Every
attempt's runtime is charged to the :class:`UtilizationLedger`, which is
exactly the paper's resource-utilization-efficiency metric: the ratio of
successful task execution time to all task execution time including
killed tasks (§IV-C, Fig. 11c).

Scheduling state
----------------
The schedulers ask three questions on every free slot: how many attempts
a job has running (fair ordering), whether a phase has finished (the
map/reduce and stage barriers), and which of the current phase's tasks
are pending.  A :class:`Job` answers them from counters kept by the
lifecycle itself rather than by rescanning its tasks:

* ``Job.running_count`` — +1 when a :class:`TaskAttempt` is created,
  −1 when it finishes or is killed (the only state changes an attempt
  has; ``kill`` is idempotent);
* ``Job.completed_by_kind`` — +1 per phase when a task completes;
* a per-phase task index filled by :meth:`Job.add_task`.

The scan-based answers live in :mod:`repro.bench.naive` as oracles.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "TaskWork",
    "TaskState",
    "JobState",
    "TaskAttempt",
    "Task",
    "Job",
    "UtilizationLedger",
]

def _attempt_id(task_id: str, index: int) -> int:
    """Stable attempt identity: a function of (task, attempt index).

    Stability matters: the executor's deterministic burst phases are keyed
    by attempt id, so runs must not depend on how many attempts other
    tests/scenarios created earlier in the process.
    """
    return zlib.crc32(f"{task_id}#{index}".encode("utf-8"))


@dataclass
class TaskWork:
    """Total work of one task, by resource dimension.

    ``net_in`` maps source VM name -> bytes to fetch (shuffle / remote
    read).  ``llc_ws_mb`` and ``mem_bw_gbps`` are ambient demands while
    the task runs, not drainable work.
    """

    cpu_coresec: float = 0.0
    read_bytes: float = 0.0
    read_ops: float = 0.0
    write_bytes: float = 0.0
    write_ops: float = 0.0
    net_in: Dict[str, float] = field(default_factory=dict)
    llc_ws_mb: float = 0.0
    mem_bw_gbps: float = 0.0

    def __post_init__(self) -> None:
        for name in ("cpu_coresec", "read_bytes", "read_ops", "write_bytes", "write_ops"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for vm, b in self.net_in.items():
            if b < 0:
                raise ValueError(f"negative net_in for {vm!r}")

    @property
    def net_total(self) -> float:
        """Total shuffle/remote-read bytes across all sources."""
        return sum(self.net_in.values())

    def nominal_duration(
        self,
        read_rate_bps: float,
        write_rate_bps: float,
        net_rate_bps: float = 50e6,
        cpu_cores: float = 1.0,
    ) -> float:
        """Uncontended runtime: the max over per-dimension times."""
        times = [0.0]
        if self.cpu_coresec > 0:
            times.append(self.cpu_coresec / cpu_cores)
        if self.read_bytes > 0:
            times.append(self.read_bytes / read_rate_bps)
        if self.write_bytes > 0:
            times.append(self.write_bytes / write_rate_bps)
        if self.net_total > 0:
            times.append(self.net_total / net_rate_bps)
        return max(times)


class TaskState(enum.Enum):
    """Lifecycle of a task (and of each attempt)."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    KILLED = "killed"


class JobState(enum.Enum):
    """Lifecycle of a job."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    KILLED = "killed"


class TaskAttempt:
    """One execution of a task on one VM.

    Tracks per-dimension remaining work; :meth:`advance` folds in one
    step's allocation.  Progress history feeds the LATE estimator.
    """

    def __init__(
        self,
        task: "Task",
        vm_name: str,
        start_time: float,
        *,
        speculative: bool = False,
    ) -> None:
        self.id = _attempt_id(task.id, len(task.attempts))
        self.task = task
        task.job.running_count += 1
        self.vm_name = vm_name
        self.start_time = start_time
        self.end_time: Optional[float] = None
        self.state = TaskState.RUNNING
        self.speculative = speculative
        w = task.work
        self.rem_cpu = w.cpu_coresec
        self.rem_read_bytes = w.read_bytes
        self.rem_read_ops = w.read_ops
        self.rem_write_bytes = w.write_bytes
        self.rem_write_ops = w.write_ops
        self.rem_net: Dict[str, float] = dict(w.net_in)
        #: (time, progress) history for progress-rate estimation.
        self.progress_log: List[Tuple[float, float]] = [(start_time, 0.0)]

    # -------------------------------------------------------------- progress
    @property
    def running(self) -> bool:
        """Whether the attempt is still executing."""
        return self.state is TaskState.RUNNING

    @property
    def work_done(self) -> bool:
        """Whether every work dimension has drained to zero."""
        return (
            self.rem_cpu <= 1e-9
            and self.rem_read_bytes <= 1e-6
            and self.rem_read_ops <= 1e-9
            and self.rem_write_bytes <= 1e-6
            and self.rem_write_ops <= 1e-9
            and all(v <= 1e-6 for v in self.rem_net.values())
        )

    @property
    def progress(self) -> float:
        """Binding-dimension progress score in [0, 1]."""
        w = self.task.work
        fractions = [1.0]
        if w.cpu_coresec > 0:
            fractions.append(1.0 - self.rem_cpu / w.cpu_coresec)
        if w.read_bytes > 0:
            fractions.append(1.0 - self.rem_read_bytes / w.read_bytes)
        if w.write_bytes > 0:
            fractions.append(1.0 - self.rem_write_bytes / w.write_bytes)
        if w.net_total > 0:
            rem = sum(self.rem_net.values())
            fractions.append(1.0 - rem / w.net_total)
        return max(0.0, min(fractions))

    def progress_rate(self, window_s: float = 20.0) -> float:
        """Recent progress per second (LATE's estimator input)."""
        log = self.progress_log
        if len(log) < 2:
            return 0.0
        t_end, p_end = log[-1]
        t0, p0 = log[0]
        for t, p in reversed(log):
            if t_end - t >= window_s:
                t0, p0 = t, p
                break
        if t_end <= t0:
            return 0.0
        return max(0.0, (p_end - p0) / (t_end - t0))

    def estimated_time_left(self, window_s: float = 20.0) -> float:
        """LATE's time-to-finish estimate: (1 - progress) / progress_rate."""
        rate = self.progress_rate(window_s)
        if rate <= 1e-9:
            return float("inf")
        return (1.0 - self.progress) / rate

    # --------------------------------------------------------------- advance
    def advance(
        self,
        *,
        effective_coresec: float = 0.0,
        read_bytes: float = 0.0,
        read_ops: float = 0.0,
        write_bytes: float = 0.0,
        write_ops: float = 0.0,
        net_bytes: Optional[Dict[str, float]] = None,
        now: float = 0.0,
    ) -> None:
        """Drain delivered amounts from the remaining-work vector."""
        if not self.running:
            return
        self.rem_cpu = max(0.0, self.rem_cpu - effective_coresec)
        self.rem_read_bytes = max(0.0, self.rem_read_bytes - read_bytes)
        self.rem_read_ops = max(0.0, self.rem_read_ops - read_ops)
        self.rem_write_bytes = max(0.0, self.rem_write_bytes - write_bytes)
        self.rem_write_ops = max(0.0, self.rem_write_ops - write_ops)
        for vm, got in (net_bytes or {}).items():
            if vm in self.rem_net:
                self.rem_net[vm] = max(0.0, self.rem_net[vm] - got)
        self.progress_log.append((now, self.progress))
        if len(self.progress_log) > 256:
            del self.progress_log[: len(self.progress_log) - 256]

    # ------------------------------------------------------------- lifecycle
    def finish(self, now: float) -> None:
        """Mark the attempt successful at ``now``."""
        if not self.running:
            raise RuntimeError(f"finish() on non-running attempt {self.id}")
        self.task.job.running_count -= 1
        self.state = TaskState.SUCCEEDED
        self.end_time = now

    def kill(self, now: float) -> None:
        """Terminate a running attempt (idempotent on finished ones)."""
        if not self.running:
            return
        self.task.job.running_count -= 1
        self.state = TaskState.KILLED
        self.end_time = now

    @property
    def runtime(self) -> float:
        """Wall-clock lifetime (0 while still running)."""
        if self.end_time is None:
            return 0.0
        return self.end_time - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskAttempt(id={self.id}, task={self.task.id!r}, vm={self.vm_name!r}, "
            f"state={self.state.value}, p={self.progress:.2f})"
        )


class Task:
    """One unit of parallel work within a job phase."""

    def __init__(
        self,
        task_id: str,
        job: "Job",
        kind: str,
        work: TaskWork,
        preferred_vms: Tuple[str, ...] = (),
    ) -> None:
        self.id = task_id
        self.job = job
        self.kind = kind
        self.work = work
        #: Locality hints (VMs holding the input block / cached partition).
        self.preferred_vms = preferred_vms
        self.attempts: List[TaskAttempt] = []
        self.state = TaskState.PENDING
        self.finish_time: Optional[float] = None
        #: VM that ran the winning attempt (output location for shuffles).
        self.output_vm: Optional[str] = None

    @property
    def running_attempts(self) -> List[TaskAttempt]:
        """Attempts currently executing (original and/or copies)."""
        return [a for a in self.attempts if a.running]

    @property
    def completed(self) -> bool:
        """Whether some attempt has succeeded."""
        return self.state is TaskState.SUCCEEDED

    def new_attempt(
        self, vm_name: str, now: float, *, speculative: bool = False
    ) -> TaskAttempt:
        """Launch another execution of this task on ``vm_name``."""
        if self.completed:
            raise RuntimeError(f"attempt on completed task {self.id!r}")
        attempt = TaskAttempt(self, vm_name, now, speculative=speculative)
        self.attempts.append(attempt)
        if self.state is TaskState.PENDING:
            self.state = TaskState.RUNNING
        return attempt

    def complete_with(self, attempt: TaskAttempt, now: float) -> List[TaskAttempt]:
        """Mark the winning attempt; return the losers (killed)."""
        attempt.finish(now)
        done = self.job.completed_by_kind
        done[self.kind] = done.get(self.kind, 0) + 1
        self.state = TaskState.SUCCEEDED
        self.finish_time = now
        self.output_vm = attempt.vm_name
        losers = []
        for other in self.attempts:
            if other is not attempt and other.running:
                other.kill(now)
                losers.append(other)
        return losers

    def kill_all(self, now: float) -> List[TaskAttempt]:
        """Kill every running attempt (Dolly clone cancellation)."""
        killed = []
        for a in self.attempts:
            if a.running:
                a.kill(now)
                killed.append(a)
        if not self.completed:
            self.state = TaskState.KILLED
        return killed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task({self.id!r}, kind={self.kind!r}, state={self.state.value})"


class Job:
    """A collection of tasks with phase structure left to the framework."""

    def __init__(
        self,
        job_id: str,
        name: str,
        kind: str,
        submit_time: float,
        *,
        clone_of: Optional[str] = None,
    ) -> None:
        self.id = job_id
        self.name = name
        self.kind = kind
        self.submit_time = submit_time
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.state = JobState.PENDING
        self.tasks: List[Task] = []
        #: For Dolly clones: id of the logical job this duplicates.
        self.clone_of = clone_of
        #: Attempts of this job's tasks currently executing.
        self.running_count = 0
        #: Completed tasks per phase.
        self.completed_by_kind: Dict[str, int] = {}
        self._tasks_by_kind: Dict[str, List[Task]] = {}

    def add_task(self, task: Task) -> None:
        """Register a task with the job."""
        self.tasks.append(task)
        self._tasks_by_kind.setdefault(task.kind, []).append(task)

    def tasks_of_kind(self, kind: str) -> List[Task]:
        """Tasks of one phase (\"map\", \"reduce\", \"stage3\"...)."""
        return list(self._tasks_by_kind.get(kind, ()))

    def phase_done(self, kind: str) -> bool:
        """Whether a phase has tasks and every one of them has completed."""
        n = len(self._tasks_by_kind.get(kind, ()))
        return n > 0 and self.completed_by_kind.get(kind, 0) == n

    def pending_of_kind(self, kind: str) -> List[Task]:
        """Unassigned tasks of one phase, in submission order."""
        return [
            t for t in self._tasks_by_kind.get(kind, ())
            if t.state is TaskState.PENDING
        ]

    @property
    def completion_time(self) -> Optional[float]:
        """Job completion time (finish - submit), the paper's JCT metric."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    def mark_running(self, now: float) -> None:
        """Transition PENDING -> RUNNING (records start time once)."""
        if self.state is JobState.PENDING:
            self.state = JobState.RUNNING
            self.start_time = now

    def mark_finished(self, now: float) -> None:
        """Record successful completion at ``now``."""
        self.state = JobState.SUCCEEDED
        self.finish_time = now

    def mark_killed(self, now: float) -> None:
        """Cancel the job (no-op once finished)."""
        if self.state in (JobState.PENDING, JobState.RUNNING):
            self.state = JobState.KILLED
            self.finish_time = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Job({self.id!r}, {self.name!r}, state={self.state.value})"


class UtilizationLedger:
    """Accounting behind the paper's resource-utilization efficiency.

    Efficiency = successful task execution time / all task execution time
    (including killed speculative copies and cancelled clones) — Fig. 11c.
    """

    def __init__(self) -> None:
        self.successful_task_seconds = 0.0
        self.killed_task_seconds = 0.0
        self.successful_attempts = 0
        self.killed_attempts = 0

    def record(self, attempt: TaskAttempt) -> None:
        """Charge a finished attempt's runtime to the ledger."""
        if attempt.end_time is None:
            raise ValueError("cannot record an unfinished attempt")
        if attempt.state is TaskState.SUCCEEDED:
            self.successful_task_seconds += attempt.runtime
            self.successful_attempts += 1
        elif attempt.state is TaskState.KILLED:
            self.killed_task_seconds += attempt.runtime
            self.killed_attempts += 1
        else:  # pragma: no cover - defensive
            raise ValueError(f"attempt in unexpected state {attempt.state}")

    @property
    def total_task_seconds(self) -> float:
        """All attempt runtime, successful and killed."""
        return self.successful_task_seconds + self.killed_task_seconds

    @property
    def efficiency(self) -> float:
        """Successful / total task time — the Fig. 11c metric."""
        total = self.total_task_seconds
        if total <= 0:
            return 1.0
        return self.successful_task_seconds / total
