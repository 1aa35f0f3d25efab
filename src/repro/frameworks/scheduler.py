"""Shared scheduling machinery for the MapReduce and Spark frameworks.

Both frameworks follow the same loop: a periodic heartbeat walks the
worker VMs, fills free executor slots with pending tasks (data-local
first, FIFO across jobs), optionally consults a speculation policy when
no pending work remains, and reacts to attempt completions reported by
the executors.  :class:`FrameworkScheduler` implements that loop; the
framework subclasses define how jobs expand into tasks and phases.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Dict, List, Optional

from repro.frameworks.executor import ExecutorDriver
from repro.frameworks.jobs import (
    Job,
    JobState,
    Task,
    TaskAttempt,
    UtilizationLedger,
)
from repro.frameworks.speculation import NoSpeculation, SpeculationPolicy
from repro.sim.engine import Simulator

__all__ = ["FrameworkScheduler"]

_running_count = operator.attrgetter("running_count")


class FrameworkScheduler:
    """Base class: slot filling, speculation, completion bookkeeping.

    ``policy`` selects the job-ordering discipline:

    * ``"fifo"`` — Hadoop's default: earliest-submitted job first.  Simple
      but suffers head-of-line blocking when a large job monopolizes
      slots.
    * ``"fair"`` — Fair-Scheduler spirit: each heartbeat, jobs are ordered
      by how far below their fair share of running tasks they are, so
      small jobs slip past large ones (the Facebook-production discipline
      the paper's workload mixes come from).
    """

    #: Executor slots per worker VM (subclasses may override).
    slots_per_vm = 2

    def __init__(
        self,
        sim: Simulator,
        worker_vms: List,
        *,
        speculation: Optional[SpeculationPolicy] = None,
        heartbeat_s: float = 1.0,
        name: str = "framework",
        policy: str = "fifo",
    ) -> None:
        if not worker_vms:
            raise ValueError("need at least one worker VM")
        if policy not in ("fifo", "fair"):
            raise ValueError(f"policy must be 'fifo' or 'fair', got {policy!r}")
        self.sim = sim
        self.name = name
        self.policy = policy
        self.speculation = speculation or NoSpeculation()
        self.ledger = UtilizationLedger()
        self.jobs: List[Job] = []
        self._job_ids = itertools.count()
        self.executors: Dict[str, ExecutorDriver] = {}
        for vm in worker_vms:
            executor = ExecutorDriver(
                vm.name,
                self.slots_per_vm,
                clock=lambda: self.sim.now,
                on_attempt_done=self._attempt_done,
            )
            vm.attach_workload(executor)
            self.executors[vm.name] = executor
        self._heartbeat = sim.every(
            heartbeat_s, self.heartbeat, name=f"{name}-heartbeat"
        )
        #: Callbacks fired with each job when it finishes.
        self.completion_listeners: List[Callable[[Job], None]] = []

    # ------------------------------------------------------------- interface
    def pending_tasks(self, job: Job) -> List[Task]:
        """Tasks of ``job`` that are ready to run and unassigned."""
        raise NotImplementedError

    def on_task_complete(self, task: Task) -> None:
        """Framework hook: phase transitions, output registration."""

    def job_is_complete(self, job: Job) -> bool:
        """Whether every phase of ``job`` has finished."""
        raise NotImplementedError

    # ------------------------------------------------------------- heartbeat
    def heartbeat(self) -> None:
        """One scheduling pass: fill slots, then consider speculation."""
        now = self.sim.now
        active_jobs = [j for j in self.jobs if j.state in (JobState.PENDING, JobState.RUNNING)]
        if not active_jobs:
            return
        for job in active_jobs:
            job.mark_running(now)

        # Fill free slots: job order per the discipline, locality-first
        # within a job.
        for vm_name in sorted(self.executors):
            executor = self.executors[vm_name]
            while executor.free_slots > 0:
                task = self._pick_pending(active_jobs, vm_name)
                if task is None:
                    break
                self._launch(task, vm_name, speculative=False)
        # Speculation pass with whatever slots remain.
        self._speculate(active_jobs, now)

    def _job_order(self, jobs: List[Job]) -> List[Job]:
        if self.policy == "fifo":
            return jobs
        # Fair: fewest running attempts first (deficit ordering).  The
        # sort is stable, so FIFO breaks ties and the discipline stays
        # deterministic.
        return sorted(jobs, key=_running_count)

    def _pick_pending(self, jobs: List[Job], vm_name: str) -> Optional[Task]:
        fallback: Optional[Task] = None
        for job in self._job_order(jobs):
            for task in self.pending_tasks(job):
                if vm_name in task.preferred_vms:
                    return task
                if fallback is None:
                    fallback = task
        return fallback

    def _speculate(self, jobs: List[Job], now: float) -> None:
        policy = self.speculation
        if isinstance(policy, NoSpeculation):
            return
        candidates: List[Task] = []
        for job in jobs:
            # Exact: a task with a live attempt implies a positive count.
            if not job.running_count:
                continue
            for task in job.tasks:
                if not task.completed and task.running_attempts:
                    candidates.append(task)
        if not candidates:
            return
        total_slots = sum(e.slots for e in self.executors.values())
        spec_running = sum(
            1
            for task in candidates
            for a in task.running_attempts
            if a.speculative
        )
        for vm_name in sorted(self.executors):
            executor = self.executors[vm_name]
            while executor.free_slots > 0:
                task = policy.select_task(
                    candidates,
                    vm_name,
                    now,
                    total_slots=total_slots,
                    speculative_running=spec_running,
                )
                if task is None:
                    break
                self._launch(task, vm_name, speculative=True)
                spec_running += 1

    def _launch(self, task: Task, vm_name: str, *, speculative: bool) -> TaskAttempt:
        attempt = task.new_attempt(vm_name, self.sim.now, speculative=speculative)
        self.prepare_attempt(attempt)
        self.executors[vm_name].launch(attempt)
        return attempt

    def prepare_attempt(self, attempt: TaskAttempt) -> None:
        """Framework hook: per-attempt adjustments (e.g. remote reads)."""

    # ------------------------------------------------------------ completion
    def _attempt_done(self, attempt: TaskAttempt) -> None:
        now = self.sim.now
        task = attempt.task
        if task.completed:
            # A sibling already won; this copy's work is wasted.
            attempt.kill(now)
            self.ledger.record(attempt)
            return
        losers = task.complete_with(attempt, now)
        self.ledger.record(attempt)
        self.speculation.observe_completion(attempt)
        for loser in losers:
            self.executors[loser.vm_name].kill(loser)
            self.ledger.record(loser)
        self.on_task_complete(task)
        job = task.job
        if job.state is JobState.RUNNING and self.job_is_complete(job):
            job.mark_finished(now)
            for listener in list(self.completion_listeners):
                listener(job)

    # ---------------------------------------------------------------- control
    def kill_job(self, job: Job) -> None:
        """Cancel a job: kill all live attempts, free their slots."""
        now = self.sim.now
        for task in job.tasks:
            for attempt in task.running_attempts:
                self.executors[attempt.vm_name].kill(attempt)
                self.ledger.record(attempt)
            if not task.completed:
                task.kill_all(now)
        job.mark_killed(now)

    def new_job_id(self) -> str:
        """Fresh namespaced job identifier."""
        return f"{self.name}-job{next(self._job_ids):04d}"

    def stop(self) -> None:
        """Stop the heartbeat (end of experiment)."""
        self._heartbeat.stop()

    # ----------------------------------------------------------------- query
    def finished_jobs(self) -> List[Job]:
        """Jobs that completed successfully."""
        return [j for j in self.jobs if j.state is JobState.SUCCEEDED]

    def all_done(self) -> bool:
        """Whether every submitted job has finished or been killed."""
        return all(
            j.state in (JobState.SUCCEEDED, JobState.KILLED) for j in self.jobs
        )
