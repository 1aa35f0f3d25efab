"""Property tests: the incremental scheduling state matches the task scans.

:class:`~repro.frameworks.jobs.Job` keeps a running-attempt count, a
per-phase task index and per-phase completed counts, maintained by the
attempt and task lifecycle.  Random lifecycles — submissions (plain and
Dolly-cloned), heartbeats, attempt completions, speculative copies,
``kill_job`` and Dolly's clone cancellation — are driven through a
JobTracker and a SparkScheduler; after every step each job's running
count, barrier answers (``maps_done`` / ``stage_done``) and
``pending_tasks`` list must equal the scan oracles in
:mod:`repro.bench.naive`.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.naive import (
    naive_maps_done,
    naive_pending_tasks,
    naive_running_count,
    naive_stage_done,
)
from repro.frameworks.cloning import DollyCloner
from repro.frameworks.hdfs import HdfsCluster
from repro.frameworks.jobs import JobState, TaskState
from repro.frameworks.mapreduce.jobtracker import JobTracker, MapReduceJob
from repro.frameworks.spark.driver import SparkScheduler
from repro.sim.engine import Simulator
from repro.virt.cluster import Cluster
from repro.virt.vm import Priority
from repro.workloads.datagen import sparkbench_synthetic, teragen
from repro.workloads.puma import terasort
from repro.workloads.sparkbench import logistic_regression

_N_WORKERS = 3

_steps = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(1, 4), st.integers(0, 2)),
        st.tuples(st.just("dolly"), st.integers(1, 3), st.integers(1, 2)),
        st.tuples(st.just("heartbeat")),
        st.tuples(st.just("finish"), st.integers(0, 63)),
        st.tuples(st.just("speculate"), st.integers(0, 63),
                  st.integers(0, _N_WORKERS - 1)),
        st.tuples(st.just("kill"), st.integers(0, 63)),
    ),
    min_size=1,
    max_size=60,
)


def _world(framework: str, policy: str):
    sim = Simulator(dt=1.0, seed=3)
    cluster = Cluster(sim)
    cluster.add_host("h0")
    workers = [
        cluster.boot_vm(f"w{i}", "h0", priority=Priority.HIGH, app_id="app")
        for i in range(_N_WORKERS)
    ]
    hdfs = HdfsCluster([w.name for w in workers], sim.rng.stream("hdfs"))
    cls = JobTracker if framework == "mr" else SparkScheduler
    return cls(sim, workers, hdfs, policy=policy)


def _submit(sched, blocks: int, extra: int, clone_of=None):
    size_mb = 64.0 * blocks
    if isinstance(sched, JobTracker):
        return sched.submit(terasort(), teragen(size_mb), extra,
                            clone_of=clone_of)
    spec = dataclasses.replace(logistic_regression(), iterations=1 + extra)
    return sched.submit(spec, sparkbench_synthetic("lr", size_mb),
                        clone_of=clone_of)


def _running(sched):
    """Live attempts in a fixed order: executors by VM, slots in order."""
    return [a for vm in sorted(sched.executors)
            for a in sched.executors[vm].running if a.running]


def _finish(sched, attempt) -> None:
    """Reap a drained attempt exactly as its executor would."""
    executor = sched.executors[attempt.vm_name]
    executor.running.remove(attempt)
    executor.on_attempt_done(attempt)


def _apply(sched, cloner, step) -> None:
    kind = step[0]
    if kind == "submit":
        _submit(sched, step[1], step[2])
    elif kind == "dolly":
        cloner.submit(lambda tag: _submit(sched, step[1], step[2], tag))
    elif kind == "heartbeat":
        sched.heartbeat()
    elif kind == "finish":
        live = _running(sched)
        if live:
            _finish(sched, live[step[1] % len(live)])
    elif kind == "speculate":
        live = _running(sched)
        vm = sorted(sched.executors)[step[2]]
        if live and sched.executors[vm].free_slots > 0:
            task = live[step[1] % len(live)].task
            sched._launch(task, vm, speculative=True)
    elif kind == "kill":
        active = [j for j in sched.jobs
                  if j.state in (JobState.PENDING, JobState.RUNNING)]
        if active:
            sched.kill_job(active[step[1] % len(active)])


def _assert_matches_oracles(sched) -> None:
    for job in sched.jobs:
        assert job.running_count == naive_running_count(job), job.id
        # Barrier answers first: a premature advance inside
        # pending_tasks would otherwise be hidden by the oracle
        # reading the already-advanced state.
        if isinstance(job, MapReduceJob):
            assert job.maps_done == naive_maps_done(job), job.id
        else:
            for stage in range(job.total_stages):
                assert job.stage_done(stage) == naive_stage_done(job, stage)
        fast = [t.id for t in sched.pending_tasks(job)]
        slow = [t.id for t in naive_pending_tasks(sched, job)]
        assert fast == slow, job.id


@pytest.mark.parametrize("policy", ["fair", "fifo"])
@pytest.mark.parametrize("framework", ["mr", "spark"])
@settings(max_examples=100, deadline=None)
@given(steps=_steps)
def test_incremental_state_matches_scans(framework, policy, steps):
    sched = _world(framework, policy)
    cloner = DollyCloner(sched, num_clones=2)
    for step in steps:
        _apply(sched, cloner, step)
        _assert_matches_oracles(sched)


def test_lifecycle_reaches_every_transition():
    # The random walk above is only as good as its reach: one scripted
    # walk must finish a whole MapReduce job (maps, barrier, reduces),
    # kill a loser speculative copy, and cancel a Dolly clone.
    sched = _world("mr", "fair")
    cloner = DollyCloner(sched, num_clones=2)
    logical = cloner.submit(lambda tag: _submit(sched, 1, 1, tag))
    sched.heartbeat()
    first = _running(sched)[0]
    spare = next(vm for vm in sorted(sched.executors)
                 if sched.executors[vm].free_slots > 0)
    copy = sched._launch(first.task, spare, speculative=True)
    _assert_matches_oracles(sched)
    _finish(sched, first)
    assert copy.state is TaskState.KILLED
    _assert_matches_oracles(sched)
    while not logical.done:
        sched.heartbeat()
        live = _running(sched)
        assert live, "lifecycle stalled"
        _finish(sched, live[0])
        _assert_matches_oracles(sched)
    assert sched.ledger.killed_attempts >= 1
    assert all(job.running_count == 0 for job in sched.jobs)
    assert any(c.state is JobState.KILLED for c in logical.clones)
