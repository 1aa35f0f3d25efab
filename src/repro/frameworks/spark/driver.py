"""Spark-like scheduler: a DAG of barrier-separated stages over cached RDDs.

An application is a *load* stage (read each partition from HDFS, parse,
cache in executor memory) followed by ``iterations`` compute stages.
Compute-stage tasks re-scan the cached partition — expressed as ambient
memory-bandwidth demand and LLC working set rather than disk work, which
is exactly why the paper finds Spark more exposed to shared-processor
contention than MapReduce (§III-A2): once loaded, its critical resource
is the memory hierarchy.

Placement: a compute task prefers the VM caching its partition; if
scheduled elsewhere (or speculated), it pays a network fetch of the
partition from the cache holder (Spark's remote block read).  Shuffle-
heavy benchmarks (PageRank) additionally exchange
``iter_shuffle_ratio × partition`` bytes all-to-all between consecutive
stages.

Stages are barriers: stage *k+1*'s tasks are created only when stage *k*
completes — so one straggling task holds up the whole application, the
amplification PerfCloud's early detection is designed to beat.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.frameworks.hdfs import HdfsCluster
from repro.frameworks.jobs import Job, Task, TaskAttempt, TaskWork
from repro.frameworks.scheduler import FrameworkScheduler
from repro.frameworks.speculation import SpeculationPolicy
from repro.sim.engine import Simulator
from repro.workloads.datagen import Dataset
from repro.workloads.sparkbench import SparkBenchmarkSpec

__all__ = ["SparkApplication", "SparkScheduler"]

_MB = 1024.0 * 1024.0


class SparkApplication(Job):
    """One Spark application: load stage + ``iterations`` compute stages."""

    def __init__(
        self,
        job_id: str,
        spec: SparkBenchmarkSpec,
        dataset: Dataset,
        submit_time: float,
        *,
        clone_of: Optional[str] = None,
    ) -> None:
        super().__init__(job_id, spec.name, "spark", submit_time, clone_of=clone_of)
        self.spec = spec
        self.dataset = dataset
        self.profile = spec.profile
        #: Stage currently materialized (0 = load, 1..iterations = compute).
        self.current_stage = 0
        #: Cache location per partition index (VM that ran its load task).
        self.cache_vm: Dict[int, str] = {}
        #: Output location per (stage, partition) for shuffle fetches.
        self.stage_outputs: Dict[int, Dict[int, str]] = {}

    @property
    def num_partitions(self) -> int:
        """RDD partitions (= input HDFS blocks)."""
        return self.dataset.num_blocks

    @property
    def total_stages(self) -> int:
        """Load stage plus one stage per iteration."""
        return 1 + self.spec.iterations

    def stage_tasks(self, stage: int) -> List[Task]:
        """Tasks of one stage (empty if not yet materialized)."""
        return self.tasks_of_kind(f"stage{stage}")

    def stage_done(self, stage: int) -> bool:
        """Whether a stage has been built and fully completed."""
        return self.phase_done(f"stage{stage}")


class SparkScheduler(FrameworkScheduler):
    """Schedules Spark applications over a fixed executor pool."""

    slots_per_vm = 2  # one task per vCPU on the paper's 2-vCPU workers

    def __init__(
        self,
        sim: Simulator,
        worker_vms: List,
        hdfs: HdfsCluster,
        *,
        speculation: Optional[SpeculationPolicy] = None,
        heartbeat_s: float = 1.0,
        name: str = "spark",
        policy: str = "fifo",
    ) -> None:
        super().__init__(
            sim, worker_vms, speculation=speculation, heartbeat_s=heartbeat_s,
            name=name, policy=policy,
        )
        self.hdfs = hdfs

    # ---------------------------------------------------------------- submit
    def submit(
        self,
        spec: SparkBenchmarkSpec,
        dataset: Dataset,
        *,
        clone_of: Optional[str] = None,
    ) -> SparkApplication:
        """Create the load stage from the dataset's blocks and enqueue."""
        hdfs_file = self.hdfs.create_file(dataset)
        app = SparkApplication(
            self.new_job_id(), spec, dataset, self.sim.now, clone_of=clone_of
        )
        # Load stage: one task per block/partition.
        for idx, block in enumerate(hdfs_file.blocks):
            size_mb = block.size_mb
            read_bytes = size_mb * _MB
            work = TaskWork(
                cpu_coresec=spec.load_cpu_per_mb * dataset.parse_cost * size_mb,
                read_bytes=read_bytes,
                read_ops=read_bytes / spec.io_size_bytes,
                llc_ws_mb=spec.llc_ws_mb,
                mem_bw_gbps=spec.mem_bw_gbps,
            )
            task = Task(
                f"{app.id}/stage0/p{idx:04d}",
                app,
                "stage0",
                work,
                preferred_vms=block.replicas,
            )
            task.partition = idx
            task.read_rate_bps = spec.read_rate_mbps * _MB
            task.write_rate_bps = spec.read_rate_mbps * _MB
            task.nominal_s = work.nominal_duration(
                read_rate_bps=spec.read_rate_mbps * _MB,
                write_rate_bps=spec.read_rate_mbps * _MB,
            )
            app.add_task(task)
        self.jobs.append(app)
        return app

    # ------------------------------------------------------- scheduler hooks
    def pending_tasks(self, job: Job) -> List[Task]:
        """Runnable tasks of the current stage (advances the barrier)."""
        assert isinstance(job, SparkApplication)
        # Advance the barrier: materialize the next stage when ready.
        while (
            job.current_stage < job.total_stages - 1
            and job.stage_done(job.current_stage)
        ):
            job.current_stage += 1
            self._create_stage(job, job.current_stage)
        return job.pending_of_kind(f"stage{job.current_stage}")

    def prepare_attempt(self, attempt: TaskAttempt) -> None:
        """Charge remote partition fetch to non-cache-local attempts."""
        task = attempt.task
        job = task.job
        assert isinstance(job, SparkApplication)
        if task.kind == "stage0":
            if task.preferred_vms and attempt.vm_name not in task.preferred_vms:
                holder = task.preferred_vms[0]
                attempt.rem_net[holder] = (
                    attempt.rem_net.get(holder, 0.0) + task.work.read_bytes
                )
            return
        partition = getattr(task, "partition", None)
        cache_vm = job.cache_vm.get(partition)
        if cache_vm is not None and cache_vm != attempt.vm_name:
            part_bytes = self._partition_mb(job, partition) * _MB
            attempt.rem_net[cache_vm] = (
                attempt.rem_net.get(cache_vm, 0.0) + part_bytes
            )

    def on_task_complete(self, task: Task) -> None:
        """Record cache/output locations for locality and shuffles."""
        job = task.job
        assert isinstance(job, SparkApplication)
        stage = int(task.kind.removeprefix("stage"))
        partition = getattr(task, "partition", None)
        if partition is None:
            return
        if stage == 0:
            job.cache_vm[partition] = task.output_vm
        job.stage_outputs.setdefault(stage, {})[partition] = task.output_vm

    def job_is_complete(self, job: Job) -> bool:
        """The final stage has been built and fully completed."""
        assert isinstance(job, SparkApplication)
        return (
            job.current_stage == job.total_stages - 1
            and job.stage_done(job.current_stage)
        )

    # -------------------------------------------------------------- internals
    def _partition_mb(self, job: SparkApplication, partition: int) -> float:
        blocks = self.hdfs.get_file(job.dataset.name).blocks
        return blocks[partition].size_mb

    def _create_stage(self, job: SparkApplication, stage: int) -> None:
        """Materialize one compute stage's tasks."""
        spec = job.spec
        prev_outputs = job.stage_outputs.get(stage - 1, {})
        n = job.num_partitions
        for idx in range(n):
            size_mb = self._partition_mb(job, idx)
            net_in: Dict[str, float] = {}
            if spec.iter_shuffle_ratio > 0 and prev_outputs:
                # All-to-all: this task fetches 1/n of every previous
                # partition's shuffle output.
                for p, vm in prev_outputs.items():
                    if vm is None:
                        continue
                    share = (
                        self._partition_mb(job, p)
                        * _MB
                        * spec.iter_shuffle_ratio
                        / n
                    )
                    net_in[vm] = net_in.get(vm, 0.0) + share
            disk_bytes = size_mb * _MB * spec.iter_disk_fraction
            work = TaskWork(
                cpu_coresec=spec.iter_cpu_per_mb * size_mb,
                read_bytes=disk_bytes,
                read_ops=disk_bytes / spec.io_size_bytes,
                net_in=net_in,
                llc_ws_mb=spec.llc_ws_mb,
                mem_bw_gbps=spec.mem_bw_gbps,
            )
            cache_vm = job.cache_vm.get(idx)
            task = Task(
                f"{job.id}/stage{stage}/p{idx:04d}",
                job,
                f"stage{stage}",
                work,
                preferred_vms=(cache_vm,) if cache_vm else (),
            )
            task.partition = idx
            task.read_rate_bps = spec.read_rate_mbps * _MB
            task.write_rate_bps = spec.read_rate_mbps * _MB
            task.nominal_s = work.nominal_duration(
                read_rate_bps=spec.read_rate_mbps * _MB,
                write_rate_bps=spec.read_rate_mbps * _MB,
            )
            job.add_task(task)
