"""Hadoop-like JobTracker: map → shuffle → reduce over executor slots.

Phases follow classic Hadoop with full slow-start (reduces are created
once every map has finished — the dominant regime for the paper's small
jobs, where shuffle overlap buys little and complicates straggler
attribution):

1. **Map** — one task per HDFS block, data-local placement preferred;
   a map reads its block from disk, computes, and spills its map output
   (``shuffle_ratio`` × input) locally.
2. **Shuffle/Reduce** — each reducer fetches its share of every map
   output over the network from the VM that ran the map, computes, and
   writes its slice of the final output.

A map attempt scheduled on a non-replica VM pays an additional remote
read: the block bytes are fetched over the network from a replica holder
(HDFS remote read), on top of the disk read from shared storage.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.frameworks.hdfs import HdfsCluster
from repro.frameworks.jobs import Job, Task, TaskAttempt, TaskWork
from repro.frameworks.scheduler import FrameworkScheduler
from repro.frameworks.speculation import SpeculationPolicy
from repro.sim.engine import Simulator
from repro.workloads.datagen import Dataset
from repro.workloads.puma import MapReduceBenchmarkSpec

__all__ = ["MapReduceJob", "JobTracker"]

_MB = 1024.0 * 1024.0


class MapReduceJob(Job):
    """A MapReduce job: spec + dataset + reducer count + phase state."""

    def __init__(
        self,
        job_id: str,
        spec: MapReduceBenchmarkSpec,
        dataset: Dataset,
        num_reducers: int,
        submit_time: float,
        *,
        clone_of: Optional[str] = None,
    ) -> None:
        super().__init__(
            job_id, spec.name, "mapreduce", submit_time, clone_of=clone_of
        )
        if num_reducers < 0:
            raise ValueError("num_reducers must be >= 0")
        self.spec = spec
        self.dataset = dataset
        self.num_reducers = num_reducers
        self.profile = spec.profile
        #: Map-output location and size per completed map task.
        self.map_outputs: Dict[str, tuple] = {}  # task_id -> (vm, bytes)
        self.reduces_created = False

    @property
    def maps(self) -> List[Task]:
        """The job's map tasks."""
        return self.tasks_of_kind("map")

    @property
    def reduces(self) -> List[Task]:
        """The job's reduce tasks (empty until the shuffle barrier)."""
        return self.tasks_of_kind("reduce")

    @property
    def maps_done(self) -> bool:
        """Whether every map task has completed."""
        return self.phase_done("map")


class JobTracker(FrameworkScheduler):
    """MapReduce scheduler over a fixed pool of worker VMs."""

    slots_per_vm = 2  # matches the paper's 2-vCPU worker nodes

    def __init__(
        self,
        sim: Simulator,
        worker_vms: List,
        hdfs: HdfsCluster,
        *,
        speculation: Optional[SpeculationPolicy] = None,
        heartbeat_s: float = 1.0,
        name: str = "mr",
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
        spec: MapReduceBenchmarkSpec,
        dataset: Dataset,
        num_reducers: int = 1,
        *,
        clone_of: Optional[str] = None,
    ) -> MapReduceJob:
        """Create map tasks from the dataset's blocks and enqueue the job."""
        hdfs_file = self.hdfs.create_file(dataset)
        job = MapReduceJob(
            self.new_job_id(),
            spec,
            dataset,
            num_reducers,
            self.sim.now,
            clone_of=clone_of,
        )
        for block in hdfs_file.blocks:
            size_mb = block.size_mb
            read_bytes = size_mb * _MB
            spill_bytes = read_bytes * spec.shuffle_ratio
            work = TaskWork(
                cpu_coresec=spec.map_cpu_per_mb * dataset.parse_cost * size_mb,
                read_bytes=read_bytes,
                read_ops=read_bytes / spec.io_size_bytes,
                write_bytes=spill_bytes,
                write_ops=spill_bytes / spec.io_size_bytes,
                llc_ws_mb=spec.llc_ws_mb,
                mem_bw_gbps=spec.mem_bw_gbps,
            )
            task = Task(
                f"{job.id}/map/{block.block_id}",
                job,
                "map",
                work,
                preferred_vms=block.replicas,
            )
            task.read_rate_bps = spec.read_rate_mbps * _MB
            task.write_rate_bps = spec.write_rate_mbps * _MB
            task.nominal_s = work.nominal_duration(
                read_rate_bps=spec.read_rate_mbps * _MB,
                write_rate_bps=spec.write_rate_mbps * _MB,
            )
            job.add_task(task)
        self.jobs.append(job)
        return job

    # ------------------------------------------------------- scheduler hooks
    def pending_tasks(self, job: Job) -> List[Task]:
        """Runnable tasks: maps until done, then (lazily built) reduces."""
        assert isinstance(job, MapReduceJob)
        if not job.maps_done:
            return job.pending_of_kind("map")
        if job.num_reducers > 0 and not job.reduces_created:
            self._create_reduces(job)
        return job.pending_of_kind("reduce")

    def prepare_attempt(self, attempt: TaskAttempt) -> None:
        """Charge a remote read to non-local map attempts."""
        task = attempt.task
        if task.kind != "map" or not task.preferred_vms:
            return
        if attempt.vm_name in task.preferred_vms:
            return
        holder = task.preferred_vms[0]
        attempt.rem_net[holder] = (
            attempt.rem_net.get(holder, 0.0) + task.work.read_bytes
        )

    def on_task_complete(self, task: Task) -> None:
        """Record a finished map's output location for the shuffle."""
        job = task.job
        assert isinstance(job, MapReduceJob)
        if task.kind == "map":
            out_bytes = task.work.read_bytes * job.spec.shuffle_ratio
            job.map_outputs[task.id] = (task.output_vm, out_bytes)

    def job_is_complete(self, job: Job) -> bool:
        """Maps and (if any) reduces all finished."""
        assert isinstance(job, MapReduceJob)
        if not job.maps_done:
            return False
        if job.num_reducers == 0:
            return True
        return job.reduces_created and job.phase_done("reduce")

    # -------------------------------------------------------------- internals
    def _create_reduces(self, job: MapReduceJob) -> None:
        """Build reduce tasks once the shuffle sources are known."""
        spec = job.spec
        r = job.num_reducers
        total_input_bytes = job.dataset.size_mb * _MB
        per_reducer_out = total_input_bytes * spec.output_ratio / r
        for i in range(r):
            net_in: Dict[str, float] = {}
            for vm, out_bytes in job.map_outputs.values():
                if vm is None or out_bytes <= 0:
                    continue
                net_in[vm] = net_in.get(vm, 0.0) + out_bytes / r
            shuffle_mb = sum(net_in.values()) / _MB
            work = TaskWork(
                cpu_coresec=spec.reduce_cpu_per_mb * shuffle_mb,
                write_bytes=per_reducer_out,
                write_ops=per_reducer_out / spec.io_size_bytes,
                net_in=net_in,
                llc_ws_mb=spec.llc_ws_mb,
                mem_bw_gbps=spec.mem_bw_gbps,
            )
            # Shuffle-aware placement: prefer the VMs holding the most map
            # output — an intra-VM (or intra-host) fetch moves at memory
            # speed, the "shared-memory communication" optimization the
            # paper defers to future work (§IV-D2).
            preferred = tuple(
                vm for vm, _ in sorted(
                    net_in.items(), key=lambda kv: -kv[1]
                )[:2]
            )
            task = Task(f"{job.id}/reduce/{i:04d}", job, "reduce", work,
                        preferred_vms=preferred)
            task.read_rate_bps = spec.read_rate_mbps * _MB
            task.write_rate_bps = spec.write_rate_mbps * _MB
            task.nominal_s = work.nominal_duration(
                read_rate_bps=spec.read_rate_mbps * _MB,
                write_rate_bps=spec.write_rate_mbps * _MB,
            )
            job.add_task(task)
        job.reduces_created = True
