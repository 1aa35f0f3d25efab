"""The benchmark's three seeded worlds, built through the public API only.

Every random choice a world needs (antagonist placement, arrival times,
the job mix) is drawn by :func:`make_inputs` from the workload seed;
:func:`assemble` hands the simulator only those generated inputs, and
is what the benchmark times as set-up.  The inputs also carry the ground
truth the scorer needs: which VMs the benchmark placed as antagonists.

* ``mixed_jobs`` -- the paper's Fig. 11 regime kept busy: MapReduce and
  Spark executors side by side on every HIGH worker, one fio and one
  STREAM antagonist per host, PerfCloud on, a Facebook-like job mix with
  Poisson arrivals; the run ends when the last job completes.
* ``wide_contended`` -- a wide, mostly idle datacenter where one host
  in ten holds an I/O victim app, a late-arriving fio antagonist and an
  uncorrelated LOW decoy; no framework runs, so the control plane and
  the data plane's idle-grant path carry the run.
* ``wide_contended_pooled`` -- the same world and seed stepped through
  a two-process shard pool; its outputs must equal the serial world's.

The job mix is *stratified*: each benchmark contributes its share of
small and large jobs, every size is drawn by ``facebook_like_mix``, and
the mix is redrawn until its nominal work and arrival span sit within
``tol`` of their expectations.  Seeds then change which jobs arrive when
and how big each one is, but not how much work a run holds -- so the
benchmark's host times compare code, not draws.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import (
    CloudManager,
    Cluster,
    FioRandomRead,
    PerfCloud,
    Priority,
    Simulator,
    StreamBenchmark,
    SysbenchCpu,
    facebook_like_mix,
)
from repro.experiments.harness import TestbedConfig, build_testbed
from repro.workloads.puma import PUMA_BENCHMARKS
from repro.workloads.sparkbench import SPARKBENCH_BENCHMARKS

__all__ = ["Inputs", "World", "WORKLOADS", "SIZES", "make_inputs", "assemble"]

#: Workload name -> (world family, shard workers).  The pooled world uses
#: two workers: the parent blocks while the pool computes, so at most two
#: processes are busy at once.
WORKLOADS: Dict[str, Tuple[str, int]] = {
    "mixed_jobs": ("mixed", 0),
    "wide_contended": ("wide", 0),
    "wide_contended_pooled": ("wide", 2),
}

#: Full-size dimensions per world family; tests pass tiny ones.
SIZES = {
    "mixed": dict(hosts=4, workers_per_host=6, jobs_per_framework=20,
                  mean_interarrival_s=25.0, tol=0.03),
    "wide": dict(hosts=300, warmup_s=60.0, contended_s=150.0),
}

_BENCHMARKS = {
    "mapreduce": ("grep", "inverted-index", "terasort", "wordcount"),
    "spark": ("kmeans", "logistic-regression", "page-rank", "svm"),
}
#: Facebook production share of small (< 10 task) jobs; small jobs draw
#: 1-9 tasks and large ones 10-50, 5 and 30 on average.
_SMALL_FRACTION = 0.8
_MEAN_TASKS = {1.0: 5.0, 0.0: 30.0}


@dataclass(frozen=True)
class Inputs:
    """Everything a world is built from, generated from one seed."""

    workload: str
    seed: int
    dims: dict
    #: (VM name, antagonist kind, host) the benchmark placed.
    antagonists: tuple
    #: mixed: ((kind, index), JobRequest) in arrival order per framework.
    jobs: tuple = ()
    #: wide: (host index, fio arrival time) of every contended host.
    contended: tuple = ()

    def describe(self) -> dict:
        """JSON-able canonical form (hashed into the run metadata)."""
        return {
            "workload": self.workload, "seed": self.seed, "dims": self.dims,
            "antagonists": [list(a) for a in self.antagonists],
            "jobs": [[k, i, r.benchmark, r.dataset.num_blocks,
                      r.num_reducers, repr(r.submit_time)]
                     for (k, i), r in self.jobs],
            "contended": [[h, repr(t)] for h, t in self.contended],
        }

    def digest(self) -> str:
        blob = json.dumps(self.describe(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class World:
    """One assembled world."""

    inputs: Inputs
    sim: Simulator
    perfcloud: PerfCloud
    #: Simulated-time cap; reaching it with work left fails the run.
    horizon: float
    #: Predicate ending the run before the horizon (None: run to it).
    done: Optional[Callable[[], bool]] = None
    #: (key, job handle) of every submitted job, in submission order.
    jobs: List[tuple] = field(default_factory=list)
    #: Framework schedulers (ledgers, attempt counts).
    schedulers: List[object] = field(default_factory=list)

    def close(self) -> None:
        """Stop the agents and the shard pool (joins pool workers)."""
        self.perfcloud.close()


# --------------------------------------------------------------- inputs
def _nominal_work(req) -> float:
    """Rough core-seconds of one job request, from its benchmark spec."""
    mb = req.dataset.size_mb
    if req.kind == "mapreduce":
        spec = PUMA_BENCHMARKS[req.benchmark]()
        return mb * (spec.map_cpu_per_mb * req.dataset.parse_cost
                     + spec.reduce_cpu_per_mb * spec.shuffle_ratio)
    spec = SPARKBENCH_BENCHMARKS[req.benchmark]()
    return mb * (spec.load_cpu_per_mb + spec.iterations * spec.iter_cpu_per_mb)


def _size_classes(kind: str, count: int, rng) -> List[Tuple[float, str]]:
    """(small_fraction, benchmark) per job: the Facebook small/large split
    exactly, benchmarks dealt round-robin within each class."""
    names = _BENCHMARKS[kind]
    large = int(round(count * (1.0 - _SMALL_FRACTION)))
    dealt = rng.permutation(len(names))
    return ([(1.0, names[j % len(names)]) for j in range(count - large)]
            + [(0.0, names[dealt[j % len(names)]]) for j in range(large)])


def _steady_mix(kind: str, count: int, rng, mean_interarrival_s: float,
                tol: float) -> list:
    """A stratified Facebook-like mix with Poisson arrivals whose nominal
    work and arrival span are within ``tol`` of their expectations,
    redrawn from the same stream until they are."""
    for _ in range(100000):
        classes = _size_classes(kind, count, rng)
        reqs = [facebook_like_mix(kind, 1, rng, benchmarks=[bench],
                                  small_fraction=small).jobs[0]
                for small, bench in classes]
        expected = sum(_nominal_work(r) / r.num_tasks * _MEAN_TASKS[small]
                       for r, (small, _) in zip(reqs, classes))
        order = rng.permutation(count)
        arrivals = np.cumsum(rng.exponential(mean_interarrival_s, count))
        work = sum(map(_nominal_work, reqs))
        span = arrivals[-1] / (count * mean_interarrival_s)
        if abs(work / expected - 1.0) <= tol and abs(span - 1.0) <= tol:
            return [replace(reqs[o], submit_time=float(t))
                    for o, t in zip(order, arrivals)]
    raise RuntimeError(f"no {kind} mix within {tol:.0%} of its expectation")


def _mixed_inputs(seed: int, dims: dict) -> Inputs:
    rng = np.random.default_rng([seed, 11])
    hosts = [f"server{i:02d}" for i in range(dims["hosts"])]
    antagonists = []
    for kind in ("fio", "stream"):
        for i, h in enumerate(rng.permutation(len(hosts))):
            antagonists.append((f"{kind}-{i}", kind, hosts[int(h)]))
    jobs = []
    for kind in ("mapreduce", "spark"):
        mix = _steady_mix(kind, dims["jobs_per_framework"], rng,
                          dims["mean_interarrival_s"], dims["tol"])
        jobs += [((kind, i), req) for i, req in enumerate(mix)]
    return Inputs("mixed_jobs", seed, dims, tuple(antagonists), jobs=tuple(jobs))


def _wide_inputs(workload: str, seed: int, dims: dict) -> Inputs:
    rng = np.random.default_rng([seed, 13])
    n = dims["hosts"]
    # One contended host per block of ten, at a seeded offset; its fio
    # antagonist arrives at a seeded time after the warm-up.
    contended = []
    for block in range(0, n, 10):
        host = block + int(rng.integers(min(10, n - block)))
        contended.append((host, dims["warmup_s"] + float(rng.uniform(0.0, 20.0))))
    antagonists = tuple((f"fio{h:04d}", "fio", f"server{h:04d}")
                        for h, _ in contended)
    return Inputs(workload, seed, dims, antagonists, contended=tuple(contended))


def make_inputs(workload: str, seed: int, sizes: Optional[dict] = None) -> Inputs:
    """Generate ``workload``'s inputs for ``seed`` (``sizes`` overrides
    the family's full-size dimensions)."""
    family, _ = WORKLOADS[workload]
    dims = dict(SIZES[family])
    dims.update(sizes or {})
    if family == "mixed":
        return _mixed_inputs(seed, dims)
    return _wide_inputs(workload, seed, dims)


# -------------------------------------------------------------- assembly
def _submitter(scheduler, kind: str, req, jobs: list, key) -> Callable[[], None]:
    def submit() -> None:
        if kind == "mapreduce":
            handle = scheduler.submit(
                PUMA_BENCHMARKS[req.benchmark](), req.dataset, req.num_reducers)
        else:
            handle = scheduler.submit(
                SPARKBENCH_BENCHMARKS[req.benchmark](), req.dataset)
        jobs.append((key, handle))
    return submit


def _assemble_mixed(inputs: Inputs, shard_workers: int) -> World:
    dims = inputs.dims
    tb = build_testbed(TestbedConfig(
        seed=inputs.seed, num_hosts=dims["hosts"],
        num_workers=dims["hosts"] * dims["workers_per_host"],
        framework="both", scheduler_policy="fair"))
    sim, cloud = tb.sim, tb.cloud
    for name, kind, host in inputs.antagonists:
        if kind == "fio":
            vm = cloud.boot(name, "m1.large", priority=Priority.LOW, host=host)
            vm.attach_workload(FioRandomRead())
        else:
            vm = cloud.boot(name, "m1.2xlarge", priority=Priority.LOW, host=host)
            vm.attach_workload(StreamBenchmark())
    perfcloud = PerfCloud(sim, cloud, shard_workers=shard_workers)
    jobs: list = []
    schedulers = {"mapreduce": tb.jobtracker, "spark": tb.spark}
    for (kind, i), req in inputs.jobs:
        sim.schedule_at(req.submit_time,
                        _submitter(schedulers[kind], kind, req, jobs, (kind, i)),
                        name=f"submit-{kind}-{i}")
    expected = len(inputs.jobs)

    def done() -> bool:
        return len(jobs) == expected and all(
            h.completion_time is not None for _, h in jobs)

    return World(inputs, sim, perfcloud, horizon=20000.0, done=done,
                 jobs=jobs, schedulers=[tb.jobtracker, tb.spark])


def _assemble_wide(inputs: Inputs, shard_workers: int) -> World:
    dims = inputs.dims
    sim = Simulator(dt=1.0, seed=inputs.seed)
    cluster = Cluster(sim)
    names = [f"server{i:04d}" for i in range(dims["hosts"])]
    for name in names:
        cluster.add_host(name)
    cloud = CloudManager(cluster)
    busy = {h for h, _ in inputs.contended}
    for i, host in enumerate(names):
        for j in range(2):
            vm = cloud.boot(f"app{i:04d}-{j}", "m1.large",
                            priority=Priority.HIGH, app_id="app", host=host)
            if i in busy:
                vm.attach_workload(FioRandomRead(iops_demand=700.0))
        low = cloud.boot(f"low{i:04d}", "m1.large", priority=Priority.LOW,
                         host=host)
        if i in busy:
            low.attach_workload(SysbenchCpu(threads=1))
    perfcloud = PerfCloud(sim, cloud, shard_workers=shard_workers)
    for (name, _, host), (_, at) in zip(inputs.antagonists, inputs.contended):
        def arrive(name=name, host=host) -> None:
            cloud.boot(name, "m1.large", priority=Priority.LOW, host=host) \
                .attach_workload(FioRandomRead())
        sim.schedule_at(at, arrive, name=f"arrive-{name}")
    return World(inputs, sim, perfcloud,
                 horizon=dims["warmup_s"] + dims["contended_s"])


def assemble(inputs: Inputs) -> World:
    """Build the world ``inputs`` describe, through PerfCloud deployment."""
    family, shard_workers = WORKLOADS[inputs.workload]
    if family == "mixed":
        return _assemble_mixed(inputs, shard_workers)
    return _assemble_wide(inputs, shard_workers)
