"""Reference implementations of the optimized hot paths.

These replicate, line for line, the shapes the code had before the
vectorization pass: a deque-backed time series whose every lookup
converts the full history, per-suspect Pearson alignment that rebuilds
arrays per instant, and rolling deviation stats recomputed from the tail
each interval.  They serve two purposes:

* the **property tests** check the optimized implementations against
  them over randomized sample streams (they are the behavioral oracle);
* the **micro benchmarks** measure the speedup of the optimized paths
  relative to them, a machine-independent ratio the CI gate can check.

The framework-scheduling oracles (``naive_running_count`` through
``naive_fill_slots``) are the task scans the schedulers ran before
:class:`~repro.frameworks.jobs.Job` kept its running-attempt count,
per-phase index and per-phase completed counts.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.metrics.correlation import MissingPolicy, pearson
from repro.metrics.timeseries import TimeSeries

__all__ = [
    "NaiveTimeSeries",
    "naive_aligned_pearson",
    "naive_fabric_allocate",
    "naive_fill_slots",
    "naive_history_ingest",
    "naive_maps_done",
    "naive_pending_tasks",
    "naive_pick_pending",
    "naive_rolling_tail_stats",
    "naive_running_count",
    "naive_stage_done",
]

_LOOPBACK_BPS = 40e9  # intra-host copies: effectively memory bandwidth


def naive_fabric_allocate(
    nic: Mapping[str, float], flows: list, dt: float
) -> Tuple[List[float], dict]:
    """The pre-vectorization fabric loop, verbatim: per-flow dict
    accumulation of NIC loads, iterated proportional scaling, and a final
    full re-accumulation for the utilization gauges.  Returns
    ``(bytes_delivered, utilization)`` so both outputs of
    :meth:`~repro.hardware.network.NetworkFabric.allocate` can be checked
    against it."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if not flows:
        return [], {}
    for f in flows:
        if f.bytes_per_s < 0:
            raise ValueError(f"negative flow demand: {f!r}")
        for h in (f.src_host, f.dst_host):
            if h not in nic:
                raise KeyError(f"unknown host in flow: {h!r}")

    rates = [f.bytes_per_s for f in flows]
    for _ in range(8):
        egress: dict = {}
        ingress: dict = {}
        for f, r in zip(flows, rates):
            if f.intra_host:
                continue
            egress[f.src_host] = egress.get(f.src_host, 0.0) + r
            ingress[f.dst_host] = ingress.get(f.dst_host, 0.0) + r
        worst = 1.0
        for host, tot in egress.items():
            worst = max(worst, tot / nic[host])
        for host, tot in ingress.items():
            worst = max(worst, tot / nic[host])
        if worst <= 1.0 + 1e-9:
            break
        new_rates = []
        for f, r in zip(flows, rates):
            if f.intra_host:
                new_rates.append(min(r, _LOOPBACK_BPS))
                continue
            rho = max(
                egress.get(f.src_host, 0.0) / nic[f.src_host],
                ingress.get(f.dst_host, 0.0) / nic[f.dst_host],
            )
            new_rates.append(r / rho if rho > 1.0 else r)
        rates = new_rates

    egress = {h: 0.0 for h in nic}
    ingress = {h: 0.0 for h in nic}
    for f, r in zip(flows, rates):
        if f.intra_host:
            continue
        egress[f.src_host] += r
        ingress[f.dst_host] += r
    utilization = {
        h: (egress[h] / nic[h], ingress[h] / nic[h]) for h in nic
    }
    return [r * dt for r in rates], utilization


class NaiveTimeSeries:
    """Deque-backed (time, value) store — the pre-optimization layout."""

    def __init__(self, capacity: int = 4096, name: str = "") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.capacity = int(capacity)
        self.name = name
        self._times: Deque[float] = deque(maxlen=self.capacity)
        self._values: Deque[float] = deque(maxlen=self.capacity)

    def append(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1] - 1e-9:
            raise ValueError(
                f"non-monotonic append to {self.name or 'series'}: "
                f"{time!r} after {self._times[-1]!r}"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    def extend(self, samples: Iterable[Tuple[float, float]]) -> None:
        for t, v in samples:
            self.append(t, v)

    def prune_before(self, cutoff: float) -> int:
        dropped = 0
        while self._times and self._times[0] < cutoff - 1e-9:
            self._times.popleft()
            self._values.popleft()
            dropped += 1
        return dropped

    def __len__(self) -> int:
        return len(self._times)

    def times(self) -> np.ndarray:
        return np.asarray(self._times, dtype=float)

    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=float)

    def tail(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        if n <= 0:
            return np.empty(0), np.empty(0)
        t = list(self._times)[-n:]
        v = list(self._values)[-n:]
        return np.asarray(t, dtype=float), np.asarray(v, dtype=float)

    def window(self, start: float, end: float) -> Tuple[np.ndarray, np.ndarray]:
        t = self.times()
        v = self.values()
        mask = (t >= start - 1e-9) & (t <= end + 1e-9)
        return t[mask], v[mask]

    def value_at(self, time: float, tolerance: float = 1e-6) -> Optional[float]:
        t = self.times()
        if t.size == 0:
            return None
        idx = int(np.argmin(np.abs(t - time)))
        if abs(t[idx] - time) <= tolerance:
            return float(self.values()[idx])
        return None

    def resampled_at(self, times: Iterable[float], missing: float = 0.0) -> np.ndarray:
        out: List[float] = []
        for t in times:
            v = self.value_at(t)
            out.append(missing if v is None else v)
        return np.asarray(out, dtype=float)


def naive_aligned_pearson(
    victim: NaiveTimeSeries,
    suspect: NaiveTimeSeries,
    *,
    window: int = 12,
    policy: MissingPolicy = MissingPolicy.ZERO,
) -> float:
    """Per-suspect alignment exactly as the pre-vectorization code did it."""
    times, v_vals = victim.tail(window)
    if times.size < 2:
        return 0.0
    if policy is MissingPolicy.ZERO:
        s_vals = suspect.resampled_at(times, missing=0.0)
        return pearson(v_vals, s_vals)
    keep_v: List[float] = []
    keep_s: List[float] = []
    for t, v in zip(times, v_vals):
        sv = suspect.value_at(t)
        if sv is not None:
            keep_v.append(v)
            keep_s.append(sv)
    return pearson(keep_v, keep_s)


def naive_identify_scores(
    victim: NaiveTimeSeries,
    suspects: Mapping[str, NaiveTimeSeries],
    *,
    window: int = 12,
    policy: MissingPolicy = MissingPolicy.ZERO,
) -> dict:
    """One identifier interval, the pre-vectorization way: a Python loop of
    full-history rebuilds per suspect."""
    return {
        name: naive_aligned_pearson(victim, series, window=window, policy=policy)
        for name, series in suspects.items()
    }


def naive_history_ingest(history: dict, now: float, samples: Mapping) -> None:
    """The pre-columnar monitor write path: one row-store append per
    (VM, metric) cell, creating series lazily — exactly the shape the
    monitor had before the :class:`~repro.metrics.plane.MetricPlane`
    batched the whole interval into one column write."""
    for vm, column in samples.items():
        series = history.get(vm)
        if series is None:
            series = history[vm] = {}
        for metric, value in column.items():
            ts = series.get(metric)
            if ts is None:
                ts = series[metric] = TimeSeries(name=f"{vm}.{metric}")
            ts.append(now, value)


def naive_rolling_tail_stats(values: List[float], window: int) -> Tuple[float, float]:
    """(mean, population std) of the last ``window`` values, from scratch."""
    tail = np.asarray(values[-window:], dtype=float)
    if tail.size == 0:
        return 0.0, 0.0
    mean = float(tail.mean())
    std = float(tail.std()) if tail.size >= 2 else 0.0
    return mean, std


def naive_running_count(job) -> int:
    """Live attempts of ``job``, counted by listing every task's."""
    return sum(len(t.running_attempts) for t in job.tasks)


def _naive_phase(job, kind: str) -> list:
    return [t for t in job.tasks if t.kind == kind]


def _naive_phase_done(job, kind: str) -> bool:
    tasks = _naive_phase(job, kind)
    return bool(tasks) and all(t.completed for t in tasks)


def naive_maps_done(job) -> bool:
    """``MapReduceJob.maps_done`` as a scan of the map tasks."""
    return _naive_phase_done(job, "map")


def naive_stage_done(app, stage: int) -> bool:
    """``SparkApplication.stage_done`` as a scan of the stage's tasks."""
    return _naive_phase_done(app, f"stage{stage}")


def naive_pending_tasks(scheduler, job) -> list:
    """``pending_tasks`` of a JobTracker or SparkScheduler, by scans.

    Like the production hook it advances the job's barrier through the
    scheduler's own ``_create_reduces`` / ``_create_stage``, so calling
    either one first leaves the same state.
    """
    from repro.frameworks.mapreduce.jobtracker import MapReduceJob

    if isinstance(job, MapReduceJob):
        if not naive_maps_done(job):
            kind = "map"
        else:
            if job.num_reducers > 0 and not job.reduces_created:
                scheduler._create_reduces(job)
            kind = "reduce"
    else:
        while (
            job.current_stage < job.total_stages - 1
            and naive_stage_done(job, job.current_stage)
        ):
            job.current_stage += 1
            scheduler._create_stage(job, job.current_stage)
        kind = f"stage{job.current_stage}"
    return [t for t in _naive_phase(job, kind) if t.state.value == "pending"]


def naive_pick_pending(scheduler, jobs: list, vm_name: str):
    """One slot's pick: jobs re-sorted by a full running-attempt scan,
    then each job's pending list rebuilt until a local task turns up."""
    if scheduler.policy == "fair":
        order = {job.id: i for i, job in enumerate(jobs)}
        jobs = sorted(
            jobs, key=lambda j: (naive_running_count(j), order[j.id])
        )
    fallback = None
    for job in jobs:
        for task in naive_pending_tasks(scheduler, job):
            if vm_name in task.preferred_vms:
                return task
            if fallback is None:
                fallback = task
    return fallback


def naive_fill_slots(scheduler) -> None:
    """The slot-filling half of ``FrameworkScheduler.heartbeat`` with
    every pick made by :func:`naive_pick_pending` (no speculation)."""
    from repro.frameworks.jobs import JobState

    active = [
        j for j in scheduler.jobs
        if j.state in (JobState.PENDING, JobState.RUNNING)
    ]
    if not active:
        return
    for job in active:
        job.mark_running(scheduler.sim.now)
    for vm_name in sorted(scheduler.executors):
        executor = scheduler.executors[vm_name]
        while executor.free_slots > 0:
            task = naive_pick_pending(scheduler, active, vm_name)
            if task is None:
                break
            scheduler._launch(task, vm_name, speculative=False)
