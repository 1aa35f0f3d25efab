"""Benchmark-side layer clock: spans around each layer's public entry points.

:class:`Tracer` patches the entry points listed in :data:`ENTRY_POINTS`
on their classes (the program's files are untouched) and keeps one span
per call -- name, start, end, parent -- in plain lists, so the hot path
appends four values and reads the clock twice.  :func:`layer_metrics`
turns the spans into per-layer self times (a span's duration minus the
time its child spans cover) and call counts.

Install the tracer *before* a world is assembled: framework heartbeats
and the control-plane coordinator bind their callbacks at construction.
Pool workers are forked with the patches in place; their spans stay in
the worker and are never read -- the parent sees the pool as the time
``ShardPool.compute`` blocks.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.cubic import CubicController
from repro.core.detector import InterferenceDetector
from repro.core.identification import AntagonistIdentifier
from repro.core.monitor import PerformanceMonitor
from repro.core.node_manager import NodeManager
from repro.core.shardpool import ShardPool
from repro.core.shards import ShardedControlPlane
from repro.frameworks.executor import CompositeDriver, ExecutorDriver
from repro.frameworks.mapreduce.jobtracker import JobTracker
from repro.frameworks.scheduler import FrameworkScheduler
from repro.frameworks.spark.driver import SparkScheduler
from repro.hardware.host import PhysicalHost
from repro.hardware.network import NetworkFabric
from repro.sim.engine import Simulator
from repro.virt.cluster import Cluster
from repro.virt.libvirt_api import Domain
from repro.virt.vm import VM

__all__ = ["ENTRY_POINTS", "LAYERS", "Tracer", "layer_metrics", "per_layer"]

_DOMAIN_METHODS = ("name", "vcpus", "setSchedulerParameters",
                   "schedulerParameters", "setBlockIoTune", "blockIoTune",
                   "blkioStats", "perfStats", "cpuStats")

#: (class, attribute, layer, span group).  The group names the sub-metric
#: a span's self time feeds; the layer sums its groups.
ENTRY_POINTS: List[Tuple[type, str, str, str]] = [
    (Simulator, "run", "sim", "engine"),
    (Cluster, "step", "dataplane", "step"),
    (PhysicalHost, "step_table", "dataplane", "host_table"),
    (PhysicalHost, "step_local", "dataplane", "host_scalar"),
    (NetworkFabric, "allocate", "dataplane", "fabric"),
    (VM, "deliver", "dataplane", "deliver"),
    (FrameworkScheduler, "heartbeat", "frameworks", "heartbeat"),
    (JobTracker, "submit", "frameworks", "submit"),
    (SparkScheduler, "submit", "frameworks", "submit"),
    (ExecutorDriver, "demand", "frameworks", "driver"),
    (ExecutorDriver, "consume", "frameworks", "driver"),
    (ExecutorDriver, "profile", "frameworks", "driver"),
    (CompositeDriver, "demand", "frameworks", "driver"),
    (CompositeDriver, "consume", "frameworks", "driver"),
    (CompositeDriver, "profile", "frameworks", "driver"),
    (ShardedControlPlane, "tick", "control", "coordinator"),
    (NodeManager, "control_interval", "control", "interval"),
    (NodeManager, "begin_interval", "control", "interval"),
    (NodeManager, "complete_interval", "control", "apply"),
    (NodeManager, "compute_and_complete", "control", "apply"),
    (PerformanceMonitor, "sample", "control", "monitor"),
    (InterferenceDetector, "evaluate", "control", "detect"),
    (AntagonistIdentifier, "identify", "control", "identify"),
    (CubicController, "update", "control", "cubic"),
    *[(Domain, m, "control", "libvirt") for m in _DOMAIN_METHODS],
    (ShardPool, "compute", "ipc", "pool"),
]

LAYERS = ("sim", "dataplane", "frameworks", "control", "ipc")


class Tracer:
    """Installs span-recording wrappers; spans live in memory until
    :meth:`save`."""

    def __init__(self) -> None:
        #: Span table: (qualified name, layer, group) per span name id.
        self.table: List[Tuple[str, str, str]] = []
        self.names: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = [-1]
        self._patched: List[Tuple[type, str, object]] = []
        #: Flows handed to the fabric, over all calls.
        self.flows = 0
        #: Detector results with a threshold crossed.
        self.deviations = 0

    # ------------------------------------------------------------ patching
    def _wrap(self, fn: Callable, nid: int,
              before: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call (``before`` sees the call's
        positional arguments first, outside the span)."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack = self.parents, self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return span

    def _count_flows(self, args) -> None:
        self.flows += len(args[1])

    def install(self) -> "Tracer":
        for cls, attr, layer, group in ENTRY_POINTS:
            nid = len(self.table)
            self.table.append((f"{cls.__name__}.{attr}", layer, group))
            orig = cls.__dict__[attr]
            hook = self._count_flows if cls is NetworkFabric else None
            if isinstance(orig, property):
                patched = property(self._wrap(orig.fget, nid, hook))
            else:
                patched = self._wrap(orig, nid, hook)
            setattr(cls, attr, patched)
            self._patched.append((cls, attr, orig))
        # A tap, not a span: count threshold crossings where the detector
        # records them (serial evaluation and pooled absorption alike).
        orig_record = InterferenceDetector.__dict__["record"]

        def record(det, *args, **kwargs):
            result = orig_record(det, *args, **kwargs)
            if result.any_contention:
                self.deviations += 1
            return result
        InterferenceDetector.record = record
        self._patched.append((InterferenceDetector, "record", orig_record))
        return self

    def uninstall(self) -> None:
        for cls, attr, orig in reversed(self._patched):
            setattr(cls, attr, orig)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def clear(self) -> None:
        """Drop every span and count recorded so far (no span may be open)."""
        del self.names[:], self.starts[:], self.ends[:], self.parents[:]
        self.flows = self.deviations = 0

    # ------------------------------------------------------------ analysis
    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.names, dtype=np.int32),
            "start": np.asarray(self.starts, dtype=np.float64),
            "end": np.asarray(self.ends, dtype=np.float64),
            "parent": np.asarray(self.parents, dtype=np.int64),
        }

    def save(self, path, **meta) -> None:
        """Write the spans, the name table and ``meta`` as one ``.npz``."""
        np.savez(path, table=np.asarray(self.table), **meta, **self.arrays())

    def self_times(self) -> Tuple[np.ndarray, np.ndarray, float]:
        """(self seconds per span name, calls per span name, seconds
        covered by root spans)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        own = dur - child
        n = len(self.table)
        return (np.bincount(a["name"], weights=own, minlength=n),
                np.bincount(a["name"], minlength=n).astype(np.int64),
                float(dur[~nested].sum()))


def layer_metrics(tracer: Tracer, traced_wall: float) -> Dict[str, float]:
    """Self seconds per layer and per span group, calls per span group,
    and the share of ``traced_wall`` no root span covers."""
    own, calls, covered = tracer.self_times()
    out: Dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for (_, layer, group), s, c in zip(tracer.table, own, calls):
        out[f"{layer}.self_s"] += float(s)
        out[f"{layer}.{group}_s"] = out.get(f"{layer}.{group}_s", 0.0) + float(s)
        out[f"{layer}.{group}_calls"] = out.get(f"{layer}.{group}_calls", 0) + int(c)
    out["unattributed_s"] = traced_wall - covered
    return out


def per_layer(tracer: Tracer, traced, base, throttle_actions: float) -> Dict[str, tuple]:
    """Every per-layer metric as (value, unit), from the traced pass
    ``traced`` and the untraced pass ``base`` of the same world."""
    lm = layer_metrics(tracer, traced.wall_s)
    c = traced.counters

    def per(total, count, scale=1e6):
        """``total`` per ``count`` (x ``scale``); 0 where nothing was counted."""
        return total * scale / count if count else 0.0

    host_steps = lm["dataplane.host_table_calls"]
    scalar = lm["dataplane.host_scalar_calls"]
    intervals = lm["control.interval_calls"]
    shipped = c["tickets_shipped"]
    return {
        "sim.self_s": (lm["sim.self_s"], "s"),
        "sim.events": (c["events"], "count"),
        "sim.ticks": (c["ticks"], "count"),
        "dataplane.self_s": (lm["dataplane.self_s"], "s"),
        "dataplane.host_steps": (host_steps, "count"),
        "dataplane.scalar_host_steps": (scalar, "count"),
        "dataplane.scalar_share": (per(scalar, host_steps, 1.0), "ratio"),
        "dataplane.us_per_host_step": (per(lm["dataplane.self_s"], host_steps), "us"),
        "dataplane.fabric_s": (lm["dataplane.fabric_s"], "s"),
        "dataplane.flows": (tracer.flows, "count"),
        "dataplane.grants_delivered": (lm["dataplane.deliver_calls"], "count"),
        "frameworks.self_s": (lm["frameworks.self_s"], "s"),
        "frameworks.heartbeat_s": (lm["frameworks.heartbeat_s"], "s"),
        "frameworks.heartbeats": (lm["frameworks.heartbeat_calls"], "count"),
        "frameworks.driver_s": (lm["frameworks.driver_s"], "s"),
        "frameworks.tasks_launched": (c["tasks_launched"], "count"),
        "frameworks.speculative_attempts": (c["speculative_attempts"], "count"),
        "frameworks.task_efficiency": (c["task_efficiency"], "ratio"),
        "control.self_s": (lm["control.self_s"], "s"),
        "control.host_intervals": (intervals, "count"),
        "control.us_per_host_interval": (per(lm["control.self_s"], intervals), "us"),
        "control.monitor_s": (lm["control.monitor_s"], "s"),
        "control.detect_s": (lm["control.detect_s"], "s"),
        "control.identify_s": (lm["control.identify_s"], "s"),
        "control.identify_calls": (lm["control.identify_calls"], "count"),
        "control.cubic_s": (lm["control.cubic_s"], "s"),
        "control.libvirt_s": (lm["control.libvirt_s"], "s"),
        "control.libvirt_calls": (lm["control.libvirt_calls"], "count"),
        "control.deviations": (tracer.deviations, "count"),
        "control.throttle_actions": (throttle_actions, "count"),
        "ipc.pool_compute_s": (lm["ipc.self_s"], "s"),
        "ipc.tickets_shipped": (shipped, "count"),
        "ipc.ticket_share": (per(shipped, intervals, 1.0), "ratio"),
        "ipc.ticket_free": (c["pool.ticket_free"], "count"),
        "ipc.fallback_tickets": (c["pool.fallback_tickets"], "count"),
        "ipc.bytes_pickled_per_tick": (per(c["bytes_pickled"], c["pool.parallel_ticks"], 1.0), "bytes"),
        "ipc.begin_s": (c["pool.begin_s"], "s"),
        "ipc.complete_s": (c["pool.complete_s"], "s"),
        "trace.unattributed_share": (per(lm["unattributed_s"], traced.wall_s, 1.0), "ratio"),
        "trace.overhead_ratio": (per(traced.wall_s, base.wall_s, 1.0), "ratio"),
    }
