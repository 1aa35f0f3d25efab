"""Timed passes over a world, the output check and ground-truth scoring.

A *pass* assembles one world (timed as set-up), advances it one control
interval per ``Simulator.run`` call (each call timed), and collects its
simulated outputs.  Every pass of one seed must produce the same output
digest; a pooled world must also match the serial world of its seed,
and a pinned seed must match the digest pinned in ``digests.json``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import pickle
import resource
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core.shardpool import ShardPool
from worlds import WORKLOADS, Inputs, World, assemble

__all__ = ["Pass", "PeakRss", "TicketCounter", "run_pass", "outputs_of",
           "digest_of", "score", "pinned_digest", "percentile"]

#: Host seconds a whole run may spend in passes; a pass still simulating
#: past it counts as failed (so the run exits well within 180 s).
TIME_CAP_S = 150.0

DIGESTS = Path(__file__).resolve().parent / "digests.json"


@dataclass
class Pass:
    """What one timed pass over a world measured and produced."""

    setup_s: float = 0.0
    #: Host seconds of each ``Simulator.run`` call (one control interval).
    intervals: List[float] = field(default_factory=list)
    outputs: Optional[dict] = None
    digest: Optional[str] = None
    #: Why the pass failed (None: it did not).
    failure: Optional[str] = None
    #: Engine, framework and pool counters read after the run.
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return float(sum(self.intervals))


class PeakRss:
    """Peak resident set of this process plus its live child processes
    (the shard-pool workers), sampled between control intervals."""

    def __init__(self) -> None:
        self.peak_bytes = 0
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _rss(self, pid: int) -> int:
        try:
            with open(f"/proc/{pid}/statm") as f:
                return int(f.read().split()[1]) * self._page
        except (OSError, ValueError, IndexError):
            return 0

    def sample(self) -> None:
        total = self._rss(os.getpid()) + sum(
            self._rss(p.pid) for p in multiprocessing.active_children())
        self.peak_bytes = max(self.peak_bytes, total)

    def mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        return max(self.peak_bytes, own) / 2**20


class TicketCounter:
    """Keeps the ticket batches the coordinator ships to the shard pool
    (one wrapper call per pooled tick; installed on untraced runs too, so
    the non-vacuity guard holds on every run)."""

    def __init__(self) -> None:
        #: One ``{worker slot: [tickets]}`` batch per pooled tick.
        self.batches: List[dict] = []
        self._orig = None

    def __enter__(self) -> "TicketCounter":
        self._orig = orig = ShardPool.__dict__["compute"]

        def compute(pool, assignments):
            self.batches.append(assignments)
            return orig(pool, assignments)
        ShardPool.compute = compute
        return self

    def __exit__(self, *exc) -> None:
        ShardPool.compute = self._orig

    def take(self) -> Dict[str, float]:
        """Tickets shipped and bytes they pickle to (as the pool sends
        them) since the last call."""
        batches, self.batches = self.batches, []
        tickets = [t for batch in batches for t in batch.values()]
        return {"tickets_shipped": float(sum(map(len, tickets))),
                "bytes_pickled": float(sum(len(pickle.dumps(("tick", t)))
                                           for t in tickets))}


def outputs_of(world: World) -> dict:
    """The world's simulated outputs: per-job completion times, every
    actuation event, and the caps in force at the end."""
    pc = world.perfcloud
    caps = []
    for name, vm in sorted(pc.cloud.cluster.vms.items()):
        cap = (vm.cgroup.cpu.quota_cores, vm.cgroup.throttle.iops_cap,
               vm.cgroup.throttle.bps_cap)
        if cap != (None, None, None):
            caps.append((name, *cap))
    return {
        "jobs": sorted((k, i, h.completion_time) for (k, i), h in world.jobs),
        "throttle_events": [tuple(e) for e in pc.throttle_events()],
        "final_caps": caps,
    }


def digest_of(outputs: dict) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()[:16]


def _counters(world: World) -> Dict[str, float]:
    sim = world.sim
    timings = world.perfcloud.control_plane.timings
    attempts = [a for s in world.schedulers for j in s.jobs
                for t in j.tasks for a in t.attempts]
    ok = sum(s.ledger.successful_task_seconds for s in world.schedulers)
    total = sum(s.ledger.total_task_seconds for s in world.schedulers)
    return {
        "events": float(sim.events_fired), "ticks": float(sim.ticks),
        "tasks_launched": float(len(attempts)),
        "speculative_attempts": float(sum(a.speculative for a in attempts)),
        # No task ran: nothing was wasted (the repository's convention).
        "task_efficiency": ok / total if total > 0 else 1.0,
        **{f"pool.{k}": float(v) for k, v in timings.items()},
    }


def run_pass(inputs: Inputs, *, deadline: float, tracer=None,
             rss: Optional[PeakRss] = None) -> Pass:
    """Assemble, run and close one world, failing it if it is still
    simulating at ``deadline`` (a ``time.perf_counter`` reading); never
    raises for a world that fails (the failure is recorded on the pass)."""
    out = Pass()
    gc.collect()
    t0 = time.perf_counter()
    try:
        world = assemble(inputs)
    except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
        out.failure = "set-up raised:\n" + traceback.format_exc()
        return out
    out.setup_s = time.perf_counter() - t0
    try:
        if tracer is not None:
            tracer.clear()
        sim, clock, done = world.sim, time.perf_counter, world.done
        interval = world.perfcloud.config.interval_s
        while sim.now < world.horizon and not (done is not None and done()):
            a = clock()
            sim.run(min(sim.now + interval, world.horizon))
            out.intervals.append(clock() - a)
            if rss is not None:
                rss.sample()
            if clock() > deadline:
                out.failure = f"time cap: the run passed {TIME_CAP_S:.0f} host s"
                break
        if out.failure is None and done is not None and not done():
            out.failure = f"jobs unfinished at the horizon ({world.horizon:.0f} s)"
        out.outputs = outputs_of(world)
        out.digest = digest_of(out.outputs)
        out.counters = _counters(world)
    except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
        out.failure = "run raised:\n" + traceback.format_exc()
    finally:
        world.close()
    return out


def score(inputs: Inputs, outputs: dict) -> Dict[str, float]:
    """Ground-truth scoring against the placement the benchmark chose.

    Recall: placed antagonists throttled at least once / placed
    antagonists.  Precision: throttle actions on a placed antagonist /
    all throttle actions (releases are not throttles).
    """
    truth = {name for name, _, _ in inputs.antagonists}
    throttles = [e for e in outputs["throttle_events"] if e[3] is not None]
    hit = {e[1] for e in throttles}
    jcts = [j[2] for j in outputs["jobs"] if j[2] is not None]
    out = {
        "throttle_actions": float(len(throttles)),
        "antagonist_recall": len(hit & truth) / len(truth) if truth else 0.0,
        "throttle_precision": (sum(e[1] in truth for e in throttles)
                               / len(throttles) if throttles else 0.0),
    }
    if jcts:
        out["sim_jct_p50_s"] = percentile(jcts, 50)
        out["sim_jct_p75_s"] = percentile(jcts, 75)
    return out


def pinned_digest(workload: str, seed: int) -> Optional[str]:
    """The digest pinned for ``workload``'s world family at ``seed``."""
    family, _ = WORKLOADS[workload]
    pinned = json.loads(DIGESTS.read_text())["digests"]
    return pinned.get(family, {}).get(str(seed))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))
