"""Integration: the pooled control plane under worker loss.

The property suite (`tests/property/test_shm_plane_equivalence.py`)
establishes serial == pooled on healthy random worlds; these tests add
routing and the chaos dimension.  Ticket-free ticks leave a worker's
replicas behind, so the next pool-bound ticket must carry a delta
spanning several intervals; a pool worker SIGKILLed mid-run must be
respawned from the lockstep parent with fresh sync marks, and the run
must still finish byte-identical to serial.
"""

import copy
import os
import pickle
import signal

import numpy as np

from repro.core.config import PerfCloudConfig
from repro.core.monitor import PLANE_METRICS
from repro.experiments.harness import TestbedConfig, build_testbed


def _fingerprint(pc) -> tuple:
    out = []
    for host in sorted(pc.node_managers):
        nm = pc.node_managers[host]
        sig = nm.detector.signal("app", "io")
        cpi = nm.detector.signal("app", "cpi")
        out.append((
            host,
            tuple(nm.actions),
            tuple(sig.times().tolist()), tuple(sig.values().tolist()),
            tuple(cpi.times().tolist()), tuple(cpi.values().tolist()),
            tuple(sorted(nm.survival_summary().items())),
        ))
    return tuple(out)


def _build(seed: int = 11):
    return build_testbed(TestbedConfig(
        seed=seed, num_hosts=2, num_workers=4, framework="mapreduce",
        antagonists=(("fio", 0), ("stream", 1)),
    ))


def test_ticket_free_ticks_skip_quiet_hosts_and_change_nothing():
    """Hosts with no detector in deviation skip the pool round-trip.

    A deviating world (fio antagonist + terasort on host 0, host 1
    quiet) runs three ways — serial, pooled with ticket-free routing
    (the default), pooled with it disabled — and must produce one
    fingerprint; the default path must actually skip some host-ticks.
    """
    from repro import teragen, terasort
    from repro.experiments.harness import run_until

    def outcome(shard_workers, ticket_free):
        bed = _build(seed=5)
        pc = bed.deploy_perfcloud(shard_workers=shard_workers)
        pc.control_plane.ticket_free = ticket_free
        job = bed.jobtracker.submit(terasort(), teragen(320), num_reducers=4)
        run_until(bed.sim, lambda: job.completion_time is not None,
                  horizon=2000)
        bed.run(60.0)
        fp = _fingerprint(pc)
        skipped = pc.control_plane.timings["ticket_free"]
        pc.close()
        return fp, skipped

    serial, _ = outcome(0, True)
    pooled_free, skipped = outcome(2, True)
    pooled_always, shipped_all = outcome(2, False)

    assert pooled_free == serial
    assert pooled_always == serial
    # Both hosts are quiet before deviation onset and after release, so
    # the default routing must have skipped some round-trips...
    assert skipped > 0
    # ...which is a real difference in shipping, not a no-op flag.
    assert shipped_all == 0


def test_worker_sigkill_midrun_stays_byte_identical():
    serial_bed = _build()
    serial_pc = serial_bed.deploy_perfcloud()
    serial_bed.run(240.0)
    want = _fingerprint(serial_pc)
    serial_pc.close()

    bed = _build()
    pc = bed.deploy_perfcloud(shard_workers=2)
    # This world is quiet (no job → no deviation), so ticket-free ticks
    # would route everything parent-side and the pool would never see a
    # ticket; the drill is specifically about losing a worker mid-ship,
    # so force every ticket onto the pool.
    pc.control_plane.ticket_free = False
    bed.run(120.0)

    pool = pc.control_plane._pool
    assert pool is not None, "pooled run never started its pool"
    victim = pool._slots[0].proc
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=5.0)

    bed.run(120.0)
    got = _fingerprint(pc)

    assert got == want
    assert pool.worker_deaths >= 1
    assert pool.respawns >= 1
    assert not pool.failed
    # The corpse is noticed at the next tick boundary and respawned from
    # the lockstep parent state before any ticket is shipped, so the run
    # continues without serial fallbacks.
    assert pc.control_plane.timings["fallback_tickets"] == 0

    pc.close()


class _ReplicaCheckingPool:
    """Stands in for ``ShardPool`` without processes: a "fork" deep-copies
    every host's plane, each shipped delta is installed into the copy of
    the slot it was routed to and checked against the parent's plane,
    and the ticket is then left to the parent's serial path."""

    workers = 2

    def __init__(self, kill_after: int) -> None:
        self._slots = {}
        self.kill_after = kill_after
        self.forks = 0
        self.checked = 0
        self.widest = 0

    def ensure_started(self, shards) -> bool:
        for slot in range(self.workers):
            if slot not in self._slots:
                self.forks += 1
                self._slots[slot] = (
                    {h: (s.plane, copy.deepcopy(s.plane))
                     for h, s in shards.items()},
                    {h: s.mark for h, s in shards.items()},
                )
        return True

    def marks(self, slot: int):
        return self._slots[slot][1] if slot in self._slots else {}

    def compute(self, assignments):
        for slot, tickets in assignments.items():
            planes = self._slots[slot][0]
            for ticket in tickets:
                plane, replica = planes[ticket.host]
                delta = pickle.loads(pickle.dumps(ticket.plane_delta))
                # Only what the replica missed travels.
                missed = delta.columns - replica.sync_mark()[1]
                assert delta.grid.size <= missed
                replica.install(delta)
                self.widest = max(self.widest, delta.grid.size)
                assert replica.version == plane.version
                assert replica.vms() == plane.vms()
                for vm in plane.vms():
                    for m in PLANE_METRICS:
                        got, want = replica.series(vm, m), plane.series(vm, m)
                        assert np.array_equal(got.times(), want.times())
                        assert np.array_equal(got.values(), want.values())
                        assert got.dropped == want.dropped
                self.checked += 1
        if self.checked >= self.kill_after and self.forks == self.workers:
            del self._slots[0]  # a worker death: respawned at tick end
        return {}

    def shutdown(self) -> None:
        pass


def test_shipped_deltas_keep_worker_planes_exact():
    """The coordinator's sync marks: set at fork, advanced per shipped
    ticket, reset by a respawn — every delta must bring the replica it
    is routed to exactly level with the parent plane, across ticket-free
    gaps and retention pruning."""
    from repro import teragen, terasort
    from repro.experiments.harness import run_until

    bed = _build(seed=5)
    pc = bed.deploy_perfcloud(PerfCloudConfig(history_retention_s=30.0),
                              shard_workers=2)
    pool = pc.control_plane._pool = _ReplicaCheckingPool(kill_after=5)
    job = bed.jobtracker.submit(terasort(), teragen(320), num_reducers=4)
    run_until(bed.sim, lambda: job.completion_time is not None, horizon=2000)
    bed.run(60.0)
    pc.close()

    assert pool.checked > pool.kill_after
    assert pool.forks == pool.workers + 1  # one respawn with fresh marks
    assert pool.widest > 1  # some delta spanned ticket-free intervals
