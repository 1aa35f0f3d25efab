"""Integration: the pooled control plane under routing and worker loss.

The property suite (`tests/property/test_shm_plane_equivalence.py`)
establishes serial == pooled on healthy random worlds; these tests add
routing, the stateless-ticket oracle and the chaos dimension.  Every
pool-bound ticket must carry all its worker reads, across ticket-free
gaps, retention pruning and VM departures; a pool worker that is
SIGKILLed, frozen or erroring mid-run must cost only serial recomputes
(counted as fallback tickets), and the run must still finish
byte-identical to serial.
"""

import copy
import os
import pickle
import signal

import pytest

from repro.core import shardpool
from repro.core.config import PerfCloudConfig
from repro.core.node_manager import NodeManager
from repro.core.perfcloud import PerfCloud
from repro.core.verdict import compute_verdict
from repro.experiments.harness import TestbedConfig, build_testbed
from repro.obs.exposition import snapshot


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
        pc = PerfCloud(bed.sim, bed.cloud, shard_workers=shard_workers)
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
    pc = PerfCloud(bed.sim, bed.cloud, shard_workers=2)
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
    # The corpse is noticed at the next tick's start and respawned
    # before any ticket is shipped, so the run continues without serial
    # fallbacks.
    assert pc.control_plane.timings["fallback_tickets"] == 0

    pc.close()


def _raise(ticket):
    raise RuntimeError("worker fault")


@pytest.mark.parametrize("fault", ["error", "freeze"])
def test_failed_worker_tickets_count_as_fallbacks(fault, monkeypatch):
    """Tickets a worker errors on or sits on while frozen are recomputed
    in the parent, counted in ``timings["fallback_tickets"]`` and in the
    exported controlplane counter; the run stays byte-identical."""
    serial_bed = _build()
    serial_pc = serial_bed.deploy_perfcloud()
    serial_bed.run(120.0)
    want = _fingerprint(serial_pc)
    serial_pc.close()

    if fault == "error":
        # Workers fork lazily at the first parallel tick and inherit it.
        monkeypatch.setattr(shardpool, "compute_shipped", _raise)
    bed = _build()
    pc = PerfCloud(bed.sim, bed.cloud, shard_workers=2)
    pc.control_plane.ticket_free = False
    pool = pc.control_plane._pool = shardpool.ShardPool(
        2, heartbeat_grace_s=0.3)
    bed.run(60.0)
    if fault == "freeze":
        os.kill(pool._slots[0].proc.pid, signal.SIGSTOP)
    bed.run(60.0)
    got = _fingerprint(pc)
    fallbacks = pc.control_plane.timings["fallback_tickets"]
    families = snapshot(pc)
    pc.close()

    assert got == want
    assert pool.worker_deaths >= 1
    assert fallbacks >= 1
    assert families["repro_controlplane_fallback_tickets_total"][
        "samples"] == [((), fallbacks)]
    assert "repro_shardpool_fallback_tickets_total" not in families


class _OraclePool:
    """Stands in for ``ShardPool`` without processes: every shipped
    ticket crosses pickle, runs through the worker handler in-process,
    and its verdict is checked against the compute half run on a deep
    copy of the node manager's live detector and identifier."""

    workers = 2

    def __init__(self, contexts) -> None:
        #: host -> (node manager, interval context) of the current tick.
        self.contexts = contexts
        self.checked = 0
        self.identified = 0
        self.shipped = {}

    def ensure_started(self) -> bool:
        return True

    def compute(self, assignments):
        results = {}
        for tickets in assignments.values():
            message = pickle.loads(pickle.dumps(("tick", tickets)))
            for status, host, verdict in shardpool._compute_batch(message):
                assert status == "ok"
                nm, ctx = self.contexts[host]
                history = nm.monitor.history
                # Share the live usage series, so the copied identifier
                # keeps its incremental cache.
                memo = {id(s): s for per_vm in history.values()
                        for s in per_vm.values()}
                detector, identifier = copy.deepcopy(
                    (nm.detector, nm.identifier), memo)
                want = compute_verdict(
                    detector, identifier, nm.monitor.plane, ctx.ticket,
                    ctx.samples, lambda name, metric: history[name][metric],
                    nm.config,
                )
                assert verdict == want
                self.checked += 1
                self.identified += any(i.ran for i in verdict.identifications)
                self.shipped.setdefault(host, []).append(ctx.now)
                results[host] = verdict
        return results

    def shutdown(self) -> None:
        pass


def test_stateless_tickets_match_live_compute(monkeypatch):
    """A pool-bound ticket alone reproduces the parent's compute half.

    A deviating world with ticket-free gaps, retention pruning and a
    suspect VM leaving mid-run: for every ticket the coordinator ships,
    the worker handler on the pickled ticket must return, field for
    field, the verdict ``compute_verdict`` gives on the live state.
    """
    from repro import teragen, terasort
    from repro.experiments.harness import run_until

    contexts = {}
    pool_ticket = NodeManager.pool_ticket

    def recording(nm, ctx):
        contexts[nm.host_name] = (nm, ctx)
        return pool_ticket(nm, ctx)

    monkeypatch.setattr(NodeManager, "pool_ticket", recording)
    bed = build_testbed(TestbedConfig(
        seed=5, num_hosts=2, num_workers=4, framework="mapreduce",
        antagonists=(("fio", 0), ("stream", 1), ("stream", 1)),
    ))
    # Retention prunes, yet outlasts the 8-instant victim grid (35 s), so
    # a ticket missing the usage samples at the grid's first instant
    # changes scores.
    pc = PerfCloud(bed.sim, bed.cloud,
                   PerfCloudConfig(history_retention_s=60.0), shard_workers=2)
    pool = pc.control_plane._pool = _OraclePool(contexts)
    bed.sim.schedule_at(102.5, lambda: bed.cloud.delete("stream-2"))
    job = bed.jobtracker.submit(terasort(), teragen(960), num_reducers=4)
    run_until(bed.sim, lambda: job.completion_time is not None, horizon=2000)
    bed.run(60.0)
    timings = pc.control_plane.timings
    summaries = {h: nm.survival_summary()
                 for h, nm in pc.node_managers.items()}
    pc.close()

    assert pool.checked > 0 and pool.identified > 0
    assert timings["fallback_tickets"] == 0
    # Some host was shipped tickets on both sides of a ticket-free gap.
    interval = pc.config.interval_s
    assert any(b - a > interval for times in pool.shipped.values()
               for a, b in zip(times, times[1:]))
    assert all(s["samples_pruned"] > 0 for s in summaries.values())
    assert summaries["server01"]["histories_purged"] == 1
    # Its host shipped tickets both before and after the suspect left.
    assert min(pool.shipped["server01"]) < 102.5 < max(pool.shipped["server01"])
