"""Unit tests: shard pool failure containment and the attach guard."""

import os
import signal
import time
from types import SimpleNamespace

import pytest

from repro.core.shardpool import ShardPool
from repro.core.shards import ShardedControlPlane
from repro.core.verdict import ComputeTicket
from repro.sim.engine import Simulator


def _ticket(host: str, epoch: int = 1) -> ComputeTicket:
    return ComputeTicket(host=host, epoch=epoch, now=5.0, app_members=(),
                         suspects=(), do_identify=False)


def _shard(plane=None) -> SimpleNamespace:
    """A worker shard stub; its default plane cannot install a delta."""
    return SimpleNamespace(plane=plane or SimpleNamespace(), mark=(0, 0))


# ------------------------------------------------------------ attach guard

def test_attach_refuses_two_agents_on_one_host():
    """Silent shard replacement would corrupt the deterministic step
    order (and the worker host assignment); it must raise instead."""
    sim = Simulator(dt=1.0, seed=0)
    plane = ShardedControlPlane(sim, 5.0)
    nm_a = SimpleNamespace(host_name="server00")
    nm_b = SimpleNamespace(host_name="server00")
    plane.attach(nm_a)
    plane.attach(nm_a)  # same object: idempotent
    with pytest.raises(ValueError, match="already has an attached shard"):
        plane.attach(nm_b)
    plane.detach(nm_a)
    plane.attach(nm_b)  # explicit detach first is the supported path


# --------------------------------------------------------- pool containment

def test_worker_error_kills_slot_and_pool_fails_past_budget():
    """An erroring worker is never fed again: its batch comes back
    partial, the slot dies, and once the respawn budget is spent the
    pool fails permanently (the coordinator then stays serial)."""
    pool = ShardPool(1, max_respawns=1)
    # A shard whose plane cannot satisfy the worker protocol: the first
    # ticket raises inside the worker and aborts the batch.
    shards = {"h0": _shard()}
    try:
        assert pool.ensure_started(shards)
        assert pool.compute({0: [_ticket("h0")]}) == {}
        assert pool.worker_deaths == 1
        assert pool.respawns == 1
        assert not pool.failed

        assert pool.ensure_started(shards)  # respawn within budget
        assert pool.compute({0: [_ticket("h0", epoch=2)]}) == {}
        assert pool.worker_deaths == 2

        # Budget exhausted: the next spawn attempt fails the pool.
        assert not pool.ensure_started(shards)
        assert pool.failed
        assert not pool.ensure_started(shards)  # stays failed
    finally:
        pool.shutdown()


def test_tick_deadline_kills_wedged_worker():
    class _StuckPlane:
        def install(self, delta):
            time.sleep(30.0)

    pool = ShardPool(1, tick_deadline_s=0.3)
    shards = {"h0": _shard(_StuckPlane())}
    try:
        assert pool.ensure_started(shards)
        t0 = time.monotonic()
        assert pool.compute({0: [_ticket("h0")]}) == {}
        assert time.monotonic() - t0 < 10.0  # gave up at the deadline
        assert pool.worker_deaths == 1
    finally:
        pool.shutdown()


def test_sigkilled_worker_detected_by_dead_pipe():
    pool = ShardPool(1, heartbeat_grace_s=0.2)
    shards = {"h0": _shard()}
    try:
        assert pool.ensure_started(shards)
        proc = pool._slots[0].proc
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=5.0)
        assert pool.compute({0: [_ticket("h0")]}) == {}
        assert pool.worker_deaths == 1
        # The replacement fork picks up a fresh membership snapshot.
        assert pool.ensure_started({"h0": _shard(), "h1": _shard()})
        assert set(pool.marks(0)) == {"h0", "h1"}
    finally:
        pool.shutdown()
