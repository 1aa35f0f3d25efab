"""Unit tests: shard pool failure containment, the attach guard and the
lifetime of the worker processes it shares with the run supervisor."""

import multiprocessing
import os
import signal
import time
from types import SimpleNamespace

import pytest

from repro.core.shardpool import ShardPool
from repro.core.shards import ShardedControlPlane
from repro.core.verdict import ComputeTicket
from repro.resilience.workers import WorkerFactory
from repro.sim.engine import Simulator


class _WedgedConfig:
    """A config whose first threshold read hangs the worker."""

    @property
    def h_io(self):
        time.sleep(30.0)


def _ticket(host: str, epoch: int = 1, config=None) -> ComputeTicket:
    """A one-app ticket; without a config the worker cannot threshold
    its deviation and raises."""
    return ComputeTicket(host=host, epoch=epoch, now=5.0,
                         app_members=(("app", ("vm0",)),), suspects=(),
                         do_identify=False, config=config)


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
    try:
        assert pool.ensure_started()
        assert pool.compute({0: [_ticket("h0")]}) == {}
        assert pool.worker_deaths == 1
        assert pool.respawns == 1
        assert not pool.failed

        assert pool.ensure_started()  # respawn within budget
        assert pool.compute({0: [_ticket("h0", epoch=2)]}) == {}
        assert pool.worker_deaths == 2

        # Budget exhausted: the next spawn attempt fails the pool.
        assert not pool.ensure_started()
        assert pool.failed
        assert not pool.ensure_started()  # stays failed
    finally:
        pool.shutdown()


def test_tick_deadline_kills_wedged_worker():
    pool = ShardPool(1, tick_deadline_s=0.3)
    try:
        assert pool.ensure_started()
        t0 = time.monotonic()
        assert pool.compute({0: [_ticket("h0", config=_WedgedConfig())]}) == {}
        assert time.monotonic() - t0 < 10.0  # gave up at the deadline
        assert pool.worker_deaths == 1
    finally:
        pool.shutdown()


def test_sigkilled_worker_detected_by_dead_pipe():
    pool = ShardPool(1, heartbeat_grace_s=0.2)
    try:
        assert pool.ensure_started()
        proc = pool._slots[0].proc
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=5.0)
        assert pool.compute({0: [_ticket("h0")]}) == {}
        assert pool.worker_deaths == 1
        assert pool.ensure_started()
        assert pool._slots[0].proc.is_alive()
    finally:
        pool.shutdown()


def test_sigstopped_worker_detected_by_stale_heartbeat():
    """A frozen worker keeps its pipe open (no EOF), so only its stale
    heartbeat gives it away — long before the tick deadline."""
    pool = ShardPool(1, heartbeat_grace_s=0.3, tick_deadline_s=30.0)
    try:
        assert pool.ensure_started()
        os.kill(pool._slots[0].proc.pid, signal.SIGSTOP)
        t0 = time.monotonic()
        assert pool.compute({0: [_ticket("h0")]}) == {}
        assert time.monotonic() - t0 < 5.0
        assert pool.worker_deaths == 1
        assert pool.ensure_started()  # the respawn succeeds
        assert pool._slots[0].proc.is_alive()
    finally:
        pool.shutdown()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _orphan_a_worker(conn) -> None:
    factory = WorkerFactory(1, heartbeat_interval_s=0.05, daemon=False)
    worker = factory.spawn(0, lambda message: message)
    conn.send(worker.proc.pid)
    os._exit(0)  # die like a SIGKILLed run: no stop, no atexit cleanup


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_orphaned_worker_exits_when_its_parent_dies():
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    middle = ctx.Process(target=_orphan_a_worker, args=(theirs,))
    middle.start()
    pid = ours.recv()
    middle.join(timeout=5.0)
    deadline = time.monotonic() + 5.0
    try:
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(pid)
    finally:
        if _alive(pid):
            os.kill(pid, signal.SIGKILL)
