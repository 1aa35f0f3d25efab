"""Persistent fork pool stepping per-host compute halves in parallel.

One pool per :class:`~repro.core.shards.ShardedControlPlane`.  Workers
are forked from the coordinating parent, inheriting every node manager's
metric plane and detector/identifier state as plain replicas; each
coordinator tick feeds them batches of
:class:`~repro.core.verdict.ComputeTicket` work orders over duplex pipes
and collects :class:`~repro.core.verdict.ControlVerdict` results.

**Replica lockstep** is the invariant making any tick boundary a valid
fork point: the parent absorbs every verdict (``detector.record`` +
``identifier.judge`` with the worker-computed values), and every
pool-bound ticket carries the plane delta and victim-signal tails its
worker's replicas missed since they last synced — so a replica equals
the parent wherever a ticket reads it.  The pool keeps, per worker, the
plane sync mark of every host it holds (set at fork, advanced by the
coordinator at every shipped ticket); a respawned worker is simply a
fresh fork with fresh marks, in sync by construction.

**Failure containment** reuses the heartbeat idiom of
:mod:`repro.resilience.supervisor`: each worker beats a lock-free shared
slot from a daemon thread; a stale beat, a dead pipe, a per-tick
deadline, or any in-worker exception kills that worker for the tick.
Its tickets are recomputed serially in the parent (same code path, so
results are identical), and the pool respawns the slot at the next tick
boundary — a worker that errored mid-ticket may hold a diverged replica
and must never be fed again.  Past the respawn budget the pool fails
permanently and the coordinator stays serial.

Hosts attached after a worker was (re)spawned are unknown to it; their
tickets run parent-side until a respawn refreshes the membership
snapshot.  Determinism is unaffected: results merge in attach order
regardless of where they were computed.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
from multiprocessing.connection import wait as connection_wait
from typing import Dict, List, Mapping, Optional

from repro.core.monitor import PLANE_METRICS
from repro.core.verdict import ComputeTicket, ControlVerdict, compute_verdict
from repro.metrics.timeseries import TimeSeries

__all__ = ["WorkerShard", "ShardPool", "WORKER_ENV"]

#: Set in pool workers (mirrors the supervised-runner convention) so
#: worker-only behaviour — and chaos faults — can be gated on it.
WORKER_ENV = "REPRO_SHARD_WORKER"


class WorkerShard:
    """One host's compute-side state, captured for fork inheritance."""

    __slots__ = ("detector", "identifier", "plane", "mark", "history", "config")

    def __init__(self, nm) -> None:
        self.detector = nm.detector
        self.identifier = nm.identifier
        self.plane = nm.monitor.plane
        #: The plane state a worker forked now inherits.
        self.mark = self.plane.sync_mark()
        self.history = nm.monitor.history
        self.config = nm.config

    def series_of(self, name: str, metric: str):
        """Resolve a suspect's usage series in the worker.

        The fork-copied history dict may lack VMs that appeared after
        the fork; entries are created lazily exactly the way the parent
        monitor creates them, so the identity-keyed incremental scorer
        sees a stable object per (VM, metric) across ticks.
        """
        hist = self.history.get(name)
        if hist is None:
            hist = self.history[name] = {
                k: self.plane.series(name, k) for k in PLANE_METRICS
            }
        return hist[metric]

    def reconcile_victims(self, ticket: ComputeTicket) -> None:
        """Fill victim-signal gaps left by ticket-free ticks.

        A tick the coordinator skipped (host quiet, computed parent-side)
        appended a detection value to the parent's signal history that
        this replica never saw.  Every pool-bound ticket ships the tail
        of each victim signal — all values originate from absorbed
        verdicts, so appending the entries newer than the replica's last
        time restores bit-identical suffixes.  The identifier's
        incremental cache sees a jumped grid and takes its rebuild path
        (a full realign: same scores, one slower interval).  Appending to
        the *detector's own* series keeps the victim object identity
        stable, which is what the incremental fast path is keyed on.
        """
        for app_id, io_tail, cpi_tail in ticket.victim_tails:
            sig = self.detector.signals.get(app_id)
            if sig is None:
                sig = self.detector.signals[app_id] = {
                    "io": TimeSeries(name=f"{app_id}.iowait_std"),
                    "cpi": TimeSeries(name=f"{app_id}.cpi_std"),
                }
            for kind, (times, values) in (("io", io_tail), ("cpi", cpi_tail)):
                series = sig[kind]
                last = series.last_time
                for t, v in zip(times, values):
                    if last is None or t > last:
                        series.append(t, v)


def _worker_main(conn, heartbeats, slot: int, shards: Mapping[str, WorkerShard],
                 beat_interval: float) -> None:
    os.environ[WORKER_ENV] = "1"
    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            heartbeats[slot] = time.monotonic()
            stop.wait(beat_interval)

    threading.Thread(target=beat, daemon=True, name=f"shard-beat-{slot}").start()
    try:
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            _, tickets = msg
            out: List[tuple] = []
            for ticket in tickets:
                try:
                    shard = shards[ticket.host]
                    shard.plane.install(ticket.plane_delta)
                    shard.reconcile_victims(ticket)
                    verdict = compute_verdict(
                        shard.detector, shard.identifier, shard.plane,
                        ticket, {}, shard.series_of, shard.config,
                    )
                    out.append(("ok", ticket.host, verdict))
                except BaseException as exc:  # noqa: BLE001 - forwarded
                    # The replica may be half-mutated: report and stop.
                    # The parent kills this worker and recomputes the
                    # rest of the batch serially.
                    out.append(("err", ticket.host,
                                f"{type(exc).__name__}: {exc}",
                                traceback.format_exc()))
                    break
            conn.send(("done", out))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        stop.set()


class _Slot:
    __slots__ = ("proc", "conn", "marks")

    def __init__(self, proc, conn, marks) -> None:
        self.proc = proc
        self.conn = conn
        self.marks = marks


class ShardPool:
    """Fixed-width pool of forked compute workers with respawn."""

    def __init__(
        self,
        workers: int,
        *,
        heartbeat_interval_s: float = 0.2,
        heartbeat_grace_s: float = 10.0,
        tick_deadline_s: float = 300.0,
        max_respawns: int = 4,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers!r}")
        self.workers = int(workers)
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_grace_s = heartbeat_grace_s
        self.tick_deadline_s = tick_deadline_s
        self.max_respawns = max_respawns
        self.failed = False
        #: Workers killed (stale heartbeat, dead pipe, error, deadline).
        self.worker_deaths = 0
        #: Workers forked to replace a dead one.
        self.respawns = 0
        #: Tickets recomputed serially in the parent.
        self.fallback_tickets = 0
        self._slots: List[Optional[_Slot]] = [None] * self.workers
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._ctx = None
            self.failed = True
            self._beats = None
        else:
            self._beats = self._ctx.Array("d", self.workers, lock=False)

    # -------------------------------------------------------------- lifecycle
    def ensure_started(self, shards: Mapping[str, WorkerShard]) -> bool:
        """Fork any missing worker from the current (synced) parent state.

        Must only be called at a tick boundary — the lockstep invariant
        is what makes the fork snapshot valid.  Returns False once the
        pool has permanently failed.
        """
        if self.failed:
            return False
        for slot in range(self.workers):
            s = self._slots[slot]
            if s is not None and not s.proc.is_alive():
                # A worker can die while receiving no tickets (ticket-free
                # ticks route quiet hosts parent-side); notice the corpse
                # here instead of waiting for the next failed send.
                self._kill(slot)
                s = None
            if s is not None:
                continue
            if self.respawns > self.max_respawns:
                self.failed = True
                self.shutdown()
                return False
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            self._beats[slot] = time.monotonic()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, self._beats, slot, dict(shards),
                      self.heartbeat_interval_s),
                name=f"shard-worker-{slot}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._slots[slot] = _Slot(
                proc, parent_conn,
                {host: shard.mark for host, shard in shards.items()},
            )
        return True

    def marks(self, slot: int) -> Dict[str, tuple]:
        """Plane sync marks of the hosts the worker in ``slot`` holds.

        Keys are the hosts it inherited at its last (re)spawn; the
        caller advances a host's mark whenever it ships that host a
        plane delta.  Empty while the slot has no worker.
        """
        s = self._slots[slot]
        return s.marks if s is not None else {}

    def shutdown(self) -> None:
        """Stop every worker; idempotent."""
        for slot in range(self.workers):
            s = self._slots[slot]
            if s is None:
                continue
            self._slots[slot] = None
            try:
                s.conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
            s.conn.close()
            s.proc.join(timeout=2.0)
            if s.proc.is_alive():  # pragma: no cover - wedged worker
                s.proc.kill()
                s.proc.join(timeout=2.0)

    def _kill(self, slot: int) -> None:
        s = self._slots[slot]
        if s is None:
            return
        self._slots[slot] = None
        self.worker_deaths += 1
        self.respawns += 1  # the replacement fork, charged up front
        try:
            s.conn.close()
        except OSError:  # pragma: no cover
            pass
        if s.proc.is_alive():
            s.proc.kill()
        s.proc.join(timeout=2.0)

    # ----------------------------------------------------------------- ticks
    def compute(
        self, assignments: Mapping[int, List[ComputeTicket]]
    ) -> Dict[str, ControlVerdict]:
        """Run one tick's batches; returns verdicts by host.

        Hosts missing from the result (their worker died, errored or
        timed out) are the caller's to recompute serially.
        """
        results: Dict[str, ControlVerdict] = {}
        pending: Dict[object, int] = {}
        for slot, tickets in assignments.items():
            s = self._slots[slot]
            if s is None or not tickets:
                continue
            try:
                s.conn.send(("tick", tickets))
            except (OSError, BrokenPipeError):
                self._kill(slot)
                continue
            pending[s.conn] = slot
        deadline = time.monotonic() + self.tick_deadline_s
        while pending:
            now = time.monotonic()
            if now >= deadline:
                break
            for conn in connection_wait(list(pending), timeout=min(
                    0.05, deadline - now)):
                slot = pending.pop(conn)
                try:
                    _, out = conn.recv()
                except (EOFError, OSError):
                    self._kill(slot)
                    continue
                bad = False
                for entry in out:
                    if entry[0] == "ok":
                        results[entry[1]] = entry[2]
                    else:
                        bad = True
                if bad:
                    self._kill(slot)
            stale = time.monotonic() - self.heartbeat_grace_s
            for conn, slot in list(pending.items()):
                if self._beats[slot] < stale:
                    del pending[conn]
                    self._kill(slot)
        for conn, slot in pending.items():  # tick deadline blown
            self._kill(slot)
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        alive = sum(1 for s in self._slots if s is not None)
        return (f"ShardPool(workers={self.workers}, alive={alive}, "
                f"failed={self.failed})")
