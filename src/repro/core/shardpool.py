"""Persistent fork pool computing pool-bound tickets in parallel.

One pool per :class:`~repro.core.shards.ShardedControlPlane`.  Workers
are stateless: every pool-bound :class:`~repro.core.verdict.ComputeTicket`
carries its compute inputs (see ``NodeManager.pool_ticket``), and a
worker answers a batch by running
:func:`~repro.core.verdict.compute_shipped` on each ticket — a throwaway
detector and identifier seeded from the ticket alone, fed to the very
``compute_verdict`` the parent runs.  Nothing outlives a batch in a
worker, so any worker may take any host's ticket and a respawned worker
needs no state; the node manager stays the only owner of detection and
identification state, absorbing every verdict (``detector.record`` +
``identifier.judge`` with the worker-computed values).

Workers are the heartbeating processes of :mod:`repro.resilience.workers`,
shared with the run supervisor; this module passes them only the ticket
handler.  **Failure containment**: a stale beat, a dead pipe, a per-tick
deadline, or any in-worker exception kills that worker for the tick.
Its tickets are recomputed serially in the parent (same code path, so
results are identical; the coordinator counts them as
``fallback_tickets``), and the pool respawns the slot at the next tick.
Past the respawn budget the pool fails permanently and the coordinator
stays serial.
"""

from __future__ import annotations

import time
import traceback
from multiprocessing.connection import wait as connection_wait
from typing import Dict, List, Mapping, Optional

from repro.core.verdict import ComputeTicket, ControlVerdict, compute_shipped
from repro.resilience.workers import Worker, WorkerFactory, stop_workers

__all__ = ["ShardPool"]


def _compute_batch(message) -> List[tuple]:
    """Worker handler: one tick's tickets → ``[("ok", host, verdict)]``."""
    _, tickets = message
    out: List[tuple] = []
    for ticket in tickets:
        try:
            out.append(("ok", ticket.host, compute_shipped(ticket)))
        except Exception as exc:  # noqa: BLE001 - forwarded to the parent
            out.append(("err", ticket.host, f"{type(exc).__name__}: {exc}",
                        traceback.format_exc()))
    return out


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
        self.heartbeat_grace_s = heartbeat_grace_s
        self.tick_deadline_s = tick_deadline_s
        self.max_respawns = max_respawns
        #: Workers killed (stale heartbeat, dead pipe, error, deadline).
        self.worker_deaths = 0
        #: Workers forked to replace a dead one.
        self.respawns = 0
        #: Set once the respawn budget is spent; the coordinator then
        #: stays serial.
        self.failed = False
        self._slots: List[Optional[Worker]] = [None] * self.workers
        self._factory = WorkerFactory(
            self.workers, heartbeat_interval_s, daemon=True
        )

    # -------------------------------------------------------------- lifecycle
    def ensure_started(self) -> bool:
        """Fork any missing worker; False once the pool has permanently
        failed."""
        if self.failed:
            return False
        for slot, worker in enumerate(self._slots):
            if worker is not None and not worker.proc.is_alive():
                # A worker can die while receiving no tickets (ticket-free
                # ticks route quiet hosts parent-side); notice the corpse
                # here instead of waiting for the next failed send.
                self._kill(slot)
                worker = None
            if worker is not None:
                continue
            if self.respawns > self.max_respawns:
                self.failed = True
                self.shutdown()
                return False
            self._slots[slot] = self._factory.spawn(slot, _compute_batch)
        return True

    def shutdown(self) -> None:
        """Stop every worker; idempotent."""
        stop_workers(w for w in self._slots if w is not None)
        self._slots = [None] * self.workers

    def _kill(self, slot: int) -> None:
        self._slots[slot].kill()
        self._slots[slot] = None
        self.worker_deaths += 1
        self.respawns += 1  # the replacement fork, charged up front

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
            worker = self._slots[slot]
            if worker is None or not tickets:
                continue
            try:
                worker.conn.send(("tick", tickets))
            except (OSError, BrokenPipeError):
                self._kill(slot)
                continue
            pending[worker.conn] = slot
        deadline = time.monotonic() + self.tick_deadline_s
        while pending:
            now = time.monotonic()
            if now >= deadline:
                break
            for conn in connection_wait(list(pending), timeout=min(
                    0.05, deadline - now)):
                slot = pending.pop(conn)
                try:
                    out = conn.recv()
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
            now = time.monotonic()
            for conn, slot in list(pending.items()):
                if (self._factory.silence(self._slots[slot], now)
                        > self.heartbeat_grace_s):
                    del pending[conn]
                    self._kill(slot)
        for conn, slot in pending.items():  # tick deadline blown
            self._kill(slot)
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        alive = sum(1 for s in self._slots if s is not None)
        return (f"ShardPool(workers={self.workers}, alive={alive}, "
                f"failed={self.failed})")
