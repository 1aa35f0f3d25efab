"""Forked, heartbeating worker processes: the repo's one spawn site.

Both process pools — the run supervisor
(:mod:`repro.resilience.supervisor`) and the shard pool
(:mod:`repro.core.shardpool`) — start their workers here and differ only
in the message handler they pass.  A worker:

* sets :data:`WORKER_ENV` so worker-only behaviour (and chaos faults)
  can never fire in the parent;
* beats its slot of a lock-free shared array of ``time.monotonic()``
  stamps from a daemon thread, so it keeps beating while the handler
  blocks in C code or sleeps — only a process-wide freeze (``SIGSTOP``,
  a GIL-holding spin, death) silences it, which is exactly the signal
  the parent wants;
* answers every message on its duplex pipe with ``handler(message)``
  until it receives ``("stop",)`` or the pipe breaks;
* exits within one beat interval once its parent is gone, so a
  SIGKILLed run leaves no workers behind.

Run workers are non-daemonic because a runner may start a pool of its
own (a figure task that steps its control plane on a shard pool), and
daemonic processes may not have children.  Shard workers never do, and
stay daemonic so an interpreter that exits without shutting its pool
down terminates them instead of waiting on them.

Each worker gets its own pipe — deliberately not a shared
``multiprocessing.Queue``: SIGKILLing a worker that holds a shared
queue's read lock would deadlock every other consumer, while killing a
pipe's worker only ever breaks that pipe.

Stdlib only: :mod:`repro.core` builds on it, so it must not import
:mod:`repro.experiments`.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Any, Callable, Iterable

__all__ = ["WORKER_ENV", "Worker", "WorkerFactory", "stop_workers"]

#: Set (to ``"1"``) in the environment of every worker process.
WORKER_ENV = "REPRO_WORKER"

_STOP = ("stop",)


def _worker_main(conn, beats, slot: int, interval: float,
                 handler: Callable[[Any], Any]) -> None:
    os.environ[WORKER_ENV] = "1"
    parent = os.getppid()
    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            if os.getppid() != parent:
                # Orphaned: the parent died without stopping us.  Forked
                # siblings hold copies of our pipe's parent end, so no
                # EOF would ever arrive to end the receive loop.
                os._exit(1)
            beats[slot] = time.monotonic()
            stop.wait(interval)

    threading.Thread(target=beat, daemon=True).start()
    try:
        while True:
            message = conn.recv()
            if message == _STOP:
                break
            conn.send(handler(message))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        stop.set()


class Worker:
    """The parent's handle on one worker: process, pipe end, beat slot."""

    __slots__ = ("proc", "conn", "slot")

    def __init__(self, proc, conn, slot: int) -> None:
        self.proc = proc
        self.conn = conn
        self.slot = slot

    def kill(self) -> None:
        """Close the pipe and SIGKILL the process (reaps a corpse too)."""
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=5.0)


def stop_workers(workers: Iterable[Worker]) -> None:
    """Ask idle workers to exit; kill any still running 2 s later."""
    workers = list(workers)
    for worker in workers:
        try:
            worker.conn.send(_STOP)
        except (OSError, ValueError):
            pass
    for worker in workers:
        worker.proc.join(timeout=2.0)
        worker.kill()


class WorkerFactory:
    """Forks workers into a fixed number of heartbeat slots."""

    def __init__(self, slots: int, heartbeat_interval_s: float, *,
                 daemon: bool) -> None:
        try:
            self.ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self.ctx = multiprocessing.get_context()
        self.heartbeat_interval_s = heartbeat_interval_s
        self.daemon = daemon
        self.beats = self.ctx.Array("d", slots, lock=False)

    def spawn(self, slot: int, handler: Callable[[Any], Any]) -> Worker:
        """Start a worker in ``slot`` that answers messages with
        ``handler``.  Under fork the handler (and whatever it closes
        over) is inherited, never pickled."""
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        self.beats[slot] = time.monotonic()
        proc = self.ctx.Process(
            target=_worker_main,
            args=(child_conn, self.beats, slot, self.heartbeat_interval_s,
                  handler),
            daemon=self.daemon,
        )
        proc.start()
        child_conn.close()
        return Worker(proc, parent_conn, slot)

    def silence(self, worker: Worker, now: float) -> float:
        """Seconds since ``worker`` last beat."""
        return now - self.beats[worker.slot]
