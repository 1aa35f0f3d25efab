"""Chaos drills for the *harness itself*: kill, wedge and corrupt it.

:mod:`repro.experiments.chaos` attacks the simulated control plane;
this module attacks the experiment harness — the supervised process
pool and the result cache — and proves the supervision layer delivers
what it promises: a merged result **byte-identical to a clean serial
run** despite workers being SIGKILLed mid-task, frozen with SIGSTOP
(heartbeat loss), stalled past their deadline, crashing with
exceptions, and cache entries being corrupted between runs.

Faults are delivered through a *marker-file* protocol so the task
runner keeps the plain ``runner(task)`` shape: the first attempt of a
targeted task creates its marker and then misbehaves; the retry sees
the marker and runs normally.  Every fault only fires when
:data:`~repro.resilience.workers.WORKER_ENV` is set — i.e. inside a
worker process — so a task that falls through to the
serial-fallback rung (or the clean reference run) can never SIGKILL
the parent.

Determinism: with speculation disabled, the same plan and seed produce
the same per-task final statuses (killed → ``retried``, stalled →
``retried``, clean → ``ok``) and the same merged values, captured in a
single trace digest that two runs of :func:`run_harness_chaos` can be
compared on.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import signal
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.cache import ResultCache, stable_hash, task_key
from repro.experiments.parallel import RunReport, run_many_report
from repro.resilience.supervisor import SupervisorPolicy
from repro.resilience.workers import WORKER_ENV

__all__ = [
    "ChaosTask",
    "HarnessChaosPlan",
    "HarnessChaosResult",
    "default_harness_plan",
    "run_harness_chaos",
]


@dataclass(frozen=True)
class ChaosTask:
    """One unit of deterministic work; identity is ``(seed, index)``."""

    index: int
    seed: int
    #: Iterations of the burn loop (timing texture, still milliseconds).
    work: int = 20000


def chaos_task_key(task: ChaosTask) -> str:
    """Cache key over the task identity only.

    Fault targeting lives in a side-channel plan file precisely so it
    can never leak into the key: a killed-then-retried task must hit the
    same cache slot as its clean twin.
    """
    return task_key(task)


def _chaos_value(task: ChaosTask) -> Dict[str, int]:
    seeded = hashlib.sha256(f"{task.seed}:{task.index}".encode()).hexdigest()
    value = int(seeded[:12], 16)
    acc = value
    for _ in range(task.work):
        acc = (acc * 1103515245 + 12345) % (1 << 31)
    return {"index": task.index, "value": value, "acc": acc}


def _chaos_runner(plan_path: str, task: ChaosTask) -> Dict[str, int]:
    """Task runner with marker-file fault delivery (first attempt only)."""
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    fault = plan["faults"].get(str(task.index))
    if fault is not None and os.environ.get(WORKER_ENV):
        marker = Path(plan["marker_dir"]) / f"task-{task.index}"
        if not marker.exists():
            marker.touch()
            kind = fault["kind"]
            if kind == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif kind == "sigstop":
                # Freezes the heartbeat thread too — the parent must
                # notice via heartbeat staleness, not pipe EOF.
                os.kill(os.getpid(), signal.SIGSTOP)
            elif kind == "stall":
                time.sleep(fault.get("stall_s", 3600.0))
            elif kind == "raise":
                raise RuntimeError(
                    f"injected harness fault for task {task.index}"
                )
    return _chaos_value(task)


@dataclass(frozen=True)
class HarnessChaosPlan:
    """Which tasks get which harness fault (indices into the task list)."""

    n_tasks: int = 12
    seed: int = 0
    kills: Tuple[int, ...] = ()        # SIGKILL mid-task (pipe EOF path)
    sigstops: Tuple[int, ...] = ()     # freeze (heartbeat-loss path)
    stalls: Tuple[int, ...] = ()       # sleep past deadline (timeout path)
    raises_: Tuple[int, ...] = ()      # ordinary exception (retry path)
    corrupt: Tuple[int, ...] = ()      # cache entries corrupted post-run
    stall_s: float = 30.0
    work: int = 20000

    def __post_init__(self) -> None:
        targeted: List[int] = []
        for group in (self.kills, self.sigstops, self.stalls, self.raises_):
            targeted.extend(group)
        if len(set(targeted)) != len(targeted):
            raise ValueError("a task may carry at most one harness fault")
        for i in targeted + list(self.corrupt):
            if not 0 <= i < self.n_tasks:
                raise ValueError(f"fault target {i} outside task range")

    def faults(self) -> Dict[str, Dict[str, Any]]:
        out: Dict[str, Dict[str, Any]] = {}
        for i in self.kills:
            out[str(i)] = {"kind": "kill"}
        for i in self.sigstops:
            out[str(i)] = {"kind": "sigstop"}
        for i in self.stalls:
            out[str(i)] = {"kind": "stall", "stall_s": self.stall_s}
        for i in self.raises_:
            out[str(i)] = {"kind": "raise"}
        return out

    def tasks(self) -> List[ChaosTask]:
        return [
            ChaosTask(index=i, seed=self.seed, work=self.work)
            for i in range(self.n_tasks)
        ]


def default_harness_plan(seed: int = 0) -> HarnessChaosPlan:
    """The `repro chaos --harness` mix: every failure mode at once."""
    return HarnessChaosPlan(
        n_tasks=12, seed=seed,
        kills=(2, 7), sigstops=(4,), stalls=(9,), raises_=(6,),
        corrupt=(1, 5),
    )


@dataclass
class HarnessChaosResult:
    """Outcome of one full harness-chaos drill."""

    survived: bool
    identical: bool
    recovered_from_corruption: bool
    statuses: Dict[int, str]
    digest: str
    chaos_report: RunReport
    rerun_report: Optional[RunReport]
    elapsed: float

    def summary(self) -> Dict[str, Any]:
        stats = self.chaos_report.supervisor
        return {
            "survived": self.survived,
            "identical": self.identical,
            "recovered_from_corruption": self.recovered_from_corruption,
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
            "digest": self.digest,
            "supervisor": stats.to_dict() if stats is not None else None,
            "elapsed_s": round(self.elapsed, 3),
        }


def run_harness_chaos(
    plan: Optional[HarnessChaosPlan] = None,
    *,
    workers: int = 4,
    policy: Optional[SupervisorPolicy] = None,
    cache_dir: Optional[str] = None,
    work_dir: Optional[str] = None,
) -> HarnessChaosResult:
    """Run the drill: reference → supervised chaos → corrupt → warm rerun.

    1. A clean **serial** run (no pool, no cache, no faults) computes
       the reference results.
    2. A **supervised** run executes the same tasks under the fault
       plan, writing into a result cache; its merged results must be
       byte-identical to the reference.
    3. The cache entries of ``plan.corrupt`` are overwritten with
       garbage, then a warm rerun must detect the corruption, recompute
       exactly those tasks, and again match the reference.
    """
    plan = plan or default_harness_plan()
    start = time.perf_counter()
    tasks = plan.tasks()

    # Chaos timing must dominate the task runtime (milliseconds) but
    # keep the whole drill in seconds: stalls are caught by the task
    # deadline, SIGSTOPs by heartbeat staleness.
    policy = policy or SupervisorPolicy(
        task_timeout_s=2.0,
        heartbeat_interval_s=0.05,
        heartbeat_grace_s=1.0,
        max_retries=2,
        backoff_base_s=0.01,
        backoff_max_s=0.1,
        seed=plan.seed,
        speculate=False,  # keeps attempt counts, hence the digest, stable
        # Kills, freezes and stalls each cost one worker; budget them
        # all plus slack so the pool never falls through to serial.
        max_respawns=max(
            4, len(plan.kills) + len(plan.sigstops) + len(plan.stalls) + 2
        ),
    )

    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        marker_dir = Path(tmp) / "markers"
        marker_dir.mkdir()
        plan_path = Path(tmp) / "plan.json"
        plan_path.write_text(json.dumps({
            "marker_dir": str(marker_dir),
            "faults": plan.faults(),
        }), encoding="utf-8")
        runner = functools.partial(_chaos_runner, str(plan_path))

        # Phase 1: clean serial reference (markers untouched — faults
        # are gated on WORKER_ENV, unset in this process).
        reference = run_many_report(tasks, runner, workers=0).results

        # Phase 2: supervised run under fire.
        cache_root = cache_dir or str(Path(tmp) / "cache")
        cache = ResultCache(cache_root)
        chaos_report = run_many_report(
            tasks, runner, workers=workers, policy=policy,
            cache=cache, key_fn=chaos_task_key,
        )
        identical = chaos_report.results == reference

        # Phase 3: corrupt cache entries, then a warm supervised rerun
        # (markers persist, so every fault is now inert) must recompute
        # exactly the corrupted tasks and still match the reference.
        rerun_report: Optional[RunReport] = None
        recovered = True
        if plan.corrupt:
            for i in plan.corrupt:
                cache.corrupt(chaos_task_key(tasks[i]))
            rerun_report = run_many_report(
                tasks, runner, workers=workers, policy=policy,
                cache=cache, key_fn=chaos_task_key,
            )
            recovered = (
                rerun_report.results == reference
                and rerun_report.executed == len(set(plan.corrupt))
            )

    statuses = {o.index: o.status for o in chaos_report.outcomes}
    digest = stable_hash({
        "plan": plan,
        "statuses": sorted(statuses.items()),
        "results": reference,
    })[:16]
    survived = bool(chaos_report.ok and identical and recovered)
    return HarnessChaosResult(
        survived=survived,
        identical=identical,
        recovered_from_corruption=recovered,
        statuses=statuses,
        digest=digest,
        chaos_report=chaos_report,
        rerun_report=rerun_report,
        elapsed=time.perf_counter() - start,
    )
