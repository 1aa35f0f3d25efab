"""Resilience subsystem: supervised execution, checkpoints, breakers.

Layers, each usable on its own:

* :mod:`repro.resilience.workers` — forked, heartbeating worker
  processes: the one spawn site, shared by the run supervisor and the
  shard pool (:mod:`repro.core.shardpool`);
* :mod:`repro.resilience.supervisor` — the scheduler every
  :func:`repro.experiments.parallel.run_many` runs on; a policy adds
  timeouts, retries, respawn, speculation and salvage, and fault-free
  results are byte-identical under every policy;
* :mod:`repro.resilience.checkpoint` — append-only manifests of
  completed task keys so killed sweeps/corpus runs resume without
  re-executing finished work;
* :mod:`repro.resilience.breaker` / :mod:`repro.resilience.ladder` —
  per-host circuit breaker over the libvirt facade and the control-
  plane degradation ladder (full CUBIC → static 20 % cap → monitor)
  it drives;
* :mod:`repro.resilience.harness_chaos` — chaos drills that prove the
  above by killing, freezing and corrupting the harness itself.

Only the breaker/ladder layer is imported eagerly: the control plane
(:mod:`repro.core.node_manager`) depends on it.  The chaos layer
depends back on :mod:`repro.experiments` — importing it here at module
load would close an import cycle — and the process layers are not
needed by a plain simulation, so they resolve lazily on first
attribute access.
"""

import importlib

from repro.resilience.breaker import (
    BreakerOpen,
    BreakerPolicy,
    CircuitBreaker,
    GuardedConnection,
    GuardedDomain,
)
from repro.resilience.ladder import (
    FULL,
    MONITOR,
    STATIC_CAP,
    DegradationLadder,
    ResiliencePolicy,
    ResilienceStats,
)

__all__ = [
    "BreakerOpen",
    "BreakerPolicy",
    "Checkpoint",
    "CircuitBreaker",
    "DegradationLadder",
    "FULL",
    "GuardedConnection",
    "GuardedDomain",
    "HarnessChaosPlan",
    "HarnessChaosResult",
    "MONITOR",
    "ResiliencePolicy",
    "ResilienceStats",
    "STATIC_CAP",
    "SupervisorPolicy",
    "SupervisorStats",
    "WORKER_ENV",
    "default_harness_plan",
    "run_harness_chaos",
]

_LAZY = {
    "Checkpoint": "repro.resilience.checkpoint",
    "SupervisorPolicy": "repro.resilience.supervisor",
    "SupervisorStats": "repro.resilience.supervisor",
    "WORKER_ENV": "repro.resilience.workers",
    "HarnessChaosPlan": "repro.resilience.harness_chaos",
    "HarnessChaosResult": "repro.resilience.harness_chaos",
    "default_harness_plan": "repro.resilience.harness_chaos",
    "run_harness_chaos": "repro.resilience.harness_chaos",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value
