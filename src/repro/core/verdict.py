"""Pure compute half of the per-host control chain.

The node manager's Algorithm 1 interval splits into two halves around a
process boundary:

* **compute** (this module): detector deviation + incremental Pearson
  identification.  Reads only metric samples and detector/identifier
  state — no simulator, no libvirt — and returns a compact picklable
  :class:`ControlVerdict`.
* **actuation** (stays in the parent): CUBIC control, cap application,
  reconciliation, accounting — everything touching live sim state.

A :class:`ComputeTicket` is the parent's per-(host, epoch) work order: a
frozen snapshot of the inventory facts the compute half needs (members,
suspects).  A pool-bound ticket also carries the compute inputs
themselves (see ``NodeManager.pool_ticket``): the members' samples, the
victim-signal tails, the suspects' usage samples near the victim grid
and their TTL hits.  :func:`compute_verdict` is the single code path
used by *both* sides — the parent runs it on the node manager's live
state, and a pool worker runs it through :func:`compute_shipped` on a
throwaway detector and identifier seeded from the ticket alone — so the
two can never diverge behaviourally.

Determinism: tuples preserve the parent's insertion orders, floats cross
pickle bit-exactly, a fresh identifier's full realignment is bitwise
equal to the incremental path, and the parent absorbs a shipped verdict
by replaying ``detector.record`` / ``identifier.judge`` with its values —
the node manager stays the only owner of control state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.core.config import PerfCloudConfig
from repro.core.detector import InterferenceDetector
from repro.core.identification import AntagonistIdentifier
from repro.core.monitor import VmSample
from repro.metrics.timeseries import TimeSeries

__all__ = ["ComputeTicket", "AppIdentification", "ControlVerdict",
           "compute_verdict", "compute_shipped"]

#: (resource, victim-signal kind, suspect usage metric) — the §III-B
#: pairing, in the exact order the serial interval runs them.
RESOURCE_CHAINS = (("io", "io", "io_bytes_ps"), ("cpu", "cpi", "llc_miss_rate"))

#: The suspect usage metrics identification reads, in ticket order.
USAGE_METRICS = tuple(metric for _, _, metric in RESOURCE_CHAINS)


@dataclass(frozen=True)
class ComputeTicket:
    """One host's compute work order for one coordinator epoch."""

    host: str
    epoch: int
    now: float
    #: app_id → member VM names, in the parent's insertion order.
    app_members: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: Low-priority VM names with monitor history (identification input).
    suspects: Tuple[str, ...]
    #: Whether identification runs at all (any low-priority VM present).
    do_identify: bool
    #: Whether the compute half should measure spans (telemetry on).
    trace: bool = False
    # Compute inputs, filled only on pool-bound tickets.  Plain tuples
    # of floats: bit-exact across pickle.
    #: The agent's config (the tickets of one batch share it, so pickle
    #: writes it once per batch).
    config: Optional[PerfCloudConfig] = None
    #: ``(vm, sample)`` for every sampled app member, in member order.
    samples: Tuple[Tuple[str, VmSample], ...] = ()
    #: Victim-signal tails per app — ``(app_id, (io_times, io_values),
    #: (cpi_times, cpi_values))``.
    victim_tails: Tuple[tuple, ...] = ()
    #: ``(vm, (times, values) per USAGE_METRICS)`` per suspect: the usage
    #: samples that can match an instant of the victim grid.
    usage: Tuple[tuple, ...] = ()
    #: ``(resource, vm, last hit time)`` TTL entries of the suspects.
    hits: Tuple[Tuple[str, str, float], ...] = ()


@dataclass(frozen=True)
class AppIdentification:
    """One ``identify`` call's outcome for one (app, resource)."""

    app_id: str
    resource: str
    #: Whether identification actually scored (enough victim history).
    #: When False the serial path takes ``identify``'s early return —
    #: no scores *and no TTL refresh* — so the absorbing parent must
    #: not call ``judge`` either.
    ran: bool
    correlations: Dict[str, float]
    antagonists: FrozenSet[str]


@dataclass(frozen=True)
class ControlVerdict:
    """Everything the actuation half needs from one host's compute."""

    host: str
    epoch: int
    #: (app_id, iowait_std, cpi_std) per application, in order.
    detections: Tuple[Tuple[str, float, float], ...]
    identifications: Tuple[AppIdentification, ...]
    do_identify: bool
    #: (span kind, wall-clock seconds) measured by the compute half when
    #: the ticket requested tracing — carried home on the verdict pipe
    #: under ``shard_workers=N``, produced identically on the serial
    #: path.  Wall-clock only: never read by anything deterministic.
    spans: Tuple[Tuple[str, float], ...] = field(default=())


def compute_verdict(
    detector,
    identifier,
    plane,
    ticket: ComputeTicket,
    samples,
    series_of: Callable[[str, str], object],
    config,
) -> ControlVerdict:
    """Run one host's detection + identification; mutates the detector
    and identifier.

    In the parent, ``plane`` is the monitor's plane and ``samples`` its
    live sample dict; a worker passes no plane and the ticket's member
    samples.  Both read the same floats: the plane's newest column holds
    exactly this interval's samples whenever any exist (and the detector
    then takes the columnar path), and when none exist both sides hand
    the detector the same empty membership.  ``series_of(name, metric)``
    resolves a suspect's usage series (the parent's history dict, or the
    series a worker rebuilt from the ticket).
    """
    app_members = {app: list(members) for app, members in ticket.app_members}
    trace = ticket.trace
    t0 = time.perf_counter() if trace else 0.0
    detections = detector.evaluate(ticket.now, samples, app_members, plane=plane)
    t1 = time.perf_counter() if trace else 0.0
    identifications = []
    if ticket.do_identify:
        for app_id in app_members:
            for resource, kind, metric in RESOURCE_CHAINS:
                victim = detector.signal(app_id, kind)
                ran = len(victim) >= config.corr_min_samples
                result = identifier.identify(
                    resource,
                    victim,
                    {name: series_of(name, metric) for name in ticket.suspects},
                    ticket.now,
                )
                identifications.append(AppIdentification(
                    app_id=app_id,
                    resource=resource,
                    ran=ran,
                    correlations=dict(result.correlations),
                    antagonists=frozenset(result.antagonists),
                ))
    spans: Tuple[Tuple[str, float], ...] = ()
    if trace:
        t2 = time.perf_counter()
        spans = (("detector.evaluate", t1 - t0),
                 ("identifier.identify", t2 - t1))
    return ControlVerdict(
        host=ticket.host,
        epoch=ticket.epoch,
        detections=tuple(
            (app_id, d.iowait_std, d.cpi_std) for app_id, d in detections.items()
        ),
        identifications=tuple(identifications),
        do_identify=ticket.do_identify,
        spans=spans,
    )


def _series(name: str, tail: tuple) -> TimeSeries:
    series = TimeSeries(name=name)
    series.extend(zip(*tail))
    return series


def compute_shipped(ticket: ComputeTicket) -> ControlVerdict:
    """A pool worker's compute half: the ticket's inputs are all it reads.

    The throwaway detector holds only the victim-signal tails and the
    throwaway identifier only the suspects' TTL hits, so identification
    takes its full-realignment path — bitwise equal to the parent's
    incremental one.  Nothing outlives the call.
    """
    config = ticket.config
    detector = InterferenceDetector(config)
    for app_id, io_tail, cpi_tail in ticket.victim_tails:
        detector.signals[app_id] = {
            "io": _series(f"{app_id}.iowait_std", io_tail),
            "cpi": _series(f"{app_id}.cpi_std", cpi_tail),
        }
    identifier = AntagonistIdentifier(config)
    identifier.restore_hits(ticket.hits)
    usage = {
        vm: {metric: _series(f"{vm}.{metric}", tail)
             for metric, tail in zip(USAGE_METRICS, tails)}
        for vm, *tails in ticket.usage
    }
    return compute_verdict(
        detector, identifier, None, ticket, dict(ticket.samples),
        lambda name, metric: usage[name][metric], config,
    )
