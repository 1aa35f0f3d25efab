"""Unit tests of the fault-injection layer itself.

Every fault class the injector can throw is exercised against a tiny
one-host world, and the trace determinism the chaos harness relies on
is pinned directly.
"""

import pytest

from repro.cloud.nova import CloudManager
from repro.faults import CrashEvent, FaultInjector, FaultPlan
from repro.sim.engine import Simulator
from repro.virt.cluster import Cluster
from repro.virt.libvirt_api import LibvirtError
from repro.workloads.antagonists import FioRandomRead


def make_world(seed=0, with_workload=True):
    sim = Simulator(dt=1.0, seed=seed)
    cluster = Cluster(sim)
    cluster.add_host("h0")
    cloud = CloudManager(cluster)
    vm = cloud.boot("fio", "m1.large", host="h0")
    if with_workload:
        vm.attach_workload(FioRandomRead())
    return sim, cluster, cloud, vm


def wrap(sim, cluster, cloud, plan):
    injector = FaultInjector(sim, plan, cluster=cluster)
    return injector, injector.wrap(cloud.connection("h0"))


# ---------------------------------------------------------------- plan spec
def test_plan_rejects_bad_probability():
    with pytest.raises(ValueError):
        FaultPlan(call_failure_p=1.5)
    with pytest.raises(ValueError):
        FaultPlan(sampling_failure_p=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(freeze_duration_s=0.0)
    with pytest.raises(ValueError):
        FaultPlan(counter_reset_period_s=-5.0)
    with pytest.raises(ValueError):
        FaultPlan(persistent_failures=(("fio",),))


def test_crash_event_validation():
    with pytest.raises(ValueError):
        CrashEvent(vm="", at_s=10.0)
    with pytest.raises(ValueError):
        CrashEvent(vm="fio", at_s=-1.0)
    with pytest.raises(ValueError):
        CrashEvent(vm="fio", at_s=10.0, restart_after_s=0.0)


def test_injector_rejects_a_shard_pool():
    """Pooled ticks reorder per-call fault draws, so the combination is
    an error rather than a silent fallback to the serial path."""
    from repro.core.perfcloud import PerfCloud

    sim, cluster, cloud, _ = make_world()
    injector = FaultInjector(sim, FaultPlan(call_failure_p=0.1),
                             cluster=cluster)
    with pytest.raises(ValueError, match="shard_workers=0"):
        PerfCloud(sim, cloud, fault_injector=injector, shard_workers=2)
    with PerfCloud(sim, cloud, fault_injector=injector) as pc:
        assert pc.shard_workers == 0


def test_plan_overrides_and_targeting():
    plan = FaultPlan(call_failure_p=0.2, actuation_failure_p=0.5,
                     vms=("fio",))
    assert plan.sampling_p == 0.2
    assert plan.actuation_p == 0.5
    assert plan.targets("fio") and not plan.targets("other")
    assert FaultPlan().describe() == "no-faults"
    assert "call_failure_p" in plan.describe()


# ---------------------------------------------------------------- failures
def test_no_plan_no_faults():
    sim, cluster, cloud, vm = make_world()
    injector, conn = wrap(sim, cluster, cloud, FaultPlan())
    sim.run_for(10)
    raw = cloud.connection("h0").lookupByName("fio").blkioStats()
    assert conn.lookupByName("fio").blkioStats() == raw
    assert injector.trace == []


def test_transient_call_failure():
    sim, cluster, cloud, vm = make_world()
    injector, conn = wrap(sim, cluster, cloud, FaultPlan(call_failure_p=1.0))
    with pytest.raises(LibvirtError):
        conn.lookupByName("fio").blkioStats()
    assert injector.counts["call-failure"] == 1
    assert injector.trace[0][1] == "call-failure"


def test_persistent_failure_and_heal():
    sim, cluster, cloud, vm = make_world()
    injector, conn = wrap(sim, cluster, cloud, FaultPlan())
    injector.break_call("fio", "setBlockIoTune")
    dom = conn.lookupByName("fio")
    with pytest.raises(LibvirtError):
        dom.setBlockIoTune("vda", {"total_bytes_sec": 1e6})
    dom.perfStats()  # other methods unaffected
    injector.heal("fio", "setBlockIoTune")
    dom.setBlockIoTune("vda", {"total_bytes_sec": 1e6})
    assert vm.cgroup.throttle.bps_cap == pytest.approx(1e6)


def test_wildcard_persistent_failure():
    sim, cluster, cloud, vm = make_world()
    plan = FaultPlan(persistent_failures=(("*", "cpuStats"),))
    injector, conn = wrap(sim, cluster, cloud, plan)
    with pytest.raises(LibvirtError):
        conn.lookupByName("fio").cpuStats()
    conn.lookupByName("fio").blkioStats()  # only cpuStats is broken


# ---------------------------------------------------------------- telemetry
def test_counter_reset_rebases_to_zero():
    sim, cluster, cloud, vm = make_world()
    injector, conn = wrap(sim, cluster, cloud, FaultPlan())
    sim.run_for(20)
    before = conn.lookupByName("fio").blkioStats()
    assert before["io_service_bytes"] > 0
    injector.mark_reset("fio")
    after = conn.lookupByName("fio").blkioStats()
    # Rebooted: cumulative counters restart near zero...
    assert after["io_service_bytes"] < before["io_service_bytes"]
    assert after["io_service_bytes"] == pytest.approx(0.0, abs=1e-6)
    sim.run_for(10)
    # ...and keep accumulating from there.
    later = conn.lookupByName("fio").blkioStats()
    assert later["io_service_bytes"] > after["io_service_bytes"]


def test_frozen_counters_go_stale_then_recover():
    sim, cluster, cloud, vm = make_world()
    plan = FaultPlan(freeze_p=1.0, freeze_duration_s=15.0)
    injector, conn = wrap(sim, cluster, cloud, plan)
    sim.run_for(10)
    first = conn.lookupByName("fio").blkioStats()
    sim.run_for(5)
    stale = conn.lookupByName("fio").blkioStats()
    assert stale == first  # within the freeze window: identical snapshot
    assert injector.counts["frozen-reads"] >= 1
    sim.run_for(20)  # past the freeze window
    fresh = conn.lookupByName("fio").blkioStats()
    assert fresh["io_service_bytes"] > first["io_service_bytes"]


def test_periodic_counter_reset_fires():
    sim, cluster, cloud, vm = make_world()
    plan = FaultPlan(counter_reset_period_s=30.0)
    injector, conn = wrap(sim, cluster, cloud, plan)
    sim.run_for(65)
    assert injector.counts["counter-reset"] >= 2


# ------------------------------------------------------------ crash/restart
def test_crash_and_restart_cycle():
    sim, cluster, cloud, vm = make_world()
    plan = FaultPlan(crashes=(CrashEvent(vm="fio", at_s=5.0,
                                         restart_after_s=10.0),))
    injector, conn = wrap(sim, cluster, cloud, plan)
    dom = conn.lookupByName("fio")
    dom.setBlockIoTune("vda", {"total_bytes_sec": 2e6})
    sim.run_for(6)  # crash at t=5
    assert injector.is_down("fio")
    assert vm.driver is None  # workload detached while down
    with pytest.raises(LibvirtError):
        dom.blkioStats()
    with pytest.raises(LibvirtError):
        dom.setBlockIoTune("vda", {"total_bytes_sec": 1e6})
    sim.run_for(10)  # restart at t=15
    assert not injector.is_down("fio")
    assert vm.driver is not None  # workload resumed
    assert vm.cgroup.throttle.bps_cap is None  # reboot wiped the cap
    assert dom.blkioStats()["io_service_bytes"] == pytest.approx(0.0, abs=1e-6)
    assert injector.counts["crash"] == 1
    assert injector.counts["restart"] == 1


# ----------------------------------------------------------------- latency
def test_actuation_latency_applies_late():
    sim, cluster, cloud, vm = make_world()
    plan = FaultPlan(latency_p=1.0, latency_s=2.0)
    injector, conn = wrap(sim, cluster, cloud, plan)
    conn.lookupByName("fio").setBlockIoTune("vda", {"total_bytes_sec": 3e6})
    assert vm.cgroup.throttle.bps_cap is None  # returned, not yet applied
    sim.run_for(3)
    assert vm.cgroup.throttle.bps_cap == pytest.approx(3e6)
    assert injector.counts["latency"] == 1


# ------------------------------------------------------------- determinism
def _noisy_run(seed):
    sim, cluster, cloud, vm = make_world(seed=seed)
    plan = FaultPlan(call_failure_p=0.3, freeze_p=0.2,
                     counter_reset_p=0.1, latency_p=0.2)
    injector, conn = wrap(sim, cluster, cloud, plan)
    for _ in range(40):
        sim.run_for(1)
        dom = conn.lookupByName("fio")
        for call in (dom.blkioStats, dom.perfStats,
                     lambda: dom.setBlockIoTune("vda", {"total_bytes_sec": 1e6})):
            try:
                call()
            except LibvirtError:
                pass
    return injector


def test_same_seed_same_trace():
    a, b = _noisy_run(11), _noisy_run(11)
    assert a.trace  # the mix above does inject
    assert a.trace == b.trace
    assert a.digest() == b.digest()
    assert a.fault_counts() == b.fault_counts()


def test_different_seed_different_trace():
    assert _noisy_run(11).digest() != _noisy_run(12).digest()
