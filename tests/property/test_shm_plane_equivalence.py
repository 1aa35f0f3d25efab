"""Property tests for plane replicas and the parallel tick.

Two exact-equivalence oracles:

* a :class:`MetricPlane` replica copied at a fork point and kept in sync
  only through pickled :meth:`MetricPlane.delta_since` /
  :meth:`MetricPlane.install` round-trips must answer the whole read API
  — ``vms``, ``latest``, every ``PlaneSeries`` read, per-series
  ``dropped``/``appended`` and ``version`` — identically to the plane it
  copies, with syncs at arbitrary points so one delta spans several
  columns, evictions, prunes, removals, row reuse and row growth;
* a ``shard_workers=2`` deployment must produce byte-identical control
  outcomes (actions, detector signals, survival counters) to the serial
  path across randomized small worlds — the coordinator's merge order,
  not worker scheduling, defines the result.
"""

import copy
import pickle

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics.plane import MetricPlane

_METRICS = ("m0", "m1")
_VM_POOL = tuple(f"vm{i}" for i in range(9))

_values = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)

#: One interval: per-VM cells (None = VM absent this interval), an
#: optional prune, an optional VM removal, and whether the replica syncs
#: afterwards.  Nine possible VMs over a plane whose row storage starts
#: smaller forces row-doubling reallocations; a small capacity forces
#: ring wrap and eviction.
_shm_steps = st.lists(
    st.tuples(
        st.sampled_from([0.25, 5.0]),  # interval length
        st.lists(st.one_of(st.none(), _values),
                 min_size=len(_VM_POOL), max_size=len(_VM_POOL)),
        st.booleans(),  # prune_before(t - 10) this interval?
        st.one_of(st.none(), st.sampled_from(_VM_POOL)),  # remove_vm
        st.booleans(),  # sync the replica after this interval?
    ),
    min_size=1,
    max_size=20,
)


def _sync(source, replica, mark):
    """Ship ``source``'s changes since ``mark`` the way a ticket does."""
    delta = pickle.loads(pickle.dumps(source.delta_since(mark)))
    replica.install(delta)
    return source.sync_mark(), delta


def _assert_replica_reads_equal(replica, r_series, source, s_series):
    assert replica.version == source.version
    assert replica.vms() == source.vms()
    assert replica.last_time == source.last_time
    for m in _METRICS:
        assert replica.latest(m, _VM_POOL) == source.latest(m, _VM_POOL)
    for key, want in s_series.items():
        got = r_series[key]
        assert np.array_equal(got.times(), want.times())
        assert np.array_equal(got.values(), want.values())
        assert len(got) == len(want)
        assert got.last_time == want.last_time
        assert got.last_value == want.last_value
        for a, b in zip(got.tail(3), want.tail(3)):
            assert np.array_equal(a, b)
        assert replica.dropped_of(*key) == source.dropped_of(*key)
        assert got.dropped == want.dropped
        assert got.appended == want.appended
        if want.last_time is not None:
            assert (got.value_at(want.last_time)
                    == want.value_at(want.last_time))


def _cells(**present):
    """One interval's cells: ``vmN=value`` for the VMs present."""
    return [present.get(vm) for vm in _VM_POOL]


@settings(max_examples=60, deadline=None)
@given(steps=_shm_steps, capacity=st.sampled_from([2, 3, 7, 64]),
       fork_at=st.integers(min_value=0, max_value=20))
# A VM removed and re-registered on its old row between two syncs.
@example(steps=[(5.0, _cells(vm0=1.0, vm1=2.0), False, None, False),
                (5.0, _cells(), False, "vm0", False),
                (5.0, _cells(vm0=3.0), False, None, True)],
         capacity=64, fork_at=1)
# Dead ring columns keep stale cells of a freed row; a replica writing
# new columns there must not resurrect them once the row is reused.
@example(steps=[(5.0, _cells(vm0=1.0, vm3=-1.0), False, None, False)] * 4
         + [(5.0, _cells(vm0=1.0, vm3=-1.0), False, "vm0", False),
            (5.0, _cells(vm3=-1.0), False, None, True),
            (5.0, _cells(vm1=7.0), False, None, True)],
         capacity=2, fork_at=5)
def test_replica_sync_matches_source_plane(steps, capacity, fork_at):
    """A delta-synced replica reads exactly like its source, sample for
    sample, whatever the source did between two syncs."""
    source = MetricPlane(_METRICS, capacity=capacity)
    # Stable series objects, as the monitor's history hands them out;
    # the replica inherits copies (and their caches) at the fork.
    s_series = {(vm, m): source.series(vm, m)
                for vm in _VM_POOL for m in _METRICS}
    replica = r_series = mark = None
    ingests_since_sync = 0
    t = 0.0
    for i, (dt, cells, do_prune, removal, sync) in enumerate(steps):
        if i == fork_at:
            replica, r_series = copy.deepcopy((source, s_series))
            mark = source.sync_mark()
            ingests_since_sync = 0
        t += dt
        columns = {
            vm: {m: v for m in _METRICS}
            for vm, v in zip(_VM_POOL, cells)
            if v is not None
        }
        if columns:
            source.ingest(t, columns)
            ingests_since_sync += 1
        if do_prune:
            source.prune_before(t - 10.0)
        if removal is not None:
            source.remove_vm(removal)
        if replica is not None and sync:
            mark, delta = _sync(source, replica, mark)
            # The payload is bounded by what the replica missed.
            assert delta.grid.size <= ingests_since_sync
            ingests_since_sync = 0
            _assert_replica_reads_equal(replica, r_series, source, s_series)
    if replica is not None:
        _sync(source, replica, mark)
        _assert_replica_reads_equal(replica, r_series, source, s_series)


# ------------------------------------------------------- parallel ticks

def _world_outcome(seed, num_hosts, antagonists, shard_workers):
    from repro.experiments.harness import TestbedConfig, build_testbed

    testbed = build_testbed(
        TestbedConfig(seed=seed, num_hosts=num_hosts,
                      num_workers=2 * num_hosts, framework="mapreduce",
                      antagonists=antagonists)
    )
    pc = testbed.deploy_perfcloud(shard_workers=shard_workers)
    testbed.run(220.0)
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
            tuple(sorted(nm.identifier._last_hit.items())),
        ))
    pc.close()
    return tuple(out)


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_hosts=st.integers(min_value=1, max_value=3),
    ants=st.lists(
        st.tuples(st.sampled_from(("fio", "stream", "fio-episodic")),
                  st.one_of(st.none(), st.integers(0, 2))),
        min_size=0, max_size=3,
    ),
)
def test_parallel_ticks_byte_identical_to_serial(seed, num_hosts, ants):
    """shard_workers=2 == serial on randomized fig11-style worlds."""
    antagonists = tuple(ants)
    serial = _world_outcome(seed, num_hosts, antagonists, 0)
    pooled = _world_outcome(seed, num_hosts, antagonists, 2)
    assert serial == pooled
