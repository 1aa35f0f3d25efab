"""Property test for the parallel tick.

A ``shard_workers=2`` deployment must produce byte-identical control
outcomes (actions, detector signals, survival counters, TTL state) to
the serial path across randomized small worlds — the coordinator's
merge order, not worker scheduling, defines the result.
"""

from hypothesis import given, settings
from hypothesis import strategies as st


# ------------------------------------------------------- parallel ticks

def _world_outcome(seed, num_hosts, antagonists, shard_workers):
    from repro.core.perfcloud import PerfCloud
    from repro.experiments.harness import TestbedConfig, build_testbed

    testbed = build_testbed(
        TestbedConfig(seed=seed, num_hosts=num_hosts,
                      num_workers=2 * num_hosts, framework="mapreduce",
                      antagonists=antagonists)
    )
    pc = PerfCloud(testbed.sim, testbed.cloud, shard_workers=shard_workers)
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
