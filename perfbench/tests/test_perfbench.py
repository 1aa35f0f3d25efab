"""The benchmark's own tests, on tiny versions of its three worlds.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import run
from layers import ENTRY_POINTS, LAYERS, Tracer, layer_metrics
from measure import run_pass
from worlds import WORKLOADS, make_inputs

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "mixed_jobs": dict(hosts=2, workers_per_host=2, jobs_per_framework=4,
                       mean_interarrival_s=10.0, tol=0.5),
    "wide_contended": dict(hosts=20, contended_s=150.0),
    "wide_contended_pooled": dict(hosts=20, contended_s=150.0),
}


def _bench(workload, trace, tmp_path, seed=1):
    return run.bench(workload, seed, 0.0, trace, sizes=TINY[workload],
                     out_dir=tmp_path)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_reported_with_its_unit(workload, tmp_path):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        report = _bench(workload, trace, tmp_path)
        result = report["result"]
        assert result["correct"], report["failures"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())
        extra = set(report["extra_metrics"])
        assert "error_rate" in extra
        assert ({"sim_jct_p50_s", "sim_jct_p75_s"} <= extra) == (
            workload == "mixed_jobs")


def test_pooled_output_equals_serial(tmp_path):
    serial = _bench("wide_contended", False, tmp_path)
    pooled = _bench("wide_contended_pooled", False, tmp_path)
    assert pooled["result"]["correct"], pooled["failures"]
    assert pooled["meta"]["digest"] == serial["meta"]["digest"]
    assert pooled["meta"]["expected_digests"]["serial"] == serial["meta"]["digest"]


def test_perturbed_output_fails_the_check(tmp_path, monkeypatch):
    real = measure.outputs_of
    calls = []

    def perturbed(world):
        out = real(world)
        calls.append(1)
        if len(calls) == 2:  # the second pass of the run
            t, vm, res, cap = out["throttle_events"][0]
            out["throttle_events"][0] = (t, vm, res, cap * (1 + 1e-12))
        return out

    monkeypatch.setattr(measure, "outputs_of", perturbed)
    report = _bench("wide_contended", True, tmp_path)
    assert len(calls) == 2
    assert not report["result"]["correct"]
    assert report["result"]["failed"] == 1
    assert "differs" in report["failures"][0]


def test_pinned_digest_mismatch_fails(tmp_path, monkeypatch):
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps({"digests": {"wide": {"1": "0" * 16}}}))
    monkeypatch.setattr(measure, "DIGESTS", digests)
    report = run.bench("wide_contended", 1, 0.0, False, out_dir=tmp_path)
    assert not report["result"]["correct"]
    assert "pinned" in report["failures"][0]


def test_layer_self_times_add_up_to_the_traced_wall(tmp_path):
    for workload in ("mixed_jobs", "wide_contended_pooled"):
        tracer = Tracer()
        inputs = make_inputs(workload, 3, TINY[workload])
        with tracer:
            p = run_pass(inputs, deadline=float("inf"), tracer=tracer)
        assert p.failure is None
        lm = layer_metrics(tracer, p.wall_s)
        total = sum(lm[f"{layer}.self_s"] for layer in LAYERS)
        assert total + lm["unattributed_s"] == pytest.approx(p.wall_s, rel=1e-9)
        assert 0 <= lm["unattributed_s"] < 0.05 * p.wall_s
        own, calls, _ = tracer.self_times()
        assert (own >= -1e-9).all() and calls.sum() == len(tracer.names)


def test_tracer_restores_every_entry_point():
    before = {(cls, attr): cls.__dict__[attr] for cls, attr, _, _ in ENTRY_POINTS}
    with Tracer():
        assert all(cls.__dict__[attr] is not before[(cls, attr)]
                   for cls, attr, _, _ in ENTRY_POINTS)
    assert all(cls.__dict__[attr] is before[(cls, attr)]
               for cls, attr, _, _ in ENTRY_POINTS)


def test_inputs_follow_the_seed():
    for workload, sizes in TINY.items():
        a = make_inputs(workload, 5, sizes)
        assert a.digest() == make_inputs(workload, 5, sizes).digest()
        assert a.digest() != make_inputs(workload, 6, sizes).digest()


def test_ground_truth_scoring():
    inputs = make_inputs("wide_contended", 1, TINY["wide_contended"])
    truth = [a[0] for a in inputs.antagonists]
    outputs = {"jobs": [], "throttle_events": [
        (10.0, truth[0], "io", 0.5), (15.0, "low0001", "io", 0.5),
        (20.0, truth[0], "io", None)]}
    s = measure.score(inputs, outputs)
    assert s["throttle_actions"] == 2
    assert s["throttle_precision"] == 0.5
    assert s["antagonist_recall"] == 1 / len(truth)


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "mixed_jobs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_full_size_worlds_match_their_pinned_digests(workload, tmp_path):
    """The pinned and the held-out seed, full size: digest, serial ==
    pooled, and the non-vacuity guards (throttles on the wide worlds,
    tickets shipped on the pooled one) all hold."""
    spec = json.loads(measure.DIGESTS.read_text())
    for seed in (spec["pinned_seed"], spec["held_out_seed"]):
        assert measure.pinned_digest(workload, seed) is not None
        report = run.bench(workload, seed, 0.0, False, out_dir=tmp_path)
        assert report["result"]["correct"], report["failures"]
        assert "pinned" in report["meta"]["expected_digests"]
