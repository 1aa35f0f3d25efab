"""Repository benchmark: PerfCloud host time end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mixed_jobs --seed 1 --seconds 30 --trace 0

Workloads are defined in ``worlds.py``.  With ``--trace 0`` the run
repeats timed passes over the seed's world for ``--seconds`` seconds and
reports end-to-end metrics.  With ``--trace 1`` it runs the world once
untraced and once traced (``--seconds`` is not used), reports per-layer
metrics and writes the spans to ``perfbench/out/spans-<workload>.npz``.
Every pass's simulated outputs are digested and checked (see
``measure.py``).  A report (metadata, limitations, every metric with its
unit) is printed first; the last line of standard output is the result
object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up samples per run: every pass contributes one, and extra set-ups
#: (assemble + close, no run) follow each pass -- spread over the run so
#: the median does not hang on one moment of a shared machine -- and top
#: the count up at the end.
SETUP_SAMPLES = 15
SETUPS_PER_PASS = 3


def _load_program() -> None:
    """Put the checkout's ``src`` on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _limitations(cores: int) -> dict:
    return {
        "model_validation": (
            "The simulator has not been checked against hardware for these "
            "workloads, so no error figure is given for any simulated metric."),
        "pool_cores": (
            f"wide_contended_pooled steps its control plane through 2 shard "
            f"workers; this run had {cores} usable core(s), so the pool can "
            f"overlap at most that many processes."),
        "host_time": (
            "Host times come from a shared machine; wall_s sums the median "
            "pass interval by interval, set-up is a median of several."),
        "job_mix": (
            "mixed_jobs draws stratified Facebook-like mixes conditioned on "
            "nominal work and arrival span, so seeds vary the jobs but not "
            "the amount of work."),
    }


def _meta(workload, seed, inputs, seconds, trace) -> dict:
    import numpy

    affinity = sorted(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else []
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "input_hash": inputs.digest(),
        "nproc": os.cpu_count(), "cpu_affinity": affinity,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(),
        "limitations": _limitations(len(affinity) or os.cpu_count() or 1),
    }


def _check(passes, first, expect: dict, inputs, workers: int) -> list:
    """The output check and the non-vacuity guard, per pass; marks each
    failing pass and returns one line per failure."""
    from measure import score

    failures = []
    for i, p in enumerate(passes):
        if p.failure is None:
            wrong = [(k, d) for k, d in expect.items() if p.digest != d]
            if p.digest != first.digest:
                p.failure = "output differs from the first pass of this seed"
            elif wrong:
                p.failure = f"output digest {p.digest} != {wrong[0][0]} {wrong[0][1]}"
            elif inputs.contended and score(inputs, p.outputs)["throttle_actions"] <= 0:
                p.failure = "vacuous: no throttle action"
            elif workers and p.counters["tickets_shipped"] <= 0:
                p.failure = "vacuous: no ticket shipped to the shard pool"
        if p.failure:
            failures.append(f"pass {i}: {p.failure}")
    return failures


def bench(workload: str, seed: int, seconds: float, trace: bool,
          sizes: dict = None, out_dir: Path = None) -> dict:
    """One benchmark run; returns the report (``report["result"]`` is the
    result object, or None when no pass succeeded)."""
    from layers import Tracer, per_layer
    from measure import (TIME_CAP_S, PeakRss, TicketCounter, percentile,
                         pinned_digest, run_pass, score)
    from worlds import WORKLOADS, assemble, make_inputs

    deadline = time.perf_counter() + TIME_CAP_S
    family, workers = WORKLOADS[workload]
    inputs = make_inputs(workload, seed, sizes)
    rss = PeakRss()
    failures = []
    expect = {}
    pinned = pinned_digest(workload, seed) if sizes is None else None
    if pinned is not None:
        expect["pinned"] = pinned
    attempted = 0
    if workers:
        serial = next(w for w, (f, n) in WORKLOADS.items()
                      if f == family and n == 0)
        ref = run_pass(make_inputs(serial, seed, sizes), deadline=deadline,
                       rss=rss)
        attempted += 1
        if ref.failure:
            failures.append(f"serial reference: {ref.failure}")
        else:
            expect["serial"] = ref.digest

    passes = []
    setups = []
    tracer = Tracer() if trace else None

    def setup_once() -> float:
        gc.collect()
        t0 = time.perf_counter()
        world = assemble(inputs)
        took = time.perf_counter() - t0
        world.close()
        return took

    with TicketCounter() as tickets:
        def one(tr=None):
            p = run_pass(inputs, deadline=deadline, tracer=tr, rss=rss)
            p.counters.update(tickets.take())
            passes.append(p)
            return p

        if trace:
            one()
            with tracer:
                one(tracer)
        else:
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                if one().failure:
                    break
                setups += [setup_once() for _ in range(SETUPS_PER_PASS)]
                now = time.perf_counter()
                if now - start + (now - t0) > seconds:
                    break

    # Timings come from every pass that ran to the end, even one whose
    # output then fails the check (the failure is counted either way).
    done = [p for p in passes if p.outputs is not None]
    first = next((p for p in done if p.failure is None), done[0] if done else None)
    attempted += len(passes)
    failures += _check(passes, first, expect, inputs, workers)

    report = {"meta": _meta(workload, seed, inputs, seconds, int(trace)),
              "failures": failures, "result": None}
    if first is None or (trace and len(done) < 2):
        return report
    failed = len(failures)
    sim_scores = score(inputs, first.outputs)
    report["meta"].update(digest=first.digest, expected_digests=expect,
                          passes=len(passes))

    if not trace:
        setups += [p.setup_s for p in done]
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_once())
        n = min(len(p.intervals) for p in done)
        per_interval = [statistics.median(p.intervals[i] for p in done)
                        for i in range(n)]
        samples = [t for p in done for t in p.intervals]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (sum(per_interval), "s"),
            "interval_ms_p50": (1e3 * percentile(samples, 50), "ms"),
            "interval_ms_p90": (1e3 * percentile(samples, 90), "ms"),
            "peak_rss_mb": (rss.mb(), "MB"),
            "antagonist_recall": (sim_scores["antagonist_recall"], "ratio"),
            "throttle_precision": (sim_scores["throttle_precision"], "ratio"),
        }
        report["meta"].update(interval_samples=len(samples),
                              setup_samples=len(setups))
    else:
        metrics = per_layer(tracer, passes[-1], passes[0],
                            sim_scores["throttle_actions"])
        out_dir = out_dir or HERE / "out"
        out_dir.mkdir(exist_ok=True)
        # One file per workload, overwritten by its latest traced run.
        tracer.save(out_dir / f"spans-{workload}.npz", seed=seed)

    # Reported, not gated: they apply to one workload or can read 0.
    extra = {"error_rate": (failed / attempted, "ratio")}
    extra.update((k, (v, "s")) for k, v in sim_scores.items() if k.startswith("sim_"))
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["extra_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}
    report["result"] = {"correct": failed == 0, "attempted": attempted,
                        "failed": failed, "metrics": report["metrics"]}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    from worlds import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; know {sorted(WORKLOADS)}")
    report = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report.pop("result")
    print(json.dumps(report, indent=1, sort_keys=True))
    for failure in report["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    if result is None:
        print("perfbench: no pass succeeded; no result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
