"""Checkpoint-resume: a killed run re-executes zero completed tasks.

The tier-1 test SIGKILLs a real supervised run mid-flight in a child
process and proves the resumed parent-side run never re-executes a
task the manifest recorded.  The scenario-marked test does the same
through the `repro scenarios --resume` CLI against the quick corpus —
the acceptance criterion from docs/ROBUSTNESS.md verbatim.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.cache import ResultCache, task_key
from repro.resilience import Checkpoint

pytestmark = pytest.mark.timeout(300)

SRC = str(Path(__file__).resolve().parents[2] / "src")

_CHILD = """
import sys, time
from pathlib import Path
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import run_many_report
from repro.resilience import Checkpoint, SupervisorPolicy

base = Path(sys.argv[1])

def runner(x):
    time.sleep(0.1)
    return x * x

cache = ResultCache(base / "cache")
with Checkpoint(base / "manifest", run_id="kill-test", total=40) as cp:
    run_many_report(
        list(range(40)), runner, workers=0, policy=SupervisorPolicy(),
        cache=cache, checkpoint=cp,
    )
"""


def _wait_for_records(manifest: Path, minimum: int, deadline_s: float) -> int:
    deadline = time.time() + deadline_s
    while time.time() < deadline:
        loaded = Checkpoint.load(manifest)
        if loaded is not None and len(loaded["keys"]) >= minimum:
            return len(loaded["keys"])
        time.sleep(0.02)
    raise AssertionError(
        f"child never recorded {minimum} tasks within {deadline_s}s"
    )


def test_sigkilled_run_resumes_without_reexecuting_finished_tasks(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(tmp_path)], env=env,
    )
    try:
        _wait_for_records(tmp_path / "manifest", minimum=5, deadline_s=60.0)
    finally:
        child.kill()
        child.wait(timeout=30.0)

    survivors = set(Checkpoint.load(tmp_path / "manifest")["keys"])
    assert len(survivors) >= 5
    assert len(survivors) < 40  # genuinely mid-flight

    # Resume in this process, logging what actually executes.
    executed_log = []

    def runner(x):
        executed_log.append(x)
        return x * x

    from repro.experiments.parallel import run_many_report
    from repro.resilience import SupervisorPolicy

    cache = ResultCache(tmp_path / "cache")
    with Checkpoint(tmp_path / "manifest", run_id="kill-test",
                    total=40) as cp:
        resumed = len(cp)
        report = run_many_report(
            list(range(40)), runner, workers=0, policy=SupervisorPolicy(),
            cache=cache, checkpoint=cp,
        )
        assert len(cp) == 40

    assert resumed == len(survivors)
    assert report.results == [x * x for x in range(40)]
    # The acceptance criterion: zero recorded tasks re-executed.
    reexecuted = {task_key(x) for x in executed_log} & survivors
    assert reexecuted == set()
    assert report.executed == len(executed_log)
    assert report.cached >= resumed


def test_mismatched_run_id_starts_clean_rather_than_skipping(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    with Checkpoint(tmp_path / "manifest", run_id="grid-a") as cp:
        cp.record(task_key(1))
    # Same manifest path, different logical run (changed grid/code):
    # nothing may be inherited.
    with Checkpoint(tmp_path / "manifest", run_id="grid-b") as cp:
        assert len(cp) == 0


@pytest.mark.scenarios
def test_scenarios_cli_resume_reexecutes_zero_completed_tasks(tmp_path):
    """Kill `repro scenarios` mid-corpus; `--resume` must replay every
    recorded task from the cache and re-execute none of them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    manifest = tmp_path / "corpus.manifest"
    cache_dir = tmp_path / "cache"
    cmd = [
        sys.executable, "-m", "repro", "scenarios", "--quick",
        "--workers", "1", "--cache-dir", str(cache_dir),
        "--resume", str(manifest),
    ]
    child = subprocess.Popen(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        _wait_for_records(manifest, minimum=1, deadline_s=240.0)
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30.0)

    survivors = set(Checkpoint.load(manifest)["keys"])
    assert len(survivors) >= 1

    from repro.scenarios import filter_scenarios, load_corpus, run_corpus

    specs = filter_scenarios(load_corpus(), ["tag:quick"])
    result = run_corpus(
        specs, workers=1, cache_dir=str(cache_dir),
        resume=str(manifest),
    )
    # The recorded keys were adopted and replayed from the cache —
    # zero completed tasks re-executed.
    assert result.resumed == len(survivors)
    assert result.cached >= result.resumed
    total_tasks = result.executed + result.cached
    assert result.executed <= total_tasks - len(survivors)
    # The finished corpus has every task recorded for the next resume.
    loaded = Checkpoint.load(manifest)
    assert len(loaded["keys"]) == total_tasks
