"""The benchmark's own tests: tiny smoke runs and tampered-output checks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run as bench  # noqa: E402
from perfbench.hostspeed import REFERENCE_S, SpeedProbe  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    FigureSweep,
    MultichannelMarkov,
    PaperWeek,
    ServiceFlashCrowd,
)

SEED = 3


def tiny(name: str):
    """Each workload at a size that runs in a few seconds."""
    return {
        "paper-week": lambda: PaperWeek(SEED, users=12, sample=3),
        "figure-sweep": lambda: FigureSweep(SEED, users=1),
        "multichannel-markov": lambda: MultichannelMarkov(SEED, users=12, sample=3),
        "service-flash-crowd": lambda: ServiceFlashCrowd(
            SEED, users=6, rounds=3, sessions=1
        ),
    }[name]()


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def measured(request):
    workload = tiny(request.param)
    untraced, traced, _ = bench.measure(workload, seconds=0.0, trace=True)
    return workload, untraced, traced


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)


def test_every_metric_is_emitted_with_its_unit(measured):
    workload, untraced, traced = measured
    attempted, failures = bench.verify(workload, untraced, traced)
    assert attempted > 0 and failures == []
    setup_s = [run.setup_s for run in untraced]
    end_to_end, _ = bench.end_to_end_metrics(
        workload, untraced, setup_s, bench.peak_rss_mb()
    )
    assert set(end_to_end) == {name for name, _ in bench.END_TO_END}
    assert all(value > 0 for value in end_to_end.values())
    per_layer, notes = bench.per_layer_metrics(workload, untraced, traced)
    assert set(per_layer) == {name for name, _ in bench.PER_LAYER}
    # The breakdown adds up: self times plus the gap give the traced wall.
    total = sum(notes["self_s"].values()) + per_layer["bench.unaccounted_s"]
    assert total == pytest.approx(notes["traced_pipeline_s"], rel=1e-6)


def test_tracing_leaves_the_program_as_it_was(measured):
    from repro.runtime import kernels
    from repro.runtime.loop import RoundLoop

    _, untraced, traced = measured
    assert {run.fingerprint for run in untraced} == {
        run.fingerprint for run, _ in traced
    }
    assert not hasattr(kernels.greedy_select, "__wrapped__")
    assert not hasattr(RoundLoop.run_round, "__wrapped__")


def test_tampered_digest_fails_the_check():
    workload = tiny("paper-week")
    run = workload.pipeline()
    outcome = run.output["outcomes"][0]
    outcome.delivery_digest = "0" * 64
    _, failures = workload.check(run)
    assert any("digest" in failure for failure in failures)


def test_tampered_ledger_fails_the_check():
    workload = tiny("multichannel-markov")
    run = workload.pipeline()
    run.output["result"].final_queue_length[0] += 1
    _, failures = workload.check(run)
    assert any("records" in failure for failure in failures)


def test_tampered_service_ledger_fails_the_check():
    workload = tiny("service-flash-crowd")
    run = workload.pipeline()
    run.output["sessions"][0]["accounting"]["error"] = 1
    _, failures = workload.check(run)
    assert any("conservation" in failure for failure in failures)


def test_changed_repetition_fails_verification():
    workload = tiny("service-flash-crowd")
    untraced, traced, _ = bench.measure(workload, seconds=0.0, trace=False)
    untraced[0].fingerprint = "tampered"
    _, failures = bench.verify(workload, untraced, traced)
    assert failures


def test_short_setup_is_also_timed_on_its_own():
    workload = tiny("service-flash-crowd")
    untraced, _, setup_s = bench.measure(workload, seconds=0.0, trace=False)
    assert len(untraced) == bench.MIN_REPETITIONS
    assert len(untraced) < len(setup_s) <= bench.SETUP_SAMPLES


def test_reference_seconds_scale_wall_time_by_probe_speed():
    probe = SpeedProbe()
    probe.starts = [0.00, 0.01, 0.02, 0.03]
    probe.durations = [REFERENCE_S, REFERENCE_S, REFERENCE_S / 2, REFERENCE_S / 2]
    # Probes at 0.01 and 0.02 are inside; those at 0.00 and 0.03 border it.
    busy = 0.02 - REFERENCE_S - REFERENCE_S / 2
    assert probe.reference_seconds(0.005, 0.025) == pytest.approx(busy * 1.5)
    # A probe twice as fast as the reference doubles the time.
    assert probe.reference_seconds(0.021, 0.029) == pytest.approx(0.008 * 2)


def test_probed_runs_keep_their_wall_time_aside():
    import signal

    workload = tiny("multichannel-markov")
    probe = SpeedProbe()
    with probe.installed():
        untraced, _, setup_s = bench.measure(workload, 0.0, False, probe)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.durations) > 0
    for run in untraced:
        assert run.wall_s > 0 and run.pipeline_s > 0
        assert run.setup_s + run.simulate_s == pytest.approx(run.pipeline_s, rel=0.2)
    assert all(value > 0 for value in setup_s)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-week",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
