"""Outside-in benchmark of the RichNote reproduction: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper-week --seed 1 --seconds 20 --trace 0

The workload is generated from ``--seed``; the pipeline is repeated until
``--seconds`` have passed (at least three times with ``--trace 0``), each
repetition from the seed to the aggregated metrics, and medians are reported.
With ``--trace 0``, a short set-up is also timed on its own between the
repetitions, for a steadier ``setup_s``.  After measuring, the outputs are
checked (see ``Workload.check``); every
repetition must also reproduce the same output fingerprint.

``--trace 0`` prints the end-to-end metrics.  Their times are seconds at a
fixed reference speed of the host: a speed probe (:mod:`perfbench.hostspeed`)
runs every 10 ms and restates each timed interval's wall time at that speed,
so that the shared host's changes of speed do not show as changes of the
program.  The wall times themselves go to the notes.  ``--trace 1`` alternates
untraced and traced repetitions: the traced ones wrap each layer's public
functions in ``perf_counter`` spans (:mod:`perfbench.tracing`) and give
the per-layer metrics, the untraced ones give the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
start with ``#`` and state the host fingerprint and sample counts.  Each run
also writes its result, and in trace mode its spans, under
``perfbench/out/``.  The exit code is 0 when every check passed, 1 when a
check failed and 2 when the program's sources are not found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

#: Untraced repetitions made even when ``--seconds`` has already passed.
MIN_REPETITIONS = 3

#: Set-up samples wanted for ``setup_s``.  Before each untraced pipeline
#: repetition after the first, set-up is timed on its own up to
#: ``SETUP_BURST`` times, until there are this many samples, as long as
#: those set-ups stay within ``SETUP_SHARE`` of the time measured so far.
#: Spreading them over the run matters: the host's speed changes from one
#: second to the next, so samples taken back to back move together.
SETUP_SAMPLES = 9
SETUP_BURST = 3
SETUP_SHARE = 0.25

#: ``(name, unit)`` of the metrics printed with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("user_weeks_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p95_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Span self times reported per layer, as ``(metric, span name)``.
SELF_TIMES = (
    ("trace.generate_s", "trace.generate"),
    ("ml.train_self_s", "ml.train"),
    ("ml.training_set_s", "ml.training_set"),
    ("ml.fit_s", "ml.fit"),
    ("ml.features_s", "ml.features"),
    ("ml.predict_s", "ml.predict"),
    ("sim.device_columns_s", "sim.device_columns"),
    ("experiments.build_cohort_s", "experiments.build_cohort"),
    ("experiments.fold_s", "experiments.fold"),
    ("experiments.compute_user_metrics_s", "experiments.compute_user_metrics"),
    ("experiments.sweep_self_s", "experiments.sweep"),
    ("runtime.make_engine_s", "runtime.make_engine"),
    ("runtime.engine_self_s", "runtime.rounds"),
    ("runtime.select_s", "runtime.select"),
    ("runtime.adjust_s", "runtime.adjust"),
    ("runtime.replenish_s", "runtime.replenish"),
    ("runtime.merge_s", "runtime.merge"),
    ("runtime.roundloop.select_s", "runtime.roundloop.select"),
    ("runtime.roundloop.ingest_s", "runtime.roundloop.ingest"),
    ("runtime.roundloop.deliver_s", "runtime.roundloop.deliver"),
    ("service.setup_s", "service.setup"),
    ("service.self_s", "service.session"),
)

#: Inclusive span times (the span plus everything under it).
TOTAL_TIMES = (
    ("runtime.rounds_s", "runtime.rounds"),
    ("runtime.roundloop.round_s", "runtime.roundloop.round"),
)

#: Layer entry counts (rows for ``ml.predict``).
CALL_COUNTS = (
    ("ml.predict_rows", "ml.predict"),
    ("runtime.select_calls", "runtime.select"),
    ("runtime.roundloop.round_calls", "runtime.roundloop.round"),
)

#: Counters read off the program's objects (``Workload.layer_counts``).
OBJECT_COUNTS = (
    ("experiments.deliveries_folded", "count"),
    ("runtime.merge_cache_hit_ratio", "ratio"),
    ("service.admitted", "count"),
    ("service.shed_queue_full", "count"),
    ("service.shed_overload", "count"),
    ("service.readmitted", "count"),
    ("service.dead_lettered", "count"),
    ("service.refused_frac", "ratio"),
    ("service.sink_attempts", "count"),
    ("service.sink_retries", "count"),
    ("service.sink_success_ratio", "ratio"),
    ("service.pressure_transitions", "count"),
    ("service.queue_high_water", "count"),
)

#: ``(name, unit)`` of the metrics printed with ``--trace 1``.
PER_LAYER = (
    tuple((name, "s") for name, _ in SELF_TIMES + TOTAL_TIMES)
    + tuple((name, "count") for name, _ in CALL_COUNTS)
    + OBJECT_COUNTS
    + (
        ("round_p50_ms", "ms"),
        ("round_p90_ms", "ms"),
        ("bench.unaccounted_s", "s"),
        ("bench.tracing_overhead_s", "s"),
    )
)


def host_fingerprint() -> dict:
    """What a result may only be compared against: same cores, CPU and stack."""
    import numpy
    from repro.experiments.pool import available_cores

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": available_cores(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure(workload, seconds: float, trace: bool, probe=None):
    """Repeat the pipeline for ``seconds``.

    Returns the untraced runs, the traced runs and every set-up time.  Only
    the last run of each kind keeps its outputs; the others keep their
    timings and fingerprints.  With an installed ``probe``
    (:class:`~perfbench.hostspeed.SpeedProbe`), the untraced runs' times and
    the set-up times are at the reference speed.
    """
    from perfbench.tracing import Tracer

    untraced, traced, setup_s = [], [], []
    setup_only_s = 0.0
    start = time.perf_counter()
    while True:
        # Drop the previous run's outputs first, so that none is live while
        # the next pipeline or set-up runs and peak memory is one pipeline's.
        if untraced:
            untraced[-1].output = None
        if not trace and setup_s:
            budget = SETUP_SHARE * (time.perf_counter() - start) - setup_only_s
            setup_only_s += sample_setup(workload, setup_s, budget, probe)
        gc.collect()
        untraced.append(at_reference_speed(workload.pipeline(), probe))
        setup_s.append(untraced[-1].setup_s)
        if trace:
            if traced:
                traced[-1][0].output = None
            gc.collect()
            tracer = Tracer()
            with tracer.installed():
                run = workload.pipeline(tracer)
            traced.append((run, tracer))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (trace or len(untraced) >= MIN_REPETITIONS):
            return untraced, traced, setup_s


def at_reference_speed(run, probe):
    """``run`` with its times restated by ``probe``, the wall time kept aside."""
    if probe is None:
        return run
    setup_end = run.start + run.setup_s
    end = run.start + run.pipeline_s
    return replace(
        run,
        setup_s=probe.reference_seconds(run.start, setup_end),
        simulate_s=probe.reference_seconds(setup_end, end),
        pipeline_s=probe.reference_seconds(run.start, end),
        wall_s=run.pipeline_s,
    )


def sample_setup(workload, samples: list[float], budget: float, probe=None) -> float:
    """Time set-up on its own, appending to ``samples``; returns the time spent."""
    spent = 0.0
    for _ in range(SETUP_BURST):
        if len(samples) >= SETUP_SAMPLES or spent + statistics.median(samples) > budget:
            break
        gc.collect()
        tick = time.perf_counter()
        workload.setup()
        tock = time.perf_counter()
        samples.append(tock - tick if probe is None else probe.reference_seconds(tick, tock))
        spent += tock - tick
    return spent


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def verify(workload, untraced, traced) -> tuple[int, list[str]]:
    """Check the last run's outputs and that every repetition agrees."""
    attempted, failures = workload.check(untraced[-1])
    reference = untraced[-1].fingerprint
    for label, runs in (("untraced", untraced), ("traced", [r for r, _ in traced])):
        for index, run in enumerate(runs):
            attempted += 1
            if run.fingerprint != reference:
                failures.append(f"{label} repetition {index} changed the outputs")
    return attempted, failures


def end_to_end_metrics(
    workload, untraced, setup_samples: list[float], rss_mb: float
) -> tuple[dict, dict]:
    from repro.service.health import quantile

    last = untraced[-1]
    user_weeks, events = workload.work(last)
    simulate_s = statistics.median(run.simulate_s for run in untraced)
    latencies = workload.latencies(last)
    values = {
        "setup_s": statistics.median(setup_samples),
        "pipeline_s": statistics.median(run.pipeline_s for run in untraced),
        "user_weeks_per_s": user_weeks / simulate_s,
        "events_per_s": events / simulate_s,
        "latency_p50_s": quantile(latencies, 0.50),
        "latency_p95_s": quantile(latencies, 0.95),
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "repetitions": len(untraced),
        "pipeline_s_each": [run.pipeline_s for run in untraced],
        "pipeline_wall_s_each": [run.wall_s for run in untraced],
        "setup_s_each": setup_samples,
        "simulate_s_each": [run.simulate_s for run in untraced],
        "latency_samples": len(latencies),
        "user_weeks": user_weeks,
        "events": events,
    }
    return values, notes


def per_layer_metrics(workload, untraced, traced) -> tuple[dict, dict]:
    from repro.service.health import quantile

    n = len(traced)
    totals: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    unaccounted = 0.0
    for run, tracer in traced:
        for name, entry in tracer.summary().items():
            slot = totals.setdefault(name, {"total": 0.0, "self": 0.0})
            slot["total"] += entry["total"] / n
            slot["self"] += entry["self"] / n
        for name, count in tracer.counts.items():
            counts[name] = counts.get(name, 0.0) + count / n
        unaccounted += (run.pipeline_s - tracer.top_level_seconds()) / n
    values = {}
    for metric, span in SELF_TIMES:
        values[metric] = totals.get(span, {}).get("self", 0.0)
    for metric, span in TOTAL_TIMES:
        values[metric] = totals.get(span, {}).get("total", 0.0)
    for metric, span in CALL_COUNTS:
        values[metric] = counts.get(span, 0.0)
    objects = workload.layer_counts(traced[-1][0])
    for metric, _ in OBJECT_COUNTS:
        values[metric] = objects.get(metric, 0.0)
    rounds = [s for run in untraced for s in run.round_s]
    values["round_p50_ms"] = quantile(rounds, 0.50) * 1e3
    values["round_p90_ms"] = quantile(rounds, 0.90) * 1e3
    values["bench.unaccounted_s"] = unaccounted
    values["bench.tracing_overhead_s"] = statistics.median(
        run.pipeline_s for run, _ in traced
    ) - statistics.median(run.pipeline_s for run in untraced)
    notes = {
        "traced_repetitions": n,
        "round_samples": len(rounds),
        "traced_pipeline_s": statistics.median(run.pipeline_s for run, _ in traced),
        "self_s": {name: slot["self"] for name, slot in sorted(totals.items())},
    }
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: program sources not found under {src}", file=sys.stderr)
        return 2
    # One process on one core: keep numpy's BLAS pool from adding threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [src, ROOT]
    from perfbench.hostspeed import SpeedProbe
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    # The traced run reports wall times: a probe would add its own time to
    # whichever span it interrupts.
    probe = None if args.trace else SpeedProbe()
    with probe.installed() if probe else nullcontext():
        untraced, traced, setup_s = measure(
            workload, args.seconds, bool(args.trace), probe
        )
    if args.trace:
        metrics, notes = per_layer_metrics(workload, untraced, traced)
        units = dict(PER_LAYER)
    else:
        metrics, notes = end_to_end_metrics(workload, untraced, setup_s, peak_rss_mb())
        notes["speed_probe"] = probe.summary()
        units = dict(END_TO_END)
    attempted, failures = verify(workload, untraced, traced)
    host = host_fingerprint()
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    header = {"host": host, "workload": args.workload, "seed": args.seed, "notes": notes}
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({**header, "failures": failures, **result}, handle, indent=1)
    if traced:
        traced[-1][1].write(stem + "-spans.jsonl", header)
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    print(f"# host {json.dumps(host, sort_keys=True)}")
    print(f"# {args.workload} seed {args.seed}: {json.dumps(notes, sort_keys=True)}")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
