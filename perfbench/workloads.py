"""The benchmark's four workloads, each built from a seed.

Every workload runs its whole pipeline through the program's public entry
points and returns a :class:`Run`: the set-up, simulate and pipeline wall
times, a fingerprint of everything it produced, and the outputs that
:meth:`Workload.check` verifies.  The set-up phase is also callable on its
own (:meth:`Workload.setup`), so that its time can be sampled more often
than the whole pipeline runs.  A workload is deterministic in its seed,
so every repetition of a run must produce the same fingerprint.

Spans: when a :class:`~perfbench.tracing.Tracer` is passed, the pipeline
opens its own top-level spans (``trace.generate``, ``ml.train``,
``experiments.sweep``, ``service.setup``, ``service.session``); the layer
wrappers the tracer installed nest inside them.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from repro.core.channels import ChannelSet, builtin_channel
from repro.core.presentations import build_audio_ladder
from repro.experiments import columnar as xcol
from repro.experiments import runner
from repro.experiments.config import (
    MB,
    PAPER_BUDGET_SWEEP_MB,
    ExperimentConfig,
    Method,
    MethodSpec,
    NetworkMode,
)
from repro.experiments.figures import figure3_and_4, paper_method_specs
from repro.experiments.metrics import aggregate
from repro.experiments.scale import _AdapterPathModel
from repro.experiments.workloads import workload_spec
from repro.service.chaos import FlakySink, FlashCrowdScenario
from repro.service.clock import SimulatedClock
from repro.service.harness import (
    _SALT_SINK,
    DemoConfig,
    _stream_seed,
    build_item_factory,
    build_loop_factory,
)
from repro.service.server import NotificationService
from repro.trace import generator

WEEK_SECONDS = 168 * 3600.0


@dataclass
class Run:
    """One pipeline execution."""

    setup_s: float
    simulate_s: float
    pipeline_s: float
    fingerprint: str
    output: dict
    #: Wall seconds of each single-stepped engine round (paper-week only).
    round_s: list[float] = field(default_factory=list)
    #: ``perf_counter`` reading at which the pipeline started.
    start: float = 0.0
    #: Wall seconds of the pipeline, when the times above are at the
    #: reference speed (see ``perfbench.hostspeed``); else 0.
    wall_s: float = 0.0


def _digest(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
    return digest.hexdigest()


def _sample_indices(n: int, k: int) -> list[int]:
    """``k`` indices spread evenly over ``range(n)`` (all of them if n <= k)."""
    if n <= k:
        return list(range(n))
    return [i * n // k for i in range(k)]


def budget_exceeded(deliveries, billed, theta: float, round_seconds: float) -> bool:
    """Whether cumulative billed bytes ever pass the rolled-over allowance.

    The data budget starts empty and gains ``theta`` at the start of every
    round (Algorithm 2, step 2), so after the round at time ``t`` at most
    ``theta * t / round_seconds`` bytes may have been spent.
    """
    spent = 0.0
    for delivery, cost in zip(deliveries, billed):
        spent += cost
        allowance = theta * round(delivery[0] / round_seconds)
        if spent > allowance * (1 + 1e-9) + 1e-6:
            return True
    return False


class Workload:
    """Interface shared by the four workloads."""

    name = ""

    def setup(self, tracer=None):
        """Prepare the pipeline's inputs from the seed; returns them."""
        raise NotImplementedError

    def pipeline(self, tracer=None) -> Run:
        raise NotImplementedError

    def check(self, run: Run) -> tuple[int, list[str]]:
        """``(checks attempted, failure messages)`` for one run's outputs."""
        raise NotImplementedError

    def work(self, run: Run) -> tuple[float, float]:
        """``(simulated user-weeks, events)`` processed by the simulate phase."""
        raise NotImplementedError

    def latencies(self, run: Run) -> list[float]:
        """Notification latencies in simulated seconds."""
        raise NotImplementedError

    def layer_counts(self, run: Run) -> dict[str, float]:
        """Per-layer counters read off the program's own objects."""
        return {}


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


# -- cohort workloads on the columnar engine ------------------------------------


class _Cohort(Workload):
    """Shared shape of paper-week and multichannel-markov."""

    channels: ChannelSet | None = None
    single_step = False

    def __init__(self, seed: int, users: int, config: ExperimentConfig, sample: int):
        self.seed = seed
        self.users = users
        self.config = config
        self.sample = sample
        self.trace_config = generator.TraceConfig(seed=seed)
        self.duration = self.trace_config.duration_hours * 3600.0
        self.spec = MethodSpec(Method.RICHNOTE)
        self.ladder = build_audio_ladder(config.presentation_spec)

    def annotate(self, workload) -> runner.UtilityAnnotations:
        raise NotImplementedError

    def setup(self, tracer=None):
        with _span(tracer, "trace.generate"):
            pairs = [
                (user, records)
                for user, records in generator.iter_users(self.users, self.trace_config)
                if records
            ]
        records = [record for _, rs in pairs for record in rs]
        trace = generator.Workload(
            catalog=None,
            graph=None,
            subscriptions=None,
            records=records,
            config=self.trace_config,
        )
        with _span(tracer, "ml.train"):
            annotations = self.annotate(trace)
        return pairs, annotations

    def pipeline(self, tracer=None) -> Run:
        start = time.perf_counter()
        pairs, annotations = self.setup(tracer)
        simulate_start = time.perf_counter()
        columns = xcol.build_cohort(pairs, annotations, self.ladder)
        engine = xcol.make_engine(
            columns, self.spec, self.config, self.duration, channels=self.channels
        )
        round_s = []
        if self.single_step:
            for _ in range(len(engine.times)):
                tick = time.perf_counter()
                result = engine.run(limit_rounds=1)
                round_s.append(time.perf_counter() - tick)
        else:
            result = engine.run()
        outcomes = xcol.fold_outcomes(columns, result, digest_deliveries=True)
        summary = aggregate([outcome.metrics for outcome in outcomes])
        end = time.perf_counter()
        fingerprint = _digest(
            [(o.metrics.user_id, o.delivery_digest) for o in outcomes], summary
        )
        return Run(
            setup_s=simulate_start - start,
            simulate_s=end - simulate_start,
            pipeline_s=end - start,
            start=start,
            fingerprint=fingerprint,
            output={
                "pairs": pairs,
                "annotations": annotations,
                "columns": columns,
                "result": result,
                "outcomes": outcomes,
                "engine": engine,
            },
            round_s=round_s,
        )

    def twins(self, run: Run, indices: list[int]) -> list:
        """Per-user outcomes of an independent engine path for ``indices``."""
        raise NotImplementedError

    def billed(self, result, index: int) -> list[float]:
        return [delivery[3] for delivery in result.deliveries[index]]

    def check(self, run: Run) -> tuple[int, list[str]]:
        out = run.output
        columns, result, outcomes = out["columns"], out["result"], out["outcomes"]
        failures: list[str] = []
        attempted = 0
        theta = self.config.theta_bytes_per_round
        for index, records in enumerate(columns.records):
            user = columns.user_ids[index]
            delivered = len(result.deliveries[index])
            queued = int(result.final_queue_length[index])
            attempted += 2
            if delivered + queued != len(records) or (
                outcomes[index].metrics.delivered_notifications != delivered
            ):
                failures.append(
                    f"user {user}: delivered {delivered} + queued {queued} "
                    f"!= {len(records)} records"
                )
            if budget_exceeded(
                result.deliveries[index],
                self.billed(result, index),
                theta,
                self.config.round_seconds,
            ):
                failures.append(f"user {user}: weekly data budget exceeded")
        indices = _sample_indices(len(outcomes), self.sample)
        for index, twin in zip(indices, self.twins(run, indices)):
            attempted += 1
            mine = outcomes[index]
            if (twin.delivery_digest, twin.metrics) != (
                mine.delivery_digest,
                mine.metrics,
            ):
                failures.append(
                    f"user {mine.metrics.user_id}: delivery digest differs "
                    "from its twin"
                )
        return attempted, failures

    def work(self, run: Run) -> tuple[float, float]:
        columns = run.output["columns"]
        weeks = len(columns.user_ids) * self.duration / WEEK_SECONDS
        return weeks, float(columns.cohort.n_items)

    def latencies(self, run: Run) -> list[float]:
        created = run.output["columns"].cohort.created_at
        return [
            delivery[0] - float(created[delivery[1]])
            for deliveries in run.output["result"].deliveries
            for delivery in deliveries
        ]

    def layer_counts(self, run: Run) -> dict[str, float]:
        engine = run.output["engine"]
        lookups = engine.merge_cache_hits + engine.merge_cache_misses
        return {
            "experiments.deliveries_folded": float(
                sum(len(d) for d in run.output["result"].deliveries)
            ),
            "runtime.merge_cache_hit_ratio": (
                engine.merge_cache_hits / lookups if lookups else 0.0
            ),
        }


class PaperWeek(_Cohort):
    """The paper's section V week: forest U_c, RichNote push-only, 168 stepped rounds."""

    name = "paper-week"
    single_step = True

    def __init__(self, seed: int, users: int = 2000, sample: int = 25):
        super().__init__(seed, users, ExperimentConfig(seed=seed), sample)

    def annotate(self, workload) -> runner.UtilityAnnotations:
        return runner.UtilityAnnotations.train(workload, seed=self.seed)

    def twins(self, run: Run, indices: list[int]) -> list:
        out = run.output
        pairs, annotations = out["pairs"], out["annotations"]
        return [
            runner.run_user(
                pairs[i][0],
                pairs[i][1],
                self.spec,
                self.config,
                annotations,
                self.duration,
                ladder=self.ladder,
                digest_deliveries=True,
            )
            for i in indices
        ]


class MultichannelMarkov(_Cohort):
    """Joint channel x level selection over the Markov network, merge cache live."""

    name = "multichannel-markov"

    def __init__(self, seed: int, users: int = 1000, sample: int = 20):
        config = ExperimentConfig(
            seed=seed,
            weekly_budget_mb=1.0,
            network_mode=NetworkMode.MARKOV,
            aging_tau_seconds=None,
        )
        super().__init__(seed, users, config, sample)
        self.channels = ChannelSet(
            [builtin_channel("push"), builtin_channel("inapp"), builtin_channel("email")]
        )
        self._by_name = {channel.name: channel for channel in self.channels}

    def annotate(self, workload) -> runner.UtilityAnnotations:
        return runner.UtilityAnnotations.train(workload, seed=self.seed, oracle=True)

    def billed(self, result, index: int) -> list[float]:
        names = result.channel_names
        return [
            self._by_name[names[code]].cost.billed_bytes(delivery[3])
            for delivery, code in zip(
                result.deliveries[index], result.channel_codes[index]
            )
        ]

    def twins(self, run: Run, indices: list[int]) -> list:
        out = run.output
        pairs = [out["pairs"][i] for i in indices]
        columns = xcol.build_cohort(
            pairs, out["annotations"], self.ladder, materialize_items=True
        )
        engine = xcol.make_engine(
            columns,
            self.spec,
            self.config,
            self.duration,
            channels=self.channels,
            utility_model=_AdapterPathModel(aging=None),
        )
        if engine.selection_path != "adapter":
            raise RuntimeError("the twin engine did not take the adapter path")
        return xcol.fold_outcomes(columns, engine.run(), digest_deliveries=True)


# -- the Figures 3-4 grid on the scalar round loop ------------------------------


class FigureSweep(Workload):
    """The Figures 3-4 grid on the scalar round loop."""

    name = "figure-sweep"

    def __init__(self, seed: int, users: int = 6):
        self.seed = seed
        self.users = users
        # The medium preset's world (catalog + social graph) is fixed; the
        # seed drives the week of publications, fan-out times and labels,
        # so the trace size barely moves from seed to seed.
        base = workload_spec("medium")
        self.workload_spec = replace(base, trace=replace(base.trace, seed=seed))
        self.config = ExperimentConfig(seed=seed)
        self.specs = paper_method_specs()
        self.budgets = PAPER_BUDGET_SWEEP_MB

    def pick_users(self, trace) -> list[int]:
        """One user per volume quantile, from the lightest to the heaviest.

        The full grid is the heaviest part of the run, so it replays a few
        users rather than all sixty.  Ranking the users by weekly volume
        and taking evenly spaced ranks keeps the population's mix, the
        heaviest user with the longest queue included.
        """
        counts: dict[int, int] = {}
        for record in trace.records:
            counts[record.recipient_id] = counts.get(record.recipient_id, 0) + 1
        ranked = sorted(counts, key=lambda u: (counts[u], u))
        if len(ranked) <= self.users:
            return sorted(ranked)
        step = (len(ranked) - 1) / max(self.users - 1, 1)
        return sorted(ranked[round(i * step)] for i in range(self.users))

    def setup(self, tracer=None):
        with _span(tracer, "trace.generate"):
            trace = generator.build_workload(self.workload_spec)
        with _span(tracer, "ml.train"):
            annotations = runner.UtilityAnnotations.train(trace, seed=self.seed)
        return trace, annotations, self.pick_users(trace)

    def pipeline(self, tracer=None) -> Run:
        start = time.perf_counter()
        trace, annotations, users = self.setup(tracer)
        simulate_start = time.perf_counter()
        with _span(tracer, "experiments.sweep"):
            grid = runner.sweep_budgets(
                trace, self.specs, self.budgets, self.config, annotations, users
            )
        series = figure3_and_4(
            trace,
            self.budgets,
            self.config,
            annotations,
            users,
            self.specs,
            grid=grid,
        )
        end = time.perf_counter()
        fingerprint = _digest(
            [
                (key, [(o.metrics, o.final_queue_length) for o in cell.per_user])
                for key, cell in grid.items()
            ],
            {name: s.series for name, s in series.items()},
        )
        return Run(
            setup_s=simulate_start - start,
            simulate_s=end - simulate_start,
            pipeline_s=end - start,
            start=start,
            fingerprint=fingerprint,
            output={
                "trace": trace,
                "annotations": annotations,
                "users": users,
                "grid": grid,
            },
        )

    def check(self, run: Run) -> tuple[int, list[str]]:
        out = run.output
        trace, users, grid = out["trace"], out["users"], out["grid"]
        volume = {user: 0 for user in users}
        for record in trace.records:
            if record.recipient_id in volume:
                volume[record.recipient_id] += 1
        failures: list[str] = []
        attempted = 0
        for (label, budget), cell in grid.items():
            attempted += 1
            if [o.metrics.user_id for o in cell.per_user] != users:
                failures.append(f"{label}@{budget}: users missing from the cell")
            for outcome in cell.per_user:
                metrics = outcome.metrics
                where = f"{label}@{budget} user {metrics.user_id}"
                attempted += 2
                if not (
                    metrics.delivered_notifications + outcome.final_queue_length
                    == metrics.total_notifications
                    == volume.get(metrics.user_id)
                ):
                    failures.append(f"{where}: notifications not conserved")
                if metrics.delivered_bytes > budget * MB * (1 + 1e-9):
                    failures.append(f"{where}: weekly data budget exceeded")
        spec = self.specs[0]
        budget = self.config.weekly_budget_mb
        columnar = xcol.run_experiment_columnar(
            trace, spec, self.config, out["annotations"], users
        )
        scalar = grid[(spec.label, budget)]
        attempted += 1
        if columnar.aggregate != scalar.aggregate or [
            (o.metrics, o.final_queue_length) for o in columnar.per_user
        ] != [(o.metrics, o.final_queue_length) for o in scalar.per_user]:
            failures.append(f"{spec.label}@{budget}: columnar cell differs from scalar")
        return attempted, failures

    def work(self, run: Run) -> tuple[float, float]:
        grid = run.output["grid"]
        weeks = sum(
            len(cell.per_user) * cell.config.round_seconds * 168 / WEEK_SECONDS
            for cell in grid.values()
        )
        events = sum(
            o.metrics.total_notifications for cell in grid.values() for o in cell.per_user
        )
        return weeks, float(events)

    def latencies(self, run: Run) -> list[float]:
        # The scalar sweep keeps one mean queuing delay per (cell, user).
        return [
            o.metrics.mean_queuing_delay_s
            for cell in run.output["grid"].values()
            for o in cell.per_user
            if o.metrics.delivered_notifications
        ]


# -- the live service under a flash crowd ---------------------------------------


class ServiceFlashCrowd(Workload):
    """The live service under a flash crowd, an open loop on a simulated clock."""

    name = "service-flash-crowd"

    def __init__(self, seed: int, users: int = 40, rounds: int = 12, sessions: int = 6):
        # Independent sessions average out the few pressure-ladder swings a
        # single flash crowd makes.
        self.configs = [
            DemoConfig(users=users, rounds=rounds, seed=seed * sessions + index)
            for index in range(sessions)
        ]

    def _build(self, config: DemoConfig):
        """What ``service.harness.run_demo`` builds, with every user's loop
        and the event schedule made up front so that set-up is timed apart
        from the session."""
        clock = SimulatedClock()
        service = NotificationService(
            loop_factory=build_loop_factory(config),
            user_ids=list(range(config.users)),
            config=config.service_config(),
            clock=clock,
        )
        for user in range(config.users):
            service.loop_for(user)
        sink = FlakySink(
            clock=clock,
            rng=random.Random(_stream_seed(config.seed, 0, _SALT_SINK)),
            p_fail=config.sink_fail,
            p_stall=config.sink_stall,
            stall_seconds=config.sink_stall_seconds,
        )
        service.add_sink(sink, name="push")
        scenario = FlashCrowdScenario(
            config.crowd_config(), build_item_factory(config), seed=config.seed
        )
        scenario.schedule()
        return clock, service, scenario

    def setup(self, tracer=None):
        # All sessions are built in one phase, before any of them runs, so
        # set-up is not timed among the garbage a session leaves.
        with _span(tracer, "service.setup"):
            return [(config, *self._build(config)) for config in self.configs]

    def pipeline(self, tracer=None) -> Run:
        start = time.perf_counter()
        built = self.setup(tracer)
        simulate_start = time.perf_counter()
        sessions = []
        for config, clock, service, scenario in built:
            with _span(tracer, "service.session"):

                async def session(service=service, scenario=scenario, clock=clock,
                                  rounds=config.rounds):
                    run_task = asyncio.ensure_future(service.run(rounds=rounds))
                    results = await scenario.drive(service, clock)
                    await run_task
                    return results

                results = asyncio.run(clock.drive(session()))
            sessions.append(
                {
                    "config": config,
                    "service": service,
                    "scheduled": len(scenario.schedule()),
                    "answered": len(results),
                    "accounting": service.accounting(),
                    "health": service.health(),
                }
            )
        end = time.perf_counter()
        fingerprint = _digest(
            [(s["accounting"], s["service"].stats.latencies) for s in sessions]
        )
        return Run(
            setup_s=simulate_start - start,
            simulate_s=end - simulate_start,
            pipeline_s=end - start,
            start=start,
            fingerprint=fingerprint,
            output={"sessions": sessions},
        )

    def check(self, run: Run) -> tuple[int, list[str]]:
        failures: list[str] = []
        attempted = 0
        for s in run.output["sessions"]:
            config, health, ledger = s["config"], s["health"], s["accounting"]
            where = f"session seed {config.seed}"
            attempted += 3
            if health.conservation_error != 0 or ledger["error"] != 0:
                failures.append(f"{where}: conservation error {ledger['error']}")
            if health.queue_high_water > config.queue_bound:
                failures.append(
                    f"{where}: queue high water {health.queue_high_water} "
                    f"> bound {config.queue_bound}"
                )
            if not s["scheduled"] == s["answered"] == ledger["ingested"]:
                failures.append(
                    f"{where}: {s['scheduled']} events scheduled, "
                    f"{s['answered']} answered, {ledger['ingested']} ingested"
                )
        return attempted, failures

    def work(self, run: Run) -> tuple[float, float]:
        sessions = run.output["sessions"]
        weeks = sum(
            s["config"].users * s["config"].rounds * s["config"].round_seconds
            for s in sessions
        ) / WEEK_SECONDS
        events = sum(s["accounting"]["ingested"] for s in sessions)
        return weeks, float(events)

    def latencies(self, run: Run) -> list[float]:
        return [
            latency
            for s in run.output["sessions"]
            for latency in s["service"].stats.latencies
        ]

    def layer_counts(self, run: Run) -> dict[str, float]:
        sessions = run.output["sessions"]
        stats = [s["service"].stats for s in sessions]
        sinks = [sink.stats for s in sessions for sink in s["service"].sinks]
        ingested = sum(st.ingested for st in stats)
        attempts = sum(sink.attempts for sink in sinks)
        return {
            "service.admitted": float(sum(st.admitted for st in stats)),
            "service.shed_queue_full": float(sum(st.shed_queue_full for st in stats)),
            "service.shed_overload": float(sum(st.shed_overload for st in stats)),
            "service.readmitted": float(sum(st.readmitted for st in stats)),
            "service.dead_lettered": float(sum(st.dead_lettered for st in stats)),
            "service.refused_frac": (
                sum(st.shed + st.dead_lettered for st in stats) / ingested
                if ingested
                else 0.0
            ),
            "service.sink_attempts": float(attempts),
            "service.sink_retries": float(sum(sink.retries for sink in sinks)),
            "service.sink_success_ratio": (
                sum(sink.delivered for sink in sinks) / attempts if attempts else 0.0
            ),
            "service.pressure_transitions": float(
                sum(len(s["service"].controller.transitions) for s in sessions)
            ),
            "service.queue_high_water": float(
                max(s["health"].queue_high_water for s in sessions)
            ),
        }


WORKLOADS = {
    cls.name: cls
    for cls in (PaperWeek, FigureSweep, MultichannelMarkov, ServiceFlashCrowd)
}
