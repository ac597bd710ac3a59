"""The in-process workloads: ``campaign``, ``synth160`` and ``topology``.

Each workload makes its inputs from the run seed, times its units of
work with tracing off (:meth:`measure`) or runs them once untraced and
once under a :class:`~perfbench.ledger.Ledger` (:meth:`trace`), and
checks the program's outputs on the way.  See README.md for why each
workload exists and what each metric means.
"""

from __future__ import annotations

import math
import time
import weakref
from typing import Any, Dict, List

from repro.api.session import Session
from repro.buses.ttp import Slot, TTPBusConfig
from repro.conformance import CampaignSpec, classify_run, run_campaign
from repro.conformance.campaign import conformance_configuration
from repro.model.configuration import SystemConfiguration
from repro.optim import (
    optimize_resources,
    optimize_schedule,
    straightforward_configuration,
)
from repro.synth import WorkloadSpec, generate_workload

from .common import (
    RunOutcome,
    degree_ratio,
    digest,
    layer_metrics,
    mean,
    median,
    system_shape,
)
from .ledger import REPRO_LAYERS, Layer, Ledger

#: Seeds per campaign block (one timed unit of ``campaign``).
CAMPAIGN_BLOCK = 250
#: Seeds of the warm-up campaign, drawn from a range the blocks never use.
CAMPAIGN_WARMUP = 50
CAMPAIGN_WARMUP_BASE = 10_000_000
#: Systems per second of ``--seconds`` on ``synth160`` / ``topology``:
#: a run synthesizes ``round(seconds * rate)`` systems (at least
#: ``MIN_SYSTEMS``), planned so one pass over them fills about three
#: quarters of the time on the measuring host.  The count depends only on
#: ``--seconds``, never on how fast the code runs, so faster code
#: never changes which inputs are measured.
SYNTH_SYSTEMS_PER_S = 1.6
TOPO_SYSTEMS_PER_S = 1.7
MIN_SYSTEMS = 4
#: Generation seeds of one run seed's systems are ``seed * SEED_STRIDE
#: + index``, so different run seeds never share a system.
SEED_STRIDE = 1_000
#: Synthesis bounds: OS scores 2 capacity candidates per slot (1 fails
#: in ``recommended_capacities``); OR climbs once from the best-buffer
#: seed, one iteration of a 4-move neighbourhood.
OS_CANDIDATES = 2
OR_BOUNDS = dict(max_climbs=1, max_iterations=1, neighborhood=4)
#: Every graph of a synthesized system has this many processes (the
#: mean of the generator's default 8..24 range): graphs of mixed size
#: spread one system's synthesis time from the next by a coefficient of
#: variation of 0.3-0.38, graphs of one size by 0.2-0.25.
GRAPH_SIZE = 16
#: Systems analysed once each as set-up warm-up.
WARMUP_SYSTEMS = 4
#: Simulated periods in the dominance check of a synthesized system.
CHECK_PERIODS = 2


def campaign_spec(seed0: int, seeds: int) -> CampaignSpec:
    """The serial conformance campaign of the ``campaign`` workload."""
    return CampaignSpec(
        campaign=seeds, seed0=seed0, workers=1, shrink=False,
        fixture_dir=None,
    )


def synth_spec(seed: int, index: int) -> WorkloadSpec:
    """The ``index``-th 160-process, 2-cluster system of a run seed."""
    return WorkloadSpec(
        nodes=4, graph_size_range=(GRAPH_SIZE, GRAPH_SIZE),
        seed=seed * SEED_STRIDE + index,
    )


def topo_spec(seed: int, index: int) -> WorkloadSpec:
    """The ``index``-th 4-cluster, 4-gateway system of a run seed:
    96 processes and 10 inter-cluster messages (README.md gives why
    not the 240 processes and 30 messages of ``nodes=6`` defaults)."""
    return WorkloadSpec(
        nodes=6, clusters=4, gateways=4, processes_per_node=16,
        gateway_messages=10, graph_size_range=(GRAPH_SIZE, GRAPH_SIZE),
        seed=seed * SEED_STRIDE + index,
    )


def aligned(system, config: SystemConfiguration) -> SystemConfiguration:
    """``config`` with its TDMA round stretched to divide the period.

    The simulator needs every graph period to be a whole number of TDMA
    rounds, which a synthesized bus rarely is.  Slot order, owners and
    capacities are kept; every slot is lengthened by the same factor,
    the smallest that makes the round divide the common period.
    """
    period = min(g.period for g in system.app.graphs.values())
    rounds = max(1, math.floor(period / config.bus.round_length))
    factor = (period / rounds) / config.bus.round_length
    bus = TTPBusConfig([
        Slot(s.node, s.capacity, s.duration * factor)
        for s in config.bus.slots
    ])
    out = config.copy()
    out.bus = bus
    out.offsets = None
    return out


class _SessionMemo:
    """Ledger counter: memo hits/misses of every traced evaluate call,
    from each session's own ``cache_info`` (deltas per session)."""

    def __init__(self) -> None:
        self._seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def __call__(self, args: tuple, result: Any) -> Dict[str, float]:
        session = args[0]
        info = session.cache_info()
        hits0, misses0 = self._seen.get(session, (0, 0))
        self._seen[session] = (info.hits, info.misses)
        return {
            "session.hits": info.hits - hits0,
            "session.misses": info.misses - misses0,
        }


def traced_ledger() -> Ledger:
    """A ledger over every layer, counting session memo hits too."""
    memo = _SessionMemo()
    layers = tuple(
        Layer(layer.name, layer.module, layer.attr, memo)
        if layer.name == "session.evaluate" else layer
        for layer in REPRO_LAYERS
    )
    return Ledger(layers)


def memo_hit_ratio(ledger: Ledger) -> float:
    hits = ledger.counts.get("session.hits", 0)
    total = hits + ledger.counts.get("session.misses", 0)
    return hits / total if total else 0.0


# -- campaign ---------------------------------------------------------------


class CampaignWorkload:
    """Repeats one seeded block of a serial conformance campaign."""

    name = "campaign"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spec = campaign_spec(seed * CAMPAIGN_BLOCK, CAMPAIGN_BLOCK)
        self.warmup = campaign_spec(
            CAMPAIGN_WARMUP_BASE + seed * CAMPAIGN_WARMUP, CAMPAIGN_WARMUP
        )

    def setup(self) -> None:
        run_campaign(self.warmup)

    def teardown(self) -> None:
        pass

    def shapes(self) -> Dict[str, Any]:
        rows = [
            system_shape(generate_workload(self.spec.workload_spec(s)))
            for s in range(self.spec.seed0, self.spec.seed0 + 25)
        ]
        return mean_shape(rows, systems=self.spec.campaign)

    def _block(self, out: RunOutcome, ref: Dict[str, str]):
        started = time.perf_counter()
        report = run_campaign(self.spec)
        wall = time.perf_counter() - started
        seeds = len(report.outcomes)
        out.attempted += self.spec.campaign
        out.failed += len(report.errored) + len(report.violating)
        out.failed += self.spec.campaign - seeds
        verdicts = digest([o.to_dict() for o in report.outcomes])
        ref.setdefault("digest", verdicts)
        if not report.clean:
            out.check_failures.append(
                f"campaign not clean: {report.counts}"
            )
        if verdicts != ref["digest"]:
            out.fail("per-seed verdict digest changed between blocks", seeds)
        out.detail["verdict_digest"] = ref["digest"]
        out.detail["counts"] = report.counts
        return wall, report

    def quality(self, report, out: RunOutcome) -> None:
        """Re-analyse every seed the campaign found schedulable: the
        verdict must repeat, and the results give the block's median
        degree ratio and mean buffer need."""
        ratios, buffers = [], []
        for outcome in report.outcomes:
            if outcome.status != "ok":
                continue
            system = generate_workload(self.spec.workload_spec(outcome.seed))
            run = Session(system).evaluate(
                conformance_configuration(system, self.spec.rounds_per_period),
                memoize=False,
            )
            if not (run.schedulable and run.converged):
                out.fail(f"seed {outcome.seed}: verdict did not repeat")
                continue
            ratios.append(degree_ratio(system, run.degree))
            buffers.append(run.total_buffers)
        out.metrics["degree_ratio"] = median(ratios)
        out.metrics["buffers_bytes"] = mean(buffers)

    def measure(self, seconds: float, out: RunOutcome) -> None:
        deadline = time.perf_counter() + seconds
        walls: List[float] = []
        latencies: List[float] = []
        ref: Dict[str, str] = {}
        while not walls or time.perf_counter() + median(walls) <= deadline:
            wall, report = self._block(out, ref)
            walls.append(wall)
            latencies.extend(
                sum(o.profile.get(k, 0.0) for k in _SEED_PHASES)
                for o in report.outcomes
            )
        rate = CAMPAIGN_BLOCK / median(walls)
        out.metrics["throughput_per_s"] = rate
        out.metrics["latency_p50_ms"] = 1000 * median(latencies)
        out.named["campaign_seeds_per_s"] = rate
        self.quality(report, out)
        out.detail["block_walls_s"] = walls

    def trace(self, seconds: float, out: RunOutcome) -> Ledger:
        deadline = time.perf_counter() + seconds
        ledger = traced_ledger()
        plain: List[float] = []
        traced: List[float] = []
        profiles = []
        ref: Dict[str, str] = {}
        while not traced or (
            time.perf_counter() + median(plain) + median(traced) <= deadline
        ):
            wall, _ = self._block(out, ref)
            plain.append(wall)
            with ledger:
                wall, report = self._block(out, ref)
            traced.append(wall)
            profiles.append(report.profile)
        metrics = layer_metrics(ledger, len(traced), sum(traced) / len(traced))
        metrics["session.memo_hit_ratio"] = memo_hit_ratio(ledger)
        metrics["tracing.overhead_ratio"] = median(traced) / median(plain)
        out.metrics.update(metrics)
        out.detail["reconcile"] = _campaign_reconcile(ledger, profiles)
        return ledger


#: Per-seed phases whose sum is one seed's latency.
_SEED_PHASES = ("generate_s", "analyze_s", "simulate_s")


def _campaign_reconcile(ledger: Ledger, profiles) -> Dict[str, Dict]:
    """Ledger inclusive times next to the campaign's own ``profile``."""
    totals = ledger.totals()

    def total(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0)

    def summed(key: str) -> float:
        return sum(profile[key] for profile in profiles)

    return {
        "generate_s": {
            "ledger": total("synth.generate"), "program": summed("generate_s"),
        },
        # Both campaign phases (analysis, then simulation) are one
        # Session.evaluate call each.
        "analyze_s+simulate_s": {
            "ledger": total("session.evaluate"),
            "program": summed("analyze_s") + summed("simulate_s"),
        },
        "sim_compile_s": {
            "ledger": total("sim.compile"), "program": summed("sim_compile_s"),
        },
        "sim_replay_s": {
            "ledger": total("sim.replay"), "program": summed("sim_replay_s"),
        },
        "sim_events": {
            "ledger": ledger.counts.get("sim.events", 0),
            "program": summed("sim_events"),
        },
    }


def mean_shape(rows: List[Dict[str, int]], systems: int) -> Dict[str, Any]:
    """Shape of a multi-system run: exact structural fields, mean sizes."""
    return {
        "systems": systems,
        "processes": rows[0]["processes"],
        "clusters": rows[0]["clusters"],
        "gateways": rows[0]["gateways"],
        "messages_mean": sum(r["messages"] for r in rows) / len(rows),
        "can_messages_mean": sum(r["can_messages"] for r in rows) / len(rows),
        "processes_constant": all(
            r["processes"] == rows[0]["processes"] for r in rows
        ),
    }


# -- synthesis workloads -------------------------------------------------------


class _SynthesisWorkload:
    """Shared runner of ``synth160`` and ``topology``: a fixed set of
    seeded systems, synthesized in passes until the time is spent."""

    name = ""
    systems_per_second = 0.0

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.systems_per_run = max(
            MIN_SYSTEMS, round(seconds * self.systems_per_second)
        )
        self.systems: List[Any] = []

    def spec(self, index: int) -> WorkloadSpec:
        raise NotImplementedError

    def synthesize(self, system, session):
        """Run the synthesis; returns ``(walls, results)``."""
        raise NotImplementedError

    def make_systems(self) -> List[Any]:
        return [
            generate_workload(self.spec(i))
            for i in range(self.systems_per_run)
        ]

    def setup(self) -> None:
        self.systems = self.make_systems()
        # Warm-up: one analysis (compile + solve) of a few systems.
        for system in self.systems[:WARMUP_SYSTEMS]:
            Session(system).evaluate(
                straightforward_configuration(system), memoize=False
            )

    def teardown(self) -> None:
        self.systems = []

    def shapes(self) -> Dict[str, Any]:
        return mean_shape(
            [system_shape(s) for s in self.make_systems()],
            self.systems_per_run,
        )

    def _pass(self, systems, out: RunOutcome, first: List[Any]):
        """Synthesize every system once; the first pass's results are
        kept for the output checks, later passes must repeat them."""
        walls = []
        for index, system in enumerate(systems):
            out.attempted += 1
            try:
                wall, results = self.synthesize(system, Session(system))
            except Exception as exc:  # one failed system, not the run
                out.fail(f"system {index}: {type(exc).__name__}: {exc}")
                continue
            walls.append((index, wall))
            quality = self.quality(results)
            if len(first) <= index:
                first.append((results, quality))
            elif first[index][1] != quality:
                out.fail(
                    f"system {index}: synthesis not repeatable "
                    f"({first[index][1]} then {quality})"
                )
        return walls

    def quality(self, results) -> tuple:
        raise NotImplementedError

    def run_passes(self, systems, seconds: float, out: RunOutcome):
        """Passes over ``systems`` while another one fits the time."""
        deadline = time.perf_counter() + seconds
        per_system: Dict[int, List[tuple]] = {}
        first: List[Any] = []
        pass_walls: List[float] = []
        while not pass_walls or (
            time.perf_counter() + median(pass_walls) <= deadline
        ):
            started = time.perf_counter()
            for index, wall in self._pass(systems, out, first):
                per_system.setdefault(index, []).append(wall)
            pass_walls.append(time.perf_counter() - started)
        return per_system, first, pass_walls

    def check(self, system, results, out: RunOutcome, index: int) -> None:
        raise NotImplementedError

    def _check_config(
        self, system, config, expected_degree, expected_buffers,
        out: RunOutcome, label: str,
    ) -> None:
        """Re-analyse without memoization, then simulate the config."""
        again = Session(system).evaluate(config, memoize=False)
        if expected_degree is not None and again.degree != expected_degree:
            out.fail(
                f"{label}: re-analysis degree {again.degree} != "
                f"{expected_degree}"
            )
        if expected_buffers is not None and (
            again.total_buffers != expected_buffers
        ):
            out.fail(
                f"{label}: re-analysis s_total {again.total_buffers} != "
                f"{expected_buffers}"
            )
        run = Session(system).simulate(
            aligned(system, config), periods=CHECK_PERIODS, memoize=False
        )
        if not run.feasible:
            out.fail(f"{label}: simulation failed: {run.error}")
        elif classify_run(run):
            out.fail(f"{label}: simulation exceeded an analysis bound")

    def measure(self, seconds: float, out: RunOutcome) -> None:
        per_system, first, pass_walls = self.run_passes(
            self.systems, seconds, out
        )
        self.report(per_system, first, out)
        for index, (results, _) in enumerate(first):
            self.check(self.systems[index], results, out, index)
        out.detail["passes"] = len(pass_walls)

    def report(self, per_system, first, out: RunOutcome) -> None:
        raise NotImplementedError

    def trace(self, seconds: float, out: RunOutcome) -> Ledger:
        half = self.systems[: max(1, len(self.systems) // 2)]
        ledger = traced_ledger()
        plain, _, _ = self.run_passes(half, seconds / 2, out)
        with ledger:
            traced, first, _ = self.run_passes(half, seconds / 2, out)
        for index, (results, _) in enumerate(first):
            self.check(half[index], results, out, index)
        walls_plain = sum(median([sum(w) for w in v]) for v in plain.values())
        walls_traced = sum(
            median([sum(w) for w in v]) for v in traced.values()
        )
        runs = sum(len(v) for v in traced.values())
        metrics = layer_metrics(
            ledger, runs,
            sum(sum(w) for v in traced.values() for w in v) / max(1, runs),
        )
        metrics["session.memo_hit_ratio"] = memo_hit_ratio(ledger)
        metrics["tracing.overhead_ratio"] = walls_traced / walls_plain
        metrics["optim.os_evaluations"] = mean(
            r[0].evaluations for r, _ in first
        )
        metrics["optim.or_evaluations"] = mean(
            self.or_evaluations(r) for r, _ in first
        )
        for stage, name in enumerate(("optim.os_wall_s", "optim.or_wall_s")):
            metrics[name] = mean(
                w[stage] for v in traced.values() for w in v
                if len(w) > stage
            )
        out.metrics.update(metrics)
        return ledger

    def or_evaluations(self, results) -> float:
        return 0.0


class Synth160Workload(_SynthesisWorkload):
    """OS then bounded OR on paper-scale 160-process systems."""

    name = "synth160"
    systems_per_second = SYNTH_SYSTEMS_PER_S

    def spec(self, index: int) -> WorkloadSpec:
        return synth_spec(self.seed, index)

    def synthesize(self, system, session):
        started = time.perf_counter()
        os_result = optimize_schedule(
            system, max_capacity_candidates=OS_CANDIDATES, session=session
        )
        os_wall = time.perf_counter() - started
        started = time.perf_counter()
        or_result = optimize_resources(
            system, os_result=os_result, session=session, **OR_BOUNDS
        )
        or_wall = time.perf_counter() - started
        return (os_wall, or_wall), (os_result, or_result)

    def quality(self, results) -> tuple:
        os_result, or_result = results
        return (os_result.best.degree, or_result.total_buffers)

    def or_evaluations(self, results) -> float:
        os_result, or_result = results
        return or_result.evaluations - os_result.evaluations

    def report(self, per_system, first, out: RunOutcome) -> None:
        os_walls = [median([w[0] for w in v]) for v in per_system.values()]
        or_walls = [median([w[1] for w in v]) for v in per_system.values()]
        walls = [median([sum(w) for w in v]) for v in per_system.values()]
        out.metrics["throughput_per_s"] = len(walls) / sum(walls)
        out.metrics["latency_p50_ms"] = 1000 * median(walls)
        out.metrics["degree_ratio"] = median(
            degree_ratio(self.systems[i], os_result.best.degree)
            for i, ((os_result, _), _) in enumerate(first)
        )
        out.metrics["buffers_bytes"] = mean(
            r.total_buffers for (_, r), _ in first
        )
        out.named.update({
            "os_wall_s": mean(os_walls),
            "or_wall_s": mean(or_walls),
            "os_degree": mean(r.best.degree for (r, _), _ in first),
            "or_total_buffers": out.metrics["buffers_bytes"],
        })
        out.detail["os_walls_s"] = os_walls
        out.detail["or_walls_s"] = or_walls
        out.detail["os_evaluations"] = [r.evaluations for (r, _), _ in first]
        out.detail["or_evaluations"] = [
            self.or_evaluations(r) for r, _ in first
        ]

    def check(self, system, results, out: RunOutcome, index: int) -> None:
        os_result, or_result = results
        self._check_config(
            system, os_result.best.config, os_result.best.degree, None,
            out, f"system {index} OS",
        )
        self._check_config(
            system, or_result.best.config, None, or_result.total_buffers,
            out, f"system {index} OR",
        )


class TopologyWorkload(_SynthesisWorkload):
    """OS on 4-cluster, 4-gateway systems (the multihop solver)."""

    name = "topology"
    systems_per_second = TOPO_SYSTEMS_PER_S

    def spec(self, index: int) -> WorkloadSpec:
        return topo_spec(self.seed, index)

    def synthesize(self, system, session):
        started = time.perf_counter()
        os_result = optimize_schedule(
            system, max_capacity_candidates=OS_CANDIDATES,
            session=session,
        )
        return (time.perf_counter() - started,), (os_result,)

    def quality(self, results) -> tuple:
        return (results[0].best.degree,)

    def report(self, per_system, first, out: RunOutcome) -> None:
        walls = [median([w[0] for w in v]) for v in per_system.values()]
        out.metrics["throughput_per_s"] = len(walls) / sum(walls)
        out.metrics["latency_p50_ms"] = 1000 * median(walls)
        out.metrics["degree_ratio"] = median(
            degree_ratio(self.systems[i], r[0].best.degree)
            for i, (r, _) in enumerate(first)
        )
        out.metrics["buffers_bytes"] = mean(
            r[0].best.total_buffers for r, _ in first
        )
        out.named["topo_os_wall_s"] = mean(walls)
        out.detail["os_walls_s"] = walls
        out.detail["os_evaluations"] = [r[0].evaluations for r, _ in first]

    def check(self, system, results, out: RunOutcome, index: int) -> None:
        (os_result,) = results
        self._check_config(
            system, os_result.best.config, os_result.best.degree, None,
            out, f"system {index} OS",
        )
