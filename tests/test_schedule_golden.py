"""Golden pins of the static list scheduler and of the Fig. 5 loop.

The digests below were captured on the interpreted list scheduler that
re-derived urgencies, predecessor arcs and frame-packing order on every
call, before the compiled :class:`repro.schedule.list_scheduler.
SchedulePlan` replaced it.  A :class:`StaticSchedule` digest covers the
schedule tables, every MEDL frame (messages in packing order and used
bytes), both offset tables, ``message_arrival`` and the makespan, all
in insertion order with exact float reprs, so any change in placement,
packing or iteration order fails here.

:class:`TestConvergenceShortcut` pins the exact shortcut of
:func:`repro.analysis.multicluster.multi_cluster_scheduling`: when the
ratcheted ET->TT arrival floors equal the ones the current schedule was
built from, the next schedule would be identical, so the loop converges
without building it.  The iteration count, verdict, offsets and the
packaged ``ρ`` must stay those of the loop that did build it.
"""

import hashlib
import json

import pytest

import repro.analysis.multicluster as multicluster
from repro.analysis import multi_cluster_scheduling
from repro.analysis.kernel import AnalysisContext
from repro.buses import Slot, TTPBusConfig
from repro.conformance import CampaignSpec, conformance_configuration
from repro.exceptions import AnalysisError
from repro.model import Application, Architecture, Process, ProcessGraph
from repro.optim import straightforward_configuration
from repro.schedule import static_schedule
from repro.synth import (
    WorkloadSpec,
    fig4_configuration,
    fig4_system,
    generate_workload,
)
from repro.system import System


def _digest(blob) -> str:
    text = json.dumps(blob, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def schedule_digest(schedule) -> str:
    """Exact digest of a :class:`StaticSchedule` (see module docstring)."""
    offsets = schedule.offsets
    return _digest({
        "tables": [
            (node, [(e.process, repr(e.start), repr(e.end)) for e in rows])
            for node, rows in schedule.tables.items()
        ],
        "medl": [
            (list(key), repr(f.start), repr(f.end), f.capacity,
             list(f.messages), f.used_bytes)
            for key, f in schedule.medl.items()
        ],
        "process_offsets": [
            (k, repr(v)) for k, v in offsets.process_offsets.items()
        ],
        "message_offsets": [
            (k, repr(v)) for k, v in offsets.message_offsets.items()
        ],
        "message_arrival": [
            (k, repr(v)) for k, v in schedule.message_arrival.items()
        ],
        "makespan": repr(schedule.makespan),
    })


def _fields(t):
    return [repr(t.offset), repr(t.jitter), repr(t.queuing),
            repr(t.duration), t.converged]


def _records(records):
    return [(name, _fields(t)) for name, t in records.items()]


def rho_digest(rho) -> str:
    """Exact digest of every record of a packaged ``ρ``."""
    return _digest({
        "processes": _records(rho.processes),
        "can": _records(rho.can),
        "ttp": _records(rho.ttp),
        "hops": [
            (name, [_fields(t) for t in legs])
            for name, legs in rho.hops.items()
        ],
        "tt_arrival": [(k, repr(v)) for k, v in rho.tt_arrival.items()],
    })


# -- cases ---------------------------------------------------------------------


def bench_case():
    """The 160-process-style canonical bench workload (seed 0)."""
    system = generate_workload(WorkloadSpec(nodes=4, seed=0))
    return system, conformance_configuration(system, 10)


def campaign_case(seed):
    """One default conformance-campaign system."""
    spec = CampaignSpec()
    system = generate_workload(spec.workload_spec(seed))
    return system, conformance_configuration(system, spec.rounds_per_period)


def topology_case(seed=1000):
    """The 4-cluster/4-gateway benchmark shape (96 processes)."""
    system = generate_workload(WorkloadSpec(
        nodes=6, clusters=4, gateways=4, processes_per_node=16,
        gateway_messages=10, graph_size_range=(16, 16), seed=seed,
    ))
    return system, straightforward_configuration(system)


def tie_system():
    """Five independent TT processes of equal WCET on one node: every
    urgency ties, so the name alone orders the ready list."""
    graph = ProcessGraph(
        name="G", period=100.0, deadline=100.0,
        processes=[
            Process(name, wcet=4.0, node="TT1")
            for name in ("E", "B", "D", "A", "C")
        ],
    )
    arch = Architecture(tt_nodes=["TT1"], et_nodes=["ET1"], gateway="NG")
    return System(Application([graph]), arch)


def synthetic_floors(system):
    return {
        m: 37.5 * (k + 1)
        for k, m in enumerate(system.et_to_tt_messages())
    }


def schedule_case(name):
    """``(system, bus, static_schedule keyword arguments)`` per case."""
    if name == "bench":
        system, config = bench_case()
        return system, config.bus, {}
    if name.startswith("campaign"):
        system, config = campaign_case(int(name[len("campaign"):]))
        return system, config.bus, {}
    if name == "topology":
        system, config = topology_case()
        return system, config.bus, {}
    if name == "topology_floors":
        system, config = topology_case()
        return system, config.bus, {
            "arrival_floors": synthetic_floors(system)
        }
    if name == "bench_floors":
        system, config = bench_case()
        return system, config.bus, {
            "arrival_floors": synthetic_floors(system)
        }
    if name == "bench_tt_delays":
        system, config = bench_case()
        delays = {
            p: 2.5 * (k % 4)
            for k, p in enumerate(system.tt_processes()) if k % 3 == 0
        }
        for k, m in enumerate(sorted(
            msg.name for msg in system.app.all_messages()
        )):
            if k % 5 == 0:
                delays[m] = 1.25
        return system, config.bus, {"tt_delays": delays}
    if name == "fig4a_rho":
        system = fig4_system()
        config = fig4_configuration("a")
        rho = multi_cluster_scheduling(
            system, config.bus, config.priorities
        ).rho
        return system, config.bus, {"rho": rho}
    assert name == "ties"
    bus = TTPBusConfig([Slot("TT1", 8, 5.0), Slot("NG", 8, 5.0)])
    return tie_system(), bus, {}


#: Captured on the interpreted scheduler (see module docstring).
GOLDEN_SCHEDULE = {
    "bench": "432a5c0fa2cd2bf8",
    "bench_floors": "16f17318bd35f742",
    "bench_tt_delays": "31a0c16db3f0f324",
    "campaign3": "c868de681091f4e8",
    "campaign7": "dff5f5f44c21f3ce",
    "fig4a_rho": "0acc8715b93cd3b5",
    "ties": "ff64f4205fe9186d",
    "topology": "5f020f2ad5b3918e",
    "topology_floors": "41bd1fb89c1b64fd",
}


class TestGoldenSchedules:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SCHEDULE))
    def test_schedule_digest_unchanged(self, name):
        system, bus, kwargs = schedule_case(name)
        schedule = static_schedule(system, bus, **kwargs)
        assert schedule_digest(schedule) == GOLDEN_SCHEDULE[name]

    def test_repeated_calls_share_the_plan(self):
        system, bus, kwargs = schedule_case("bench_floors")
        first = static_schedule(system, bus, **kwargs)
        plan = system.schedule_plan()
        again = static_schedule(system, bus, **kwargs)
        assert system.schedule_plan() is plan
        assert schedule_digest(again) == schedule_digest(first)

    def test_equal_urgencies_break_ties_by_name(self):
        system, bus, _ = schedule_case("ties")
        schedule = static_schedule(system, bus)
        rows = schedule.table_of("TT1")
        assert [e.process for e in rows] == ["A", "B", "C", "D", "E"]
        assert [e.start for e in rows] == [0.0, 4.0, 8.0, 12.0, 16.0]


# -- the Fig. 5 convergence shortcut -------------------------------------------


def loop_case(name):
    """``(system, config)`` of a Fig. 5 loop whose floors repeat."""
    if name == "bench":
        return bench_case()
    if name.startswith("campaign"):
        return campaign_case(int(name[len("campaign"):]))
    if name.startswith("fig4"):
        return fig4_system(), fig4_configuration(name[-1])
    assert name == "topology"
    return topology_case()


#: ``(iterations, converged, schedule digest, ρ digest)`` of the loop
#: that still built the final, identical schedule once more (the
#: schedule digest covers the offsets).
GOLDEN_LOOP = {
    # Every FIFO leg diverges: the floors stay empty, so the first
    # schedule is already the fixed point.
    "bench": (1, True, "432a5c0fa2cd2bf8", "f9d1f9fd91c8409e"),
    "campaign3": (2, True, "9fad5b9b3c5dbe53", "042366f7131ab45c"),
    "fig4a": (2, True, "0acc8715b93cd3b5", "cc1e6cbb21de63ca"),
    "fig4b": (2, True, "51fc73f5ff45fc28", "d5d7fac900e670bf"),
    "topology": (2, True, "f277fc2fc52f36be", "1a8f6fe5951b1c23"),
}


def run_counted(name, monkeypatch):
    """Run the Fig. 5 loop of a case, counting ``static_schedule`` calls."""
    system, config = loop_case(name)
    calls = []
    original = multicluster.static_schedule

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(multicluster, "static_schedule", counting)
    result = multi_cluster_scheduling(
        system, config.bus, config.priorities, tt_delays=config.tt_delays,
    )
    return result, len(calls)


class TestConvergenceShortcut:
    @pytest.mark.parametrize("name", sorted(GOLDEN_LOOP))
    def test_shortcut_taken_and_exact(self, name, monkeypatch):
        result, calls = run_counted(name, monkeypatch)
        iterations, converged, schedule, rho = GOLDEN_LOOP[name]
        # Without the shortcut the loop scheduled once up front and once
        # per analysis pass (iterations + 1 calls); the last call is gone.
        assert calls == iterations
        assert result.iterations == iterations
        assert result.converged is converged
        assert schedule_digest(result.schedule) == schedule
        assert rho_digest(result.rho) == rho

    def test_moved_floors_still_reschedule(self, monkeypatch):
        # Here the last ratchet raised a floor without moving any
        # offset: the loop must build the schedule and converge on its
        # zero delta, exactly as before.
        result, calls = run_counted("campaign22", monkeypatch)
        assert result.converged
        assert calls == result.iterations + 1


# -- packaging once per evaluation ---------------------------------------------


class TestPackaging:
    def _kernel(self):
        # A 4-cluster system: the full record also carries per-leg hops.
        system, config = topology_case()
        kernel = AnalysisContext(system, config.priorities, config.bus)
        schedule = static_schedule(system, config.bus)
        return config, kernel, schedule

    def test_partial_solve_holds_only_fifo_records(self):
        _, kernel, schedule = self._kernel()
        full, _ = kernel.solve(schedule.offsets)
        partial, state = kernel.solve(schedule.offsets, package=False)
        assert full.hops and full.ttp
        assert rho_digest(kernel.package(state)) == rho_digest(full)
        assert not partial.processes and not partial.can
        assert not partial.hops and not partial.tt_arrival
        assert _records(partial.ttp) == _records(full.ttp)

    def test_only_the_latest_solve_can_be_packaged(self):
        config, kernel, schedule = self._kernel()
        _, first = kernel.solve(schedule.offsets, package=False)
        kernel.solve(schedule.offsets, package=False)
        with pytest.raises(AnalysisError):
            kernel.package(first)
        _, last = kernel.solve(schedule.offsets, package=False)
        kernel.update(config.priorities, config.bus)
        with pytest.raises(AnalysisError):
            kernel.package(last)
