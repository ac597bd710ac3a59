"""Tests for the synthesis heuristics: HOPA, SF, OS, OR, SA and moves."""

import pytest

from repro.optim import (
    evaluate,
    generate_neighbors,
    hopa_priorities,
    optimize_resources,
    optimize_schedule,
    random_move,
    run_straightforward,
    sa_resources,
    sa_schedule,
    straightforward_configuration,
)
from repro.optim.hopa import local_deadlines
from repro.optim.slots import (
    default_capacities,
    messages_sent_over_ttp,
    recommended_capacities,
)
from repro.synth import WorkloadSpec, fig4_system, generate_workload

from helpers import two_node_config, two_node_system

import random


@pytest.fixture(scope="module")
def small_workload():
    return generate_workload(WorkloadSpec(nodes=2, processes_per_node=15, seed=3))


class TestHopa:
    def test_priorities_complete_and_unique(self, small_workload):
        system = small_workload
        pa = hopa_priorities(system)
        pa.validate(system.app, system.arch)  # raises on problems
        for proc in system.et_processes():
            assert proc in pa.process_priorities
        for msg in system.can_messages():
            assert msg in pa.message_priorities

    def test_local_deadlines_monotone_along_chain(self):
        system = two_node_system()
        deadlines = local_deadlines(system)
        # A -> B -> C: deadline shares must grow along the chain.
        assert deadlines["A"] < deadlines["B"] < deadlines["C"]
        assert deadlines["C"] <= 100.0 + 1e-9

    def test_iterative_refinement_not_worse(self, small_workload):
        system = small_workload
        fast = hopa_priorities(system)
        sf = straightforward_configuration(system)
        refined = hopa_priorities(system, bus=sf.bus, iterations=3)
        from repro.model import SystemConfiguration

        d_fast = evaluate(
            system, SystemConfiguration(bus=sf.bus, priorities=fast)
        ).degree
        d_refined = evaluate(
            system, SystemConfiguration(bus=sf.bus, priorities=refined)
        ).degree
        assert d_refined <= d_fast + 1e-9


class TestSlots:
    def test_minimum_capacity_covers_largest_message(self, small_workload):
        system = small_workload
        caps = default_capacities(system)
        for node, cap in caps.items():
            sizes = messages_sent_over_ttp(system, node)
            if sizes:
                assert cap == max(sizes)

    def test_recommended_capacities_sorted_and_bounded(self, small_workload):
        system = small_workload
        for node in system.arch.ttp_slot_owners():
            recs = recommended_capacities(system, node, max_candidates=4)
            assert recs == sorted(set(recs))
            assert len(recs) <= 4
            assert recs[0] >= 1

    def test_single_capacity_candidate_is_the_floor(self, small_workload):
        system = small_workload
        for node in system.arch.ttp_slot_owners():
            recs = recommended_capacities(system, node, max_candidates=1)
            assert recs == [recommended_capacities(system, node)[0]]
        with pytest.raises(ValueError, match="at least 1"):
            recommended_capacities(system, node, max_candidates=0)

    @pytest.mark.parametrize("clusters,gateways", [(2, 1), (3, 2)])
    def test_os_with_one_capacity_candidate(self, clusters, gateways):
        """Regression: one candidate per slot used to divide by zero."""
        system = generate_workload(WorkloadSpec(
            nodes=3, seed=2, clusters=clusters, gateways=gateways,
        ))
        osr = optimize_schedule(system, max_capacity_candidates=1)
        assert osr.seeds


class TestHeuristics:
    def test_os_not_worse_than_sf(self, small_workload):
        system = small_workload
        sf = run_straightforward(system)
        osr = optimize_schedule(system, max_capacity_candidates=2)
        assert osr.best.degree <= sf.degree + 1e-9

    def test_os_seeds_are_feasible(self, small_workload):
        osr = optimize_schedule(small_workload, max_capacity_candidates=2)
        assert osr.seeds
        for seed in osr.seeds:
            assert seed.feasible

    def test_or_keeps_schedulability_and_buffers(self, small_workload):
        system = small_workload
        osr = optimize_schedule(system, max_capacity_candidates=2)
        if not osr.schedulable:
            pytest.skip("instance not schedulable at this size")
        orr = optimize_resources(system, os_result=osr, max_iterations=5)
        assert orr.schedulable
        assert orr.total_buffers <= osr.best.total_buffers + 1e-9

    def test_sa_runs_and_returns_best(self, small_workload):
        system = small_workload
        sas = sa_schedule(system, iterations=20, seed=1)
        assert sas.evaluations == 21
        sar = sa_resources(system, iterations=20, seed=1)
        assert sar.best.feasible

    def test_fig4_os_schedulable(self):
        system = fig4_system()
        osr = optimize_schedule(system)
        assert osr.schedulable


class TestMoves:
    def test_moves_produce_valid_configs(self, small_workload):
        system = small_workload
        base = evaluate(system, straightforward_configuration(system))
        rng = random.Random(7)
        moves = generate_neighbors(
            system, base.config, evaluation=base, rng=rng, limit=12
        )
        assert moves
        for move in moves:
            candidate = evaluate(system, move.apply(base.config))
            assert candidate.config is not base.config
            assert move.describe()

    def test_move_does_not_mutate_original(self, small_workload):
        system = small_workload
        config = straightforward_configuration(system)
        snapshot_prios = dict(config.priorities.message_priorities)
        snapshot_slots = [s.node for s in config.bus.slots]
        rng = random.Random(3)
        for _ in range(10):
            move = random_move(system, config, rng)
            move.apply(config)
        assert dict(config.priorities.message_priorities) == snapshot_prios
        assert [s.node for s in config.bus.slots] == snapshot_slots

    def test_neighborhood_respects_limit(self, small_workload):
        system = small_workload
        base = evaluate(system, straightforward_configuration(system))
        moves = generate_neighbors(
            system, base.config, evaluation=base, limit=5
        )
        assert len(moves) <= 5


class TestEvaluate:
    def test_infeasible_config_reports_error(self, small_workload):
        system = small_workload
        config = straightforward_configuration(system)
        # Shrink one slot below its minimum capacity.
        from repro.buses import Slot, TTPBusConfig

        slots = [
            Slot(s.node, 1, s.duration) if i == 0 else s
            for i, s in enumerate(config.bus.slots)
        ]
        config.bus = TTPBusConfig(slots)
        result = evaluate(system, config)
        assert not result.feasible
        assert result.degree >= 1e12
