"""Parity suite for the compiled analysis kernel.

The kernel (:mod:`repro.analysis.kernel`) is a performance refactor of
the holistic analysis, so its entire contract is "same numbers, less
work".  Four layers of evidence:

* a seeded property test comparing :func:`response_time_analysis` (the
  kernel wrapper) against :func:`multihop_response_time_analysis` (the
  interpreted, route-aware oracle) with the system's default routing
  plan, across random ``generate_workload`` instances with and without
  a modeled CAN error process — processes, CAN legs, TTP legs and
  convergence flags must agree bit for bit;
* the same comparison on general topologies (3 and 4 clusters, parallel
  gateways, greedy route overrides, CAN error processes, the Fig. 5
  loop, a route move, and a hypothesis differential over small random
  topologies), where the per-leg ``hops`` and per-gateway transfer
  records are compared too;
* an incremental-recompilation test: a kernel dragged through a random
  OptimizeResources-style move sequence (priority swaps, slot resizes,
  slot swaps, TT delays) must produce bit-identical results to a kernel
  compiled from scratch at every step, with zero additional full
  compiles;
* session-level assertions for the optimizer contract: an OR run
  through a session performs exactly one full kernel compile, and the
  warm-start accelerator stays opt-in.
"""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.holistic import response_time_analysis
from repro.analysis.kernel import AnalysisContext
from repro.analysis.multicluster import multi_cluster_scheduling
from repro.analysis.multihop import multihop_response_time_analysis
from repro.api import Session
from repro.conformance import conformance_configuration
from repro.faults import FaultSpec
from repro.model.architecture import GATEWAY_TRANSFER_PROCESS
from repro.optim import optimize_resources, straightforward_configuration
from repro.optim.moves import generate_neighbors
from repro.optim.routing import fit_bus_to_routes, greedy_routes, route_moves
from repro.schedule import static_schedule
from repro.synth import WorkloadSpec, generate_workload


def assert_rho_equal(a, b, tol=0.0, context=""):
    """Structural equality of two ResponseTimes, to ``tol``.

    Thin assertion shell over :meth:`ResponseTimes.max_abs_delta` (the
    single source of truth for rho comparison — ``inf`` on structural
    or convergence mismatch, else the worst per-field delta).
    """
    delta = a.max_abs_delta(b)
    assert delta <= tol, (
        f"{context}: rho records differ (max |delta| = {delta})"
    )


def oracle_rta(system, offsets, priorities, bus, faults=None):
    """The multi-hop oracle on the default plan, in the kernel's
    canonical shape.

    On a canonical system the oracle also reports one transfer-process
    record per gateway (``__gateway_T__@<gw>``) and the two-leg ``hops``
    of every ET->TT message; those are the only records the kernel does
    not emit there, so they are checked and dropped here.
    """
    rho = multihop_response_time_analysis(
        system, offsets, priorities, bus, system.routing_for({}),
        faults=faults,
    )
    per_gateway = {
        f"{GATEWAY_TRANSFER_PROCESS}@{g}" for g in system.arch.gateways()
    }
    assert per_gateway <= set(rho.processes)
    for name in per_gateway:
        del rho.processes[name]
    assert set(rho.hops) == set(system.et_to_tt_messages())
    rho.hops.clear()
    return rho


def topology_oracle(system, offsets, priorities, bus, routes=None,
                    faults=None):
    """The oracle on a route plan, records untouched (``hops`` and
    per-gateway transfer processes included)."""
    return multihop_response_time_analysis(
        system, offsets, priorities, bus, system.routing_for(routes),
        faults=faults,
    )


def topology_case(seed, clusters, gateways, nodes=4, routed=False,
                  **spec):
    """A seeded general-topology system, its conformance configuration
    (greedy route overrides and a bus grown to carry them when
    ``routed``) and the static schedule's offsets."""
    system = generate_workload(WorkloadSpec(
        nodes=nodes, seed=seed, clusters=clusters, gateways=gateways,
        **spec,
    ))
    config = conformance_configuration(system, 10)
    if routed:
        config.routes.update(greedy_routes(system, config.bus))
        config.bus = fit_bus_to_routes(system, config.bus, config.routes)
    routes = config.routes or None
    offsets = static_schedule(
        system, config.bus, routing=system.routing_for(routes)
    ).offsets
    return system, config, routes, offsets


class TestKernelMatchesOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_workloads_bit_identical(self, seed):
        """Property: kernel == oracle across random workloads.

        Mixes node counts and utilizations (higher utilization produces
        non-converged activities, exercising the divergence paths).
        """
        nodes = 2 + (seed % 3)
        util = (0.25, 0.5, 0.7)[seed % 3]
        system = generate_workload(
            WorkloadSpec(nodes=nodes, seed=seed, target_utilization=util)
        )
        config = straightforward_configuration(system)
        schedule = static_schedule(system, config.bus)
        oracle = oracle_rta(
            system, schedule.offsets, config.priorities, config.bus
        )
        kernel = response_time_analysis(
            system, schedule.offsets, config.priorities, config.bus
        )
        assert_rho_equal(
            oracle, kernel, tol=0.0, context=f"seed={seed}"
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_multicluster_loop_bit_identical(self, seed):
        """The Fig. 5 loop on the kernel == the oracle on its offsets."""
        system = generate_workload(WorkloadSpec(nodes=3, seed=seed))
        config = straightforward_configuration(system)
        result = multi_cluster_scheduling(
            system, config.bus, config.priorities
        )
        # Reference: re-run the solved offsets through the oracle.
        oracle = oracle_rta(
            system, result.offsets, config.priorities, config.bus
        )
        assert_rho_equal(
            oracle, result.rho, tol=0.0, context=f"seed={seed}"
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_can_error_faults_bit_identical(self, seed):
        """The modeled CAN error process: kernel == oracle, including
        an error process dense enough (interval 1.2) that CAN windows
        diverge on seed 0."""
        nodes = 2 + (seed % 3)
        util = (0.25, 0.5, 0.7)[seed % 3]
        system = generate_workload(
            WorkloadSpec(nodes=nodes, seed=seed, target_utilization=util)
        )
        faults = FaultSpec(
            can_error_interval=(1.2, 50.0, 200.0)[seed % 3],
            can_error_overhead=(0.1, 1.0, 5.0)[seed % 3],
        )
        config = straightforward_configuration(system)
        schedule = static_schedule(system, config.bus)
        oracle = oracle_rta(
            system, schedule.offsets, config.priorities, config.bus,
            faults=faults,
        )
        kernel = response_time_analysis(
            system, schedule.offsets, config.priorities, config.bus,
            faults=faults,
        )
        assert_rho_equal(
            oracle, kernel, tol=0.0, context=f"faults seed={seed}"
        )

    def test_kernel_reuse_across_calls_is_stateless(self):
        """Back-to-back solves on one kernel don't contaminate each other."""
        system = generate_workload(WorkloadSpec(nodes=2, seed=3))
        config = straightforward_configuration(system)
        schedule = static_schedule(system, config.bus)
        kernel = AnalysisContext(system, config.priorities, config.bus)
        first = response_time_analysis(
            system, schedule.offsets, config.priorities, config.bus,
            kernel=kernel,
        )
        second = response_time_analysis(
            system, schedule.offsets, config.priorities, config.bus,
            kernel=kernel,
        )
        assert_rho_equal(first, second, tol=0.0, context="reuse")


class TestKernelMatchesOracleOnTopologies:
    """The compiled per-leg rows == the oracle on general topologies,
    with ``hops`` and per-gateway transfer records compared, not
    dropped."""

    @pytest.mark.parametrize("seed", range(6))
    def test_three_cluster_workloads_bit_identical(self, seed):
        system, config, routes, offsets = topology_case(seed, 3, 2)
        oracle = topology_oracle(
            system, offsets, config.priorities, config.bus
        )
        kernel, _ = AnalysisContext(
            system, config.priorities, config.bus
        ).solve(offsets)
        assert oracle.hops and set(kernel.hops) == set(oracle.hops)
        assert_rho_equal(oracle, kernel, context=f"seed={seed}")

    @pytest.mark.parametrize("seed", range(3))
    def test_topology_benchmark_shape_bit_identical(self, seed):
        """The 4-cluster/4-gateway, 96-process benchmark shape."""
        system, config, routes, offsets = topology_case(
            seed, 4, 4, nodes=6, processes_per_node=16,
            gateway_messages=10, graph_size_range=(16, 16),
        )
        oracle = topology_oracle(
            system, offsets, config.priorities, config.bus
        )
        kernel, _ = AnalysisContext(
            system, config.priorities, config.bus
        ).solve(offsets)
        assert_rho_equal(oracle, kernel, context=f"seed={seed}")

    @pytest.mark.parametrize("seed", range(4))
    def test_parallel_gateway_routes_bit_identical(self, seed):
        system, config, routes, offsets = topology_case(
            seed, 3, 3, routed=True
        )
        assert routes, "expected greedy overrides with a parallel gateway"
        oracle = topology_oracle(
            system, offsets, config.priorities, config.bus, routes
        )
        kernel, _ = AnalysisContext(
            system, config.priorities, config.bus, routes=routes
        ).solve(offsets)
        assert_rho_equal(oracle, kernel, context=f"seed={seed}")

    @pytest.mark.parametrize("seed", range(4))
    def test_can_error_faults_bit_identical(self, seed):
        system, config, routes, offsets = topology_case(
            seed, 3, 3, routed=seed % 2 == 1
        )
        faults = FaultSpec(
            can_error_interval=(1.2, 50.0)[seed % 2],
            can_error_overhead=(0.1, 1.0)[seed % 2],
        )
        oracle = topology_oracle(
            system, offsets, config.priorities, config.bus, routes,
            faults=faults,
        )
        kernel, _ = AnalysisContext(
            system, config.priorities, config.bus, faults=faults,
            routes=routes,
        ).solve(offsets)
        assert_rho_equal(oracle, kernel, context=f"faults seed={seed}")

    @pytest.mark.parametrize("seed", range(4))
    def test_multicluster_loop_bit_identical(self, seed):
        """The Fig. 5 loop on the kernel == the oracle on its offsets."""
        clusters = 3 + seed % 2
        system, config, routes, _ = topology_case(
            seed, clusters, clusters, nodes=2 * clusters - 2, routed=True
        )
        result = multi_cluster_scheduling(
            system, config.bus, config.priorities, routes=routes
        )
        oracle = topology_oracle(
            system, result.offsets, config.priorities, config.bus, routes
        )
        assert_rho_equal(oracle, result.rho, context=f"seed={seed}")

    @pytest.mark.parametrize("seed", range(3))
    def test_route_move_and_swaps_equal_fresh_compile(self, seed):
        """Incremental: a kernel re-targeted through a route move and
        priority swaps == a kernel compiled from scratch at each step."""
        system, config, routes, offsets = topology_case(seed, 3, 3)
        kernel = AnalysisContext(system, config.priorities, config.bus)
        kernel.solve(offsets)
        current = config
        moves = route_moves(system, current)
        assert moves, "expected routing freedom with a parallel gateway"
        current = moves[seed % len(moves)].apply(current)
        current.bus = fit_bus_to_routes(system, current.bus, current.routes)
        msgs = sorted(
            current.priorities.message_priorities,
            key=current.priorities.message_priority,
        )
        for step in range(4):
            if step:
                current = current.copy()
                current.priorities.swap_messages(
                    msgs[step - 1], msgs[step]
                )
            routes = current.routes or None
            state = kernel.update(
                current.priorities, current.bus, routes=routes
            )
            assert state == ("compiled" if step == 0 else "incremental")
            incremental, _ = kernel.solve(offsets)
            fresh, _ = AnalysisContext(
                system, current.priorities, current.bus, routes=routes
            ).solve(offsets)
            assert_rho_equal(fresh, incremental, context=f"step={step}")
            oracle = topology_oracle(
                system, offsets, current.priorities, current.bus, routes
            )
            assert_rho_equal(oracle, incremental, context=f"step={step}")
        # Dropping the overrides re-targets back to the default plan.
        assert kernel.update(current.priorities, current.bus) == "compiled"
        default, _ = kernel.solve(offsets)
        assert_rho_equal(
            topology_oracle(
                system, offsets, current.priorities, current.bus
            ),
            default, context="back to default routes",
        )

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10_000),
        clusters=st.integers(2, 4),
        extra_gateways=st.integers(0, 2),
        routed=st.booleans(),
        error_interval=st.sampled_from([None, 3.0, 40.0]),
    )
    def test_random_topologies_differential(
        self, seed, clusters, extra_gateways, routed, error_interval
    ):
        """Differential property: kernel == oracle on small random
        topologies, route overrides and CAN error processes."""
        gateways = clusters - 1 + extra_gateways
        system, config, routes, offsets = topology_case(
            seed, clusters, gateways, nodes=2 * clusters - 2,
            processes_per_node=4, routed=routed,
        )
        faults = None
        if error_interval is not None:
            faults = FaultSpec(
                can_error_interval=error_interval, can_error_overhead=0.5
            )
        if system.multi_topology or routes:
            oracle = topology_oracle(
                system, offsets, config.priorities, config.bus, routes,
                faults=faults,
            )
        else:  # canonical records
            oracle = oracle_rta(
                system, offsets, config.priorities, config.bus,
                faults=faults,
            )
        kernel, _ = AnalysisContext(
            system, config.priorities, config.bus, faults=faults,
            routes=routes,
        ).solve(offsets)
        assert_rho_equal(oracle, kernel, context="differential")


class TestMaxAbsDeltaHops:
    def _routed_rho(self):
        system, config, routes, offsets = topology_case(0, 3, 2)
        rho, _ = AnalysisContext(
            system, config.priorities, config.bus
        ).solve(offsets)
        assert rho.hops
        return rho

    def test_mutated_hop_field_is_a_delta(self):
        rho = self._routed_rho()
        other = rho.copy()
        name = sorted(other.hops)[0]
        legs = list(other.hops[name])
        legs[0] = replace(legs[0], queuing=legs[0].queuing + 0.5)
        other.hops[name] = tuple(legs)
        assert rho.max_abs_delta(rho.copy()) == 0.0
        assert rho.max_abs_delta(other) == pytest.approx(0.5)

    def test_structural_hop_mismatch_is_infinite(self):
        rho = self._routed_rho()
        missing = rho.copy()
        del missing.hops[sorted(missing.hops)[0]]
        assert rho.max_abs_delta(missing) == math.inf
        short = rho.copy()
        name = sorted(short.hops)[0]
        short.hops[name] = short.hops[name][:-1]
        assert rho.max_abs_delta(short) == math.inf


class TestIncrementalRecompilation:
    @pytest.mark.parametrize("seed", range(4))
    def test_move_sequence_equals_full_recompile(self, seed):
        """OR-style move walks: incremental update == fresh compile."""
        system = generate_workload(WorkloadSpec(nodes=3, seed=seed))
        config = straightforward_configuration(system)
        kernel = AnalysisContext(system, config.priorities, config.bus)
        rng = random.Random(seed)
        current = config
        multi_cluster_scheduling(
            system, current.bus, current.priorities,
            tt_delays=current.tt_delays, kernel=kernel,
        )
        for step in range(10):
            move = rng.choice(
                generate_neighbors(system, current, rng=rng, limit=12)
            )
            current = move.apply(current)
            incremental = multi_cluster_scheduling(
                system, current.bus, current.priorities,
                tt_delays=current.tt_delays, kernel=kernel,
            )
            fresh = multi_cluster_scheduling(
                system, current.bus, current.priorities,
                tt_delays=current.tt_delays,
            )
            label = f"seed={seed} step={step} move={move.describe()}"
            assert incremental.converged == fresh.converged, label
            assert incremental.iterations == fresh.iterations, label
            assert (
                incremental.offsets.max_abs_delta(fresh.offsets) == 0.0
            ), label
            assert_rho_equal(
                fresh.rho, incremental.rho, tol=0.0, context=label
            )
        assert kernel.stats.compiles == 1

    def test_non_adjacent_priority_swap_rebuilds_between_rows(self):
        """Swapping priorities i<k also refreshes rows with i<prio<k."""
        system = generate_workload(WorkloadSpec(nodes=2, seed=1))
        config = straightforward_configuration(system)
        kernel = AnalysisContext(system, config.priorities, config.bus)
        msgs = sorted(
            config.priorities.message_priorities,
            key=config.priorities.message_priority,
        )
        assert len(msgs) >= 3
        moved = config.copy()
        moved.priorities.swap_messages(msgs[0], msgs[-1])
        schedule = static_schedule(system, moved.bus)
        kernel.update(moved.priorities, moved.bus)
        incremental, _ = kernel.solve(schedule.offsets)
        fresh = AnalysisContext(system, moved.priorities, moved.bus)
        full, _ = fresh.solve(schedule.offsets)
        assert_rho_equal(full, incremental, tol=0.0, context="endpoint swap")

    def test_bus_only_change_is_incremental(self):
        """A slot resize/swap touches scalars, never interference rows."""
        system = generate_workload(WorkloadSpec(nodes=2, seed=0))
        config = straightforward_configuration(system)
        kernel = AnalysisContext(system, config.priorities, config.bus)
        rows_before = kernel.stats.rows_recompiled
        slots = list(config.bus.slots)
        slots[0], slots[1] = slots[1], slots[0]
        swapped = type(config.bus)(slots)
        assert kernel.update(config.priorities, swapped) == "incremental"
        assert kernel.stats.rows_recompiled == rows_before
        assert kernel.stats.compiles == 1

    def test_unchanged_config_is_cached(self):
        system = generate_workload(WorkloadSpec(nodes=2, seed=0))
        config = straightforward_configuration(system)
        kernel = AnalysisContext(system, config.priorities, config.bus)
        assert kernel.update(config.priorities, config.bus) == "cached"
        assert kernel.stats.updates == 0


class TestSessionKernelContract:
    def test_or_run_performs_single_full_compile(self):
        """Acceptance: OR through a session = one compile, then
        incremental recompiles only."""
        system = generate_workload(WorkloadSpec(nodes=2, seed=0))
        session = Session(system)
        optimize_resources(
            system, session=session, max_iterations=3,
            neighborhood=6, max_climbs=1,
        )
        info = session.cache_info()
        assert info.backend_calls > 1
        assert info.kernel_compiles == 1
        assert info.kernel_updates >= 1
        assert info.analysis_time > 0.0

    def test_warm_start_is_opt_in_and_a_safe_bound(self):
        """warm_start=True may only ever *increase* reported bounds."""
        system = generate_workload(
            WorkloadSpec(nodes=4, seed=0, target_utilization=0.5)
        )
        config = straightforward_configuration(system)
        cold = multi_cluster_scheduling(
            system, config.bus, config.priorities
        )
        warm = multi_cluster_scheduling(
            system, config.bus, config.priorities, warm_start=True
        )
        for coll in ("processes", "can", "ttp"):
            cold_t = getattr(cold.rho, coll)
            warm_t = getattr(warm.rho, coll)
            for key, timing in cold_t.items():
                if key not in warm_t:
                    continue
                assert (
                    warm_t[key].response >= timing.response - 1e-9
                ), (coll, key)

    def test_replacement_analysis_backend_gets_no_kernel_kwarg(self):
        """A user backend registered over "analysis" (replace=True) may
        not accept ``kernel=``; the session must not inject it.  Covers
        both a plain EvaluationBackend and an AnalysisBackend subclass
        overriding run() with the pre-kernel signature."""
        from repro.api.backends import (
            AnalysisBackend,
            EvaluationBackend,
            register_backend,
        )
        from repro.api.result import RunResult

        class Minimal(EvaluationBackend):
            name = "analysis"

            def run(self, system, config):  # no kernel parameter
                return RunResult(backend=self.name, config=config)

        class OldStyle(AnalysisBackend):
            def run(self, system, config, max_iterations=30):
                return RunResult(backend=self.name, config=config)

        system = generate_workload(WorkloadSpec(nodes=2, seed=0))
        config = straightforward_configuration(system)
        for replacement in (Minimal(), OldStyle()):
            register_backend("analysis", replacement, replace=True)
            try:
                run = Session(system).evaluate(config)
                assert run.backend == "analysis"
            finally:
                register_backend(
                    "analysis", AnalysisBackend, replace=True
                )

    def test_mismatched_explicit_kernel_rejected_before_cache(self):
        """A foreign kernel= must raise, not memoize an error result."""
        system = generate_workload(WorkloadSpec(nodes=2, seed=0))
        other = generate_workload(WorkloadSpec(nodes=2, seed=1))
        config = straightforward_configuration(system)
        foreign = AnalysisContext(
            other, straightforward_configuration(other).priorities,
            straightforward_configuration(other).bus,
        )
        session = Session(system)
        with pytest.raises(ValueError, match="different System"):
            session.evaluate(config, kernel=foreign)
        # The cache was not poisoned: a plain evaluation still works.
        run = session.evaluate(config)
        assert run.feasible

    def test_pool_batch_with_own_kernel_stays_clean(self):
        """workers>1 must not ship the kernel to pool workers (their
        rebuilt System would mismatch it and poison the cache)."""
        import warnings

        system = generate_workload(WorkloadSpec(nodes=2, seed=0))
        session = Session(system)
        config = straightforward_configuration(system)
        kernel = AnalysisContext(system, config.priorities, config.bus)
        variants = []
        msgs = sorted(
            config.priorities.message_priorities,
            key=config.priorities.message_priority,
        )
        for i in range(3):
            v = config.copy()
            v.priorities.swap_messages(msgs[i], msgs[i + 1])
            variants.append(v)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # pool may be unavailable
            runs = session.evaluate_many(
                variants, workers=2, kernel=kernel
            )
        assert all(run.feasible for run in runs)
        # And the memo cache holds the good results, not errors.
        again = session.evaluate(variants[0].copy())
        assert again.feasible

    def test_session_stats_count_warm_starts(self):
        system = generate_workload(WorkloadSpec(nodes=2, seed=0))
        config = straightforward_configuration(system)
        kernel = AnalysisContext(system, config.priorities, config.bus)
        multi_cluster_scheduling(
            system, config.bus, config.priorities, kernel=kernel,
            warm_start=True,
        )
        # Every analysis pass after the first is warm-started.
        assert kernel.stats.warm_starts == kernel.stats.solves - 1
