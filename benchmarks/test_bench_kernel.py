"""Bench: compiled analysis kernel vs the interpreted oracle's per-call
recompile.

The kernel's pitch is the section-6 throughput argument: OS/OR reach
good configurations in minutes only because each analysis evaluation is
cheap.  This benchmark plays the optimizer access pattern — repeated
analyses of the same system with small configuration deltas — against
the compiled kernel and the interpreted multi-hop oracle (run with the
default routing plan, which is bit-identical to the kernel on the
canonical topology) and asserts the kernel's speedup, at the small
smoke scale CI runs:

* ``repeated-solve``: N analyses at fixed ``(π, β)`` (the Fig. 5 inner
  pattern) — the oracle recompiles interference tables every call,
  the kernel compiles once;
* ``move-loop``: N priority-swap moves (the OptimizeResources pattern)
  — the kernel recompiles only the touched rows.

Functional assertions keep it honest: results must agree bit for bit,
and the kernel must be at least 2x faster on the repeated-solve
pattern even at smoke scale (the margin at the paper's 160-process
scale is far larger; see BENCH_kernel.json from ``run_bench.py``).

Scale knobs: ``REPRO_KERNEL_NODES`` (default 2), ``REPRO_KERNEL_REPS``
(default 20).
"""

import os
import time

import pytest

from repro.analysis.kernel import AnalysisContext
from repro.analysis.multihop import multihop_response_time_analysis
from repro.model.architecture import GATEWAY_TRANSFER_PROCESS
from repro.io import comparison_table
from repro.optim import straightforward_configuration
from repro.schedule import static_schedule
from repro.synth import WorkloadSpec, generate_workload


def assert_rho_equal(a, b, tol=0.0, context=""):
    """Bit-level structural equality of two ResponseTimes records."""
    delta = a.max_abs_delta(b)
    assert delta <= tol, (
        f"{context}: rho records differ (max |delta| = {delta})"
    )


@pytest.fixture(scope="module")
def system():
    nodes = int(os.environ.get("REPRO_KERNEL_NODES", 2))
    return generate_workload(WorkloadSpec(nodes=nodes, seed=0))


def test_kernel_speedup(system, capsys):
    reps = int(os.environ.get("REPRO_KERNEL_REPS", 20))
    config = straightforward_configuration(system)
    schedule = static_schedule(system, config.bus)
    offsets = schedule.offsets
    plan = system.routing_for({})

    # Process CPU time and best-of-2 passes: the CI gate below must not
    # turn red because a noisy shared runner stalled one timed loop.
    oracle = compiled = None
    oracle_time = kernel_time = float("inf")
    for _attempt in range(2):
        t0 = time.process_time()
        oracle = [
            multihop_response_time_analysis(
                system, offsets, config.priorities, config.bus, plan
            )
            for _ in range(reps)
        ]
        oracle_time = min(oracle_time, time.process_time() - t0)

        t0 = time.process_time()
        kernel = AnalysisContext(system, config.priorities, config.bus)
        compiled = [kernel.solve(offsets)[0] for _ in range(reps)]
        kernel_time = min(kernel_time, time.process_time() - t0)

    # The oracle's per-gateway transfer records are the only keys the
    # kernel does not emit.
    for rho in oracle:
        for g in system.arch.gateways():
            del rho.processes[f"{GATEWAY_TRANSFER_PROCESS}@{g}"]
    for rho_a, rho_b in zip(oracle, compiled):
        assert_rho_equal(rho_a, rho_b, tol=0.0, context="bench")

    speedup = oracle_time / max(kernel_time, 1e-9)
    rows = [
        ["multihop oracle (recompile per call)", f"{oracle_time:.3f}",
         "1.0x"],
        ["kernel (compile once)", f"{kernel_time:.3f}",
         f"{speedup:.1f}x"],
    ]
    with capsys.disabled():
        print()
        print(comparison_table(
            f"{reps} repeated analyses, "
            f"{system.app.process_count()} processes",
            ["path", "cpu time [s]", "speedup"],
            rows,
        ))
    # CI smoke gate: the compiled kernel must beat the per-call
    # recompile by at least 2x even at the small scale.
    assert speedup >= 2.0, f"kernel speedup {speedup:.2f}x below 2x"


def test_kernel_move_loop_incremental(system, capsys):
    """Priority-swap move loop: incremental recompile stays cheap and
    bit-identical to compiling from scratch at every move."""
    reps = int(os.environ.get("REPRO_KERNEL_REPS", 20))
    config = straightforward_configuration(system)
    schedule = static_schedule(system, config.bus)
    offsets = schedule.offsets
    msgs = sorted(
        config.priorities.message_priorities,
        key=config.priorities.message_priority,
    )

    kernel = AnalysisContext(system, config.priorities, config.bus)
    kernel.solve(offsets)
    t0 = time.perf_counter()
    current = config
    for step in range(reps):
        current = current.copy()
        a, b = msgs[step % (len(msgs) - 1)], msgs[step % (len(msgs) - 1) + 1]
        current.priorities.swap_messages(a, b)
        kernel.update(current.priorities, current.bus)
        incremental, _ = kernel.solve(offsets)
        fresh, _ = AnalysisContext(
            system, current.priorities, current.bus
        ).solve(offsets)
        assert_rho_equal(fresh, incremental, tol=0.0, context=f"move {step}")
    elapsed = time.perf_counter() - t0

    assert kernel.stats.compiles == 1
    assert kernel.stats.updates == reps
    with capsys.disabled():
        print(
            f"\n{reps} incremental moves in {elapsed:.3f}s "
            f"({kernel.stats.rows_recompiled} rows recompiled, "
            "1 full compile)"
        )
