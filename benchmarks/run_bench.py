#!/usr/bin/env python
"""Kernel performance trajectory: write ``BENCH_kernel.json``,
``BENCH_sim.json``, ``BENCH_explore.json`` and ``BENCH_serve.json``
records.

Times the three layers the compiled kernel accelerated, on the paper's
160-process experimental scale (``WorkloadSpec(nodes=4, seed=0)``):

* ``rta``          — one holistic analysis pass, the interpreted
  multi-hop oracle on the default routing plan (recompiles per call)
  vs the kernel, asserted bit-identical;
* ``multicluster`` — one full Fig. 5 fixed-point loop, oracle-style
  (fresh compile per analysis pass) vs kernel (compile once + exact
  within-pass warm starts) vs kernel with the opt-in cross-iteration
  warm seeding;
* ``os_run``       — a whole OptimizeSchedule synthesis (the
  section-6 "minutes not hours" argument), which now routes through a
  session-owned kernel with incremental recompilation.

``BENCH_sim.json`` is the simulation series next to the analysis one:

* ``simulation``  — legacy engine vs compiled kernel (compile once +
  replay) on the same 160-process workload, with events/sec;
* ``campaign``    — a conformance campaign (default 1000 seeds) through
  the PR-3-era path (full-scan workload steering, evaluate_many
  double-dispatch, legacy engine) vs the current chunked campaign
  runner on the compiled kernel, at ``--workers 4`` and serially.

``BENCH_explore.json`` records the persistent experiment store:

* ``sweep`` — a design-space sweep (SF/OS/OR/SAS over seeded 40-process
  workloads) run cold against a fresh store, then warm (resumed), then
  resumed from a half-filled store (the killed-midway scenario): store
  hit rates, cold/warm/resume wall-clock and the cold-vs-warm
  determinism check.

``BENCH_serve.json`` measures the evaluation service (``repro serve``)
under synthetic many-client open-loop load: N client threads submit
evaluations over HTTP at a fixed rate (~30% duplicates), and the record
captures sustained evals/s, request throughput, dedup ratios and
queue/compute timings.

``BENCH_faults.json`` measures fault injection (``repro.faults``):

* ``injection``   — replay overhead on the 160-process workload for a
  null spec (machinery engaged, every fault process off), a modeled
  fault process (CAN errors + degraded bus) and an unmodeled one
  (execution jitter + babbling idiot), each against the fault-free
  replay, with the null run asserted bit-identical;
* ``degradation`` — a small ``faults``-axis sweep through
  ``repro.explore`` recording the degradation curve (degree, bound
  excess, injection counters) as severity climbs.

``BENCH_obs.json`` gates the observability layer's zero-cost-when-
disabled contract: the analysis hot path timed with the uninstrumented
inner kernel (baseline), with obs off (the default: one branch per
site) and with obs on, interleaved best-of-trials; the CI ``obs`` job
fails when the obs-off overhead exceeds 2 %.

The records are appended-safe: each invocation rewrites the files with
fresh measurements plus a uniform ``host`` block (cores, Python
version, timestamp), so committed snapshots form a trajectory across
PRs.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [kernel.json]
    [sim.json] [explore.json] [serve.json] [faults.json] [obs.json]

Scale knobs: ``REPRO_BENCH_NODES`` (default 4), ``REPRO_BENCH_RTA_REPS``
(default 10), ``REPRO_BENCH_SIM_REPS`` (default 20),
``REPRO_BENCH_CAMPAIGN`` (default 1000), ``REPRO_BENCH_SWEEP_SEEDS``
(default 6), ``REPRO_BENCH_SERVE_SECONDS`` / ``_CLIENTS`` / ``_WORKERS``
/ ``_RATE`` (defaults 6 / 4 / 2 / 25), ``REPRO_BENCH_FAULT_REPS``
(default 20), ``REPRO_BENCH_OBS_PROCS`` / ``_REPS`` / ``_TRIALS``
(defaults 160 / 15 / 5).
"""

import json
import os
import platform
import sys
import time

from repro.analysis.kernel import AnalysisContext
from repro.analysis.multicluster import multi_cluster_scheduling
from repro.analysis.multihop import multihop_response_time_analysis
from repro.model.architecture import GATEWAY_TRANSFER_PROCESS
from repro.optim import optimize_schedule, straightforward_configuration
from repro.schedule import static_schedule
from repro.synth import WorkloadSpec, generate_workload


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def _host():
    """Uniform host block stamped into every BENCH record.

    One shape across BENCH_kernel/sim/explore/serve so trajectory
    tooling can join records without per-file special cases.
    """
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _legacy_campaign_seed(payload):
    """One seed through the PR-3-era campaign path (picklable).

    Reconstructed verbatim for the baseline: full-scan gateway-traffic
    steering in the generator, the memoizing ``evaluate_many``
    double-dispatch, and the legacy event-by-event simulation engine.
    """
    spec, seed = payload
    import repro.synth.workload as workload_mod
    from repro.api.session import Session
    from repro.conformance.campaign import conformance_configuration
    from repro.conformance.classify import classify_run

    steer = workload_mod._steer_gateway_traffic
    workload_mod._steer_gateway_traffic = (
        workload_mod._steer_gateway_traffic_scan
    )
    try:
        system = workload_mod.generate_workload(spec.workload_spec(seed))
    finally:
        workload_mod._steer_gateway_traffic = steer
    config = conformance_configuration(system, spec.rounds_per_period)
    session = Session(system)
    analysis = session.evaluate_many([config], backend="analysis")[0]
    if not analysis.feasible:
        return "error"
    if not (analysis.schedulable and analysis.converged):
        return "unschedulable"
    run = session.evaluate_many(
        [config], backend="simulation", periods=spec.periods,
        analysis_run=analysis, engine="legacy",
    )[0]
    if not run.feasible:
        return "error"
    return "violation" if classify_run(run) else "ok"


def _legacy_campaign(spec, workers):
    """Wall-clock of the reconstructed PR-3 campaign."""
    import pickle
    from concurrent.futures.process import BrokenProcessPool

    seeds = [(spec, s) for s in range(spec.seed0, spec.seed0 + spec.campaign)]
    t0 = time.perf_counter()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunksize = max(1, len(seeds) // (workers * 4))
                statuses = list(
                    pool.map(_legacy_campaign_seed, seeds, chunksize=chunksize)
                )
        except (OSError, PermissionError, pickle.PicklingError,
                BrokenProcessPool):
            # Same degraded mode run_campaign falls back to, so the
            # recorded comparison stays serial-vs-serial there too.
            statuses = [_legacy_campaign_seed(item) for item in seeds]
    else:
        statuses = [_legacy_campaign_seed(item) for item in seeds]
    elapsed = time.perf_counter() - t0
    assert "violation" not in statuses and "error" not in statuses
    return elapsed


def bench_sim(output, system, nodes):
    """Measure the simulation series and write ``BENCH_sim.json``."""
    import warnings

    from repro.conformance import CampaignSpec, run_campaign
    from repro.conformance.campaign import conformance_configuration
    from repro.sim.engine import legacy_simulate
    from repro.sim.kernel import SimContext

    sim_reps = int(os.environ.get("REPRO_BENCH_SIM_REPS", 20))
    campaign_n = int(os.environ.get("REPRO_BENCH_CAMPAIGN", 1000))
    periods = 4

    # -- the 160-process simulation, legacy vs compiled ----------------------
    config = conformance_configuration(system, rounds_per_period=10)
    result = multi_cluster_scheduling(
        system, config.bus, config.priorities, tt_delays=config.tt_delays
    )
    config.offsets = result.offsets
    legacy_s, _ = _timed(lambda: [
        legacy_simulate(system, config, result.schedule, periods=periods)
        for _ in range(sim_reps)
    ])
    compile_s, context = _timed(
        SimContext, system, config, result.schedule
    )
    kernel_s, _ = _timed(lambda: [
        context.run(periods) for _ in range(sim_reps)
    ])
    events = context.last_replay["events"]

    # -- the conformance campaign, PR-3 path vs current ----------------------
    spec4 = CampaignSpec(campaign=campaign_n, seed0=0, workers=4)
    spec1 = CampaignSpec(campaign=campaign_n, seed0=0, workers=1)
    legacy_campaign_w4 = _legacy_campaign(spec4, workers=4)
    legacy_campaign_w1 = _legacy_campaign(spec1, workers=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        new_w4, report4 = _timed(run_campaign, spec4)
    new_w1, report1 = _timed(run_campaign, spec1)
    assert report4.clean and report1.clean
    profile = report1.profile

    record = {
        "benchmark": "sim",
        "workload": {
            "nodes": nodes,
            "seed": 0,
            "processes": system.app.process_count(),
            "messages": system.app.message_count(),
        },
        "host": _host(),
        "simulation": {
            "reps": sim_reps,
            "periods": periods,
            "legacy_s": legacy_s,
            "kernel_replay_s": kernel_s,
            "kernel_compile_s": compile_s,
            "events_per_replay": events,
            "events_per_s": events * sim_reps / max(kernel_s, 1e-9),
            "speedup": legacy_s / max(kernel_s, 1e-9),
            "speedup_one_shot": legacy_s / max(
                kernel_s + compile_s * sim_reps, 1e-9
            ),
        },
        "campaign": {
            "seeds": campaign_n,
            "legacy_path_workers4_s": legacy_campaign_w4,
            "legacy_path_serial_s": legacy_campaign_w1,
            "workers4_s": new_w4,
            "serial_s": new_w1,
            "speedup_workers4": legacy_campaign_w4 / max(new_w4, 1e-9),
            "speedup_serial": legacy_campaign_w1 / max(new_w1, 1e-9),
            "seeds_per_s": campaign_n / max(new_w4, 1e-9),
            "events_per_s": profile["events_per_s"],
            "per_phase_serial_s": {
                "generate": profile["generate_s"],
                "analyze": profile["analyze_s"],
                "simulate": profile["simulate_s"],
            },
        },
    }
    with open(output, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record, indent=2))
    print(f"\nwrote {output}")


def bench_explore(output):
    """Measure the store/resume series and write ``BENCH_explore.json``."""
    import shutil
    import tempfile

    from repro.explore import SweepSpec, run_sweep

    seeds = int(os.environ.get("REPRO_BENCH_SWEEP_SEEDS", 6))

    def sweep_spec(seed_count):
        return SweepSpec(
            name="bench-explore",
            workload={
                "nodes": 2, "processes_per_node": 20,
                "gateway_messages": 5, "graph_size_range": [[4, 8]],
                "seed": list(range(seed_count)),
            },
            methods=("SF", "OS", "OR", "SAS"),
            options={"sa_iterations": 40},
            group_by=("seed",),
        )

    spec = sweep_spec(seeds)
    # The killed-midway scenario pre-fills half the seeds' cells.
    half = sweep_spec(max(1, seeds // 2))
    cells = len(spec.cells())
    root = tempfile.mkdtemp(prefix="repro-bench-explore-")
    try:
        cold_s, cold = _timed(run_sweep, spec, store=os.path.join(root, "a"))
        warm_s, warm = _timed(run_sweep, spec, store=os.path.join(root, "a"))
        # The killed-midway scenario: a store holding half the cells.
        _, partial = _timed(run_sweep, half, store=os.path.join(root, "b"))
        resume_s, resumed = _timed(
            run_sweep, spec, store=os.path.join(root, "b")
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)

    def deterministic(report):
        data = report.to_dict()
        return {k: data[k] for k in ("cells", "fronts", "counts")}

    assert warm.store_hits == cells and warm.computed == 0
    assert resumed.store_hits == partial.computed
    assert deterministic(cold) == deterministic(warm) == \
        deterministic(resumed)

    record = {
        "benchmark": "explore",
        "host": _host(),
        "sweep": {
            "cells": cells,
            "methods": list(spec.methods),
            "seeds": seeds,
            "cold_s": cold_s,
            "warm_s": warm_s,
            "warm_hit_rate": warm.store_hits / cells,
            "warm_speedup": cold_s / max(warm_s, 1e-9),
            "resume_prefilled_cells": partial.computed,
            "resume_s": resume_s,
            "resume_hit_rate": resumed.store_hits / cells,
            "resume_speedup": cold_s / max(resume_s, 1e-9),
            "deterministic_report": True,  # asserted above
        },
    }
    with open(output, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record, indent=2))
    print(f"\nwrote {output}")


def _bench_serve_fleet(local=0, remote=0, kill_one=False):
    """One distributed-fleet datapoint for ``BENCH_serve.json``.

    Runs a conformance campaign through an HTTP daemon backed by the
    requested fleet; with ``kill_one`` a local worker is frozen before
    dispatch (so it is guaranteed to be holding units) and SIGKILLed
    mid-campaign — the datapoint then measures the supervised
    re-dispatch path, not the happy path.  Exactly-once is asserted
    either way: ``computed`` equals the seed count, ``errors`` zero.
    """
    import shutil
    import signal
    import tempfile
    import threading

    from repro.conformance.campaign import CampaignSpec
    from repro.serve import (
        EvaluationService, ServeClient, run_campaign_via_server, serve,
    )
    from repro.serve.supervisor import SupervisorConfig
    from repro.serve.workers import run_worker

    seeds = int(os.environ.get("REPRO_BENCH_SERVE_FLEET_SEEDS", 50))
    root = tempfile.mkdtemp(prefix="repro-bench-serve-fleet-")
    service = EvaluationService(
        os.path.join(root, "store"), workers=local,
        supervisor=SupervisorConfig(lease_s=2.0, tick_s=0.02),
    )
    ready = threading.Event()
    announced = {}
    server_thread = threading.Thread(
        target=lambda: serve(
            service, port=0, ready=ready,
            announce=lambda msg: announced.setdefault("line", msg),
        ),
        daemon=True,
    )
    server_thread.start()
    assert ready.wait(timeout=10)
    url = announced["line"].split("serving on ")[1]

    stop = threading.Event()
    worker_threads = [
        threading.Thread(
            target=run_worker, args=(url,),
            kwargs=dict(
                label=f"bench-{i}", stop=stop, announce=lambda msg: None
            ),
            daemon=True,
        )
        for i in range(remote)
    ]
    for thread in worker_threads:
        thread.start()
    if remote:
        deadline = time.perf_counter() + 10
        while time.perf_counter() < deadline:
            fleet = service.supervisor.fleet()
            if sum(1 for w in fleet if w["transport"] == "remote") == remote:
                break
            time.sleep(0.02)

    victim = None
    if kill_one:
        victim = next(
            w["pid"] for w in service.supervisor.fleet()
            if w["transport"] == "local" and w["alive"]
        )
        os.kill(victim, signal.SIGSTOP)

    spec = CampaignSpec(
        campaign=seeds, workers=1, nodes=2, processes_per_node=4,
        shrink=False, fixture_dir=None,
    )

    killer = None
    if kill_one:
        def _kill():
            time.sleep(0.05)
            os.kill(victim, signal.SIGKILL)
        killer = threading.Thread(target=_kill, daemon=True)
        killer.start()

    started = time.perf_counter()
    report = run_campaign_via_server(spec, url, timeout=600)
    elapsed = time.perf_counter() - started
    if killer is not None:
        killer.join(timeout=10)

    stats = service.stats()
    counters = stats["counters"]
    assert counters["computed"] == seeds, counters
    assert counters["errors"] == 0, counters
    assert len(report.outcomes) == seeds

    stop.set()
    ServeClient(url, timeout=30).shutdown()
    server_thread.join(timeout=60)
    for thread in worker_threads:
        thread.join(timeout=10)
    shutil.rmtree(root, ignore_errors=True)

    return {
        "local_workers": local,
        "remote_workers": remote,
        "worker_killed": bool(kill_one),
        "campaign_seeds": seeds,
        "wall_s": elapsed,
        "seeds_per_s": seeds / max(elapsed, 1e-9),
        "supervisor": stats["supervisor"],
    }


def bench_serve(output):
    """Measure the evaluation service and write ``BENCH_serve.json``.

    Synthetic many-client open-loop load: ``REPRO_BENCH_SERVE_CLIENTS``
    threads (default 4) each submit evaluations over HTTP at a fixed
    rate for ``REPRO_BENCH_SERVE_SECONDS`` (default 6), regardless of
    completion — the open-loop discipline, so queueing shows up as
    latency, not as a lower offered rate.  About 30% of submissions
    repeat an earlier configuration, exercising the dedup/store path
    the service exists for.  Records sustained evals/s, request
    throughput, dedup ratios and queue/compute timings, plus two
    distributed-fleet datapoints (remote-only fleet; one local worker
    SIGKILLed mid-campaign) from ``_bench_serve_fleet``.
    """
    import shutil
    import tempfile
    import threading

    from repro.conformance.campaign import conformance_configuration
    from repro.io.serialize import config_to_dict, system_to_dict
    from repro.serve import EvaluationService, ServeClient, serve

    seconds = float(os.environ.get("REPRO_BENCH_SERVE_SECONDS", 6))
    clients = int(os.environ.get("REPRO_BENCH_SERVE_CLIENTS", 4))
    workers = int(os.environ.get("REPRO_BENCH_SERVE_WORKERS", 2))
    rate = float(os.environ.get("REPRO_BENCH_SERVE_RATE", 25.0))

    system = generate_workload(
        WorkloadSpec(nodes=2, processes_per_node=8, seed=0)
    )
    system_dict = system_to_dict(system)
    total_target = max(clients, int(seconds * rate * clients))
    unique = max(1, int(total_target * 0.7))
    configs = [
        config_to_dict(
            conformance_configuration(system, rounds_per_period=4 + i)
        )
        for i in range(unique)
    ]

    root = tempfile.mkdtemp(prefix="repro-bench-serve-")
    service = EvaluationService(os.path.join(root, "store"), workers=workers)
    ready = threading.Event()
    announced = {}
    server_thread = threading.Thread(
        target=lambda: serve(
            service, port=0, ready=ready,
            announce=lambda msg: announced.setdefault("line", msg),
        ),
        daemon=True,
    )
    server_thread.start()
    assert ready.wait(timeout=10)
    url = announced["line"].split("serving on ")[1]

    interval = 1.0 / rate
    per_client = total_target // clients
    submitted_ids = [[] for _ in range(clients)]

    def client_body(cid):
        client = ServeClient(url, timeout=600)
        t0 = time.perf_counter()
        for j in range(per_client):
            # Open loop: wait for the tick, not for the last response.
            target = t0 + j * interval
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            config = configs[(j * clients + cid) % unique]
            submitted_ids[cid].append(
                client.evaluate(system_dict, config)["id"]
            )

    t_start = time.perf_counter()
    threads = [
        threading.Thread(target=client_body, args=(cid,))
        for cid in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # Wait for the backlog to drain (in-process: watch the jobs).
    for ids in submitted_ids:
        for job_id in ids:
            service.wait(job_id, timeout=600)
    elapsed = time.perf_counter() - t_start
    stats = service.stats()
    ServeClient(url, timeout=30).shutdown()
    server_thread.join(timeout=60)
    shutil.rmtree(root, ignore_errors=True)

    counters = stats["counters"]
    submitted = counters["submitted"]
    assert counters["errors"] == 0
    assert submitted == clients * per_client
    # Exactly-once compute under duplication: never more computations
    # than unique configurations.
    assert counters["computed"] <= unique

    record = {
        "benchmark": "serve",
        "host": _host(),
        "load": {
            "clients": clients,
            "workers": workers,
            "offered_rate_per_s": rate * clients,
            "seconds": seconds,
            "requests": submitted,
            "unique_configs": unique,
            "duplicate_fraction": 1.0 - unique / max(1, submitted),
        },
        "service": {
            "wall_s": elapsed,
            "requests_per_s": submitted / max(elapsed, 1e-9),
            "evals_per_s": counters["computed"] / max(elapsed, 1e-9),
            "computed": counters["computed"],
            "dedup_hits": counters["dedup_hits"],
            "store_hits": counters["store_hits"],
            "dedup_ratio": (
                (counters["dedup_hits"] + counters["store_hits"])
                / max(1, submitted)
            ),
            "queue_wait_s_avg": stats["timings"]["queue_wait_s_avg"],
            "unit_compute_s_avg": stats["timings"]["unit_compute_s_avg"],
            "store_entries": stats["store"]["entries"],
            "store_shards": stats["store"]["shards"],
        },
        "fleet": {
            "remote_workers": _bench_serve_fleet(remote=2),
            "one_worker_killed": _bench_serve_fleet(
                local=2, kill_one=True
            ),
        },
    }
    with open(output, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record, indent=2))
    print(f"\nwrote {output}")


def bench_faults(output, system, nodes):
    """Measure fault injection and write ``BENCH_faults.json``.

    The injection series replays the compiled kernel on the 160-process
    workload under a null spec (the fault machinery engaged with every
    process off), a modeled fault process (seeded CAN errors plus a
    derated bus) and an unmodeled one (execution jitter plus a babbling
    idiot), each timed against the fault-free replay; the null run's
    observation surfaces are asserted bit-identical to fault-free.  The
    degradation series sweeps a ``faults`` axis of rising severity
    through ``repro.explore`` and records the curve.
    """
    import shutil
    import tempfile

    from repro.conformance.campaign import conformance_configuration
    from repro.explore import SweepSpec, run_sweep
    from repro.faults import FaultSpec
    from repro.sim.kernel import SimContext

    reps = int(os.environ.get("REPRO_BENCH_FAULT_REPS", 20))
    periods = 4

    # -- injection overhead on the 160-process replay ------------------------
    config = conformance_configuration(system, rounds_per_period=10)
    result = multi_cluster_scheduling(
        system, config.bus, config.priorities, tt_delays=config.tt_delays
    )
    config.offsets = result.offsets
    context = SimContext(system, config, result.schedule)

    modeled = FaultSpec(
        seed=1, can_error_interval=25.0, can_error_overhead=0.5,
        bus_slow=1.05,
    )
    unmodeled = FaultSpec(
        seed=1, exec_jitter=0.2, babble_period=60.0, babble_size=4
    )

    clean_s, clean_traces = _timed(lambda: [
        context.run(periods) for _ in range(reps)
    ])
    null_s, null_traces = _timed(lambda: [
        context.run(periods, faults=FaultSpec()) for _ in range(reps)
    ])
    modeled_s, _ = _timed(lambda: [
        context.run(periods, faults=modeled) for _ in range(reps)
    ])
    counters = {
        name: context.last_replay[name]
        for name in ("can_errors", "babble_frames")
    }
    unmodeled_s, _ = _timed(lambda: [
        context.run(periods, faults=unmodeled) for _ in range(reps)
    ])

    def surface(trace):
        return (trace.process_response, trace.graph_response,
                trace.message_latency, trace.queue_peak,
                trace.completed_instances)

    assert surface(null_traces[0]) == surface(clean_traces[0])

    # -- a small degradation curve via the sweep engine ----------------------
    severities = [
        None,
        {"can_error_interval": 8.0, "can_error_overhead": 0.5},
        {"can_error_interval": 3.0, "can_error_overhead": 0.5,
         "bus_slow": 1.3},
    ]
    curve_spec = SweepSpec(
        name="bench-degradation",
        workload={
            "nodes": 2, "processes_per_node": 20,
            "gateway_messages": 8, "seed": 0,
        },
        methods=("simulation",),
        options={"periods": 4, "faults": severities},
    )
    root = tempfile.mkdtemp(prefix="repro-bench-faults-")
    try:
        sweep_s, report = _timed(
            run_sweep, curve_spec, store=os.path.join(root, "store")
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    assert not report.errored, report.errored
    curve = [
        {
            "faults": rec["options"].get("faults"),
            "schedulable": rec["metrics"]["schedulable"],
            "degree": rec["metrics"]["degree"],
            "bound_excess": rec["metrics"]["bound_excess"],
            "fault_injection": rec["metrics"].get("fault_injection"),
        }
        for rec in report.records
    ]

    record = {
        "benchmark": "faults",
        "workload": {
            "nodes": nodes,
            "seed": 0,
            "processes": system.app.process_count(),
            "messages": system.app.message_count(),
        },
        "host": _host(),
        "injection": {
            "reps": reps,
            "periods": periods,
            "clean_s": clean_s,
            "null_spec_s": null_s,
            "modeled_s": modeled_s,
            "unmodeled_s": unmodeled_s,
            "null_overhead": null_s / max(clean_s, 1e-9),
            "modeled_overhead": modeled_s / max(clean_s, 1e-9),
            "unmodeled_overhead": unmodeled_s / max(clean_s, 1e-9),
            "modeled_counters_per_replay": counters,
            "null_bit_identical": True,  # asserted above
        },
        "degradation": {
            "cells": len(report.records),
            "wall_s": sweep_s,
            "curve": curve,
        },
    }
    with open(output, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record, indent=2))
    print(f"\nwrote {output}")


def bench_obs(output):
    """Zero-cost observability gate: write ``BENCH_obs.json``.

    Times the same analysis hot path three ways on a large workload
    (``REPRO_BENCH_OBS_PROCS`` processes, default 160): ``_solve_impl``
    (the uninstrumented inner kernel — "obs absent", the baseline),
    ``solve`` with obs disabled (the shipping default: one attribute
    load and branch per call), and ``solve`` with obs enabled (a span
    plus a histogram observation per call).  Best-of-``TRIALS``
    aggregates of ``REPS``-call loops; the CI ``obs`` job gates
    ``overhead_off_pct`` at <= 2 %.
    """
    from repro import obs
    from repro.conformance.campaign import conformance_configuration

    procs = int(os.environ.get("REPRO_BENCH_OBS_PROCS", 160))
    nodes = int(os.environ.get("REPRO_BENCH_OBS_NODES", 4))
    reps = int(os.environ.get("REPRO_BENCH_OBS_REPS", 15))
    trials = int(os.environ.get("REPRO_BENCH_OBS_TRIALS", 5))
    spec = WorkloadSpec(
        nodes=nodes, processes_per_node=max(1, procs // nodes), seed=0
    )
    system = generate_workload(spec)
    config = conformance_configuration(system, rounds_per_period=10)
    kernel = AnalysisContext(system, config.priorities, config.bus)
    offsets = static_schedule(system, config.bus).offsets
    kernel.solve(offsets)  # warm-up: lazy imports, allocator steady state

    # The arms are interleaved within each trial round and the best
    # round kept per arm: slow machine-level drift (CI neighbors, cpu
    # frequency) then hits every arm alike instead of biasing whichever
    # ran last.
    arms = {
        "baseline_s": (False, kernel._solve_impl),
        "obs_off_s": (False, kernel.solve),
        "obs_on_s": (True, kernel.solve),
    }
    best = {name: float("inf") for name in arms}
    for _ in range(trials):
        for name, (enabled, fn) in arms.items():
            obs.configure(enabled=enabled)
            try:
                elapsed, _ = _timed(
                    lambda: [fn(offsets) for _ in range(reps)]
                )
            finally:
                obs.configure(enabled=False)
            best[name] = min(best[name], elapsed)
    obs.reset_process()
    baseline_s = best["baseline_s"]
    off_s = best["obs_off_s"]
    on_s = best["obs_on_s"]

    record = {
        "benchmark": "obs",
        "workload": {
            "nodes": nodes,
            "seed": 0,
            "processes": system.app.process_count(),
            "can_messages": len(system.can_messages()),
        },
        "host": _host(),
        "solve": {
            "reps": reps,
            "trials": trials,
            "baseline_s": baseline_s,
            "obs_off_s": off_s,
            "obs_on_s": on_s,
            "overhead_off_pct": (
                (off_s - baseline_s) / max(baseline_s, 1e-9) * 100.0
            ),
            "overhead_on_pct": (
                (on_s - baseline_s) / max(baseline_s, 1e-9) * 100.0
            ),
        },
    }
    with open(output, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record, indent=2))
    print(f"\nwrote {output}")
    return record


def main(argv):
    output = argv[1] if len(argv) > 1 else "BENCH_kernel.json"
    sim_output = argv[2] if len(argv) > 2 else "BENCH_sim.json"
    explore_output = argv[3] if len(argv) > 3 else "BENCH_explore.json"
    serve_output = argv[4] if len(argv) > 4 else "BENCH_serve.json"
    faults_output = argv[5] if len(argv) > 5 else "BENCH_faults.json"
    nodes = int(os.environ.get("REPRO_BENCH_NODES", 4))
    reps = int(os.environ.get("REPRO_BENCH_RTA_REPS", 10))
    spec = WorkloadSpec(nodes=nodes, seed=0)
    system = generate_workload(spec)
    config = straightforward_configuration(system)
    offsets = static_schedule(system, config.bus).offsets
    plan = system.routing_for({})

    def oracle_rta(at_offsets):
        return multihop_response_time_analysis(
            system, at_offsets, config.priorities, config.bus, plan
        )

    # -- one analysis pass, repeated ----------------------------------------
    oracle_s, oracle_runs = _timed(lambda: [
        oracle_rta(offsets) for _ in range(reps)
    ])
    kernel = AnalysisContext(system, config.priorities, config.bus)
    kernel_rta, kernel_runs = _timed(lambda: [
        kernel.solve(offsets)[0] for _ in range(reps)
    ])
    # Bit identity: the oracle's per-gateway transfer records are the
    # only keys the kernel does not emit.
    for rho_oracle, rho_kernel in zip(oracle_runs, kernel_runs):
        for g in system.arch.gateways():
            del rho_oracle.processes[f"{GATEWAY_TRANSFER_PROCESS}@{g}"]
        assert rho_oracle.max_abs_delta(rho_kernel) == 0.0

    # -- the Fig. 5 loop ----------------------------------------------------
    def oracle_multicluster():
        # The pre-kernel loop: static scheduling alternated with the
        # oracle (recompile-per-call) response-time analysis.
        import math

        schedule = static_schedule(system, config.bus, rho=None)
        loop_offsets = schedule.offsets
        rho = oracle_rta(loop_offsets)
        floors = {}
        for _ in range(30):
            for msg_name, timing in rho.ttp.items():
                end = timing.worst_end
                if math.isfinite(end):
                    floors[msg_name] = max(floors.get(msg_name, 0.0), end)
            new_schedule = static_schedule(
                system, config.bus, rho=rho, arrival_floors=floors
            )
            if new_schedule.offsets.max_abs_delta(loop_offsets) <= 1e-9:
                break
            loop_offsets = new_schedule.offsets
            rho = oracle_rta(loop_offsets)
        return rho

    mc_oracle, _ = _timed(oracle_multicluster)
    mc_kernel, _ = _timed(
        multi_cluster_scheduling, system, config.bus, config.priorities
    )
    mc_warm, _ = _timed(
        multi_cluster_scheduling, system, config.bus, config.priorities,
        warm_start=True,
    )

    # -- a whole OptimizeSchedule run ---------------------------------------
    os_time, osr = _timed(
        optimize_schedule, system, max_capacity_candidates=3
    )

    # -- a 4-cluster topology datapoint --------------------------------------
    # The general cluster graph takes the route-aware interpreted
    # solver instead of the canonical compiled rows; this records its
    # compile + solve costs (and the full Fig. 5 loop) so the trajectory
    # captures the multihop path next to the canonical one.
    from repro.conformance.campaign import conformance_configuration

    topo_nodes = int(os.environ.get("REPRO_BENCH_TOPO_NODES", 6))
    topo_spec = WorkloadSpec(nodes=topo_nodes, seed=0, clusters=4, gateways=4)
    topo_system = generate_workload(topo_spec)
    topo_config = conformance_configuration(topo_system, rounds_per_period=10)
    topo_compile_s, topo_kernel = _timed(
        AnalysisContext, topo_system, topo_config.priorities, topo_config.bus
    )
    topo_offsets = static_schedule(topo_system, topo_config.bus).offsets
    topo_solve_s, _ = _timed(lambda: [
        topo_kernel.solve(topo_offsets) for _ in range(reps)
    ])
    topo_mc_s, _ = _timed(
        multi_cluster_scheduling, topo_system, topo_config.bus,
        topo_config.priorities,
    )

    record = {
        "benchmark": "kernel",
        "workload": {
            "nodes": nodes,
            "seed": 0,
            "processes": system.app.process_count(),
            "can_messages": len(system.can_messages()),
        },
        "host": _host(),
        "rta": {
            "reps": reps,
            "oracle_s": oracle_s,
            "kernel_s": kernel_rta,
            "speedup": oracle_s / max(kernel_rta, 1e-9),
        },
        "multicluster": {
            "oracle_s": mc_oracle,
            "kernel_s": mc_kernel,
            "kernel_warm_s": mc_warm,
            "speedup": mc_oracle / max(mc_kernel, 1e-9),
        },
        "os_run": {
            "wall_s": os_time,
            "evaluations": osr.evaluations,
            "schedulable": osr.schedulable,
            "degree": osr.best.degree,
        },
        "topology": {
            "clusters": 4,
            "gateways": 4,
            "nodes": topo_nodes,
            "processes": topo_system.app.process_count(),
            "can_messages": len(topo_system.can_messages()),
            "reps": reps,
            "compile_s": topo_compile_s,
            "solve_s": topo_solve_s,
            "multicluster_s": topo_mc_s,
        },
    }
    with open(output, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record, indent=2))
    print(f"\nwrote {output}")

    bench_sim(sim_output, system, nodes)
    bench_explore(explore_output)
    bench_serve(serve_output)
    bench_faults(faults_output, system, nodes)
    bench_obs(argv[6] if len(argv) > 6 else "BENCH_obs.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
