"""Tests of the benchmark itself: the ledger's accounting, its agreement
with the program's own counters, the seeds and the metric tables.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common, serve_load, workloads  # noqa: E402
from perfbench.common import RunOutcome  # noqa: E402
from perfbench.ledger import REPRO_LAYERS, Layer, Ledger, self_times  # noqa: E402
from perfbench.run import DEFAULT_SEED, HELD_OUT_SEED, make_workload  # noqa: E402


def _small_system(seed=3):
    from repro.synth import WorkloadSpec, generate_workload

    return generate_workload(
        WorkloadSpec(nodes=2, processes_per_node=8, seed=seed)
    )


# -- accounting ---------------------------------------------------------------


def _covered(ledger):
    """Wall covered by the outermost spans."""
    return sum(s.end - s.start for s in ledger.spans if s.parent is None)


def test_self_times_partition_the_covered_time():
    ledger = Ledger(())

    def traced(name, fn):
        return ledger._wrapper(Layer(name, "", ""), fn)

    inner = traced("b", lambda: sum(range(20000)))
    middle = traced("a", lambda: inner() + sum(range(20000)))
    outer = traced("outer", lambda: [middle(), middle(), sum(range(20000))])
    outer()
    own = self_times(ledger.spans)
    assert sum(own.values()) == pytest.approx(_covered(ledger), abs=1e-9)
    assert all(value >= 0 for value in own.values())
    totals = ledger.totals()
    assert (totals["outer"]["calls"], totals["a"]["calls"],
            totals["b"]["calls"]) == (1, 2, 2)
    # Inclusive time of "a" covers its "b" children.
    assert totals["a"]["total_s"] >= totals["b"]["total_s"]
    assert totals["a"]["self_s"] == pytest.approx(
        totals["a"]["total_s"] - totals["b"]["total_s"], abs=1e-9
    )


def test_one_wrapper_per_function_under_every_binding():
    import repro
    import repro.analysis.multicluster as multicluster
    import repro.schedule as schedule
    import repro.schedule.list_scheduler as list_scheduler

    original = list_scheduler.static_schedule
    with Ledger(REPRO_LAYERS):
        wrapped = list_scheduler.static_schedule
        assert wrapped is not original
        assert schedule.static_schedule is wrapped
        assert multicluster.static_schedule is wrapped
        assert repro.static_schedule is wrapped
    assert list_scheduler.static_schedule is original
    assert multicluster.static_schedule is original
    assert repro.static_schedule is original


def test_nested_layers_are_not_double_counted():
    from repro.api.session import Session
    from repro.optim import straightforward_configuration

    system = _small_system()
    session = Session(system)
    ledger = Ledger(REPRO_LAYERS)
    with ledger:
        session.evaluate(straightforward_configuration(system))
    totals = ledger.totals()
    own = sum(row["self_s"] for row in totals.values())
    assert own == pytest.approx(_covered(ledger), rel=1e-9)
    # Only one outermost span: everything nests under the evaluate call.
    roots = [s for s in ledger.spans if s.parent is None]
    assert [s.name for s in roots] == ["session.evaluate"]
    assert totals["kernel.solve"]["calls"] == session._kernel.stats.solves
    assert totals["kernel.compile"]["calls"] == 1


# -- reconciliation with the program's counters --------------------------------


def test_session_cache_info_reconciles():
    from repro.api.session import Session
    from repro.optim import optimize_schedule

    system = _small_system(5)
    session = Session(system)
    ledger = workloads.traced_ledger()
    with ledger:
        optimize_schedule(system, session=session, max_capacity_candidates=2)
    info = session.cache_info()
    totals = ledger.totals()
    assert totals["session.evaluate"]["calls"] == info.hits + info.misses
    assert ledger.counts["session.hits"] == info.hits
    assert ledger.counts["session.misses"] == info.misses
    assert totals["kernel.compile"]["calls"] == info.kernel_compiles
    assert workloads.memo_hit_ratio(ledger) == pytest.approx(
        info.hits / (info.hits + info.misses)
    )


def test_campaign_profile_reconciles():
    workload = workloads.CampaignWorkload(DEFAULT_SEED)
    workload.spec = workloads.campaign_spec(40, 40)
    out = RunOutcome()
    workload.trace(0.01, out)
    assert not out.check_failures and out.failed == 0
    rec = out.detail["reconcile"]
    assert rec["sim_events"]["ledger"] == rec["sim_events"]["program"] > 0
    # The campaign's generate timer also covers building the
    # configuration, so it bounds the ledger's generate span from above.
    gen = rec["generate_s"]
    assert 0.7 * gen["program"] <= gen["ledger"] <= gen["program"] * 1.05
    evaluate = rec["analyze_s+simulate_s"]
    assert 0.8 * evaluate["program"] <= evaluate["ledger"]
    assert evaluate["ledger"] <= 1.05 * evaluate["program"]
    for key in ("sim_compile_s", "sim_replay_s"):
        assert rec[key]["ledger"] == pytest.approx(
            rec[key]["program"], rel=0.35, abs=0.01
        )
    # Self times never exceed the wall they are part of.
    assert out.metrics["unattributed_s"] >= 0
    assert out.metrics["synth.generate_calls"] == 40


def test_serve_stats_reconcile(monkeypatch):
    monkeypatch.setattr(serve_load, "TRACE_REQUESTS", 40)
    monkeypatch.setattr(serve_load, "BULK_SEEDS", 20)
    monkeypatch.setattr(serve_load, "WARMUP_REQUESTS", 2)
    workload = serve_load.ServeWorkload(DEFAULT_SEED)
    workload.in_process = True
    out = RunOutcome()
    workload.setup()
    try:
        workload.trace(1.0, out)
    finally:
        workload.teardown()
    assert not out.check_failures and out.failed == 0
    kinds = out.detail["kinds"]
    metrics = out.metrics
    assert metrics["serve.computed"] == kinds.get("computed", 0)
    assert metrics["serve.store_hits"] == kinds.get("hit", 0)
    assert metrics["serve.dedup_hits"] == kinds.get("dedup", 0)
    puts = out.detail["reconcile"]["store_put_calls"]
    assert puts["ledger"] == puts["computed"]


# -- seeds, tables, packaging ------------------------------------------------------


@pytest.mark.parametrize("name", ["campaign", "synth160", "topology", "serve"])
def test_default_and_held_out_seeds_share_shapes(name):
    a = make_workload(name, DEFAULT_SEED).shapes()
    b = make_workload(name, HELD_OUT_SEED).shapes()
    for key in ("systems", "processes", "clusters", "gateways",
                "processes_constant"):
        assert a[key] == b[key], key
    for key in ("messages_mean", "can_messages_mean"):
        assert b[key] == pytest.approx(a[key], rel=0.15), key


def test_benchmark_json_matches_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert set(e2e) == set(common.END_TO_END)
    for name, (unit, better, bound) in common.END_TO_END.items():
        assert (e2e[name]["unit"], e2e[name]["better"], e2e[name]["bound"]) \
            == (unit, better, bound)
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    layers = {m["name"]: m for m in spec["per_layer"]}
    assert set(layers) == set(common.PER_LAYER)
    for name, (unit, better) in common.PER_LAYER.items():
        assert (layers[name]["unit"], layers[name]["better"]) == (unit, better)
    assert [w["name"] for w in spec["workloads"]] == [
        "campaign", "synth160", "topology", "serve"
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
