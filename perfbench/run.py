#!/usr/bin/env python3
"""The repro benchmark: four workloads, end-to-end metrics and a
per-layer ledger.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--workload`` is one of ``campaign``, ``synth160``, ``topology``,
``serve`` or ``all`` (every workload in turn, each in its own process,
summarised as a table).  The inputs are made from ``--seed``.  With
``--trace 0`` the run times the workload with tracing off and reports
the end-to-end metrics; with ``--trace 1`` it runs the workload once
untraced and once under the span ledger and reports the per-layer
metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is the run record: host and input stamp, the workload-specific
metrics by name, the layer shares and what the output checks found.  The
record and (traced runs) the spans are also written under
``.perfbench_work/``.  The exit code is 0 when every output check held,
1 when one failed and 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("campaign", "synth160", "topology", "serve")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: The seed results are quoted at, and one kept out of all tuning so a
#: claim can be re-checked on inputs it was not tuned on.  Both give the
#: same workload shapes (``perfbench/tests/test_ledger.py``).
DEFAULT_SEED = 1
HELD_OUT_SEED = 7_777
#: ``--seconds`` when none is given (``run_seconds`` in BENCHMARK.json).
DEFAULT_SECONDS = 20.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name: str, seed: int, seconds: float = DEFAULT_SECONDS):
    from perfbench.serve_load import ServeWorkload
    from perfbench.workloads import (
        CampaignWorkload,
        Synth160Workload,
        TopologyWorkload,
    )

    if name in ("synth160", "topology"):
        cls = Synth160Workload if name == "synth160" else TopologyWorkload
        return cls(seed, seconds)
    return {"campaign": CampaignWorkload, "serve": ServeWorkload}[name](seed)


def run_one(name: str, seed: int, seconds: float, trace: bool):
    """Set up, measure, check and tear down one workload run."""
    from perfbench import common
    from perfbench.common import RunOutcome

    workload = make_workload(name, seed, seconds)
    if trace:
        workload.in_process = True
    setups = []
    outcome = RunOutcome()
    ledger = None
    try:
        for rep in range(1 if trace else SETUP_REPS):
            if rep:
                workload.teardown()
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
        if trace:
            ledger = workload.trace(seconds, outcome)
        else:
            workload.measure(seconds, outcome)
        outcome.shapes = workload.shapes()
    finally:
        workload.teardown()

    attempted = max(1, outcome.attempted)
    failed_share = outcome.failed / attempted
    outcome.named["failed_share"] = failed_share
    if trace:
        table = common.PER_LAYER
    else:
        outcome.metrics["setup_s"] = common.median(setups)
        outcome.metrics["ok_share"] = 1.0 - failed_share
        outcome.metrics["peak_rss_mb"] = common.peak_rss_mb()
        table = {k: v[:2] for k, v in common.END_TO_END.items()}
    # A layer the workload never enters reads zero; an end-to-end
    # metric must always be measured.
    missing = [key for key in table if key not in outcome.metrics]
    if missing and not trace:
        outcome.check_failures.append(f"metrics not measured: {missing}")
    metrics = {
        key: {"value": outcome.metrics.get(key, 0.0), "unit": unit}
        for key, (unit, _) in table.items()
    }
    correct = not outcome.check_failures and outcome.failed == 0
    record = {
        "stamp": common.stamp(name, seed, trace, outcome.shapes),
        "named": {
            key: {"value": value, "unit": common.NAMED[key][0],
                  "better": common.NAMED[key][1]}
            for key, value in outcome.named.items()
        },
        "setup_runs_s": setups,
        "check_failures": outcome.check_failures[:20],
        "detail": outcome.detail,
    }
    if trace:
        record["layer_shares"] = common.layer_shares(outcome.metrics)
    common.WORK.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    (common.WORK / f"record-{tag}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n"
    )
    if ledger is not None:
        ledger.write(common.WORK / f"spans-{tag}.jsonl.gz")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return record, result


def run_all(args) -> int:
    """Every workload in its own process; a table of named metrics."""
    status = 0
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            status = 1
            continue
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        for key, entry in {**result["metrics"], **record["named"]}.items():
            rows.append((name, key, entry["value"], entry["unit"],
                         entry.get("better", "")))
        rows.append((name, "correct", result["correct"], "", ""))
    for row in rows:
        print("{:<10} {:<34} {:>14} {:<6} {}".format(
            row[0], row[1],
            f"{row[2]:.6g}" if isinstance(row[2], float) else str(row[2]),
            row[3], row[4],
        ))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program at src/repro to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Terminated from outside: unwind, so teardown stops the daemon.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    record, result = run_one(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(record, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
